"""Moment pipeline: trace powers -> normalized moments -> cumulant samples.

All estimators and bounds consume the mean-normalized eigenvalue variable
``x_i = lambda_i / AM`` through its moments ``M_k = mean(x**k)``.  With
``M_1 = 1`` the cumulant samples ``K(k) = log M_k`` satisfy
``K(0) = K(1) = 0`` exactly, which anchors every interpolation scheme
downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_EPS = math.ulp(1.0)
# assumed relative accuracy of incoming power sums
_EPS_INPUT = 8 * _EPS
# relative error estimate above which Newton-identity output is garbage
_CANCEL_TOL = 1e-6
# round-off pad of logE_k per unit of |log e_k| + k (log n + k)
_LOGE_PAD = 6 * math.ulp(1.0)


class CancellationError(ArithmeticError):
    """Newton's identities lost too many digits to alternating cancellation."""


class InfeasibleError(RuntimeError):
    """No measure on the allowed support reproduces the moments.

    ``measure_solver`` raises it; it lives here so that callers can catch
    it without loading the solver.  ``bounds_report`` catches it as a
    ``RuntimeError``.
    """


@dataclass(frozen=True)
class TracePowers:
    """Power sums ``p_k``, ``k = 1..m``, of an n-point spectrum.

    This is the only matrix-derived input the toolkit ever sees.  ``p`` is
    a fresh list of floats, ``p[k-1] = p_k``: editing a copy of it and
    building new TracePowers from the copy leaves this one alone.
    """

    n: int
    p: list[float]

    def __post_init__(self):
        p = list(map(float, self.p))
        object.__setattr__(self, "p", p)
        if self.n < 1:
            raise ValueError("n must be positive")
        if not p:
            raise ValueError("need at least p_1")
        if not all(map(math.isfinite, p)):
            raise ValueError("trace powers must be finite")
        if not all(pk > 0 for pk in p):
            raise ValueError("trace powers of an SPD matrix must be positive")

    @property
    def m(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class NormalizedMoments:
    """Moments ``M_k = n**(k-1) * p_k / p_1**k`` with ``M_1 = 1`` exact.

    ``M`` is a tuple of floats, ``M[k-1] = M_k``.
    """

    n: int
    M: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "M", tuple(map(float, self.M)))
        if self.M[0] != 1.0:
            raise ValueError("M_1 must be exactly 1")
        for k, Mk in enumerate(self.M, 1):
            if not 0 < Mk < math.inf:
                raise ValueError(f"moment M_{k} = {Mk:g} is not positive "
                                 "and finite")

    @property
    def m(self) -> int:
        return len(self.M)


@dataclass(frozen=True)
class CumulantSamples:
    """Integer samples ``K(0..m)`` of the log-moment curve, ``K[0]=K[1]=0``.

    ``K`` is a tuple of floats, ``K[j] = K(j)``.
    """

    K: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "K", tuple(map(float, self.K)))
        if self.K[0] != 0.0 or self.K[1] != 0.0:
            raise ValueError("K(0) and K(1) must be exactly 0")

    @property
    def m(self) -> int:
        return len(self.K) - 1


@dataclass(frozen=True)
class SymmetricMeans:
    """Log of normalized elementary symmetric means, as tuples of floats.

    ``logE[k-1] = log(e_k / C(n,k))``.  For mean-normalized inputs
    ``logE_1 = 0`` and the slopes ``logE_k - logE_{k-1}`` (``logE_0 = 0``)
    are nonincreasing.  ``delta[k-1]``, when present, bounds the absolute
    error of ``logE[k-1]``; empty means exact to rounding.
    """

    n: int
    logE: tuple[float, ...]
    delta: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "logE", tuple(map(float, self.logE)))
        object.__setattr__(self, "delta", tuple(map(float, self.delta)))


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf  # NormalizedMoments refuses it


def _normalized_powers(p: list[float], n: int) -> list[float]:
    """``M_k = n**(k-1) * p_k / p_1**k`` of positive ``p``, ``M_1 = 1``.

    ``noise.monte_carlo`` runs this on every trial, so that its estimates
    equal ``normalize`` -> ``cumulants`` -> ``k0m_estimate`` bit for bit.
    """
    am = p[0] / n
    try:
        M = [pk / (n * am ** k) for k, pk in enumerate(p[1:], 2)]
        if all(map(math.isfinite, M)):
            return [1.0, *M]
    except (OverflowError, ZeroDivisionError):
        pass
    # the rescaling over- or underflowed even though M_k itself may be
    # representable: take every moment through logs
    log_n, log_p1 = math.log(n), math.log(p[0])
    return [1.0, *(_exp(math.log(pk) + (k - 1) * log_n - k * log_p1)
                   for k, pk in enumerate(p[1:], 2))]


def normalize(tp: TracePowers) -> NormalizedMoments:
    """Trace powers to normalized moments, forcing ``M_1 = 1`` exactly."""
    return NormalizedMoments(n=tp.n, M=_normalized_powers(tp.p, tp.n))


def cumulants(nm: NormalizedMoments) -> CumulantSamples:
    return CumulantSamples(K=(0.0, 0.0, *map(math.log, nm.M[1:])))


def log_binomial(n: int, k: int) -> float:
    """``log C(n, k)`` as ``k log n - log k! + sum_{i<k} log1p(-i/n)``.

    Each term keeps its relative accuracy for small k and any n; the
    ``lgamma(n+1) - lgamma(n-k+1)`` form cancels two terms of size
    ``n log n`` and loses about ``eps * n * log n`` (2e-5 at n = 1e10).
    """
    return (k * math.log(n) - math.lgamma(k + 1)
            + math.fsum([math.log1p(-i / n) for i in range(1, k)]))


def newton_maclaurin(q, n: int) -> SymmetricMeans:
    """Elementary symmetric means from power sums via Newton's identities.

    ``q`` holds the normalized power sums ``q_1..q_m`` (``q_k = n * M_k``).
    The recurrence ``k*e_k = sum_j (-1)**(j-1) e_{k-j} q_j`` alternates in
    sign, so a running error bound ``err_k`` is propagated; if any ``e_k``
    is nonpositive or its estimated relative error exceeds 1e-6 a
    CancellationError is raised rather than returning garbage.

    ``logE_k = log e_k - log C(n, k)`` subtracts two numbers of size about
    ``k log n``, so it carries the pad
    ``delta_k = err_k/e_k + 6 eps (|log e_k| + k (log n + k))``.  With
    ``u = eps/2``, each libm call within one ulp and ``err_k/e_k <= 1e-6``,
    to first order in eps:

    - ``log e_k`` is off by ``err_k/e_k`` from the error of ``e_k``, and
      ``math.log`` adds ``eps |log e_k|``;
    - ``log_binomial`` sums ``k log n``, ``-log k!`` and ``S``, the sum of
      ``log1p(-i/n)`` over ``i < k``, each of size at most ``k log n``.
      Rounding adds ``3/2 eps k log n`` to the first, ``eps log k!`` to
      the second, and ``eps |S| + u sum i/(n-i)`` with ``i/(n-i) <= k-1``
      to the third; ``fsum`` and the two additions add ``3 u k log n``;
    - the final subtraction adds ``u (|log e_k| + k log n)``.

    So ``logE_k`` is off by at most
    ``err_k/e_k + eps (3/2 |log e_k| + 11/2 k log n + k**2/2)``.  The pad
    covers that, the second-order terms and the rounding of the padded
    value itself.
    """
    m = len(q)
    if m > n:
        raise ValueError("cannot form e_k beyond k = n")
    e = [1.0]
    err = [0.0]
    for k in range(1, m + 1):
        terms = [(-1.0) ** (j - 1) * e[k - j] * q[j - 1]
                 for j in range(1, k + 1)]
        s = math.fsum(terms)
        e_k = s / k
        abs_terms = math.fsum(abs(t) for t in terms)
        err_k = (math.fsum(err[k - j] * q[j - 1] for j in range(1, k + 1))
                 + abs_terms * _EPS_INPUT) / k
        if e_k <= 0 or err_k > _CANCEL_TOL * e_k:
            raise CancellationError(
                f"e_{k} lost too much precision (value {e_k:.3e}, "
                f"error estimate {err_k:.3e})")
        e.append(e_k)
        err.append(err_k)
    log_n = math.log(n)
    logE, delta = [], []
    for k in range(1, m + 1):
        log_e = math.log(e[k])
        logE.append(log_e - log_binomial(n, k))
        delta.append(err[k] / e[k]
                     + _LOGE_PAD * (abs(log_e) + k * (log_n + k)))
    return SymmetricMeans(n=n, logE=logE, delta=delta)


def esp_from_values(values, m: int) -> list[float]:
    """Elementary symmetric polynomials ``e_1..e_m`` of positive values.

    All-positive accumulation, so unlike the Newton-identity route there
    is no cancellation; the oracle for the tests and for the
    ``bounds-comparison`` table.
    """
    e = [1.0] + [0.0] * m
    for i, v in enumerate(values):
        for j in range(min(i + 1, m), 0, -1):
            e[j] += v * e[j - 1]
    return e[1:]


def symmetric_means_from_eigenvalues(eigenvalues, m: int) -> SymmetricMeans:
    """Cancellation-free SymmetricMeans straight from explicit eigenvalues."""
    lam = list(map(float, eigenvalues))
    n = len(lam)
    am = math.fsum(lam) / n
    x = [v / am for v in lam]
    e = esp_from_values(x, m)
    logE = [math.log(e[k - 1]) - log_binomial(n, k) for k in range(1, m + 1)]
    return SymmetricMeans(n=n, logE=logE)


def central_moments(nm: NormalizedMoments, order: int) -> tuple[float, ...]:
    """Central moments ``mu_k = E[(X-1)**k]`` for ``k = 2..order``.

    A tuple of floats, ``mu[k-2] = mu_k``.
    """
    if order < 2 or order > nm.m:
        raise ValueError("order must lie in [2, m]")
    M = (1.0, *nm.M)  # M[j] = M_j with M_0 = 1
    return tuple(math.fsum([math.comb(k, j) * (-1.0) ** (k - j) * M[j]
                            for j in range(k + 1)])
                 for k in range(2, order + 1))


def boxcox_samples(nm: NormalizedMoments, alpha: complex) -> tuple[float, ...]:
    """Power-transformed samples ``G(k) = Re[(M_k**alpha - 1)/alpha]``.

    A tuple of floats, ``G[k] = G(k)`` for ``k = 0..m``.  ``alpha`` may be
    complex; the log-domain limit ``alpha -> 0`` is served by ``cumulants``
    instead.  ``G(0) = G(1) = 0`` exactly, matching the cumulant anchors,
    and the transform has unit derivative at ``M = 1``, so the
    interpolation weights need no rescaling.
    """
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("alpha = 0 means the log transform: use cumulants()")
    return (0.0, 0.0, *(((complex(Mk) ** alpha - 1.0) / alpha).real
                        for Mk in nm.M[1:]))
