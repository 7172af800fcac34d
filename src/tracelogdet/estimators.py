"""Point estimators of ``K'(0) = log(GM/AM)`` from integer cumulant samples.

The workhorse is the order-m interpolation estimator: differentiate the
degree-m polynomial through ``K(0), K(1), ..., K(m)`` at zero.  Its weights
have the closed form ``w_j = (-1)**(j-1) * C(m,j) / j``, computed here as
exact rationals.  Also provided: the two-trace closed form that is exact
for lognormal spectra, the classical central-moment (volatility-drag)
series, and the transformed-sample variant for arbitrary power transforms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .moments import CumulantSamples, NormalizedMoments, boxcox_samples, cumulants

_MAX_ORDER = 64


@dataclass(frozen=True)
class WeightVector:
    """Derivative-at-zero weights of the Lagrange basis on nodes 0..m.

    ``w[j-1] = w_j`` for ``j = 1..m``, a tuple of floats, and
    ``w0_exact = -H_m`` (minus the m-th harmonic number).  Exact Fractions
    are kept alongside the float values because the identities they
    satisfy are tested exactly.
    """

    m: int
    w: tuple[float, ...]
    w0_exact: Fraction
    w_exact: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(map(float, self.w)))


@dataclass(frozen=True)
class EstimateReport:
    method: str
    m: int
    kprime0_hat: float
    gm_over_am_hat: float
    logdet_hat: float | None = None
    alpha: complex | None = None


@functools.lru_cache(maxsize=None)
def lagrange_weights(m: int) -> WeightVector:
    """Exact interpolation derivative weights for nodes ``{0, 1, ..., m}``.

    Cached per order.
    """
    if not 2 <= m <= _MAX_ORDER:
        raise ValueError(f"m must lie in [2, {_MAX_ORDER}]")
    w_exact = tuple(Fraction((-1) ** (j - 1) * math.comb(m, j), j)
                    for j in range(1, m + 1))
    w0_exact = -sum(Fraction(1, k) for k in range(1, m + 1))
    return WeightVector(m=m, w=w_exact, w0_exact=w0_exact, w_exact=w_exact)


def _finish(method, m, kprime0_hat, n=None, am=None, alpha=None):
    logdet = None
    if n is not None and am is not None:
        logdet = n * (math.log(am) + kprime0_hat)
    try:
        ratio = math.exp(kprime0_hat)
    except OverflowError:
        ratio = math.inf  # divergent series estimates overshoot the range
    return EstimateReport(method=method, m=m, kprime0_hat=kprime0_hat,
                          gm_over_am_hat=ratio,
                          logdet_hat=logdet, alpha=alpha)


def k0m_estimate(K: CumulantSamples, m: int, *, n: int | None = None,
                 am: float | None = None) -> EstimateReport:
    """Order-m interpolation estimate ``sum_j w_j K(j)``.

    The anchors ``K(0) = K(1) = 0`` contribute nothing, so only nodes
    ``j >= 2`` appear.  The sum is compensated: for large m the weights
    grow like ``2**m`` and the terms nearly cancel.
    """
    if m > K.m:
        raise ValueError(f"need cumulant samples up to {m}, have {K.m}")
    wv = lagrange_weights(m)
    hat = math.fsum(wv.w[j - 1] * K.K[j] for j in range(2, m + 1))
    return _finish("k0m", m, hat, n, am)


def lognormal_closed_form(p1: float, p2: float, n: int) -> EstimateReport:
    """Two-trace geometric-mean estimate ``p1**2 / (n * sqrt(n * p2))``.

    Exact when the normalized spectrum is (population) lognormal, where
    the log-moment curve is a quadratic pinned at K(0) = K(1) = 0.
    """
    if p1 <= 0 or p2 <= 0:
        raise ValueError("traces must be positive")
    hat = math.log(p1 / math.sqrt(n * p2))
    return _finish("lognormal_closed", 2, hat, n, p1 / n)


def latane_estimate(mu, order: int) -> EstimateReport:
    """Central-moment series ``sum_k (-1)**(k-1) mu_k / k`` (mean-1 inputs).

    The classical volatility-drag expansion.  It diverges once eigenvalues
    leave ``(0, 2*AM)``; that divergence is documented behavior, not an
    error.
    """
    if order < 2 or len(mu) < order - 1:
        raise ValueError(f"need central moments 2..{order}")
    hat = math.fsum((-1.0) ** (k - 1) * mu[k - 2] / k
                    for k in range(2, order + 1))
    return _finish("latane", order, hat)


def transform_estimate(G, alpha: complex, m: int) -> EstimateReport:
    """Interpolation estimate on power-transformed samples ``G(0..m)``.

    Any transform of the moment curve that is analytic near ``M = 1`` with
    nonzero derivative there carries the same first-order information;
    the divisor ``f'(1)`` equals 1 for the whole family used here, so the
    weighted sum is returned as-is (real part).
    """
    if G[0] != 0.0 or G[1] != 0.0:
        raise ValueError("transformed samples must have G(0) = G(1) = 0")
    if m > len(G) - 1:
        raise ValueError(f"need samples up to {m}, have {len(G) - 1}")
    wv = lagrange_weights(m)
    hat = math.fsum(wv.w[j - 1] * G[j] for j in range(2, m + 1))
    return _finish("boxcox", m, hat, alpha=complex(alpha))


def cv_diagnostic(nm: NormalizedMoments, m: int) -> float:
    """Spread (in %) of the estimate across transform exponents.

    Evaluates the order-m estimate at power exponents -0.3, 0 (log) and
    +0.3 and returns ``100 * std / |mean|``.  Values above ~20% flag
    spectra on which straight log-domain interpolation is unreliable.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    ests = [
        transform_estimate(boxcox_samples(nm, -0.3), -0.3, m).kprime0_hat,
        k0m_estimate(cumulants(nm), m).kprime0_hat,
        transform_estimate(boxcox_samples(nm, +0.3), +0.3, m).kprime0_hat,
    ]
    # population mean and SD, summed left to right as numpy sums 3 values
    mean = (ests[0] + ests[1] + ests[2]) / 3
    d0, d1, d2 = (x - mean for x in ests)
    spread = math.sqrt((d0 * d0 + d1 * d1 + d2 * d2) / 3)
    if spread == 0.0:
        return 0.0
    if mean == 0.0:
        raise ZeroDivisionError("coefficient of variation undefined: mean 0")
    return 100.0 * spread / abs(mean)
