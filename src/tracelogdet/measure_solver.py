"""Moment-constrained atomic-measure programs behind the k-trace bounds.

Maximizes or minimizes ``E[log X]`` over probability measures on
``[lo, cap]`` with ``E[X**j] = M_j`` for ``j = 1..k``; ``lo`` is a tiny atom
floor (max sense) or the spectral floor ``r`` (min sense), and
``cap = 1e3 * M_k**(1/k)``.  The (k+1)-th derivative of log,
``(-1)**k k! / x**(k+1)``, keeps one sign on ``(0, inf)``, so by the
Markov-Krein theorem (Karlin & Studden, *Tchebycheff Systems*, 1966,
ch. IV; Krein & Nudelman, *The Markov Moment Problem*, 1977) both optima
are principal representations: canonical quadrature rules of the moments.

    k      max sense                    min sense
    odd    Gauss, (k+1)/2 nodes         Lobatto, nodes pinned at r and cap
    even   Radau, node pinned at cap    Radau, node pinned at r

The rules come from the three-term recurrence of the moments, followed by
a few Newton steps on the square moment system.  When the recurrence
breaks down the moments lie on the boundary of the moment space: a
single measure represents them, and it serves both senses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BIG_CAP = 1e3  # atom cap multiplier on M_k**(1/k)
_TOL_FEAS = 1e-8  # max moment residual, each scaled by max(1, M_j)
_ATOM_FLOOR = 1e-12  # support floor of the max sense
_SUPPORT_RTOL = 1e-9  # round-off allowed at the ends of [lo, cap]


class InfeasibleError(RuntimeError):
    """No measure on the allowed support reproduces the moments."""


@dataclass(frozen=True)
class AtomicMeasure:
    """Weighted atoms ``(x_i, w_i)`` with ``sum w = 1``, sorted by location."""

    x: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        w = np.asarray(self.w, dtype=float)
        order = np.argsort(x)
        object.__setattr__(self, "x", x[order])
        object.__setattr__(self, "w", w[order])
        if np.any(self.x <= 0) or np.any(self.w < 0):
            raise ValueError("atoms must be positive with nonnegative weights")
        if abs(math.fsum(self.w) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.x.tolist(), self.w.tolist()))

    def log_mean(self) -> float:
        return math.fsum(wi * math.log(xi) for xi, wi in zip(self.x, self.w))

    def moment(self, j: int) -> float:
        return math.fsum(wi * xi ** j for xi, wi in zip(self.x, self.w))


def moment_residual(mu: AtomicMeasure, M) -> float:
    """Largest absolute deviation of the measure's moments from ``M_1..M_k``."""
    M = np.asarray(M, dtype=float)
    return max(abs(mu.moment(j + 1) - M[j]) for j in range(M.size))


def _recurrence(mom: np.ndarray):
    """Recurrence ``a_0..a_{(L-1)//2}``, ``b_0..b_{L//2}`` of ``m_0..m_L``.

    Chebyshev's algorithm.  If ``||p_j||**2`` vanishes first, a j-atom
    measure represents the moments: returns the coefficients below j and j.
    """
    L = mom.size - 1
    a, b = [mom[1] / mom[0]], [mom[0]]
    sig_prev, sig = np.zeros(L + 1), mom.astype(float)
    for j in range(1, L // 2 + 1):
        sig_new = np.zeros(L + 1)
        i = np.arange(j, L - j + 1)
        sig_new[i] = sig[i + 1] - a[j - 1] * sig[i] - b[j - 1] * sig_prev[i]
        if sig_new[j] <= 0 or sig_new[j] < 1e-13 * abs(sig[j - 1]):
            return np.array(a[:j]), np.array(b[:j]), j
        b.append(sig_new[j] / sig[j - 1])
        if j <= (L - 1) // 2:
            a.append(sig_new[j + 1] / sig_new[j] - sig[j] / sig[j - 1])
        sig_prev, sig = sig, sig_new
    return np.array(a), np.array(b), None


def _jacobi_rule(diag, offdiag_sq):
    """Nodes and unit-mass weights of a Jacobi matrix (Golub-Welsch)."""
    if not np.all(np.isfinite(np.append(diag, offdiag_sq))):
        raise InfeasibleError("the moments define no quadrature rule")
    off = np.sqrt(offdiag_sq)
    vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                                + np.diag(off, -1))
    return vals, vecs[0] ** 2


def _ratio(a, b, z: float) -> float:
    """``p_{n-1}(z) / p_n(z)`` of the monic orthogonal polynomials, n = |a|."""
    pm, p = 0.0, 1.0
    for i in range(a.size):
        pm, p = p, (z - a[i]) * p - (b[i] * pm if i > 0 else 0.0)
    return pm / p if p != 0.0 else -math.inf


def _polish(x, w, free, mom):
    """Newton steps on ``sum_i w_i x_i**j = m_j`` while the residual drops."""
    js = np.arange(mom.size)[:, None]
    res = ((x ** js) @ w - mom) / mom
    for _ in range(6):
        if np.max(np.abs(res)) < 1e-14:  # already at round-off
            break
        dx = js * x ** np.maximum(js - 1, 0) * w
        J = np.hstack([dx[:, free], x ** js]) / mom[:, None]
        norms = np.linalg.norm(J, axis=0)
        norms[norms == 0] = 1.0
        step = np.linalg.lstsq(J / norms, -res, rcond=None)[0] / norms
        x2, w2 = x.copy(), w + step[free.sum():]
        x2[free] += step[:free.sum()]
        res2 = ((x2 ** js) @ w2 - mom) / mom
        if np.any(w2 < 0) or not np.max(np.abs(res2)) < np.max(np.abs(res)):
            break
        x, w, res = x2, w2, res2
    return x, w


def _extremal(sense: str, Mfull: np.ndarray, lo: float, cap: float):
    """Nodes and weights of the rule in the module table, before checks."""
    k = Mfull.size - 1
    # moments of x/c equilibrate the recursion and the Newton system
    c = max(Mfull[-1] ** (1.0 / k), 1e-8)
    mom = Mfull / c ** np.arange(k + 1)
    a, b, exhausted = _recurrence(mom)
    pins = []  # locations of the pinned nodes
    if exhausted is not None:  # boundary sequence: its unique measure
        x, w = _jacobi_rule(a, b[1:])
    elif k % 2 == 0:  # Radau: p_{n+1} vanishes at the pinned end
        pins = [cap if sense == "max" else lo]
        z = pins[0] / c
        x, w = _jacobi_rule(np.append(a, z - b[-1] * _ratio(a, b, z)), b[1:])
    else:
        bN = 0.0
        if sense == "min":  # Lobatto: p_{N+1} vanishes at both ends
            r_lo = _ratio(a, b, lo / c)
            bN = (cap - lo) / c / (_ratio(a, b, cap / c) - r_lo)
        if bN > 0:
            pins = [lo, cap]
            x, w = _jacobi_rule(np.append(a, lo / c - bN * r_lo),
                                np.append(b[1:], bN))
        else:  # Gauss, also when round-off at a floor drives a Lobatto bN <= 0
            x, w = _jacobi_rule(a, b[1:])
    fixed = [int(np.argmin(np.abs(c * x - z))) for z in pins]
    free = np.ones(x.size, dtype=bool)
    free[fixed] = False
    x[fixed] = np.array(pins) / c
    x, w = _polish(x, w, free, mom)
    x = c * x
    x[fixed] = pins
    return x, w


def _fixed_two_point(M: np.ndarray, w):
    """Atoms ``1 - s sqrt(w_2/w_1)``, ``1 + s sqrt(w_1/w_2)``, s**2 = M_2-1."""
    w = np.asarray(w, dtype=float)
    if M.size != 2 or w.shape != (2,) or not np.all(w > 0):
        raise ValueError("fixed_weights takes two positive weights and k = 2")
    s = math.sqrt(M[1] - 1.0)
    return np.array([1 - s * math.sqrt(w[1] / w[0]),
                     1 + s * math.sqrt(w[0] / w[1])]), w


def solve(sense: str, M, r: float | None = None, *,
          fixed_weights=None) -> tuple[float, AtomicMeasure]:
    """Extremal ``E[log X]`` over measures matching moments ``M_1..M_k``.

    ``sense`` is "max" or "min"; "min" needs a support floor ``r > 0``.
    Returns ``(objective, witness)``, the witness within 1e-8 of every
    moment (scaled by ``max(1, M_j)``) with atoms in ``[lo, cap]``, or
    raises ``InfeasibleError``.  ``fixed_weights`` freezes the weights of
    the lower and the upper atom (k = 2), which fixes both atoms; it
    cross-checks closed forms that presuppose that profile.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    M = np.asarray(M, dtype=float)
    k = M.size
    if k < 1 or abs(M[0] - 1.0) > 1e-12:
        raise ValueError("need normalized moments with M_1 = 1")
    if sense == "min" and (r is None or r <= 0):
        raise ValueError("min sense requires a floor r > 0")
    if sense == "min" and r >= 1.0 and (k < 2 or M[1] > 1.0):
        raise InfeasibleError("floor r >= 1 is incompatible with M_1 = 1")
    if k >= 2 and M[1] < 1.0 - 1e-12:
        raise InfeasibleError("M_2 < 1 violates Jensen")
    # M_2 = 1 forces X = 1 a.s.; with k = 1 the point mass is the maximum
    if (k >= 2 and M[1] <= 1.0 + 1e-12) or (k == 1 and sense == "max"):
        return 0.0, AtomicMeasure(np.array([1.0]), np.array([1.0]))
    Mfull = np.concatenate([[1.0], M])
    cap = _BIG_CAP * max(M[-1] ** (1.0 / k), 1.0)
    lo = r if sense == "min" else _ATOM_FLOOR
    x, w = (_extremal(sense, Mfull, lo, cap) if fixed_weights is None
            else _fixed_two_point(M, fixed_weights))
    if not (x.min() >= lo * (1 - _SUPPORT_RTOL)
            and x.max() <= cap * (1 + _SUPPORT_RTOL)):
        raise InfeasibleError(
            f"extremal measure has atoms in [{x.min():.6g}, {x.max():.6g}], "
            f"outside the support [{lo:.6g}, {cap:.6g}]")
    mu = AtomicMeasure(x, w / math.fsum(w))
    resid = max(abs(mu.moment(j) - Mfull[j]) / max(1.0, Mfull[j])
                for j in range(1, k + 1))
    if not resid <= _TOL_FEAS:
        raise InfeasibleError(f"extremal measure misses the moments by "
                              f"{resid:.1e} (tolerance {_TOL_FEAS:.0e})")
    return mu.log_mean(), mu
