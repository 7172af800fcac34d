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

The rules come from the three-term recurrence of the moments (Golub &
Welsch, *Calculation of Gauss quadrature rules*, 1969): the nodes are the
eigenvalues of its Jacobi matrix, and the weights its Christoffel numbers,
which keep their relative accuracy down to the smallest weight.  When the
recurrence breaks down the moments lie on the boundary of the moment space:
a single measure represents them, and it serves both senses.

The moments have a handful of entries, so everything runs on Python
floats: the recurrence, the weights, the pins, the checks and the nodes.
The nodes come from LAPACK's ``dsterf`` (Anderson et al., *LAPACK Users'
Guide*, 3rd ed., 1999), translated operation for operation: the
Pal-Walker-Kahan root-free variant of the QL algorithm (Parlett, *The
Symmetric Eigenvalue Problem*, 1998, ch. 8), without eigenvectors.  It is
the routine ``numpy.linalg.eigvalsh`` runs on a tridiagonal matrix, so the
nodes agree with it to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .moments import InfeasibleError

_BIG_CAP = 1e3  # atom cap multiplier on M_k**(1/k)
_TOL_FEAS = 1e-8  # max moment residual, each scaled by max(1, M_j)
_ATOM_FLOOR = 1e-12  # support floor of the max sense
_SUPPORT_RTOL = 1e-9  # round-off allowed at the ends of [lo, cap]
# M_2 within this of 1 is the point mass at 1: round-off in the traces of
# c * I lands M_2 a few ulps on either side of 1
POINT_MASS_TOL = 1e-12
_EPS = 2.0 ** -53  # unit roundoff, LAPACK's dlamch("E")
_EPS2 = _EPS * _EPS


@dataclass(frozen=True)
class AtomicMeasure:
    """Weighted atoms ``(x_i, w_i)`` with ``sum w = 1``, sorted by location.

    ``x`` and ``w`` are tuples of floats of the same length.
    """

    x: tuple[float, ...]
    w: tuple[float, ...]

    def __post_init__(self):
        x, w = tuple(map(float, self.x)), tuple(map(float, self.w))
        if len(x) != len(w):
            raise ValueError(f"{len(x)} atoms but {len(w)} weights")
        order = sorted(range(len(x)), key=x.__getitem__)
        x, w = tuple(x[i] for i in order), tuple(w[i] for i in order)
        if any(xi <= 0 for xi in x) or any(wi < 0 for wi in w):
            raise ValueError("atoms must be positive with nonnegative weights")
        if abs(math.fsum(w) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.x, self.w))

    def log_mean(self) -> float:
        return math.fsum(wi * math.log(xi) for xi, wi in zip(self.x, self.w))

    def moment(self, j: int) -> float:
        return math.fsum([wi * xi ** j for xi, wi in zip(self.x, self.w)])


def _moments(x: list[float], w: list[float], k: int) -> list[float]:
    """``sum_i w_i x_i**j`` for ``j = 1..k``, each sum rounded once."""
    return [math.fsum(col) for col in zip(*(
        [wi * xi ** j for j in range(1, k + 1)] for xi, wi in zip(x, w)))]


def moment_residual(mu: AtomicMeasure, M) -> float:
    """Largest absolute deviation of the measure's moments from ``M_1..M_k``."""
    return max(abs(mu.moment(j) - Mj) for j, Mj in enumerate(M, 1))


def _recurrence(mom: list[float]):
    """Recurrence ``a_0..a_{(L-1)//2}``, ``b_0..b_{L//2}`` of ``m_0..m_L``.

    Chebyshev's algorithm.  If ``||p_j||**2`` vanishes first, a j-atom
    measure represents the moments: returns the coefficients below j and j.
    """
    L = len(mom) - 1
    a, b = [mom[1] / mom[0]], [mom[0]]
    sig_prev, sig = [0.0] * (L + 1), list(mom)
    for j in range(1, L // 2 + 1):
        aj, bj = a[j - 1], b[j - 1]
        sig_new = [0.0] * (L + 1)
        for i in range(j, L - j + 1):
            sig_new[i] = sig[i + 1] - aj * sig[i] - bj * sig_prev[i]
        if sig_new[j] <= 0 or sig_new[j] < 1e-13 * abs(sig[j - 1]):
            return a[:j], b[:j], j
        b.append(sig_new[j] / sig[j - 1])
        if j <= (L - 1) // 2:
            a.append(sig_new[j + 1] / sig_new[j] - sig[j] / sig[j - 1])
        sig_prev, sig = sig, sig_new
    return a, b, None


def _hypot(x: float, y: float) -> float:
    """``sqrt(x**2 + y**2)`` rounded as LAPACK's ``dlapy2`` rounds it."""
    w, z = max(abs(x), abs(y)), min(abs(x), abs(y))
    if z == 0.0:
        return w
    q = z / w
    return w * math.sqrt(1.0 + q * q)


def _eigenvalues_2x2(a: float, b: float, c: float) -> tuple[float, float]:
    """Eigenvalues of ``[[a, b], [b, c]]``, larger magnitude first (``dlae2``).

    The smaller one comes from the determinant, which keeps it accurate.
    """
    sm = a + c
    rt = _hypot(a - c, b + b)
    if sm == 0.0:
        return 0.5 * rt, -0.5 * rt
    rt1 = 0.5 * (sm - rt) if sm < 0 else 0.5 * (sm + rt)
    big, small = (a, c) if abs(a) > abs(c) else (c, a)
    return rt1, (big / rt1) * small - (b / rt1) * b


def _root_free_ql(d: list[float], e2: list[float], sweeps: int) -> int:
    """Eigenvalues of one unreduced block into ``d``; returns sweeps left.

    ``e2`` holds the squared subdiagonal.  Pal-Walker-Kahan QL: shifted
    like implicit QL, but on the squares, so a sweep takes no square root.
    """
    l, last = 0, len(d) - 1
    while l <= last:
        m = l  # the first negligible subdiagonal entry at or below l
        while m < last and not abs(e2[m]) <= _EPS2 * abs(d[m] * d[m + 1]):
            m += 1
        if m < last:
            e2[m] = 0.0
        if m == l:
            l += 1
            continue
        if m == l + 1:
            d[l], d[l + 1] = _eigenvalues_2x2(d[l], math.sqrt(e2[l]),
                                              d[l + 1])
            e2[l] = 0.0
            l += 2
            continue
        if sweeps == 0:
            raise InfeasibleError("the QL iteration did not converge")
        sweeps -= 1
        p = d[l]
        rte = math.sqrt(e2[l])
        sigma = (d[l + 1] - p) / (2.0 * rte)
        sigma = p - rte / (sigma + math.copysign(_hypot(sigma, 1.0), sigma))
        c, s = 1.0, 0.0
        gamma = d[m] - sigma
        p = gamma * gamma
        for i in range(m - 1, l - 1, -1):
            bb = e2[i]
            r = p + bb
            if i != m - 1:
                e2[i + 1] = s * r
            oldc, c, s = c, p / r, bb / r
            oldgam = gamma
            gamma = c * (d[i] - sigma) - s * oldgam
            d[i + 1] = oldgam + (d[i] - gamma)
            p = gamma * gamma / c if c != 0.0 else oldc * bb
        e2[l] = s * p
        d[l] = sigma + gamma
    return sweeps


def _tridiagonal_eigenvalues(diag: list[float],
                             off: list[float]) -> list[float]:
    """Ascending eigenvalues of the symmetric tridiagonal matrix.

    ``diag`` is its diagonal and ``off`` its subdiagonal.  This is LAPACK's
    ``dsterf``, which ``numpy.linalg.eigvalsh`` runs on a tridiagonal
    matrix, operation for operation, so the nodes agree with eigvalsh's to
    the bit: split where ``off`` is negligible, then iterate on each block,
    QL from the end of smaller magnitude (QR is QL on the reversed block).
    dsterf also rescales a block whose entries pass about 1e153 or all stay
    below about 1e-122; moments equilibrated to order 1 never get there.
    """
    d, n = list(diag), len(diag)
    sweeps = 30 * n
    start = 0
    while start < n:
        end = start
        while end < n - 1 and not abs(off[end]) <= (
                math.sqrt(abs(d[end])) * math.sqrt(abs(d[end + 1]))) * _EPS:
            end += 1
        block, e2 = d[start:end + 1], [v * v for v in off[start:end]]
        if abs(block[-1]) < abs(block[0]):
            block.reverse()
            e2.reverse()
        sweeps = _root_free_ql(block, e2, sweeps)
        d[start:end + 1] = block
        start = end + 1
    return sorted(d)


def _jacobi_rule(diag: list[float], offdiag_sq: list[float]):
    """Nodes of a Jacobi matrix and their Christoffel numbers, unit mass.

    The weight of node x is ``1 / sum_{j<n} p_j(x)**2 / ||p_j||**2`` over
    the monic recurrence of the matrix, ``||p_j||**2 = b_0 ... b_j``: a sum
    of positive terms, so even the smallest weight keeps its relative
    accuracy (Gautschi, *Orthogonal Polynomials*, 2004, sec. 1.4 and 3.1).
    """
    if not all(map(math.isfinite, diag + offdiag_sq)):
        raise InfeasibleError("the moments define no quadrature rule")
    n = len(diag)
    x = _tridiagonal_eigenvalues(diag, [math.sqrt(v) for v in offdiag_sq])
    b = [1.0] + offdiag_sq  # b_0 = m_0 = 1
    w = []
    for z in x:
        pm, p, norm, total = 0.0, 1.0, 1.0, 1.0
        for j in range(n - 1):
            pm, p = p, (z - diag[j]) * p - b[j] * pm
            norm *= b[j + 1]
            total += p * p / norm
        w.append(1.0 / total)
    return x, w


def _ratio(a: list[float], b: list[float], z: float) -> float:
    """``p_{n-1}(z) / p_n(z)`` of the monic orthogonal polynomials, n = |a|."""
    pm, p = 0.0, 1.0
    for i in range(len(a)):
        pm, p = p, (z - a[i]) * p - (b[i] * pm if i > 0 else 0.0)
    return pm / p if p != 0.0 else -math.inf


def _extremal(sense: str, Mfull: list[float], lo: float, cap: float):
    """Nodes and weights of the rule in the module table, before checks."""
    k = len(Mfull) - 1
    # moments of x/c equilibrate the recursion
    c = max(Mfull[-1] ** (1.0 / k), 1e-8)
    mom = [Mj / c ** j for j, Mj in enumerate(Mfull)]
    a, b, exhausted = _recurrence(mom)
    pins = []  # locations of the pinned nodes
    if exhausted is not None:  # boundary sequence: its unique measure
        x, w = _jacobi_rule(a, b[1:])
    elif k % 2 == 0:  # Radau: p_{n+1} vanishes at the pinned end
        pins = [cap if sense == "max" else lo]
        z = pins[0] / c
        x, w = _jacobi_rule(a + [z - b[-1] * _ratio(a, b, z)], b[1:])
    else:
        bN = 0.0
        if sense == "min":  # Lobatto: p_{N+1} vanishes at both ends
            r_lo = _ratio(a, b, lo / c)
            bN = (cap - lo) / c / (_ratio(a, b, cap / c) - r_lo)
        if bN > 0:
            pins = [lo, cap]
            x, w = _jacobi_rule(a + [lo / c - bN * r_lo], b[1:] + [bN])
        else:  # Gauss, also when round-off at a floor drives a Lobatto bN <= 0
            x, w = _jacobi_rule(a, b[1:])
    x = [c * xi for xi in x]
    # snap the pinned nodes onto the ends they stand for
    fixed = [min(range(len(x)), key=lambda i: abs(x[i] - z)) for z in pins]
    for i, z in zip(fixed, pins):
        x[i] = z
    return x, w


def _fixed_two_point(M: list[float], w):
    """Atoms ``1 - s sqrt(w_2/w_1)``, ``1 + s sqrt(w_1/w_2)``, s**2 = M_2-1."""
    w = list(map(float, w))
    if len(M) != 2 or len(w) != 2 or not all(wi > 0 for wi in w):
        raise ValueError("fixed_weights takes two positive weights and k = 2")
    w1, w2 = w
    s = math.sqrt(M[1] - 1.0)
    return [1 - s * math.sqrt(w2 / w1), 1 + s * math.sqrt(w1 / w2)], [w1, w2]


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
    k = len(M)
    if k < 1 or abs(M[0] - 1.0) > 1e-12:
        raise ValueError("need normalized moments with M_1 = 1")
    if sense == "min" and (r is None or r <= 0):
        raise ValueError("min sense requires a floor r > 0")
    if (sense == "min" and r >= 1.0
            and (k < 2 or M[1] > 1.0 + POINT_MASS_TOL)):
        raise InfeasibleError("floor r >= 1 is incompatible with M_1 = 1")
    if k >= 2 and M[1] < 1.0 - POINT_MASS_TOL:
        raise InfeasibleError("M_2 < 1 violates Jensen")
    # M_2 = 1 forces X = 1 a.s.; with k = 1 the point mass is the maximum
    if ((k >= 2 and M[1] <= 1.0 + POINT_MASS_TOL)
            or (k == 1 and sense == "max")):
        return 0.0, AtomicMeasure([1.0], [1.0])
    Mfull = [1.0, *M]
    cap = _BIG_CAP * max(M[-1] ** (1.0 / k), 1.0)
    lo = r if sense == "min" else _ATOM_FLOOR
    x, w = (_extremal(sense, Mfull, lo, cap) if fixed_weights is None
            else _fixed_two_point(M, fixed_weights))
    if not all(lo * (1 - _SUPPORT_RTOL) <= xi <= cap * (1 + _SUPPORT_RTOL)
               for xi in x):
        raise InfeasibleError(
            f"extremal measure has atoms in [{min(x):.6g}, {max(x):.6g}], "
            f"outside the support [{lo:.6g}, {cap:.6g}]")
    total = math.fsum(w)
    w = [wi / total for wi in w]
    mu = AtomicMeasure(x, w)
    resid = max(abs(got - Mj) / max(1.0, Mj)
                for got, Mj in zip(_moments(x, w, k), M))
    if not resid <= _TOL_FEAS:
        raise InfeasibleError(f"extremal measure misses the moments by "
                              f"{resid:.1e} (tolerance {_TOL_FEAS:.0e})")
    return mu.log_mean(), mu
