"""Deterministic bounds on GM/AM from moments, and the certified interval.

Upper bounds need only the trace moments.  Lower bounds additionally need
a spectral floor ``r <= lambda_min/AM``; without one, no lower bound is
reported rather than inventing a floor.  All bound values live on the
mean-normalized scale, so 1 is the degenerate equality case and the true
GM/AM always lies in ``(0, 1]``.  One function per bound:

- ``rodin_upper``: the two-point mean-variance bound, from ``M_2`` and n;
- ``maclaurin_upper`` and ``last_slope_upper``: from the symmetric means;
- ``lower_k2_closed``: the two-moment bound pinned at the floor;
- ``ktrace_bound``: the Markov-Krein bound from traces ``1..k``, per sense.

``bounds_report`` computes them all and picks the best per side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .estimators import EstimateReport
from .measure_solver import POINT_MASS_TOL, AtomicMeasure, solve
from .moments import (CancellationError, NormalizedMoments, SymmetricMeans,
                      newton_maclaurin)

_EPS = math.ulp(1.0)


@dataclass
class BoundsReport:
    """Every bound computed from one set of moments, and the best per side."""

    upper: dict[str, float] = field(default_factory=dict)
    lower: dict[str, float] = field(default_factory=dict)
    U_best: float | None = None
    L_best: float | None = None
    floor_r: float | None = None
    warnings: list[str] = field(default_factory=list)

    def finalize_best(self):
        self.U_best = min(self.upper.values()) if self.upper else None
        self.L_best = max(self.lower.values()) if self.lower else None
        if (self.U_best is not None and self.L_best is not None
                and self.L_best > self.U_best * (1 + 1e-9)):
            raise ValueError("inconsistent bounds: L_best > U_best")


@dataclass(frozen=True)
class GapDiagnostic:
    clipped: float
    verdict: str
    width: float


def _geometric_mean(x, w) -> float:
    """``prod x_i ** w_i``: the GM/AM value of an atomic witness."""
    return math.prod(xi ** wi for xi, wi in zip(x, w))


def _rodin_atoms(M2: float, n: int):
    """Atoms and weights of the two-point spectrum attaining Rodin's bound."""
    if M2 < 1.0 - POINT_MASS_TOL:
        raise ValueError("M_2 < 1 violates Jensen")
    if n < 2 or M2 <= 1.0 + POINT_MASS_TOL:
        return [1.0], [1.0]
    d = math.sqrt((M2 - 1.0) / (n - 1))
    if d >= 1.0:
        raise ValueError("M_2 too large for the given n (no real spectrum)")
    return [1.0 - d, 1.0 + (n - 1) * d], [(n - 1) / n, 1.0 / n]


def rodin_upper(M2: float, n: int) -> float:
    """Sharp mean-variance upper bound; equality for two-point spectra."""
    return _geometric_mean(*_rodin_atoms(M2, n))


def _log_E(sm: SymmetricMeans, k: int, outward: float) -> float:
    """``logE_k`` moved outward by its round-off pad, when ``sm`` has one."""
    if k < 1 or k > len(sm.logE):
        raise ValueError("m out of range for the available symmetric means")
    return sm.logE[k - 1] + (outward * sm.delta[k - 1] if sm.delta else 0.0)


def maclaurin_upper(sm: SymmetricMeans, m: int) -> float:
    """Maclaurin's inequality: GM/AM <= E_m**(1/m)."""
    return math.exp(_log_E(sm, m, 1.0) / m)


def last_slope_upper(sm: SymmetricMeans, m: int) -> float:
    """Extrapolates the log-concave decay of the E_k sequence past order m.

    ``[E_m (E_m/E_{m-1})**(n-m)]**(1/n)``, in log space to avoid overflow
    for large n.  The bound grows with ``E_m`` and falls with ``E_{m-1}``,
    so the pads move them up and down.
    """
    hi = _log_E(sm, m, 1.0)
    if m < 2:
        raise ValueError("last_slope needs m >= 2")
    return math.exp((hi + (sm.n - m) * (hi - _log_E(sm, m - 1, -1.0)))
                    / sm.n)


def _k2_lower_atoms(M2: float, r: float):
    """Atoms and weights of the two-point measure pinned at the floor r."""
    if M2 < 1.0 - POINT_MASS_TOL:
        raise ValueError("M_2 < 1 violates Jensen")
    if M2 <= 1.0 + POINT_MASS_TOL:
        return [1.0], [1.0]
    if not 0.0 < r < 1.0:
        raise ValueError("floor must satisfy 0 < r < 1 when M_2 > 1")
    w1 = (M2 - 1.0) / ((r - 1.0) ** 2 + (M2 - 1.0))
    x2 = (1.0 - w1 * r) / (1.0 - w1)
    return [r, x2], [w1, 1.0 - w1]


def lower_k2_closed(M2: float, r: float) -> float:
    """Two-moment lower bound with floor r; sharp for two-point spectra."""
    return _geometric_mean(*_k2_lower_atoms(M2, r))


def ktrace_bound(sense: str, nm: NormalizedMoments, k: int,
                 r: float | None = None) -> tuple[float, AtomicMeasure]:
    """Moment-constrained bound using traces ``1..k``.

    k = 2 dispatches to the closed forms (upper: finite-n two-point bound,
    lower: the pinned-floor two-atom formula), whose value is the geometric
    mean of the returned witness; other k solve the ``(k+1)``-atom program.
    """
    if sense not in ("upper", "lower"):
        raise ValueError("sense must be 'upper' or 'lower'")
    if k < 1 or k > nm.m:
        raise ValueError(f"k must lie in [1, {nm.m}]")
    if sense == "lower" and (r is None or r <= 0):
        raise ValueError("lower bound requires a floor r > 0")

    if k == 2:
        x, w = (_rodin_atoms(nm.M[1], nm.n) if sense == "upper"
                else _k2_lower_atoms(nm.M[1], r))
        return _geometric_mean(x, w), AtomicMeasure(x, w)

    obj, mu = solve("max" if sense == "upper" else "min", nm.M[:k], r=r)
    return math.exp(obj), mu


def certified_interval(p1: float, n: int, U: float,
                       L: float | None = None) -> tuple[float, float]:
    """Certified enclosure of log det from GM/AM bounds: n(log AM + log bound).

    Each end is widened outward by a bound on its own round-off, so that a
    sharp bound still encloses the truth.  With ``u = eps/2``, ``n < 2**53``
    and ``math.log`` within one ulp, to first order in eps:

    - ``fl(p1/n) = AM (1 + d)`` with ``|d| <= u``, so ``fl(log fl(p1/n))``
      lies within ``u + eps |log AM|`` of ``log AM``, and ``fl(log B)``
      within ``eps |log B|`` of ``log B``;
    - each product with n adds ``u`` relative error, and the final sum
      adds ``u |end|``.

    So the computed end is off by at most
    ``n eps (1/2 + 3/2 |log AM| + 3/2 |log B|) + u |end|``.  The pad
    ``n eps (2 + 2 |log AM| + 2 |log B|) + eps |end|`` covers that, the
    second-order terms, the rounding of the padded end itself, and one eps
    of relative error in B itself, about what a closed form evaluated from
    the rounded moments carries.  A solver bound near the boundary of the
    moment space can be off by more than that.
    """
    if p1 <= 0 or n < 1:
        raise ValueError("need p1 > 0 and n >= 1")
    if L is not None and not 0 < L <= U * (1 + 1e-9):
        raise ValueError("need 0 < L <= U")
    log_am = math.log(p1 / n)
    base = n * log_am

    def end(bound: float, outward: float) -> float:
        log_b = math.log(bound)
        value = base + n * log_b
        pad = (n * _EPS * (2 + 2 * abs(log_am) + 2 * abs(log_b))
               + _EPS * abs(value))
        return value + outward * pad

    hi = end(U, 1.0)
    lo = end(L, -1.0) if L is not None else -math.inf
    # sharp instances have L = U up to rounding; collapse the noise
    return min(lo, hi), hi


def gap_diagnostic(estimate: EstimateReport, lo: float,
                   hi: float) -> GapDiagnostic:
    """Clip a point estimate into the certified interval.

    The interval is closed: an estimate exactly on a bound counts as
    inside.  A missing floor (lo = -inf) is reported as its own verdict
    when it leaves the estimate unclipped.
    """
    if lo > hi:
        raise ValueError("empty interval")
    value = estimate.logdet_hat
    if value is None:
        raise ValueError("estimate carries no logdet value to clip")
    width = hi - lo
    if value > hi:
        return GapDiagnostic(hi, "clipped_to_upper", width)
    if value < lo:
        return GapDiagnostic(lo, "clipped_to_lower", width)
    if math.isinf(lo):
        return GapDiagnostic(value, "no_lower_bound", width)
    return GapDiagnostic(value, "estimate_inside", width)


def bounds_report(nm: NormalizedMoments, ks=(2, 3, 4),
                  r: float | None = None) -> BoundsReport:
    """Assemble every bound available from the traces.

    The symmetric-mean bounds come from Newton's identities on
    ``M_1..M_q``, ``q = min(4, m, n)``, and are skipped when ``q < 2``.
    Orders in ``ks`` beyond the traces, cancellation, solver failures and
    missing prerequisites degrade to warnings; the report carries
    whatever could be computed.
    """
    if nm.m < 2:
        raise ValueError("bounds need at least the traces p_1 and p_2")
    rep = BoundsReport(floor_r=r)
    m_top = min(4, nm.m, nm.n)
    sm = None
    if m_top >= 2:
        try:
            sm = newton_maclaurin([nm.n * Mk for Mk in nm.M[:m_top]], nm.n)
        except CancellationError as exc:
            rep.warnings.append(f"symmetric-mean bounds skipped: {exc}")
    skipped = [k for k in ks if k > nm.m]
    if skipped:
        names = ", ".join(f"ktrace_{k}" for k in skipped)
        if skipped == list(range(skipped[0], skipped[-1] + 1)):
            names = f"ktrace_{skipped[0]}" + (
                f"..ktrace_{skipped[-1]}" if len(skipped) > 1 else "")
        rep.warnings.append(
            f"{names} skipped: the input has traces p_1..p_{nm.m}")
    M2 = nm.M[1]
    rep.upper["rodin"] = rodin_upper(M2, nm.n)
    if sm is not None:
        rep.upper[f"maclaurin_{m_top}"] = maclaurin_upper(sm, m_top)
        rep.upper[f"last_slope_{m_top}"] = last_slope_upper(sm, m_top)
    solver_ks = [k for k in ks if 3 <= k <= nm.m]
    sides = [("upper", rep.upper, None)]
    if r is not None:
        sides.append(("lower", rep.lower, r))
    for sense, side, floor in sides:
        if floor is not None:
            side["k2_closed"] = lower_k2_closed(M2, floor)
        for k in solver_ks:
            try:
                side[f"ktrace_{k}"] = ktrace_bound(sense, nm, k, r=floor)[0]
            except RuntimeError as exc:
                rep.warnings.append(f"{sense} ktrace_{k}: {exc}")
    rep.finalize_best()
    return rep
