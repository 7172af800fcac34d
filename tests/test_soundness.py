"""Certified intervals hold on spectra far from the benchmark families.

Exact traces of weighted-atom spectra with n up to 1e12: the bounds must
lie on the right side of the truth, up to 1e-9 * max(1, |truth|), and
exact traces with a valid floor must never be refused.
"""

import math
import random

import numpy as np

from tracelogdet import report
from tracelogdet.moments import TracePowers

KS = (2, 3, 4)


def _atom_traces(values, mult, m=4):
    """Traces ``p_1..p_m`` and the true log GM/AM of an atomic spectrum."""
    n = sum(mult)
    p = [math.fsum(c * v ** k for v, c in zip(values, mult))
         for k in range(1, m + 1)]
    log_gm = math.fsum(c * math.log(v) for v, c in zip(values, mult)) / n
    return TracePowers(n=n, p=p), log_gm - math.log(p[0] / n)


def _random_atoms(rng):
    """One draw: 1..8 distinct values 10**U(0, U(0.2, 4)), n up to 1e12."""
    n = int(10 ** rng.uniform(0.5, 12))
    j = min(int(rng.integers(1, 9)), n)
    values = 10 ** rng.uniform(0, rng.uniform(0.2, 4), size=j)
    props = rng.dirichlet(np.full(j, rng.choice([0.1, 1.0, 5.0])))
    mult = (rng.multinomial(n - j, props) + 1).tolist()
    return values.tolist(), mult


def _wrong_side(bound, truth, sign):
    """How far ``log(bound)`` lies past ``truth`` (sign +1: above it)."""
    return sign * (truth - math.log(bound)) - 1e-9 * max(1.0, abs(truth))


def test_random_atoms_bounds_are_sound():
    rng = np.random.default_rng(7)
    unsound, refused = [], []
    for draw in range(300):
        values, mult = _random_atoms(rng)
        tp, truth = _atom_traces(values, mult)
        am = tp.p[0] / tp.n
        for share in (None, 1.0, 0.5, 0.1):
            r = None if share is None else share * min(values) / am
            try:
                rep = report.certify(tp, 4, r=r, ks=KS)
            except ValueError as exc:
                refused.append((draw, share, str(exc)))
                continue
            b = rep.bounds
            if _wrong_side(b.U_best, truth, 1) > 0:
                unsound.append((draw, share, "U_best", b.U_best, truth))
            if b.L_best is not None and _wrong_side(b.L_best, truth, -1) > 0:
                unsound.append((draw, share, "L_best", b.L_best, truth))
    assert unsound == []
    assert refused == []


def test_large_n_outlier_witness():
    # diag(1, ..., 1, 1e5) with n = 1e10: log det = log 1e5.  Binomials
    # from lgamma lost 2e-5 here and put last_slope_4 below the truth.
    n = 10 ** 10
    tp, truth = _atom_traces([1.0, 1e5], [n - 1, 1])
    rep = report.certify(tp, 4, ks=KS)
    # rodin is sharp here, so U_best may sit an ulp below the truth
    for key in ("maclaurin_4", "last_slope_4"):
        assert _wrong_side(rep.bounds.upper[key], truth, 1) <= 0
    assert _wrong_side(rep.bounds.U_best, truth, 1) <= 0
    assert rep.interval[1] >= math.log(1e5)
    floored = report.certify(tp, 4, r=1.0 / (tp.p[0] / n), ks=KS)
    lo, hi = floored.interval
    assert lo <= math.log(1e5) <= hi


def test_multiples_of_identity_are_not_refused():
    # traces of c * I land M_2 and r = lambda_min/AM an ulp or so either
    # side of 1; that is the point mass, not a Jensen violation
    rng = random.Random(7)
    worst = 0.0
    for _ in range(500):
        n = math.floor(10 ** rng.uniform(0.5, 12))
        c = 10 ** rng.uniform(0, 4)
        tp = TracePowers(n=n, p=[n * c ** k for k in range(1, 5)])
        am = tp.p[0] / n
        truth = n * math.log(c)
        for share in (1.0, 0.5, 0.1):
            rep = report.certify(tp, 4, r=share * c / am, ks=KS)
            worst = max(worst, abs(rep.interval[1] - truth)
                        / max(1.0, abs(truth)))
    assert worst <= 1e-9



def test_identity_symmetric_means_padded():
    # traces of I: log e_k - log C(n, k) cancels two numbers of size
    # k log n, and unpadded the round-off put maclaurin_4 and last_slope_4
    # below 1, so the single-point interval excluded log det I = 0
    for n in (10 ** 3, 12345, 777777, 10 ** 6, 10 ** 9, 10 ** 12):
        rep = report.certify(TracePowers(n=n, p=[float(n)] * 4), 4, r=1.0)
        for key in ("maclaurin_4", "last_slope_4"):
            assert rep.bounds.upper[key] >= 1.0
        lo, hi = rep.interval
        assert lo <= 0.0 <= hi
