"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.  Reference values quoted in the assertions are the
frozen reference values for the desk-scale benchmarks; tolerances are fixed here, not
calibrated.

Criterion 8 is split: the deterministic bound-table entries that any
near-global solver reproduces live in ``test_criterion_08_bounds_table``;
the two entries that are provably unreachable for the stated optimization
problems are asserted faithfully, and fail, in
``test_criterion_08_artifact_entries`` (rationale in its docstring).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from tracelogdet import (analysis, bounds, estimators, moments, noise,
                         spectra)
from tracelogdet.measure_solver import moment_residual, solve
from tracelogdet.moments import NormalizedMoments


def check(num, desc, ok):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {desc}")
    assert ok, f"criterion {num}: {desc}"


def _pipeline(family, n, kappa, m, seed=None):
    s = spectra.generate(family, n, kappa, seed=seed)
    st = spectra.exact_stats(s)
    nm = moments.normalize(spectra.trace_powers(s, m))
    return s, st, nm


# --------------------------------------------------------------------------
# 1-2: interpolation weights
# --------------------------------------------------------------------------

APPENDIX_WEIGHTS = {
    2: ("-1/2",),
    3: ("-3/2", "1/3"),
    4: ("-3", "4/3", "-1/4"),
    5: ("-5", "10/3", "-5/4", "1/5"),
    6: ("-15/2", "20/3", "-15/4", "6/5", "-1/6"),
    7: ("-21/2", "35/3", "-35/4", "21/5", "-7/6", "1/7"),
    8: ("-14", "56/3", "-35/2", "56/5", "-14/3", "8/7", "-1/8"),
}


def test_criterion_01_weight_tables():
    ok = True
    for m, row in APPENDIX_WEIGHTS.items():
        wv = estimators.lagrange_weights(m)
        ok &= wv.w_exact[1:] == tuple(Fraction(f) for f in row)
    wv4 = estimators.lagrange_weights(4)
    ok &= wv4.w_exact[1:] == (Fraction(-3), Fraction(4, 3), Fraction(-1, 4))
    check(1, "reference weight table exact as rationals, m = 2..8", ok)


def test_criterion_02_weight_identities():
    ok = True
    for m in range(1, 21):
        w = [Fraction((-1) ** (j - 1) * math.comb(m, j), j)
             for j in range(1, m + 1)]
        H_m = sum(Fraction(1, k) for k in range(1, m + 1))
        ok &= sum(w) == H_m
        ok &= sum(j * wj for j, wj in enumerate(w, 1)) == 1
        ok &= -H_m + sum(w) == 0
        # float versions, 1e-12 relative to the alternating-term scale
        wf = [float(x) for x in w]
        scale = max(1.0, math.fsum(abs(x) for x in wf))
        ok &= abs(math.fsum(wf) - float(H_m)) <= 1e-12 * scale
        ok &= abs(math.fsum(j * x for j, x in enumerate(wf, 1)) - 1.0) \
            <= 1e-12 * scale
    check(2, "weight identities (harmonic, linear-exactness, zero-sum), "
             "m = 1..20", ok)


# --------------------------------------------------------------------------
# 3-4: order-vs-kappa error table and optimal order
# --------------------------------------------------------------------------

K0M_TABLE = {  # reference relative errors (%), geometric n = 1024
    2: (+2.3, -2.0, -0.5, +0.1, +0.1, +0.1, +0.0, +0.0, +0.0),
    5: (+11.0, -4.8, -5.6, -3.5, -1.3, +0.2, +1.1, -0.1, -0.2),
    10: (+19.4, -2.6, -8.3, -8.6, -7.0, -4.9, -2.9, +3.5, -0.5),
    20: (+27.9, +2.8, -7.0, -10.6, -11.3, -10.7, -9.5, +1.3, +5.5),
    50: (+37.9, +12.1, -0.7, -7.5, -11.1, -13.0, -13.8, -8.6, +2.9),
    100: (+44.2, +19.2, +5.6, -2.5, -7.6, -10.8, -12.8, -14.1, -5.0),
    200: (+49.7, +25.7, +12.0, +3.3, -2.6, -6.6, -9.6, -16.3, -12.0),
    500: (+55.5, +33.3, +20.0, +11.0, +4.7, +0.1, -3.5, -15.1, -16.8),
    1000: (+59.2, +38.3, +25.4, +16.5, +10.1, +5.3, +1.5, -12.4, -17.5),
}
ORDERS = (2, 3, 4, 5, 6, 7, 8, 16, 32)
OPTIMAL_M_TABLE = {2: 32, 5: 16, 10: 32, 20: 16, 50: 4, 100: 5, 200: 6,
                   500: 7, 1000: 8, 5000: 16}


@pytest.fixture(scope="module")
def k0m_errors():
    out = {}
    for kappa in sorted(set(K0M_TABLE) | set(OPTIMAL_M_TABLE)):
        s, st, nm = _pipeline("geometric", 1024, kappa, 32)
        K = moments.cumulants(nm)
        out[kappa] = {m: 100 * (estimators.k0m_estimate(K, m).kprime0_hat
                                - st.kprime0) / abs(st.kprime0)
                      for m in ORDERS}
    return out


def test_criterion_03_k0m_error_table(k0m_errors):
    worst = 0.0
    for kappa, row in K0M_TABLE.items():
        for m, ref in zip(ORDERS, row):
            worst = max(worst, abs(k0m_errors[kappa][m] - ref))
    check(3, f"81 error-table entries within 0.15 pp of reference "
             f"(worst {worst:.3f})", worst <= 0.15)


def test_criterion_04_optimal_order_table(k0m_errors):
    ok = True
    ties = []
    for kappa, ref_m in OPTIMAL_M_TABLE.items():
        errs = {m: abs(e) for m, e in k0m_errors[kappa].items()}
        m_star = min(ORDERS, key=lambda m: (errs[m], m))
        if m_star != ref_m:
            # a tie within the criterion-3 tolerance band is reported,
            # anything larger is a mismatch
            if errs[ref_m] - errs[m_star] <= 2 * 0.15:
                ties.append((kappa, m_star, ref_m))
            else:
                ok = False
    check(4, f"optimal orders match reference (ties reported: {ties})", ok)


# --------------------------------------------------------------------------
# 5: lognormal exactness
# --------------------------------------------------------------------------

def test_criterion_05_lognormal_exactness():
    ok = True
    for sigma in (0.25, 0.5, 1.0):
        target = -sigma ** 2 / 2
        M = np.exp([sigma ** 2 * k * (k - 1) / 2 for k in range(1, 9)])
        M[0] = 1.0
        K = moments.cumulants(NormalizedMoments(n=4096, M=M))
        for m in range(2, 9):
            est = estimators.k0m_estimate(K, m).kprime0_hat
            ok &= abs(est - target) <= 1e-10
        n, am = 64, 3.0
        closed = estimators.lognormal_closed_form(
            n * am, n * M[1] * am ** 2, n)
        ok &= abs(closed.kprime0_hat - target) <= 1e-10
    check(5, "population-lognormal moments estimated exactly for all "
             "m in [2, 8]", ok)


# --------------------------------------------------------------------------
# 6-9: bounds
# --------------------------------------------------------------------------

FAMILIES = ("geometric", "uniform", "lognormal", "two_point", "bimodal",
            "clustered")


def test_criterion_06_bound_validity_sweep():
    violations = []
    for family in FAMILIES:
        for kappa in (5.0, 10.0, 100.0):
            for n in (64, 1024):
                s, st, nm = _pipeline(family, n, kappa, 4, seed=20)
                true = st.gm / st.am
                r = float(s.eigenvalues[0]) / st.am
                sm = moments.symmetric_means_from_eigenvalues(
                    s.eigenvalues, 4)
                uppers = {
                    "rodin": bounds.rodin_upper(nm.M[1], n),
                    "maclaurin": bounds.maclaurin_upper(sm, 4),
                    "last_slope": bounds.last_slope_upper(sm, 4),
                }
                lowers = {"k2_closed": bounds.lower_k2_closed(nm.M[1], r)}
                for k in (3, 4):
                    uppers[f"ktrace_{k}"] = bounds.ktrace_bound(
                        "upper", nm, k)[0]
                    lowers[f"ktrace_{k}"] = bounds.ktrace_bound(
                        "lower", nm, k, r=r)[0]
                for name, u in uppers.items():
                    if u < true * (1 - 1e-9):
                        violations.append((family, kappa, n, name, u, true))
                for name, l in lowers.items():
                    if l > true * (1 + 1e-9):
                        violations.append((family, kappa, n, name, l, true))
    check(6, f"all bounds valid over 6 families x kappa x n "
             f"(violations: {violations})", not violations)


def test_criterion_07_sharpness():
    ok = True
    for n in (2, 1024):
        s, st, nm = _pipeline("two_point", n, 100.0, 4)
        true = st.gm / st.am
        r = float(s.eigenvalues[0]) / st.am
        ok &= abs(bounds.rodin_upper(nm.M[1], n) - true) <= 1e-9 * true
        ok &= abs(bounds.lower_k2_closed(nm.M[1], r) - true) <= 1e-9 * true
    s, st, nm = _pipeline("bimodal", 1024, 100.0, 4)
    true = st.kprime0
    r = float(s.eigenvalues[0]) / st.am
    ugap = 100 * (math.log(bounds.ktrace_bound("upper", nm, 4)[0]) - true) \
        / abs(true)
    lgap = 100 * (true - math.log(
        bounds.ktrace_bound("lower", nm, 4, r=r)[0])) / abs(true)
    ok &= abs(ugap) <= 0.5 and abs(lgap) <= 0.5
    check(7, "two-point bounds sharp to 1e-9; bimodal k=4 gaps <= 0.5%",
          ok)


# reference bound-gap values at kappa = 100, n = 1024 (deterministic rows)
BOUNDS_TABLE = {
    #            k0:4      U4     U8     L4     L8
    "geometric": (+5.6, 38.2, 38.2, 40.2, 10.2),
    "uniform": (+19.2, 28.7, 5.6, 52.4, 7.6),
    "two_point": (-519.8, 0.0, 0.0, 0.0, 0.0),
    "bimodal": (+55.5, 0.0, 0.0, 0.0, 0.0),
}
# entries whose reference values are unreachable for the stated programs;
# asserted separately so their honest failure is isolated and explained
ARTIFACT_ENTRIES = {("geometric", "U8"), ("uniform", "L8")}


@pytest.fixture(scope="module")
def bounds_table():
    got = {}
    for family in BOUNDS_TABLE:
        s, st, nm = _pipeline(family, 1024, 100.0, 8)
        true = st.kprime0
        r = float(s.eigenvalues[0]) / st.am
        est = estimators.k0m_estimate(moments.cumulants(nm), 4).kprime0_hat
        row = {"k04": 100 * (est - true) / abs(true)}
        for k in (4, 8):
            u = bounds.ktrace_bound("upper", nm, k)[0]
            l = bounds.ktrace_bound("lower", nm, k, r=r)[0]
            row[f"U{k}"] = 100 * (math.log(u) - true) / abs(true)
            row[f"L{k}"] = 100 * (true - math.log(l)) / abs(true)
        got[family] = row
    return got


def test_criterion_08_bounds_table(bounds_table):
    ok = True
    details = []
    for family, (k04, u4, u8, l4, l8) in BOUNDS_TABLE.items():
        refs = {"k04": k04, "U4": u4, "U8": u8, "L4": l4, "L8": l8}
        for key, target in refs.items():
            if (family, key) in ARTIFACT_ENTRIES:
                continue
            tol = 0.2 if key == "k04" else 1.0
            diff = abs(bounds_table[family][key] - target)
            if diff > tol:
                ok = False
                details.append((family, key, round(diff, 2)))
    # lognormal/clustered rows: validity and monotonicity only
    for family in ("lognormal", "clustered"):
        s, st, nm = _pipeline(family, 1024, 100.0, 8, seed=20)
        true = st.gm / st.am
        r = float(s.eigenvalues[0]) / st.am
        u4 = bounds.ktrace_bound("upper", nm, 4)[0]
        u8 = bounds.ktrace_bound("upper", nm, 8)[0]
        l4 = bounds.ktrace_bound("lower", nm, 4, r=r)[0]
        l8 = bounds.ktrace_bound("lower", nm, 8, r=r)[0]
        ok &= l4 <= true * (1 + 1e-9) and true * (1 - 1e-9) <= u4
        ok &= u8 <= u4 * (1 + 1e-6) and l8 >= l4 * (1 - 1e-6)
    check(8, f"bound-gap table reproduced within tolerance "
             f"(excl. 2 artifact entries; misses: {details})", ok)


def test_criterion_08_artifact_entries(bounds_table):
    """Faithful assertion of the two reference entries no feasible measure
    attains.

    The reference geometric U8 gap (38.2) equals that row's U4 value; a
    dense-grid LP over the k = 8 feasible set (globally solvable, since
    fixing candidate atom locations makes the program linear in the
    weights) puts the true optimum near a 9.4% gap.  The reference uniform
    L8 gap (7.6) lies above the exactly-feasible pinned-node quadrature
    rule of the moment sequence (8.7% gap), so it cannot be the program's
    minimum.  Both reference values are upstream solver artifacts; this
    test keeps the criterion asserted as stated and fails honestly.
    """
    ok = True
    for family, key in sorted(ARTIFACT_ENTRIES):
        idx = {"U4": 1, "U8": 2, "L4": 3, "L8": 4}[key]
        target = BOUNDS_TABLE[family][idx]
        diff = abs(bounds_table[family][key] - target)
        ok &= diff <= 1.0
    check(8, "artifact bound-table entries (geometric U8, uniform L8) "
             "match reference", ok)


def test_criterion_09_ktrace_monotonicity():
    ok = True
    worst = 0.0
    for family in ("geometric", "uniform", "two_point", "bimodal"):
        for kappa in (10.0, 100.0):
            s, st, nm = _pipeline(family, 1024, kappa, 4)
            r = float(s.eigenvalues[0]) / st.am
            us = [bounds.ktrace_bound("upper", nm, k)[0] for k in (2, 3, 4)]
            ls = [bounds.ktrace_bound("lower", nm, k, r=r)[0]
                  for k in (2, 3, 4)]
            worst = max(worst, us[1] - us[0], us[2] - us[1],
                        ls[0] - ls[1], ls[1] - ls[2])
    ok = worst <= 1e-6
    check(9, f"U2 >= U3 >= U4 and L2 <= L3 <= L4 within 1e-6 "
             f"(worst slack {worst:.2e})", ok)


def test_criterion_10_solver_conformance():
    # the {1, 4} instance: M = (1, 1.36), r = 0.4
    M = [1.0, 1.36]
    obj_min, wit = solve("min", M, r=0.4)
    closed = bounds.lower_k2_closed(1.36, 0.4)
    ok = abs(math.exp(obj_min) - closed) <= 1e-6 * closed
    obj_fix, _ = solve("max", M, fixed_weights=np.array([0.5, 0.5]))
    rodin = bounds.rodin_upper(1.36, 2)
    ok &= abs(math.exp(obj_fix) - rodin) <= 1e-6 * rodin
    ok &= moment_residual(wit, M) <= 1e-8
    # grid brute force: two free atoms on a 1e-3 grid over [r, 2]
    grid = np.arange(0.4, 2.0 + 1e-12, 1e-3)
    x2, x3 = grid[None, :], grid[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = (x2 * x3 - (x2 + x3) + 1.36) / ((x2 - 0.4) * (x3 - 0.4))
        w2 = -(0.4 * x3 - (0.4 + x3) + 1.36) / ((x2 - 0.4) * (x3 - x2))
        w3 = (0.4 * x2 - (0.4 + x2) + 1.36) / ((x3 - 0.4) * (x3 - x2))
        obj = w1 * math.log(0.4) + w2 * np.log(x2) + w3 * np.log(x3)
        feasible = (np.abs((x2 - 0.4) * (x3 - 0.4) * (x3 - x2)) > 1e-12) \
            & (w1 >= -1e-12) & (w2 >= -1e-12) & (w3 >= -1e-12)
        grid_min = float(np.min(np.where(feasible, obj, math.inf)))
    ok &= abs(obj_min - grid_min) <= 1e-4
    check(10, "k=2 solver path matches closed forms (1e-6), residual "
              "<= 1e-8, grid oracle within 1e-4", ok)


# --------------------------------------------------------------------------
# 11-13: noise
# --------------------------------------------------------------------------

ALPHA_TABLE = {  # m: (||w||_2, alpha_m, sd at eta = 1%)
    2: (0.50, 1.12, 0.011), 3: (1.54, 2.52, 0.025), 4: (3.29, 4.45, 0.045),
    5: (6.14, 7.33, 0.073), 6: (10.78, 11.88, 0.119),
    7: (18.49, 19.44, 0.194), 8: (31.61, 32.38, 0.324),
}


def test_criterion_11_alpha_table():
    ok = True
    for m, (wn, alpha, sd) in ALPHA_TABLE.items():
        th = noise.theory(m, 0.01)
        ok &= round(th.weight_norm, 2) == wn
        ok &= round(th.alpha, 2) == alpha
        ok &= round(th.alpha * 0.01, 3) == sd
    check(11, "noise amplification table to 2 decimals, SD row to 3", ok)


def test_criterion_12_noise_monte_carlo():
    s, st, nm = _pipeline("geometric", 1024, 100.0, 8)
    K = moments.cumulants(nm)
    biases = {m: estimators.k0m_estimate(K, m).kprime0_hat - st.kprime0
              for m in range(2, 9)}
    stats = noise.monte_carlo(s, 4, 0.01, 1000, seed=1234)
    ok = abs(stats.sd - 0.045) <= 0.15 * 0.045
    eta_star = noise.theory(4, 0.01, b_m=biases[4]).crossover_eta
    ok &= 0.008 <= eta_star <= 0.011
    ok &= noise.optimal_order(biases, 0.01) == 4
    ok &= noise.optimal_order(biases, 0.0) == 5
    check(12, f"Monte Carlo SD {stats.sd:.4f} ~ 0.045, crossover "
              f"{100 * eta_star:.2f}% in [0.8, 1.1], optimal order 5 -> 4",
          ok)


def test_criterion_13_asymptotic_fit():
    c, a, r2 = noise.weight_norm_fit(range(6, 21))
    ok = 1.25 <= a <= 1.35 and r2 >= 0.9999
    coef = noise.theory(20, 0.0).weight_norm * 20 ** 1.25 / 2 ** 20
    target = 2 / math.pi ** 0.25
    ok &= abs(coef - target) <= 0.25 * target
    check(13, f"weight-norm fit a = {a:.3f}, r^2 = {r2:.5f}, normalized "
              f"coefficient {coef:.3f}", ok)


# --------------------------------------------------------------------------
# 14-16: failure prediction
# --------------------------------------------------------------------------

def test_criterion_14_taylor_radius():
    ok = abs(analysis.taylor_radius("two_point", 100.0).radius
             - 0.6822) <= 1e-3
    ok &= abs(analysis.taylor_radius("two_point",
                                     math.exp(math.pi / 2)).radius
              - 2.0) <= 1e-9
    for kappa in (5.0, 100.0, 1000.0):
        r = [analysis.taylor_radius(f, kappa).radius
             for f in ("two_point", "log_uniform", "uniform")]
        ok &= r[0] < r[1] < r[2]
    check(14, "radius values and family ordering reproduced", ok)


def test_criterion_15_saturation():
    scan6 = analysis.saturation_scan([1e6], [2])
    row = scan6.rows[0]
    ok = abs(row.estimate - (-0.34657)) <= 1e-3 and row.truth <= -6
    scan = analysis.saturation_scan(np.geomspace(1, 1e8, 17), range(2, 9))
    ok &= max(abs(r.estimate) for r in scan.rows) <= 10.0
    check(15, "estimates saturate (k0:2 -> -log(2)/2) while truth "
              "diverges; all orders bounded by 10", ok)


def test_criterion_16_nonidentifiability():
    # reference instance: support of 5, nodes {2, 4}
    pair = analysis.nonidentifiable_pair((0.1, 0.5, 1.0, 2.0, 10.0),
                                         (2.0, 4.0))
    x = pair.support
    ok = all(abs(np.dot(pair.w_plus - pair.w_minus, x ** t)) <= 1e-10
             for t in (1.0, 2.0, 4.0))
    base = abs(np.dot(pair.w_plus + pair.w_minus, np.log(x))) / 2
    ok &= abs(pair.delta_logmean) >= 0.01 * base
    # identical order-4 estimates need all of M_2..M_4 matched
    pair3 = analysis.nonidentifiable_pair(
        (0.1, 0.5, 1.0, 2.0, 5.0, 10.0), (2.0, 3.0, 4.0))
    ests, truths = [], []
    for w in (pair3.w_plus, pair3.w_minus):
        K = np.zeros(5)
        for j in (2, 3, 4):
            K[j] = math.log(np.dot(w, pair3.support ** j))
        ests.append(estimators.k0m_estimate(
            moments.CumulantSamples(K=K), 4).kprime0_hat)
        truths.append(float(np.dot(w, np.log(pair3.support))))
    ok &= abs(ests[0] - ests[1]) <= 1e-8
    base3 = abs(truths[0] + truths[1]) / 2
    ok &= abs(truths[0] - truths[1]) >= 0.01 * base3
    check(16, "moment-matched pair: identical estimates, mean logs "
              "differing by >= 1%", ok)


# --------------------------------------------------------------------------
# 17-18: transforms and the classical series
# --------------------------------------------------------------------------

def test_criterion_17_complex_transform():
    s, st, nm = _pipeline("two_point", 1024, 100.0, 4)
    est = estimators.transform_estimate(
        moments.boxcox_samples(nm, 1.3j), 1.3j, 4)
    rel = abs(est.kprime0_hat - st.kprime0) / abs(st.kprime0)
    ok = rel <= 0.01
    _, _, nm_tp = _pipeline("two_point", 1024, 10.0, 4)
    _, _, nm_geo = _pipeline("geometric", 1024, 10.0, 4)
    cv_tp = estimators.cv_diagnostic(nm_tp, 4)
    cv_geo = estimators.cv_diagnostic(nm_geo, 4)
    ok &= cv_tp > 20.0 and cv_geo < 10.0
    check(17, f"oscillatory transform error {100 * rel:.2f}% <= 1%; "
              f"spread diagnostic {cv_tp:.0f}% vs {cv_geo:.1f}%", ok)


def test_criterion_18_latane_divergence():
    s, st, nm = _pipeline("geometric", 1024, 100.0, 12)
    mu = moments.central_moments(nm, 12)
    err4 = abs(estimators.latane_estimate(mu[:3], 4).kprime0_hat
               - st.kprime0)
    err12 = abs(estimators.latane_estimate(mu, 12).kprime0_hat - st.kprime0)
    K = moments.cumulants(nm)
    err_k05 = abs(estimators.k0m_estimate(K, 5).kprime0_hat - st.kprime0)
    ok = err12 >= 100 * err4 and err12 > 1e3 and err_k05 < 0.05
    check(18, f"central-moment series diverges (err {err12:.0f} at order "
              f"12) while order-5 interpolation stays at {err_k05:.3f}", ok)
