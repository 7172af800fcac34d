"""Builders for the desk-scale experiment tables emitted by ``reproduce``.

Each builder returns ``(header, rows)`` ready for CSV emission.  All are
deterministic given the seed; the random families (lognormal, clustered)
and the Monte Carlo sweeps consume it, everything else ignores it.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, bounds, noise
from .catalog import TABLES
from .estimators import (k0m_estimate, latane_estimate, transform_estimate)
from .moments import (boxcox_samples, central_moments, cumulants, normalize,
                      symmetric_means_from_eigenvalues)
from .spectra import RANDOM_FAMILIES, exact_stats, generate, trace_powers

K0M_KAPPAS = (2, 5, 10, 20, 50, 100, 200, 500, 1000)
K0M_ORDERS = (2, 3, 4, 5, 6, 7, 8, 16, 32)
OPTIMAL_M_KAPPAS = K0M_KAPPAS + (5000,)
# a literal: a newly generated family must not enter the tables or goldens
BENCH_FAMILIES = ("geometric", "uniform", "lognormal", "two_point",
                  "bimodal", "clustered")
BOXCOX_KAPPAS = (5, 10, 20, 50, 100, 200, 500, 1000)


def _rel_errors(kappa: float, n: int = 1024, orders=K0M_ORDERS):
    s = generate("geometric", n, kappa)
    st = exact_stats(s)
    K = cumulants(normalize(trace_powers(s, max(orders))))
    return {m: 100.0 * (k0m_estimate(K, m).kprime0_hat - st.kprime0)
               / abs(st.kprime0) for m in orders}


def k0m_errors(seed=None):
    header = ["kappa"] + [f"m{m}" for m in K0M_ORDERS]
    rows = []
    for kappa in K0M_KAPPAS:
        errs = _rel_errors(kappa)
        rows.append([float(kappa)] + [errs[m] for m in K0M_ORDERS])
    return header, rows


def optimal_m(seed=None):
    header = ["kappa", "m_star", "abs_err_pct"]
    rows = []
    for kappa in OPTIMAL_M_KAPPAS:
        errs = _rel_errors(kappa)
        m_star = min(K0M_ORDERS, key=lambda m: (abs(errs[m]), m))
        rows.append([float(kappa), m_star, abs(errs[m_star])])
    return header, rows


def bounds_comparison(seed=0):
    header = ["family", "k04_err_pct", "u2_gap", "u4_gap", "u8_gap",
              "ls_gap", "l2_gap", "l4_gap", "l8_gap"]
    rows = []
    for fam in BENCH_FAMILIES:
        s = generate(fam, 1024, 100,
                     seed=seed if fam in RANDOM_FAMILIES else None)
        st = exact_stats(s)
        true = st.kprime0
        nm = normalize(trace_powers(s, 8))
        r = float(s.eigenvalues[0]) / st.am
        sm = symmetric_means_from_eigenvalues(s.eigenvalues, 4)

        def ugap(value):
            return 100.0 * (math.log(value) - true) / abs(true)

        def lgap(value):
            return 100.0 * (true - math.log(value)) / abs(true)

        est = k0m_estimate(cumulants(nm), 4)
        row = [fam, 100.0 * (est.kprime0_hat - true) / abs(true)]
        row.append(ugap(bounds.ktrace_bound("upper", nm, 2)[0]))
        row.append(ugap(bounds.ktrace_bound("upper", nm, 4)[0]))
        row.append(ugap(bounds.ktrace_bound("upper", nm, 8)[0]))
        row.append(ugap(bounds.last_slope_upper(sm, 4)))
        row.append(lgap(bounds.ktrace_bound("lower", nm, 2, r=r)[0]))
        row.append(lgap(bounds.ktrace_bound("lower", nm, 4, r=r)[0]))
        row.append(lgap(bounds.ktrace_bound("lower", nm, 8, r=r)[0]))
        rows.append(row)
    return header, rows


def alpha_table(seed=None):
    header = ["m", "weight_norm", "m_minus_1", "alpha", "sd_eta_1pct"]
    rows = []
    for m in range(2, 9):
        th = noise.theory(m, 0.01)
        rows.append([m, th.weight_norm, m - 1, th.alpha, th.alpha * 0.01])
    return header, rows


def asymptotic_table(seed=None):
    c, a, r2 = noise.weight_norm_fit(range(6, 21))
    wn20 = noise.theory(20, 0.0).weight_norm
    coef20 = wn20 * 20 ** 1.25 / 2 ** 20
    c_theory = 2.0 / math.pi ** 0.25
    header = ["quantity", "theoretical", "fitted"]
    rows = [
        ["exponent_a", 1.25, a],
        ["coefficient_c", c_theory, c],
        ["r_squared", None, r2],
        ["normalized_coef_m20", c_theory, coef20],
    ]
    return header, rows


def saturation_table(seed=None):
    kappas = np.geomspace(1.0, 1e8, 33)
    scan = analysis.saturation_scan(kappas, range(2, 9))
    header = ["kappa", "m", "estimate", "truth", "rel_error_pct"]
    rows = [[row.kappa, row.m, row.estimate, row.truth,
             100.0 * row.rel_error] for row in scan.rows]
    return header, rows


def radius_scan(seed=None):
    header = ["kappa", "two_point", "log_uniform", "uniform"]
    rows = []
    for kappa in np.geomspace(2.0, 1e4, 25):
        rows.append([float(kappa)] + [
            analysis.taylor_radius(f, kappa).radius
            for f in analysis.RADIUS_FAMILIES])
    return header, rows


def noise_crossover(seed=0, trials=1000):
    s = generate("geometric", 1024, 100)
    st = exact_stats(s)
    K = cumulants(normalize(trace_powers(s, 8)))
    header = ["m", "eta", "bias", "sd", "rmse", "pred_sd", "pred_rmse",
              "eta_star"]
    rows = []
    for m in (3, 4, 5, 6):
        b_m = k0m_estimate(K, m).kprime0_hat - st.kprime0
        for eta in (0.001, 0.002, 0.005, 0.01, 0.02, 0.05):
            th = noise.theory(m, eta, b_m=b_m)
            stats = noise.monte_carlo(s, m, eta, trials, seed=seed)
            rows.append([m, eta, stats.bias, stats.sd, stats.rmse,
                         th.alpha * eta, th.rmse_pred, th.crossover_eta])
    return header, rows


def boxcox_sweep(seed=0):
    """Best real transform exponent per family, by median error over kappa."""
    alphas = [round(a, 1) for a in np.arange(-1.0, 1.01, 0.1)]
    header = ["family", "m", "best_alpha", "best_err_pct", "log_err_pct"]
    rows = []
    for fam in BENCH_FAMILIES:
        runs = []
        for kappa in BOXCOX_KAPPAS:
            s = generate(fam, 1024, kappa,
                         seed=seed if fam in RANDOM_FAMILIES else None)
            st = exact_stats(s)
            nm = normalize(trace_powers(s, 6))
            runs.append((st.kprime0, nm))
        for m in (4, 6):
            med = {}
            for alpha in alphas:
                errs = []
                for true, nm in runs:
                    if alpha == 0.0:
                        hat = k0m_estimate(cumulants(nm), m).kprime0_hat
                    else:
                        hat = transform_estimate(
                            boxcox_samples(nm, alpha), alpha, m).kprime0_hat
                    errs.append(abs(hat - true) / abs(true))
                med[alpha] = 100.0 * float(np.median(errs))
            best = min(med, key=lambda a: (med[a], abs(a)))
            rows.append([fam, m, best, med[best], med[0.0]])
    return header, rows


def latane_comparison(seed=None):
    """Log-domain interpolation vs the central-moment series, by order."""
    s = generate("geometric", 1024, 100)
    st = exact_stats(s)
    nm = normalize(trace_powers(s, 12))
    K = cumulants(nm)
    mu = central_moments(nm, 12)
    header = ["m", "k0m_abs_err", "latane_abs_err"]
    rows = []
    for m in range(2, 13):
        rows.append([m,
                     abs(k0m_estimate(K, m).kprime0_hat - st.kprime0),
                     abs(latane_estimate(mu[:m - 1], m).kprime0_hat
                         - st.kprime0)])
    return header, rows


BUILDERS = dict(zip(TABLES, (
    k0m_errors, optimal_m, bounds_comparison, alpha_table, asymptotic_table,
    saturation_table, radius_scan, noise_crossover, boxcox_sweep,
    latane_comparison), strict=True))
