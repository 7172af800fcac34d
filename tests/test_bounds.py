import math

import numpy as np
import pytest

from tracelogdet import bounds, measure_solver, moments, spectra
from tracelogdet.estimators import EstimateReport
from tracelogdet.moments import NormalizedMoments


def _setup(family, n, kappa, k, seed=None):
    s = spectra.generate(family, n, kappa, seed=seed)
    st = spectra.exact_stats(s)
    nm = moments.normalize(spectra.trace_powers(s, k))
    r = float(s.eigenvalues[0]) / st.am
    return s, st, nm, r


class TestClosedForms:
    def test_constant_spectrum_all_kinds_one(self):
        s = spectra.custom_spectrum([2.0, 2.0, 2.0, 2.0])
        nm = moments.normalize(spectra.trace_powers(s, 4))
        sm = moments.symmetric_means_from_eigenvalues(s.eigenvalues, 4)
        assert bounds.rodin_upper(nm.M[1], 4) == pytest.approx(1.0, abs=1e-12)
        for got in (bounds.maclaurin_upper(sm, 4),
                    bounds.last_slope_upper(sm, 3)):
            assert got == pytest.approx(1.0, abs=1e-10)

    def test_order_checks(self):
        sm = moments.symmetric_means_from_eigenvalues([0.5, 1.0, 1.5], 2)
        for bound in (bounds.maclaurin_upper, bounds.last_slope_upper):
            for m in (0, 3):
                with pytest.raises(ValueError, match="m out of range"):
                    bound(sm, m)
        with pytest.raises(ValueError, match="m >= 2"):
            bounds.last_slope_upper(sm, 1)

    def test_rodin_sharp_on_two_point(self):
        _, st, nm, _ = _setup("two_point", 2, 4, 2)  # spectrum {1, 4}
        assert bounds.rodin_upper(nm.M[1], 2) == pytest.approx(0.8, rel=1e-12)
        assert st.gm / st.am == pytest.approx(0.8, rel=1e-12)

    def test_rodin_rejects_bad_m2(self):
        with pytest.raises(ValueError):
            bounds.rodin_upper(0.99, 16)

    def test_last_slope_three_point(self):
        # normalized {0.5, 1, 1.5}: E_2 = 11/12
        sm = moments.symmetric_means_from_eigenvalues([0.5, 1.0, 1.5], 2)
        ls = bounds.last_slope_upper(sm, 2)
        maclaurin = bounds.maclaurin_upper(sm, 2)
        gm = (0.5 * 1.0 * 1.5) ** (1 / 3)
        assert ls == pytest.approx((11 / 12) ** (2 / 3), rel=1e-12)
        assert gm < ls < maclaurin

    @pytest.mark.parametrize("family", ["geometric", "uniform"])
    @pytest.mark.parametrize("kappa", [5.0, 50.0, 200.0])
    def test_last_slope_dominates_on_smooth_families(self, family, kappa):
        s = spectra.generate(family, 256, kappa)
        sm = moments.symmetric_means_from_eigenvalues(s.eigenvalues, 4)
        slopes = np.diff(sm.logE, prepend=0.0)
        for m in (2, 3, 4):
            ls = bounds.last_slope_upper(sm, m)
            mac = bounds.maclaurin_upper(sm, m)
            # dominance condition: the last slope undercuts the mean slope
            if slopes[m - 1] < sm.logE[m - 1] / m:
                assert ls <= mac * (1 + 1e-12)

    def test_lower_k2_closed(self):
        assert bounds.lower_k2_closed(1.0, 0.5) == 1.0
        assert bounds.lower_k2_closed(1.36, 0.4) == pytest.approx(0.8,
                                                                  rel=1e-12)
        assert bounds.lower_k2_closed(1.36, 0.2) < 0.8  # looser floor
        with pytest.raises(ValueError):
            bounds.lower_k2_closed(1.36, 1.1)


class TestKtrace:
    def test_k1_upper_is_am_gm(self):
        nm = NormalizedMoments(n=8, M=np.array([1.0, 1.5]))
        val, mu = bounds.ktrace_bound("upper", nm, 1)
        assert val == 1.0
        assert mu.atoms == [(1.0, 1.0)]

    def test_k2_dispatch(self):
        _, st, nm, r = _setup("two_point", 2, 4, 2)
        u, wit_u = bounds.ktrace_bound("upper", nm, 2)
        l, wit_l = bounds.ktrace_bound("lower", nm, 2, r=r)
        assert u == pytest.approx(bounds.rodin_upper(nm.M[1], 2), rel=1e-14)
        assert l == pytest.approx(bounds.lower_k2_closed(nm.M[1], r),
                                  rel=1e-14)
        for wit in (wit_u, wit_l):
            scale = np.maximum(1.0, nm.M[:2])
            resid = max(abs(wit.moment(j + 1) - nm.M[j]) / scale[j]
                        for j in range(2))
            assert resid <= 1e-10

    def test_k2_forced_solver_matches_closed_forms(self):
        # the upper case freezes the two-point weight profile
        # ((n-1)/n, 1/n) that the closed form assumes
        _, st, nm, r = _setup("geometric", 64, 10, 2)
        n = nm.n
        u, _ = measure_solver.solve("max", nm.M[:2], fixed_weights=np.array(
            [(n - 1) / n, 1 / n]))
        l, _ = measure_solver.solve("min", nm.M[:2], r=r)
        u, l = math.exp(u), math.exp(l)
        assert u == pytest.approx(bounds.rodin_upper(nm.M[1], 64), rel=1e-6)
        assert l == pytest.approx(bounds.lower_k2_closed(nm.M[1], r),
                                  rel=1e-6)

    def test_monotonic_in_k(self):
        _, st, nm, r = _setup("geometric", 64, 10, 4)
        us = [bounds.ktrace_bound("upper", nm, k)[0] for k in (2, 3, 4)]
        ls = [bounds.ktrace_bound("lower", nm, k, r=r)[0] for k in (2, 3, 4)]
        assert us[0] >= us[1] - 1e-6 and us[1] >= us[2] - 1e-6
        assert ls[0] <= ls[1] + 1e-6 and ls[1] <= ls[2] + 1e-6
        true = st.gm / st.am
        assert all(u >= true - 1e-9 for u in us)
        assert all(l <= true + 1e-9 for l in ls)

    def test_lower_requires_floor(self):
        _, _, nm, _ = _setup("geometric", 16, 5, 3)
        with pytest.raises(ValueError):
            bounds.ktrace_bound("lower", nm, 3)


class TestIntervalAndDiagnostic:
    def test_constant_collapse(self):
        lo, hi = bounds.certified_interval(4 * 2.5, 4, 1.0, 1.0)
        assert lo == pytest.approx(4 * math.log(2.5), rel=1e-14)
        assert hi == pytest.approx(lo, rel=1e-14)

    def test_two_point_sharp(self):
        # {1, 4}: both bounds sharp, interval collapses onto log 4
        lo, hi = bounds.certified_interval(5.0, 2, 0.8, 0.8)
        assert lo == pytest.approx(math.log(4), rel=1e-12)
        assert hi == pytest.approx(math.log(4), rel=1e-12)

    def test_contains_truth(self):
        s, st, nm, r = _setup("geometric", 1024, 100, 4)
        u = bounds.ktrace_bound("upper", nm, 4)[0]
        l = bounds.ktrace_bound("lower", nm, 4, r=r)[0]
        lo, hi = bounds.certified_interval(
            float(np.sum(s.eigenvalues)), 1024, u, l)
        assert lo <= st.logdet <= hi

    def test_missing_floor_sentinel(self):
        lo, hi = bounds.certified_interval(10.0, 4, 0.9)
        assert lo == -math.inf

    def _est(self, value):
        return EstimateReport(method="k0m", m=4, kprime0_hat=0.0,
                              gm_over_am_hat=1.0, logdet_hat=value)

    def test_gap_diagnostic(self):
        d = bounds.gap_diagnostic(self._est(5.0), 4.0, 6.0)
        assert d.verdict == "estimate_inside" and d.clipped == 5.0
        d = bounds.gap_diagnostic(self._est(6.0), 4.0, 6.0)
        assert d.verdict == "estimate_inside"  # closed interval
        d = bounds.gap_diagnostic(self._est(7.0), 4.0, 6.0)
        assert d.verdict == "clipped_to_upper" and d.clipped == 6.0
        d = bounds.gap_diagnostic(self._est(3.0), 4.0, 6.0)
        assert d.verdict == "clipped_to_lower" and d.clipped == 4.0
        d = bounds.gap_diagnostic(self._est(5.0), -math.inf, 6.0)
        assert d.verdict == "no_lower_bound" and d.clipped == 5.0
        assert math.isinf(d.width)


class TestBoundsReport:
    def test_best_selection(self):
        s, st, nm, r = _setup("geometric", 64, 10, 4)
        rep = bounds.bounds_report(nm, ks=(2, 3, 4), r=r)
        assert rep.U_best == min(rep.upper.values())
        assert rep.L_best == max(rep.lower.values())
        assert rep.L_best <= st.gm / st.am <= rep.U_best
        # mean-normalized, so every bound value lives in (0, 1]
        for val in list(rep.upper.values()) + list(rep.lower.values()):
            assert 0.0 < val <= 1.0 + 1e-9

    def test_no_floor_verdict(self):
        _, _, nm, _ = _setup("geometric", 16, 5, 3)
        rep = bounds.bounds_report(nm, ks=(2, 3), r=None)
        assert rep.lower == {}
        assert rep.L_best is None

    @pytest.mark.parametrize("ks, names", [
        ((2, 3, 4), None),
        ((2, 3, 5), "ktrace_5"),
        ((2, 5, 6, 7), "ktrace_5..ktrace_7"),
        ((2, 6, 8), "ktrace_6, ktrace_8"),
    ])
    def test_orders_beyond_traces_warned(self, ks, names):
        _, _, nm, _ = _setup("geometric", 64, 10, 4)
        want = [] if names is None else [
            f"{names} skipped: the input has traces p_1..p_4"]
        assert bounds.bounds_report(nm, ks=ks).warnings == want

    def test_one_eigenvalue_has_no_symmetric_means(self):
        # the order is capped at n; order 1 gives no symmetric-mean bound
        rep = bounds.bounds_report(NormalizedMoments(n=1, M=[1.0] * 4))
        assert set(rep.upper) == {"rodin", "ktrace_3", "ktrace_4"}
        assert rep.U_best == pytest.approx(1.0) and rep.warnings == []
