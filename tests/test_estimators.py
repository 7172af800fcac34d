import math
from fractions import Fraction

import numpy as np
import pytest

from tracelogdet import estimators, moments, spectra
from tracelogdet.moments import CumulantSamples, NormalizedMoments

# derivative weights for nodes 0..m, rows m = 2..8
WEIGHT_TABLE = {
    2: (Fraction(-1, 2),),
    3: (Fraction(-3, 2), Fraction(1, 3)),
    4: (Fraction(-3), Fraction(4, 3), Fraction(-1, 4)),
    5: (Fraction(-5), Fraction(10, 3), Fraction(-5, 4), Fraction(1, 5)),
    6: (Fraction(-15, 2), Fraction(20, 3), Fraction(-15, 4), Fraction(6, 5),
        Fraction(-1, 6)),
    7: (Fraction(-21, 2), Fraction(35, 3), Fraction(-35, 4), Fraction(21, 5),
        Fraction(-7, 6), Fraction(1, 7)),
    8: (Fraction(-14), Fraction(56, 3), Fraction(-35, 2), Fraction(56, 5),
        Fraction(-14, 3), Fraction(8, 7), Fraction(-1, 8)),
}


class TestWeights:
    @pytest.mark.parametrize("m", sorted(WEIGHT_TABLE))
    def test_reference_table_exact(self, m):
        wv = estimators.lagrange_weights(m)
        assert wv.w_exact[1:] == WEIGHT_TABLE[m]
        assert wv.w_exact[0] == Fraction(m)

    def test_m4_explicit(self):
        wv = estimators.lagrange_weights(4)
        assert wv.w_exact == (Fraction(4), Fraction(-3), Fraction(4, 3),
                              Fraction(-1, 4))
        assert wv.w0_exact == Fraction(-25, 12)

    def test_m2(self):
        wv = estimators.lagrange_weights(2)
        assert wv.w_exact == (Fraction(2), Fraction(-1, 2))
        assert wv.w0_exact == Fraction(-3, 2)

    @pytest.mark.parametrize("m", range(2, 21))
    def test_identities(self, m):
        wv = estimators.lagrange_weights(m)
        harmonic = sum(Fraction(1, k) for k in range(1, m + 1))
        assert sum(wv.w_exact) == harmonic           # alternating sum = H_m
        assert sum(j * w for j, w in enumerate(wv.w_exact, 1)) == 1
        assert wv.w0_exact + sum(wv.w_exact) == 0
        # same identities in float, 1e-12 relative to the term scale
        # (the weights grow like 2**m, so absolute 1e-12 is meaningless)
        term_scale = max(1.0, math.fsum(abs(w) for w in wv.w))
        assert abs(math.fsum(wv.w) - float(harmonic)) <= 1e-12 * term_scale
        assert abs(math.fsum(j * w for j, w in enumerate(wv.w, 1)) - 1.0) \
            <= 1e-12 * term_scale

    def test_cached_and_read_only(self):
        wv = estimators.lagrange_weights(5)
        assert estimators.lagrange_weights(5) is wv
        with pytest.raises(TypeError):
            wv.w[0] = 0.0

    def test_range_guard(self):
        with pytest.raises(ValueError):
            estimators.lagrange_weights(1)
        with pytest.raises(ValueError):
            estimators.lagrange_weights(65)


class TestK0m:
    def test_constant_zero(self):
        K = CumulantSamples(K=np.zeros(5))
        assert estimators.k0m_estimate(K, 4).kprime0_hat == 0.0

    def test_two_eigenvalues_m2(self):
        s = spectra.custom_spectrum([1, 4])
        K = moments.cumulants(moments.normalize(spectra.trace_powers(s, 2)))
        est = estimators.k0m_estimate(K, 2)
        assert est.kprime0_hat == pytest.approx(-0.5 * math.log(1.36),
                                                rel=1e-12)

    def test_geometric_kappa100(self):
        s = spectra.generate("geometric", 1024, 100)
        st = spectra.exact_stats(s)
        K = moments.cumulants(moments.normalize(spectra.trace_powers(s, 4)))
        est = estimators.k0m_estimate(K, 4, n=s.n, am=st.am)
        rel = 100 * (est.kprime0_hat - st.kprime0) / abs(st.kprime0)
        assert rel == pytest.approx(5.6, abs=0.1)
        assert est.logdet_hat == pytest.approx(
            s.n * (math.log(st.am) + est.kprime0_hat), rel=1e-14)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_moment_form_equivalence(self, m):
        s = spectra.generate("uniform", 64, 30)
        nm = moments.normalize(spectra.trace_powers(s, m))
        est = estimators.k0m_estimate(moments.cumulants(nm), m)
        wv = estimators.lagrange_weights(m)
        product = np.prod([nm.M[j - 1] ** wv.w[j - 1] for j in range(2, m + 1)])
        assert est.gm_over_am_hat == pytest.approx(product, rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("m", range(2, 9))
    def test_lognormal_population_exact(self, sigma, m):
        M = np.exp([sigma ** 2 * k * (k - 1) / 2 for k in range(1, m + 1)])
        M[0] = 1.0
        K = moments.cumulants(NormalizedMoments(n=1000, M=M))
        est = estimators.k0m_estimate(K, m)
        assert est.kprime0_hat == pytest.approx(-sigma ** 2 / 2, abs=1e-10)

    def test_scale_invariance(self):
        s = spectra.generate("geometric", 32, 20)
        for c in (1e-3, 17.0, 1e4):
            scaled = spectra.custom_spectrum(c * s.eigenvalues)
            a = estimators.k0m_estimate(moments.cumulants(
                moments.normalize(spectra.trace_powers(s, 5))), 5)
            b = estimators.k0m_estimate(moments.cumulants(
                moments.normalize(spectra.trace_powers(scaled, 5))), 5)
            assert a.kprime0_hat == pytest.approx(b.kprime0_hat, abs=1e-10)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_plugin_continuity(self, m):
        s = spectra.generate("geometric", 64, 50)
        tp = spectra.trace_powers(s, m)
        base = estimators.k0m_estimate(
            moments.cumulants(moments.normalize(tp)), m).kprime0_hat
        rng = np.random.default_rng(m)
        bumped = moments.TracePowers(
            n=tp.n, p=tp.p * (1 + 1e-9 * rng.uniform(-1, 1, tp.m)))
        pert = estimators.k0m_estimate(
            moments.cumulants(moments.normalize(bumped)), m).kprime0_hat
        assert abs(pert - base) <= 1e-6


class TestLognormalClosedForm:
    def test_single_eigenvalue(self):
        est = estimators.lognormal_closed_form(4.0, 16.0, 1)
        am = 4.0
        assert am * est.gm_over_am_hat == pytest.approx(4.0, rel=1e-14)

    def test_constant(self):
        est = estimators.lognormal_closed_form(5 * 3.0, 5 * 9.0, 5)
        assert 3.0 * est.gm_over_am_hat == pytest.approx(3.0, rel=1e-14)

    def test_population_lognormal(self):
        sigma = 0.5
        n, am = 10, 2.0
        p1 = n * am
        p2 = n * math.exp(sigma ** 2) * am ** 2
        est = estimators.lognormal_closed_form(p1, p2, n)
        assert est.gm_over_am_hat == pytest.approx(math.exp(-0.125),
                                                   rel=1e-12)

    def test_equals_k02(self):
        s = spectra.generate("uniform", 16, 9)
        tp = spectra.trace_powers(s, 2)
        K = moments.cumulants(moments.normalize(tp))
        k02 = estimators.k0m_estimate(K, 2).kprime0_hat
        closed = estimators.lognormal_closed_form(tp.p[0], tp.p[1], 16)
        assert closed.kprime0_hat == pytest.approx(k02, rel=1e-12)
        assert k02 == pytest.approx(-0.5 * K.K[2], rel=1e-12)


class TestLatane:
    def test_single_term(self):
        est = estimators.latane_estimate([0.2], 2)
        assert est.kprime0_hat == pytest.approx(-0.1, rel=1e-14)

    def test_zero(self):
        assert estimators.latane_estimate([0.0, 0.0], 3).kprime0_hat == 0.0

    def test_divergence_at_high_order(self):
        s = spectra.generate("geometric", 1024, 100)
        st = spectra.exact_stats(s)
        nm = moments.normalize(spectra.trace_powers(s, 12))
        mu = moments.central_moments(nm, 12)
        err12 = abs(estimators.latane_estimate(mu, 12).kprime0_hat
                    - st.kprime0)
        assert err12 > 1e3


class TestTransform:
    def test_identity_on_constant(self):
        G = np.zeros(5)
        assert estimators.transform_estimate(G, 1.0, 4).kprime0_hat == 0.0

    def test_matches_k0m_at_small_alpha(self):
        s = spectra.generate("uniform", 64, 40)
        nm = moments.normalize(spectra.trace_powers(s, 4))
        k0m = estimators.k0m_estimate(moments.cumulants(nm), 4).kprime0_hat
        G = moments.boxcox_samples(nm, 1e-6)
        t = estimators.transform_estimate(G, 1e-6, 4).kprime0_hat
        assert t == pytest.approx(k0m, abs=1e-6)

    def test_complex_two_point(self):
        s = spectra.generate("two_point", 1024, 100)
        st = spectra.exact_stats(s)
        nm = moments.normalize(spectra.trace_powers(s, 4))
        est = estimators.transform_estimate(
            moments.boxcox_samples(nm, 1.3j), 1.3j, 4)
        rel = abs(est.kprime0_hat - st.kprime0) / abs(st.kprime0)
        assert rel < 0.01

    def test_requires_anchors(self):
        with pytest.raises(ValueError):
            estimators.transform_estimate(np.ones(5), 0.5, 4)


class TestCvDiagnostic:
    def test_constant_zero(self):
        nm = NormalizedMoments(n=8, M=np.ones(4))
        assert estimators.cv_diagnostic(nm, 4) == 0.0

    def test_two_point_flags(self):
        s = spectra.generate("two_point", 1024, 10)
        nm = moments.normalize(spectra.trace_powers(s, 4))
        cv = estimators.cv_diagnostic(nm, 4)
        assert 70.0 < cv < 2500.0  # reference band for this instance

    def test_geometric_quiet(self):
        s = spectra.generate("geometric", 1024, 10)
        nm = moments.normalize(spectra.trace_powers(s, 4))
        assert estimators.cv_diagnostic(nm, 4) < 10.0
