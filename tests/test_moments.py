import itertools
import math
import warnings

import numpy as np
import pytest

from tracelogdet import moments, spectra

FAMILIES = ("geometric", "uniform", "lognormal", "two_point", "bimodal",
            "clustered")


class TestNormalize:
    def test_small(self):
        nm = moments.normalize(moments.TracePowers(n=3, p=[6, 14, 36]))
        np.testing.assert_allclose(nm.M, [1, 7 / 6, 3 / 2], rtol=1e-14)
        assert nm.M[0] == 1.0

    def test_constant_traces(self):
        nm = moments.normalize(moments.TracePowers(n=5, p=[5 * 2, 5 * 4]))
        np.testing.assert_allclose(nm.M, [1, 1], rtol=1e-15)

    def test_two_point(self):
        nm = moments.normalize(moments.TracePowers(n=4, p=[13, 103]))
        assert nm.M[1] == pytest.approx(4 * 103 / 169, rel=1e-14)

    def test_underflowing_mean_power_is_silent(self):
        # AM**4 underflows to 0, so M_4 comes from the log-domain fallback
        tp = moments.TracePowers(n=1000, p=[1e-100, 2e-203, 5e-306, 1e-308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nm = moments.normalize(tp)
        np.testing.assert_allclose(nm.M, [1, 2, 5, 1e101], rtol=1e-12)

    def test_overflowing_mean_power_takes_logs(self):
        # AM**2 overflows; M_2 < 1 fits no spectrum, but it is the value
        nm = moments.normalize(moments.TracePowers(n=2, p=[2e200, 2e300]))
        assert nm.M[0] == 1.0
        assert nm.M[1] == pytest.approx(1e-100, rel=1e-12)

    @pytest.mark.parametrize("n,p,k", [(10**10, [1.0, 1e300, 1e300], 2),
                                       (1000, [1e-300] * 4, 3)])
    def test_overflowing_moment_is_refused_silently(self, n, p, k):
        # M_2 > n: no spectrum has these traces, and M_k overflows a float
        tp = moments.TracePowers(n=n, p=p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"M_{k} = inf"):
                moments.normalize(tp)

    @pytest.mark.parametrize("p", [[6, -1], [6, np.inf], [np.inf, 14],
                                   [6, np.nan]],
                             ids=["negative", "inf_p2", "inf_p1", "nan"])
    def test_rejects_nonpositive(self, p):
        with pytest.raises(ValueError):
            moments.TracePowers(n=3, p=p)

    def test_cauchy_schwarz(self):
        for family in FAMILIES:
            s = spectra.generate(family, 64, 50, seed=11)
            tp = spectra.trace_powers(s, 2)
            assert tp.p[0] ** 2 <= 64 * tp.p[1] * (1 + 1e-12)


class TestCumulants:
    def test_constant(self):
        K = moments.cumulants(moments.NormalizedMoments(n=3, M=[1.0, 1, 1]))
        np.testing.assert_array_equal(K.K, np.zeros(4))

    def test_small(self):
        K = moments.cumulants(
            moments.NormalizedMoments(n=3, M=np.array([1, 7 / 6, 1.5])))
        assert K.K[2] == pytest.approx(math.log(7 / 6), rel=1e-14)
        assert K.K[3] == pytest.approx(math.log(1.5), rel=1e-14)

    def test_lognormal_population(self):
        sigma = 0.5
        M = np.exp([sigma ** 2 * k * (k - 1) / 2 for k in range(1, 4)])
        K = moments.cumulants(moments.NormalizedMoments(n=100, M=M))
        assert K.K[2] == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_log_convexity_in_k(self, family):
        s = spectra.generate(family, 64, 50, seed=5)
        nm = moments.normalize(spectra.trace_powers(s, 6))
        M = np.concatenate([[1.0], nm.M])  # prepend M_0
        assert np.all(M[:-2] * M[2:] >= M[1:-1] ** 2 * (1 - 1e-12))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_eigenvalue_route(self, family):
        s = spectra.generate(family, 64, 80, seed=2)
        K = moments.cumulants(moments.normalize(spectra.trace_powers(s, 6)))
        x = s.eigenvalues / np.mean(s.eigenvalues)
        for k in range(2, 7):
            direct = math.log(np.mean(x ** k))
            assert K.K[k] == pytest.approx(direct, rel=1e-10, abs=1e-12)


class TestNewtonMaclaurin:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 100, 12345, 10 ** 6,
                                   10 ** 9, 10 ** 10, 999_999_999_989,
                                   10 ** 12])
    def test_log_binomial_oracle(self, n):
        # exact big-integer binomials; lgamma differences lost
        # eps * n * log n here
        for k in range(min(n, 8) + 1):
            want = math.log(math.comb(n, k))
            assert moments.log_binomial(n, k) == pytest.approx(
                want, rel=1e-14, abs=1e-14)

    def test_small_exact(self):
        # power sums of {1, 2, 3}: elementary symmetric (6, 11, 6)
        sm = moments.newton_maclaurin([6, 14, 36], 3)
        e = [math.exp(sm.logE[k]) * math.comb(3, k + 1) for k in range(3)]
        np.testing.assert_allclose(e, [6, 11, 6], rtol=1e-12)

    def test_constant_normalized(self):
        sm = moments.newton_maclaurin([4.0] * 4, 4)
        np.testing.assert_allclose(sm.logE, np.zeros(4), atol=1e-13)

    def test_three_point(self):
        x = np.array([0.5, 1.0, 1.5])
        q = [float(np.sum(x ** k)) for k in (1, 2)]
        sm = moments.newton_maclaurin(q, 3)
        assert math.exp(sm.logE[1]) == pytest.approx(11 / 12, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(0.5, 2.0, size=n)
        x /= x.mean()
        q = [float(np.sum(x ** k)) for k in range(1, n + 1)]
        sm = moments.newton_maclaurin(q, n)
        for k in range(1, n + 1):
            brute = math.fsum(np.prod(list(c))
                              for c in itertools.combinations(x, k))
            got = math.exp(sm.logE[k - 1]) * math.comb(n, k)
            assert got == pytest.approx(brute, rel=1e-9)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_maclaurin_chain_and_slopes(self, family):
        s = spectra.generate(family, 64, 20, seed=9)
        sm = moments.symmetric_means_from_eigenvalues(s.eigenvalues, 6)
        ratios = sm.logE / np.arange(1, 7)
        assert np.all(np.diff(ratios) <= 1e-12)  # E_k**(1/k) nonincreasing
        slopes = np.diff(sm.logE, prepend=0.0)
        assert np.all(np.diff(slopes) <= 1e-12)  # log-concavity

    def test_cancellation_signal(self):
        # extreme outlier: q_4 ~ kappa**4 swamps the alternating sum
        s = spectra.generate("two_point", 1024, 1e6)
        nm = moments.normalize(spectra.trace_powers(s, 4))
        with pytest.raises(moments.CancellationError):
            moments.newton_maclaurin([1024 * Mk for Mk in nm.M], 1024)

    def test_eigenvalue_route_agrees_when_stable(self):
        s = spectra.generate("uniform", 32, 10)
        nm = moments.normalize(spectra.trace_powers(s, 4))
        a = moments.newton_maclaurin([32 * Mk for Mk in nm.M], 32)
        b = moments.symmetric_means_from_eigenvalues(s.eigenvalues, 4)
        np.testing.assert_allclose(a.logE, b.logE, rtol=1e-9)


class TestCentralMoments:
    def test_single(self):
        nm = moments.NormalizedMoments(n=6, M=np.array([1, 7 / 6]))
        mu = moments.central_moments(nm, 2)
        assert mu[0] == pytest.approx(1 / 6, rel=1e-13)

    def test_constant(self):
        nm = moments.NormalizedMoments(n=4, M=np.array([1.0, 1, 1]))
        np.testing.assert_allclose(moments.central_moments(nm, 3), 0,
                                   atol=1e-14)

    def test_two_atom_oracle(self):
        # brute force E[(X-1)**k] for an explicit two-atom measure
        x = np.array([0.5, 2.0])
        w = np.array([2 / 3, 1 / 3])
        M = np.array([np.dot(w, x ** k) for k in range(1, 5)])
        assert M[0] == pytest.approx(1.0)
        M[0] = 1.0
        nm = moments.NormalizedMoments(n=3, M=M)
        mu = moments.central_moments(nm, 4)
        brute = [np.dot(w, (x - 1.0) ** k) for k in (2, 3, 4)]
        np.testing.assert_allclose(mu, brute, rtol=1e-12)


class TestBoxcox:
    def test_identity_transform(self):
        nm = moments.NormalizedMoments(n=8, M=np.array([1, 1.36]))
        G = moments.boxcox_samples(nm, 1.0)
        assert G[2] == pytest.approx(0.36, rel=1e-14)

    def test_small_alpha_limit(self):
        nm = moments.NormalizedMoments(n=8, M=np.array([1, 1.36, 2.1]))
        G = moments.boxcox_samples(nm, 1e-7)
        np.testing.assert_allclose(G[2:], np.log(nm.M[1:]), rtol=1e-6)

    def test_constant_spectrum_zeros(self):
        nm = moments.NormalizedMoments(n=8, M=np.ones(4))
        for alpha in (-0.5, 0.3, 1.0):
            np.testing.assert_array_equal(
                moments.boxcox_samples(nm, alpha), np.zeros(5))

    def test_complex_two_point(self):
        s = spectra.generate("two_point", 1024, 100)
        nm = moments.normalize(spectra.trace_powers(s, 4))
        G = moments.boxcox_samples(nm, 1.3j)
        np.testing.assert_allclose(G[2:], [0.22, 0.57, 0.73], atol=0.005)

    def test_alpha_zero_rejected(self):
        nm = moments.NormalizedMoments(n=8, M=np.array([1, 1.5]))
        with pytest.raises(ValueError):
            moments.boxcox_samples(nm, 0)
