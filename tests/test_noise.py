import math

import numpy as np
import pytest

from tracelogdet import estimators, moments, noise, spectra


@pytest.fixture(scope="module")
def geo100():
    s = spectra.generate("geometric", 1024, 100)
    st = spectra.exact_stats(s)
    K = moments.cumulants(moments.normalize(spectra.trace_powers(s, 8)))
    biases = {m: estimators.k0m_estimate(K, m).kprime0_hat - st.kprime0
              for m in range(2, 9)}
    return s, st, biases


class TestPerturb:
    def test_zero_eta_identity(self):
        tp = moments.TracePowers(n=4, p=[4.0, 8.0])
        out, trunc = noise.perturb(tp, noise.NoiseSpec(eta=0.0, seed=1))
        assert np.array_equal(out.p, tp.p) and trunc == 0

    def test_same_seed_identical(self):
        tp = moments.TracePowers(n=4, p=[4.0, 8.0, 20.0])
        ns = noise.NoiseSpec(eta=0.05, seed=7)
        a, _ = noise.perturb(tp, ns, trial=3)
        b, _ = noise.perturb(tp, ns, trial=3)
        assert np.array_equal(a.p, b.p)
        c, _ = noise.perturb(tp, ns, trial=4)
        assert not np.array_equal(a.p, c.p)

    def test_unbiased(self):
        tp = moments.TracePowers(n=4, p=[4.0, 8.0])
        ns = noise.NoiseSpec(eta=0.05, seed=11)
        draws = np.array([noise.perturb(tp, ns, trial=t)[0].p[1]
                          for t in range(20000)])
        se = 8.0 * 0.05 / math.sqrt(draws.size)
        assert abs(draws.mean() - 8.0) < 3 * se

    def test_truncation_resampled_and_counted(self):
        tp = moments.TracePowers(n=4, p=[4.0, 8.0])
        ns = noise.NoiseSpec(eta=0.49, seed=3)
        total = 0
        for t in range(4000):
            out, trunc = noise.perturb(tp, ns, trial=t)
            assert all(pk > 0 for pk in out.p)
            total += trunc
        assert total > 0  # ~2% of draws sit below -1 at eta = 0.49

    def test_eta_guard(self):
        tp = moments.TracePowers(n=4, p=[4.0])
        with pytest.raises(ValueError):
            noise.perturb(tp, noise.NoiseSpec(eta=0.5, seed=1))
        with pytest.raises(ValueError):
            noise.NoiseSpec(eta=-0.1, seed=1)


class TestTheory:
    def test_reference_values(self):
        th4 = noise.theory(4, 0.01)
        assert round(th4.weight_norm, 2) == 3.29
        assert round(th4.alpha, 2) == 4.45
        assert round(th4.alpha * 0.01, 3) == 0.045
        assert round(noise.theory(2, 0.01).alpha, 2) == 1.12

    @pytest.mark.parametrize("m", range(2, 9))
    def test_alpha_brute_force(self, m):
        wv = estimators.lagrange_weights(m)
        ssq = math.fsum(float(f) ** 2 for f in wv.w_exact[1:])
        expect = math.sqrt(ssq + (m - 1) ** 2)
        assert noise.theory(m, 0.0).alpha == pytest.approx(expect, abs=1e-12)

    def test_noise_bias(self):
        assert noise.noise_bias(1, 0.3) == 0.0
        assert noise.noise_bias(4, 0.01) == pytest.approx(
            0.5e-4 * (1 - 25 / 12), rel=1e-12)
        assert noise.noise_bias(6, 0.0) == 0.0

    def test_alpha_monotone(self):
        alphas = [noise.theory(m, 0.0).alpha for m in range(2, 12)]
        assert np.all(np.diff(alphas) > 0)

    def test_crossover_and_rmse(self):
        th = noise.theory(4, 0.01, b_m=0.0429)
        assert th.crossover_eta == pytest.approx(0.0429 / th.alpha, rel=1e-12)
        assert th.rmse_pred == pytest.approx(
            math.sqrt((0.0429 + th.bias_noise) ** 2 + (th.alpha * 0.01) ** 2),
            rel=1e-12)


class TestOptimalOrder:
    def test_pure_bias(self, geo100):
        _, _, biases = geo100
        m0 = noise.optimal_order(biases, 0.0)
        assert m0 == min(biases, key=lambda m: (abs(biases[m]), m))

    def test_huge_eta_prefers_smallest(self, geo100):
        _, _, biases = geo100
        assert noise.optimal_order(biases, 10.0) == min(biases)

    def test_shift_at_one_percent(self, geo100):
        _, _, biases = geo100
        assert noise.optimal_order(biases, 0.0) == 5
        assert noise.optimal_order(biases, 0.01) == 4


class TestWeightNormFit:
    def test_recovers_synthetic_exponent(self):
        ms = range(6, 21)
        synth = [3.1 * 2 ** m / m ** 1.25 for m in ms]
        c, a, r2 = noise.weight_norm_fit(ms, norms=synth)
        assert a == pytest.approx(1.25, abs=1e-8)
        assert c == pytest.approx(3.1, rel=1e-8)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_actual_weights(self):
        c, a, r2 = noise.weight_norm_fit(range(6, 21))
        assert a == pytest.approx(1.301, abs=0.002)
        assert r2 >= 0.9999

    def test_normalized_coefficient_converges(self):
        wn = noise.theory(20, 0.0).weight_norm
        coef = wn * 20 ** 1.25 / 2 ** 20
        assert coef == pytest.approx(2 / math.pi ** 0.25, rel=0.25)


class TestMonteCarlo:
    def test_eta_zero_is_pure_bias(self, geo100):
        s, st, biases = geo100
        stats = noise.monte_carlo(s, 4, 0.0, 5, seed=0)
        assert stats.sd == 0.0
        assert stats.bias == pytest.approx(biases[4], rel=1e-12)

    def test_rmse_decomposition(self, geo100):
        s, _, _ = geo100
        stats = noise.monte_carlo(s, 4, 0.01, 400, seed=5)
        assert stats.rmse ** 2 == pytest.approx(
            stats.bias ** 2 + stats.sd ** 2, abs=1e-12)

    def test_bias_matches_theory_at_small_eta(self, geo100):
        s, _, biases = geo100
        eta, trials = 0.002, 3000
        stats = noise.monte_carlo(s, 4, eta, trials, seed=21)
        predicted = biases[4] + noise.noise_bias(4, eta)
        se = noise.theory(4, eta).alpha * eta / math.sqrt(trials)
        assert abs(stats.bias - predicted) < 3 * se

    @pytest.mark.parametrize("eta", [0.001, 0.01, 0.05])
    def test_rmse_bracketed(self, geo100, eta):
        s, _, biases = geo100
        stats = noise.monte_carlo(s, 4, eta, 1000, seed=9)
        envelope = max(abs(biases[4]), noise.theory(4, eta).alpha * eta)
        assert envelope / math.sqrt(2) * 0.85 <= stats.rmse \
            <= math.sqrt(2) * envelope * 1.15

    @pytest.mark.parametrize("eta,trials", [
        pytest.param(0.01, 64, id="0.01"), pytest.param(0.45, 64, id="0.45"),
        pytest.param(0.01, 3000, id="0.01-3000-trials")])
    def test_matches_scalar_pipeline(self, geo100, eta, trials):
        # eta = 0.45 forces truncation redraws; a few of 3000 trials at
        # eta = 0.01 land on moments where numpy's log or power differs
        # from the stdlib's in the last bit
        s, st, _ = geo100
        m, seed = 4, 17
        tp = spectra.trace_powers(s, m)
        ns = noise.NoiseSpec(eta=eta, seed=seed)
        ests, truncations = [], 0
        for t in range(trials):
            noisy, trunc = noise.perturb(tp, ns, trial=t)
            K = moments.cumulants(moments.normalize(noisy))
            ests.append(estimators.k0m_estimate(K, m).kprime0_hat)
            truncations += trunc
        ests = np.array(ests)
        expect = noise.NoiseStats(
            trials=trials, bias=float(np.mean(ests) - st.kprime0),
            sd=float(np.std(ests)),
            rmse=math.sqrt(float(np.mean((ests - st.kprime0) ** 2))),
            truncations=truncations)
        assert noise.monte_carlo(s, m, eta, trials, seed=seed) == expect
        assert (truncations > 0) == (eta == 0.45)
