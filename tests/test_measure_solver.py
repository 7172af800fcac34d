import math

import numpy as np
import pytest

from tracelogdet import measure_solver, moments, spectra
from tracelogdet.measure_solver import (AtomicMeasure, InfeasibleError,
                                        moment_residual, solve)


def _moments_of(family, n, kappa, k, seed=None):
    s = spectra.generate(family, n, kappa, seed=seed)
    nm = moments.normalize(spectra.trace_powers(s, k))
    return nm.M[:k], spectra.exact_stats(s), s


class TestBasics:
    def test_max_k1_point_mass(self):
        obj, mu = solve("max", [1.0])
        assert obj == 0.0
        assert mu.atoms == [(1.0, 1.0)]

    def test_degenerate_point_mass(self):
        obj, mu = solve("max", [1.0, 1.0])
        assert obj == 0.0
        assert mu.atoms == [(1.0, 1.0)]

    def test_m2_below_one_rejected(self):
        with pytest.raises(InfeasibleError):
            solve("max", [1.0, 0.9])

    def test_min_needs_floor(self):
        with pytest.raises(ValueError):
            solve("min", [1.0, 1.36])
        with pytest.raises(InfeasibleError):
            solve("min", [1.0, 1.36], r=1.2)

    def test_moment_residual(self):
        mu = AtomicMeasure(np.array([0.4, 1.6]), np.array([0.5, 0.5]))
        assert moment_residual(mu, [1.0, 1.36]) == pytest.approx(0, abs=1e-15)
        point = AtomicMeasure(np.array([1.0]), np.array([1.0]))
        assert moment_residual(point, [1.0]) == 0.0

    def test_one_weight_per_atom(self):
        with pytest.raises(ValueError, match="1 atoms but 2 weights"):
            AtomicMeasure([1.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="2 atoms but 1 weights"):
            AtomicMeasure([1.0, 2.0], [1.0])


def test_tridiagonal_eigenvalues_match_lapack():
    # graded entries of both signs, split blocks, and both iteration
    # directions (the end of smaller magnitude may be either one)
    rng = np.random.default_rng(3)
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        scale = 10.0 ** rng.uniform(-6, 6, size=n)
        d = rng.uniform(-1, 1, n) * scale
        e = rng.uniform(-1, 1, n - 1) * np.sqrt(scale[:-1] * scale[1:])
        if n > 2 and rng.uniform() < 0.2:
            e[rng.integers(0, n - 1)] = 0.0
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        got = measure_solver._tridiagonal_eigenvalues(d.tolist(), e.tolist())
        assert got == sorted(got)
        np.testing.assert_allclose(got, np.linalg.eigvalsh(T), rtol=0,
                                   atol=8 * np.finfo(float).eps
                                   * np.abs(T).sum(axis=1).max())


class TestLowerClosedFormInstance:
    """The {1, 4} spectrum: M = (1, 1.36), floor r = 0.4."""

    def test_solution(self):
        obj, mu = solve("min", [1.0, 1.36], r=0.4)
        assert obj == pytest.approx(math.log(0.8), abs=1e-7)
        assert moment_residual(mu, [1.0, 1.36]) <= 1e-8
        xs = dict(mu.atoms)
        assert min(xs) == pytest.approx(0.4, abs=1e-9)
        assert xs[min(xs)] == pytest.approx(0.5, abs=1e-5)

    def test_grid_brute_force_agreement(self):
        # independent oracle: 3-atom measures, two free atoms on a 1e-3
        # grid over [r, x_max], weights solved from the moment system
        r, M2 = 0.4, 1.36
        grid = np.arange(r, 2.0 + 1e-12, 1e-3)
        best = math.inf
        x2 = grid[None, :]
        x3 = grid[:, None]
        # weights from 1, x, x^2 moment match (3x3 Vandermonde, closed form)
        det = (x2 - r) * (x3 - r) * (x3 - x2)
        with np.errstate(divide="ignore", invalid="ignore"):
            w1 = (x2 * x3 - (x2 + x3) + M2) / ((x2 - r) * (x3 - r))
            w2 = -(r * x3 - (r + x3) + M2) / ((x2 - r) * (x3 - x2))
            w3 = (r * x2 - (r + x2) + M2) / ((x3 - r) * (x3 - x2))
            obj = (w1 * math.log(r) + w2 * np.log(x2) + w3 * np.log(x3))
            ok = (np.abs(det) > 1e-12) & (w1 >= -1e-12) & (w2 >= -1e-12) \
                & (w3 >= -1e-12)
            best = float(np.min(np.where(ok, obj, math.inf)))
        solved, _ = solve("min", [1.0, M2], r=r)
        assert solved == pytest.approx(best, abs=1e-4)

    def test_fixed_weights_matches_two_point_profile(self):
        # freezing weights at ((n-1)/n, 1/n) reproduces the sharp
        # mean-variance configuration for n = 2: atoms {0.4, 1.6}
        obj, mu = solve("max", [1.0, 1.36],
                        fixed_weights=np.array([0.5, 0.5]))
        assert obj == pytest.approx(math.log(0.8), rel=1e-9)
        np.testing.assert_allclose(mu.x, [0.4, 1.6], rtol=1e-7)

    @pytest.mark.parametrize("M,w", [([1.0, 1.36], [0.2, 0.3, 0.5]),
                                     ([1.0, 1.36, 2.0], [0.5, 0.5]),
                                     ([1.0, 1.36], [1.0, 0.0])])
    def test_fixed_weights_other_shapes_rejected(self, M, w):
        with pytest.raises(ValueError):
            solve("max", M, fixed_weights=np.array(w))


class TestContracts:
    @pytest.mark.parametrize("family,kappa", [("geometric", 10),
                                              ("uniform", 100),
                                              ("clustered", 50)])
    @pytest.mark.parametrize("k", [3, 4])
    def test_witness_feasible_and_objective_nonpositive(self, family, kappa,
                                                        k):
        M, st, s = _moments_of(family, 64, kappa, k, seed=4)
        obj, mu = solve("max", M)
        scale = np.maximum(1.0, M)
        resid = max(abs(mu.moment(j + 1) - M[j]) / scale[j]
                    for j in range(k))
        assert resid <= 1e-8
        assert obj <= 1e-12
        assert obj >= st.kprime0 - 1e-9  # upper bound covers the truth

    @pytest.mark.parametrize("k", [3, 4])
    def test_lower_witness_pins_floor(self, k):
        M, st, s = _moments_of("geometric", 64, 10, k)
        r = float(s.eigenvalues[0]) / st.am
        obj, mu = solve("min", M, r=r)
        assert abs(mu.x[0] - r) <= 1e-9 * max(1, r)
        assert obj <= st.kprime0 + 1e-9  # lower bound stays below the truth

    def test_determinism(self):
        M, _, _ = _moments_of("uniform", 256, 40, 4)
        a_obj, a_mu = solve("max", M)
        b_obj, b_mu = solve("max", M)
        assert a_obj == b_obj
        assert np.array_equal(a_mu.x, b_mu.x)
        assert np.array_equal(a_mu.w, b_mu.w)

    @pytest.mark.parametrize("family", ["geometric", "clustered"])
    @pytest.mark.parametrize("k", range(3, 8))
    @pytest.mark.parametrize("sense", ["max", "min"])
    def test_extremality_self_consistency(self, family, k, sense):
        # appending the witness's next moment as a constraint leaves the
        # optimum unchanged: the witness is already extremal for it
        M, st, s = _moments_of(family, 1024, 100, k, seed=20)
        r = float(s.eigenvalues[0]) / st.am if sense == "min" else None
        obj, mu = solve(sense, M, r=r)
        M_next = np.append(M, mu.moment(k + 1))
        obj2, _ = solve(sense, M_next, r=r)
        assert obj2 == pytest.approx(obj, abs=1e-6)

    @pytest.mark.parametrize("trial", range(12))
    def test_validity_on_random_spectra(self, trial):
        # adversarial-ish random spectra: lognormal bulk plus occasional
        # heavy outliers; bounds must still bracket the true mean log
        rng = np.random.default_rng(1000 + trial)
        lam = np.exp(rng.normal(0.0, rng.uniform(0.2, 1.2), size=96))
        if trial % 3 == 0:
            lam[: trial % 5 + 1] *= rng.uniform(20, 200)
        s = spectra.custom_spectrum(lam)
        st = spectra.exact_stats(s)
        nm = moments.normalize(spectra.trace_powers(s, 8))
        r = float(np.min(lam)) / st.am
        for k in range(3, 9):
            u, _ = solve("max", nm.M[:k])
            l, _ = solve("min", nm.M[:k], r=r)
            assert u >= st.kprime0 - 1e-9
            assert l <= st.kprime0 + 1e-9
            assert u <= 1e-12  # Jensen

    def test_exact_recovery_two_point(self):
        M, st, _ = _moments_of("two_point", 1024, 100, 8)
        obj, mu = solve("max", M)
        assert len(mu.atoms) == 2
        assert obj == pytest.approx(st.kprime0, abs=1e-9)
        obj_min, _ = solve("min", M, r=mu.x[0])
        assert obj_min == pytest.approx(st.kprime0, abs=1e-9)


@pytest.mark.parametrize("family,kappa", [("geometric", 100),
                                          ("clustered", 100),
                                          ("uniform", 1000)])
@pytest.mark.parametrize("k", [7, 8])
@pytest.mark.parametrize("sense", ["max", "min"])
def test_weights_match_high_precision(family, kappa, k, sense, monkeypatch):
    # each node's weight multiplies about cap**k in the top moment, so the
    # smallest weights must be right in relative terms, not only absolute
    mpmath = pytest.importorskip("mpmath")
    jacobi_rule, rules = measure_solver._jacobi_rule, []

    def recorded(diag, offdiag_sq):
        x, w = jacobi_rule(diag, offdiag_sq)
        rules.append((diag, offdiag_sq, w))
        return x, w

    monkeypatch.setattr(measure_solver, "_jacobi_rule", recorded)
    M, st, s = _moments_of(family, 1024, kappa, k, seed=5)
    r = float(s.eigenvalues[0]) / st.am if sense == "min" else None
    _, mu = solve(sense, M, r=r)
    resid = max(abs(mu.moment(j + 1) - M[j]) / max(1.0, M[j])
                for j in range(k))
    assert resid <= 1e-12
    assert len(rules) == 1
    diag, offdiag_sq, w = rules[0]
    with mpmath.workdps(50):
        n = len(diag)
        T = mpmath.zeros(n, n)
        for i in range(n):
            T[i, i] = diag[i]
        for i, b in enumerate(offdiag_sq):
            T[i, i + 1] = T[i + 1, i] = mpmath.sqrt(b)
        vals, vecs = mpmath.eigsy(T)
        exact = [float(vecs[0, i] ** 2) for i in sorted(
            range(n), key=lambda i: vals[i])]
    np.testing.assert_allclose(w, exact, rtol=1e-12, atol=0)
