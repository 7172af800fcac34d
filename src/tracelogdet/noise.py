"""Multiplicative trace noise: simulation, amplification theory, Monte Carlo.

Noisy traces ``p_k (1 + eps_k)`` with i.i.d. Gaussian ``eps_k`` propagate
through the log-domain interpolation weights; to first order the estimate
variance is ``eta**2 * alpha_m**2`` where the amplification factor

    alpha_m = sqrt(sum_{k=2..m} w_k**2 + (m-1)**2)

grows like ``2**m / m**(5/4)``.  The ``(m-1)`` term comes from normalizing
every moment by ``p_1**k``, which correlates all samples with eps_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import lagrange_weights
from .moments import TracePowers, _normalized_powers
from .spectra import Spectrum, exact_stats, trace_powers

# resample threshold: a draw at or below -1 would flip the trace sign
_TRUNC_AT = -1.0 + 1e-6


@dataclass(frozen=True)
class NoiseSpec:
    """Relative noise level and seeding for multiplicative perturbations."""

    eta: float
    seed: int

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")


@dataclass(frozen=True)
class NoiseTheory:
    m: int
    weight_norm: float
    alpha: float
    bias_noise: float
    crossover_eta: float | None = None
    rmse_pred: float | None = None


@dataclass(frozen=True)
class NoiseStats:
    trials: int
    bias: float
    sd: float
    rmse: float
    truncations: int = 0


def _trial_rng(seed: int, trial: int | None) -> np.random.Generator:
    # counter construction: trial t gets the same stream regardless of
    # execution order or of how many trials run
    key = (trial,) if trial is not None else ()
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def perturb(tp: TracePowers, ns: NoiseSpec,
            trial: int | None = None) -> tuple[TracePowers, int]:
    """Apply independent relative noise to each trace power.

    Returns the perturbed traces and the number of resampled draws (draws
    at or below -1 would produce nonpositive traces and are redrawn).
    """
    if ns.eta >= 0.5:
        raise ValueError("eta must be < 0.5 to keep traces positive")
    if ns.eta == 0.0:
        return tp, 0
    rng = _trial_rng(ns.seed, trial)
    eps = rng.normal(0.0, ns.eta, size=tp.m).tolist()
    truncations = 0
    for k, e in enumerate(eps):
        while e <= _TRUNC_AT:
            e = eps[k] = float(rng.normal(0.0, ns.eta))
            truncations += 1
    p = [pk * (1.0 + e) for pk, e in zip(tp.p, eps)]
    return TracePowers(n=tp.n, p=p), truncations


def noise_bias(m: int, eta: float) -> float:
    """Second-order bias from the log nonlinearity: ``(eta**2/2)(1 - H_m)``."""
    if m < 1:
        raise ValueError("m must be >= 1")
    H_m = math.fsum(1.0 / k for k in range(1, m + 1))
    return 0.5 * eta ** 2 * (1.0 - H_m)


def theory(m: int, eta: float, b_m: float | None = None) -> NoiseTheory:
    """Noise amplification and, given the interpolation bias, RMSE prediction.

    The RMSE prediction includes both bias terms (interpolation plus the
    small log-nonlinearity bias); the crossover level uses the dominant
    interpolation bias alone.
    """
    wv = lagrange_weights(m)
    wn = float(np.linalg.norm(wv.w[1:]))  # w_2..w_m only
    alpha = math.sqrt(wn ** 2 + (m - 1) ** 2)
    b_noise = noise_bias(m, eta)
    crossover = rmse = None
    if b_m is not None:
        crossover = abs(b_m) / alpha
        rmse = math.sqrt((b_m + b_noise) ** 2 + (alpha * eta) ** 2)
    return NoiseTheory(m=m, weight_norm=wn, alpha=alpha, bias_noise=b_noise,
                       crossover_eta=crossover, rmse_pred=rmse)


def optimal_order(bias_by_m: dict[int, float], eta: float) -> int:
    """Order minimizing predicted total error; ties go to the smaller m."""
    if not bias_by_m:
        raise ValueError("bias_by_m must be nonempty")
    best_m, best_val = None, math.inf
    for m in sorted(bias_by_m):
        alpha = theory(m, eta).alpha
        val = math.sqrt(bias_by_m[m] ** 2 + (alpha * eta) ** 2)
        if val < best_val:
            best_m, best_val = m, val
    return best_m


def weight_norm_fit(m_range, norms=None) -> tuple[float, float, float]:
    """Fit ``||w||_2 = c * 2**m / m**a`` over integer orders ``m_range``.

    Least squares on the raw norms (the log-linearized fit downweights the
    large-m values and lands on a visibly different exponent), solved by
    variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 1973): the
    model is linear in ``c``, so for fixed ``a`` the best ``c`` is
    ``f.y / f.f`` with ``f = 2**m / m**a``, and bisection on the derivative
    of the projected residual finds ``a`` in ``[0, 3]``.  Returns
    ``(c, a, r_squared)`` with r-squared computed on the raw values.
    ``norms`` overrides the exact weight norms, which lets the fit be
    validated on synthetic inputs.
    """
    ms = np.array(sorted(m_range), dtype=float)
    if ms.size < 3:
        raise ValueError("need at least 3 orders to fit")
    if norms is None:
        norms = [theory(int(m), 0.0).weight_norm for m in ms]
    norms = np.asarray(norms, dtype=float)
    logm = np.log(ms)

    def project(a):
        f = 2.0 ** ms / ms ** a
        c = float(f @ norms / (f @ f))
        return c, f, norms - c * f

    lo, hi = 0.0, 3.0
    for _ in range(60):  # halves [0, 3] down to round-off
        a = 0.5 * (lo + hi)
        c, f, res = project(a)
        # d/da ||y - c f||**2 at the projected c (f' = -log(m) f)
        if c * float(res @ (logm * f)) > 0:
            hi = a
        else:
            lo = a
    ss_res = float(res @ res)
    ss_tot = float(np.sum((norms - norms.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return c, a, r2


def monte_carlo(s: Spectrum, m: int, eta: float, trials: int,
                seed: int) -> NoiseStats:
    """Empirical bias/SD/RMSE of the order-m estimate under trace noise.

    Per-trial seeds are derived from ``(seed, trial)``, so the statistics
    do not depend on the order of the trials.  Each trial's estimate runs
    the arithmetic of ``normalize``, ``cumulants`` and ``k0m_estimate``
    (the same moment helper, ``math.log`` and compensated sum) without
    building their result types.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    truth = exact_stats(s).kprime0
    tp = trace_powers(s, m)
    ns = NoiseSpec(eta=eta, seed=seed)
    w = lagrange_weights(m).w[1:]
    ests = []
    truncations = 0
    for t in range(trials):
        noisy, trunc = perturb(tp, ns, trial=t)
        truncations += trunc
        M = _normalized_powers(noisy.p, tp.n)
        ests.append(math.fsum([wj * math.log(Mj)
                               for wj, Mj in zip(w, M[1:])]))
    ests = np.array(ests)
    bias = float(np.mean(ests) - truth)
    sd = float(np.std(ests))
    rmse = math.sqrt(float(np.mean((ests - truth) ** 2)))
    return NoiseStats(trials=trials, bias=bias, sd=sd, rmse=rmse,
                      truncations=truncations)
