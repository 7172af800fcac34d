"""Synthetic SPD spectrum families and their exact ground-truth statistics.

Eigenvalues are always explicit positive lists; no matrix is ever formed.
Every generated family is scaled so that ``lambda_min = 1`` and
``lambda_max = kappa``.  The six benchmark families:

==========  ==========================================================
geometric   log-uniform spacing, ``kappa**((i-1)/(n-1))``
uniform     linear spacing, ``1 + (kappa-1)*(i-1)/(n-1)``
lognormal   seeded ``exp(N(0, sigma^2))`` draws, ``sigma = log(kappa)/4``,
            rescaled log-affinely onto ``[1, kappa]``
two_point   ``n-1`` eigenvalues at 1 and a single outlier at kappa
bimodal     half the eigenvalues at 1, half at kappa
clustered   ``n/4`` eigenvalues at each of ``kappa**(j/3)``, ``j=0..3``,
            seeded multiplicative +-1% jitter, rescaled onto ``[1, kappa]``
==========  ==========================================================
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .catalog import FAMILIES, GENERATED_FAMILIES, RANDOM_FAMILIES
from .moments import TracePowers

# deterministic families must hit the requested condition number exactly
_KAPPA_RTOL = 1e-12


@dataclass
class Spectrum:
    """Explicit eigenvalue list with family metadata."""

    eigenvalues: np.ndarray
    family: str
    n: int
    kappa: float
    seed: int | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        self.eigenvalues = lam
        if lam.ndim != 1 or lam.size != self.n:
            raise ValueError(f"expected {self.n} eigenvalues, got {lam.size}")
        if not np.all(lam > 0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if (self.family in GENERATED_FAMILIES
                and self.family not in RANDOM_FAMILIES):
            ratio = lam[-1] / lam[0]
            if not math.isclose(ratio, self.kappa, rel_tol=_KAPPA_RTOL):
                raise ValueError(
                    f"eigenvalue ratio {ratio} != kappa {self.kappa}")


@dataclass(frozen=True)
class SpectrumStats:
    """Exact summary statistics of a spectrum.

    ``kprime0 = log(gm/am)`` is the quantity every estimator in this
    package targets; ``logdet = n*(log(am) + kprime0)`` holds by
    construction.
    """

    am: float
    gm: float
    kprime0: float
    logdet: float
    kappa: float


def generate(family: str, n: int, kappa: float,
             seed: int | None = None) -> Spectrum:
    """Generate one of the benchmark spectrum families.

    ``seed`` is required for the random families (lognormal, clustered)
    and ignored for the deterministic ones.
    """
    if family not in GENERATED_FAMILIES:
        raise ValueError(f"cannot generate family {family!r}")
    if n < 2:
        raise ValueError("n must be >= 2")
    if kappa <= 1:
        raise ValueError("kappa must be > 1")
    if family in RANDOM_FAMILIES and seed is None:
        raise ValueError(f"family {family!r} requires a seed")

    if family == "geometric":
        lam = kappa ** (np.arange(n) / (n - 1))
    elif family == "uniform":
        lam = 1.0 + (kappa - 1.0) * np.arange(n) / (n - 1)
    elif family == "two_point":
        lam = np.concatenate([np.ones(n - 1), [kappa]])
    elif family == "bimodal":
        if n % 2:
            raise ValueError("bimodal requires even n")
        lam = np.concatenate([np.ones(n // 2), np.full(n // 2, kappa)])
    elif family == "lognormal":
        rng = np.random.default_rng(seed)
        sigma = 0.25 * math.log(kappa)
        z = np.sort(rng.normal(0.0, sigma, size=n))
        lam = _rescale_log_affine(np.exp(z), kappa)
    else:  # clustered
        if n % 4:
            raise ValueError("clustered requires n divisible by 4")
        rng = np.random.default_rng(seed)
        base = np.repeat(kappa ** (np.arange(4) / 3.0), n // 4)
        jitter = rng.uniform(0.99, 1.01, size=n)
        lam = np.sort(_rescale_log_affine(base * jitter, kappa))

    if family in RANDOM_FAMILIES:
        lam = np.sort(lam)
    return Spectrum(lam, family, n, float(kappa), seed)


def custom_spectrum(eigenvalues) -> Spectrum:
    """Wrap an explicit eigenvalue list as a Spectrum."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    return Spectrum(lam, "custom", lam.size, float(lam[-1] / lam[0]))


def _rescale_log_affine(lam: np.ndarray, kappa: float) -> np.ndarray:
    """Map log-eigenvalues affinely so min -> 1 and max -> kappa.

    Monotone in log space, so the distribution shape is preserved.
    """
    y = np.log(lam)
    lo, hi = y.min(), y.max()
    if hi <= lo:
        raise ValueError("degenerate sample: all eigenvalues equal")
    return np.exp((y - lo) * (math.log(kappa) / (hi - lo)))


def exact_stats(s: Spectrum) -> SpectrumStats:
    lam = s.eigenvalues
    n = s.n
    am = math.fsum(lam) / n
    logdet = math.fsum(np.log(lam))
    kprime0 = logdet / n - math.log(am)
    gm = math.exp(logdet / n)
    return SpectrumStats(am=am, gm=gm, kprime0=kprime0, logdet=logdet,
                         kappa=float(lam[-1] / lam[0]))


def trace_powers(s: Spectrum, m: int) -> TracePowers:
    """Power sums ``p_k = sum(lambda_i**k)`` for ``k = 1..m``.

    Each sum is compensated (exact rounding via ``math.fsum``) because
    the summands span ``kappa**m`` orders of magnitude.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    lam = s.eigenvalues
    if m * math.log(lam[-1]) >= math.log(sys.float_info.max):
        raise OverflowError(
            f"lambda_max**{m} exceeds the representable float range")
    return TracePowers(n=s.n, p=[math.fsum(lam ** k) for k in range(1, m + 1)])
