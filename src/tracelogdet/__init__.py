"""Matrix-free log-determinant estimation from a few trace powers.

Given only ``p_k = tr(A**k)`` for small k, the toolkit estimates
``log det(A)`` by interpolating the log-moment curve of the normalized
eigenvalue distribution, computes deterministic certified bounds on the
geometric mean via moment-constrained atomic measures, and diagnoses the
spectra on which trace-based estimation must fail.

The names below load their module on first use (PEP 562), so importing
the package, or a query on trace powers, does not import numpy; spectrum
generation, the noise study and the tables do.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": ("NonidentPair", "RadiusReport", "SaturationScan",
                 "nonidentifiable_pair", "saturation_scan", "taylor_radius"),
    "bounds": ("BoundsReport", "GapDiagnostic", "bounds_report",
               "certified_interval", "gap_diagnostic", "ktrace_bound",
               "last_slope_upper", "lower_k2_closed", "maclaurin_upper",
               "rodin_upper"),
    "estimators": ("EstimateReport", "WeightVector", "cv_diagnostic",
                   "k0m_estimate", "lagrange_weights", "latane_estimate",
                   "lognormal_closed_form", "transform_estimate"),
    "measure_solver": ("AtomicMeasure", "moment_residual", "solve"),
    "moments": ("CancellationError", "CumulantSamples", "InfeasibleError",
                "NormalizedMoments", "SymmetricMeans", "TracePowers",
                "boxcox_samples", "central_moments", "cumulants",
                "newton_maclaurin", "normalize",
                "symmetric_means_from_eigenvalues"),
    "noise": ("NoiseSpec", "NoiseStats", "NoiseTheory", "monte_carlo",
              "noise_bias", "optimal_order", "perturb", "theory",
              "weight_norm_fit"),
    "report": ("CertifiedReport", "certify"),
    "spectra": ("Spectrum", "SpectrumStats", "custom_spectrum", "exact_stats",
                "generate", "trace_powers"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _EXPORTS.keys())
