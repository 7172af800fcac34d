"""Matrix-free log-determinant estimation from a few trace powers.

Given only ``p_k = tr(A**k)`` for small k, the toolkit estimates
``log det(A)`` by interpolating the log-moment curve of the normalized
eigenvalue distribution, computes deterministic certified bounds on the
geometric mean via moment-constrained atomic measures, and diagnoses the
spectra on which trace-based estimation must fail.
"""

from .analysis import (NonidentPair, RadiusReport, SaturationScan,
                       nonidentifiable_pair, saturation_scan, taylor_radius)
from .bounds import (BoundsReport, GapDiagnostic, bounds_report,
                     certified_interval, gap_diagnostic, ktrace_bound,
                     last_slope_upper, lower_k2_closed, maclaurin_upper,
                     rodin_upper)
from .estimators import (EstimateReport, WeightVector, cv_diagnostic,
                         k0m_estimate, lagrange_weights, latane_estimate,
                         lognormal_closed_form, transform_estimate)
from .measure_solver import (AtomicMeasure, InfeasibleError, moment_residual,
                             solve)
from .moments import (CancellationError, CumulantSamples, NormalizedMoments,
                      SymmetricMeans, TracePowers, boxcox_samples,
                      central_moments, cumulants, newton_maclaurin,
                      normalize, symmetric_means_from_eigenvalues)
from .noise import (NoiseSpec, NoiseStats, NoiseTheory, monte_carlo,
                    noise_bias, optimal_order, perturb, theory,
                    weight_norm_fit)
from .report import CertifiedReport, certify
from .spectra import (Spectrum, SpectrumStats, custom_spectrum, exact_stats,
                      generate, trace_powers)

__version__ = "0.1.0"
