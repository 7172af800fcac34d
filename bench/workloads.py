"""Seeded inputs, query execution and output checks for each workload.

Every workload is a closed loop with one client: the next query starts
when the previous one has returned.  Inputs are a pure function of the
workload seed.  Query ``i`` takes its family from ``i % 6`` and its other
attributes from a mixed-radix digit that shifts with each pass over the
families, so any prefix of the stream is balanced across families,
sizes, floors and noise levels; the condition number follows a
golden-ratio sequence with a seeded offset, log-uniform in [10, 1000].
A short run therefore sees the same mix of solver paths on every seed.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import random
from dataclasses import dataclass, field

from tracelogdet import io, noise, spectra
from tracelogdet.estimators import cv_diagnostic, k0m_estimate
from tracelogdet.moments import TracePowers, cumulants, normalize

FAMILIES = ("geometric", "uniform", "lognormal", "two_point", "bimodal",
            "clustered")
SIZES = (1024, 4096)
FLOOR_SHARES = (1.0, 0.5)          # r = c * lambda_min / AM
NOISE_LEVELS = (0.01, 0.05)
CERTIFY_M = 4
CERTIFY_KS = (2, 3, 4)
MC_ORDERS = (3, 4, 5, 6)           # the noise_crossover grid
MC_LEVELS = (0.001, 0.01, 0.05)
MC_TRIALS = 4000
MC_SD_RTOL = 0.15                  # criterion 12's tolerance
MC_SD_MAX_ETA = 0.01
CHECK_RTOL = 1e-9                  # criterion 06's tolerance on GM/AM
_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# ValueError texts with which certify refuses traces that no spectrum with
# the stated floor can produce; noise and a halved p_4 make such inputs
REJECTION_TEXTS = ("L_best > U_best", "violates Jensen", "no real spectrum")


def _digit(i: int, radix: int) -> int:
    """Attribute digit of query i; bijective in i // 6 for each family."""
    return ((radix - 1) * (i // len(FAMILIES)) + i % len(FAMILIES)) % radix


class Stream:
    """Seeded, never-repeating parameters for query ``i``."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be >= 0")
        self.seed = seed
        self.offset = random.Random(seed).random()

    def kappa(self, i: int) -> float:
        u = (self.offset + i * _PHI) % 1.0
        return 10.0 ** (1.0 + 2.0 * u)

    def spectrum_seed(self, i: int) -> int:
        return self.seed * 1_000_003 + i

    def spectrum(self, i: int, family: str, n: int):
        return spectra.generate(family, n, self.kappa(i),
                                seed=self.spectrum_seed(i))


# ---------------------------------------------------------------------------
# certify-exact / certify-noisy
# ---------------------------------------------------------------------------

@dataclass
class CertifyQuery:
    tp: TracePowers
    r: float
    n: int
    truth_ratio: float       # GM/AM of the exact spectrum
    truth_logdet: float
    truth_kprime0: float
    noisy: bool
    desc: dict = field(default_factory=dict)

    def key(self) -> tuple:
        return (self.tp.n, *map(float, self.tp.p))

    def to_json(self) -> str:
        return json.dumps({"n": self.tp.n, "p": [float(x) for x in self.tp.p],
                           "m": CERTIFY_M, "ks": list(CERTIFY_KS),
                           "r": self.r})


def certify_query(stream: Stream, i: int, noisy: bool) -> CertifyQuery:
    family = FAMILIES[i % len(FAMILIES)]
    if noisy:
        d = _digit(i, 8)
        eta, n, c = NOISE_LEVELS[d % 2], SIZES[d // 2 % 2], FLOOR_SHARES[d // 4]
        # one query in eight, each family once per pass: p_4 halved, traces
        # no spectrum can produce
        halved = d == (3 * (i % len(FAMILIES)) + 1) % 8
    else:
        d = _digit(i, 4)
        n, c, eta, halved = SIZES[d % 2], FLOOR_SHARES[d // 2], 0.0, False
    s = stream.spectrum(i, family, n)
    st = spectra.exact_stats(s)
    tp = spectra.trace_powers(s, CERTIFY_M)
    if noisy:
        tp, _ = noise.perturb(tp, noise.NoiseSpec(
            eta=eta, seed=stream.spectrum_seed(i)))
        if halved:
            p = tp.p.copy()
            p[3] *= 0.5
            tp = TracePowers(n=tp.n, p=p)
    r = c * float(s.eigenvalues[0]) / st.am
    return CertifyQuery(tp=tp, r=r, n=n, truth_ratio=st.gm / st.am,
                        truth_logdet=st.logdet, truth_kprime0=st.kprime0,
                        noisy=noisy,
                        desc={"family": family, "n": n, "kappa": s.kappa,
                              "c": c, "eta": eta, "p4_halved": halved})


def _setup_spectrum(stream: Stream, rep: int):
    """Geometric n=1024 with kappa within 5% of 100, distinct per rep.

    Set-up queries are near-identical so that setup_s measures import and
    warm-up, not the spread of solver cost across the stream.
    """
    kappa = 100.0 * (0.95 + 0.1 * random.Random(
        f"setup-{stream.seed}-{rep}").random())
    return spectra.generate("geometric", 1024, kappa)


def setup_certify_query(stream: Stream, rep: int, noisy: bool) -> CertifyQuery:
    s = _setup_spectrum(stream, rep)
    st = spectra.exact_stats(s)
    tp = spectra.trace_powers(s, CERTIFY_M)
    if noisy:
        tp, _ = noise.perturb(tp, noise.NoiseSpec(
            eta=NOISE_LEVELS[0], seed=stream.seed * 7 + rep))
    return CertifyQuery(tp=tp, r=float(s.eigenvalues[0]) / st.am, n=1024,
                        truth_ratio=st.gm / st.am, truth_logdet=st.logdet,
                        truth_kprime0=st.kprime0, noisy=noisy)


def check_certify(q: CertifyQuery, rep) -> str | None:
    """Reason the report is wrong, or None.

    Exact traces: the interval must contain the truth, with criterion 06's
    relative tolerance, because sharp two-point and bimodal spectra give
    U = L = truth to rounding.  Noisy traces move the truth, so only the
    report's shape is checked; any verdict string is accepted.
    """
    lo, hi = rep.interval
    if not (math.isfinite(hi) and lo <= hi and isinstance(rep.verdict, str)):
        return f"malformed report: interval ({lo}, {hi}), verdict {rep.verdict!r}"
    if q.noisy:
        return None
    U, L = rep.bounds.U_best, rep.bounds.L_best
    if U < q.truth_ratio * (1 - CHECK_RTOL):
        return f"upper bound {U!r} below true GM/AM {q.truth_ratio!r}"
    if L is not None and L > q.truth_ratio * (1 + CHECK_RTOL):
        return f"lower bound {L!r} above true GM/AM {q.truth_ratio!r}"
    return None


def rejection(exc: BaseException) -> str | None:
    """The refusal text ``exc`` carries, if it refuses inconsistent traces."""
    if isinstance(exc, ValueError):
        for text in REJECTION_TEXTS:
            if text in str(exc):
                return text
    return None


def interval_stats(q: CertifyQuery, rep) -> tuple[float, float]:
    """(interval width, |clipped - truth|), both in % of |n K'(0)|."""
    lo, hi = rep.interval
    scale = abs(q.n * q.truth_kprime0)
    return (100.0 * (hi - lo) / scale,
            100.0 * abs(rep.clipped_logdet - q.truth_logdet) / scale)


# ---------------------------------------------------------------------------
# cli-estimate
# ---------------------------------------------------------------------------

@dataclass
class CliQuery:
    command: str         # "estimate" or "diagnose"
    m: int
    tp: TracePowers
    expected: float      # logdet_hat (estimate) or cv_pct (diagnose)

    def key(self) -> tuple:
        return (self.tp.n, *map(float, self.tp.p))

    def argv(self, path: str) -> list[str]:
        return [self.command, "--traces", path, "--m", str(self.m)]


def cli_query(stream: Stream, i: int) -> CliQuery:
    family = FAMILIES[i % len(FAMILIES)]
    d = _digit(i, 8)
    command = ("estimate", "diagnose")[d % 2]
    n, m = SIZES[d // 2 % 2], 3 + d // 2
    s = stream.spectrum(i, family, n)
    return _cli_query(command, m, spectra.trace_powers(s, m))


def setup_cli_query(stream: Stream, rep: int) -> CliQuery:
    s = _setup_spectrum(stream, rep)
    return _cli_query("estimate", CERTIFY_M, spectra.trace_powers(s, CERTIFY_M))


def _cli_query(command: str, m: int, tp: TracePowers) -> CliQuery:
    nm = normalize(tp)
    if command == "estimate":
        expected = k0m_estimate(cumulants(nm), m, n=tp.n,
                                am=tp.p[0] / tp.n).logdet_hat
    else:
        expected = cv_diagnostic(nm, m)
    return CliQuery(command=command, m=m, tp=tp, expected=expected)


def write_cli_input(q: CliQuery, path) -> None:
    io.write_traces(q.tp, path)


def check_cli(q: CliQuery, returncode: int, stdout: str) -> str | None:
    """Exit code 0 and parseable output that matches the in-process value."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        if q.command == "estimate":
            got = float(json.loads(stdout)["logdet_hat"])
            tol = CHECK_RTOL
        else:
            rows = {row["quantity"]: row["value"]
                    for row in csv.DictReader(_io.StringIO(stdout))}
            got = float(rows["cv_pct"])
            tol = 1e-5   # the CSV carries six significant digits
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable {q.command} output: {exc!r}"
    if not math.isclose(got, q.expected, rel_tol=tol, abs_tol=1e-12):
        return f"{q.command} printed {got!r}, in-process value {q.expected!r}"
    return None


# ---------------------------------------------------------------------------
# noise-mc
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McQuery:
    m: int
    eta: float
    seed: int

    def key(self) -> tuple:
        return (self.m, self.eta, self.seed)


def mc_spectrum():
    return spectra.generate("geometric", 1024, 100.0)


def mc_query(stream: Stream, i: int) -> McQuery:
    m = MC_ORDERS[i % len(MC_ORDERS)]
    eta = MC_LEVELS[((len(MC_ORDERS) + 1) * (i // len(MC_ORDERS))
                     + i % len(MC_ORDERS)) % len(MC_LEVELS)]
    return McQuery(m=m, eta=eta, seed=stream.spectrum_seed(i))


def mc_alpha() -> dict[int, float]:
    """alpha_m per order, computed before any timing or tracing."""
    return {m: noise.theory(m, 0.0).alpha for m in MC_ORDERS}


def check_mc(q: McQuery, stats, alpha: dict[int, float]) -> str | None:
    if stats.trials != MC_TRIALS or not math.isfinite(stats.sd):
        return f"malformed NoiseStats {stats!r}"
    if q.eta <= MC_SD_MAX_ETA:
        pred = alpha[q.m] * q.eta
        if abs(stats.sd - pred) > MC_SD_RTOL * pred:
            return (f"m={q.m} eta={q.eta}: SD {stats.sd:.5g} not within "
                    f"{MC_SD_RTOL:.0%} of alpha_m*eta = {pred:.5g}")
    return None
