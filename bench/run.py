#!/usr/bin/env python3
"""tracelogdet benchmark: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload certify-exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

Run it from anywhere inside a checkout; it imports the checkout's ``src/``
and starts every child process with that path.  ``--trace 0`` measures
the workload untraced for ``--seconds`` seconds and prints the end-to-end
metrics; ``--trace 1`` runs a fixed number of queries with spans recorded
around each layer's public functions (see spans.py), plus fixed layer
probes, and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
Why each workload was chosen, and which end-to-end metric each per-layer
metric should move, is in bench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pin the program being measured: one thread everywhere, set before numpy
# is imported here and inherited by every child process.
THREAD_VARS = ("TRACELOGDET_THREADS", "OMP_NUM_THREADS",
               "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io as _io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
MANIFEST = ROOT / "BENCHMARK.json"

SETUP_REPS = 3          # fresh interpreters per run; setup_s is their median
IMPORT_REPS = 3         # fresh interpreters per import in the traced run
CHILD_TIMEOUT_S = 120
TRACE_QUERIES = {"certify-exact": 24, "certify-noisy": 16,
                 "cli-estimate": 8, "noise-mc": 12}
OVERHEAD_PAIRS = {"certify-exact": 3, "certify-noisy": 3,
                  "cli-estimate": 3, "noise-mc": 2}
PROBE_MC_TRIALS = 200

# why each workload was chosen, and what it stresses and bypasses: README.md
WORKLOADS = ("certify-exact", "certify-noisy", "cli-estimate", "noise-mc")
GRID_KS = (3, 4, 8)
VERDICTS = ("estimate_inside", "clipped_to_upper", "clipped_to_lower",
            "no_lower_bound")


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than eleven
    samples no such percentile exists and the maximum is returned.
    """
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


class Outcome:
    """What one run of a workload's stream produced."""

    def __init__(self):
        self.latency_ms: list[float] = []
        self.items = 0           # queries, CLI processes or MC trials
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.rejected: dict[str, int] = {}
        self.reasons: list[str] = []
        self.keys: set = set()
        self.quality: list[tuple[float, float]] = []
        self.verdicts: dict[str, int] = {}

    def admit(self, key) -> None:
        if key in self.keys:
            raise RuntimeError(f"input repeated within the run: {key!r}")
        self.keys.add(key)

    def record(self, ms: float, items: int, reason: str | None,
               refusal: str | None = None) -> None:
        self.attempted += 1
        self.latency_ms.append(ms)
        self.busy_s += ms / 1000.0
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
        elif refusal is not None:
            self.rejected[refusal] = self.rejected.get(refusal, 0) + 1
        else:
            self.items += items


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)


def time_until_ready(args: list[str], env: dict) -> float:
    """Seconds from spawn until the child prints ``ready``; waits for exit."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): "
                           f"{err.strip()[-500:]}")
    return elapsed


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        import workloads as wl
        self.wl = wl
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.env = child_env()
        self.stream = wl.Stream(seed)
        self.tracer = None
        self._file_no = 0

    def scratch_file(self, suffix: str) -> str:
        self._file_no += 1
        return str(self.work / f"in{self._file_no}{suffix}")

    # -- set-up time --------------------------------------------------------

    def setup_times(self) -> list[float]:
        """Fresh interpreter -> first query returned, SETUP_REPS times.

        One unmeasured child runs first, so compiled bytecode and the file
        cache are warm as they are for a user's second invocation.
        """
        wl = self.wl
        times = []
        for rep in range(SETUP_REPS + 1):
            if self.name.startswith("certify"):
                q = wl.setup_certify_query(self.stream, rep,
                                           self.name == "certify-noisy")
                path = self.scratch_file(".json")
                Path(path).write_text(q.to_json())
                elapsed = time_until_ready([str(CHILD), "certify", path],
                                           self.env)
            elif self.name == "noise-mc":
                path = self.scratch_file(".json")
                Path(path).write_text(json.dumps(
                    {"m": 4, "eta": 0.01, "trials": wl.MC_TRIALS,
                     "seed": self.seed * 7 + rep}))
                elapsed = time_until_ready([str(CHILD), "noise", path],
                                           self.env)
            else:
                q = wl.setup_cli_query(self.stream, rep)
                elapsed, reason = self.cli_call(q, traced=False)
                if reason is not None:
                    raise RuntimeError(f"set-up CLI call failed: {reason}")
            if rep:
                times.append(elapsed)
        return times

    # -- one query of each kind ----------------------------------------------

    def call(self, module, func: str, args, kwargs, traced: bool):
        """(ms, result, exception) of one call, spans recorded if traced.

        The function is looked up after instrumenting, so a traced call goes
        through the wrapper; instrumenting stays outside the timed region.
        """
        undo = spans.instrument(self.tracer) if traced else None
        fn = getattr(module, func)
        result = exc = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:  # noqa: BLE001 - every raise is an outcome
            exc = e
        ms = 1000.0 * (time.perf_counter() - t0)
        if undo is not None:
            spans.uninstrument(undo)
        return ms, result, exc

    def certify_call(self, q, out: Outcome, traced: bool = False):
        import tracelogdet.report
        ms, rep, exc = self.call(
            tracelogdet.report, "certify", (q.tp, self.wl.CERTIFY_M),
            {"r": q.r, "ks": self.wl.CERTIFY_KS}, traced)
        if exc is not None:
            refusal = self.wl.rejection(exc) if q.noisy else None
            if refusal is not None:
                return ms, None, refusal
            return ms, f"{q.desc}: {type(exc).__name__}: {exc}", None
        reason = self.wl.check_certify(q, rep)
        if reason is None:
            out.quality.append(self.wl.interval_stats(q, rep))
            out.verdicts[rep.verdict] = out.verdicts.get(rep.verdict, 0) + 1
        else:
            reason = f"{q.desc}: {reason}"
        return ms, reason, None

    def cli_call(self, q, traced: bool):
        path = self.scratch_file(".csv")
        self.wl.write_cli_input(q, path)
        if traced:
            spans_out = self.scratch_file(".spans.json")
            args = [str(CHILD), "cli-traced", spans_out, *q.argv(path)]
        else:
            args = ["-m", "tracelogdet.cli", *q.argv(path)]
        t0 = time.perf_counter()
        proc = run_child(args, self.env)
        elapsed = time.perf_counter() - t0
        reason = self.wl.check_cli(q, proc.returncode, proc.stdout)
        if reason is not None and proc.stderr:
            reason += f" ({proc.stderr.strip()[-300:]})"
        if traced and proc.returncode == 0:
            self.child_spans.append(json.loads(Path(spans_out).read_text()))
        return elapsed, reason

    def mc_call(self, q, spectrum, alpha, traced: bool = False):
        import tracelogdet.noise
        ms, stats, exc = self.call(
            tracelogdet.noise, "monte_carlo",
            (spectrum, q.m, q.eta, self.wl.MC_TRIALS), {"seed": q.seed},
            traced)
        if exc is not None:
            return ms, f"{q}: {type(exc).__name__}: {exc}", None
        return ms, self.wl.check_mc(q, stats, alpha), stats

    # -- the stream -----------------------------------------------------------

    def stream_query(self, i: int):
        wl = self.wl
        if self.name == "certify-exact":
            return wl.certify_query(self.stream, i, noisy=False)
        if self.name == "certify-noisy":
            return wl.certify_query(self.stream, i, noisy=True)
        if self.name == "cli-estimate":
            return wl.cli_query(self.stream, i)
        return wl.mc_query(self.stream, i)

    def run_stream(self, count: int | None, traced: bool) -> Outcome:
        """Closed loop, one client: until the deadline, or ``count`` queries."""
        wl = self.wl
        out = Outcome()
        mc = self.name == "noise-mc"
        if mc:
            spectrum, alpha = wl.mc_spectrum(), wl.mc_alpha()
            repeat_check = []
        deadline = time.perf_counter() + self.seconds
        i = 0
        while (i < count) if count is not None \
                else time.perf_counter() < deadline:
            q = self.stream_query(i)
            out.admit(q.key())
            if self.tracer is not None:
                self.tracer.request = i
            i += 1
            if mc:
                ms, reason, stats = self.mc_call(q, spectrum, alpha, traced)
                out.record(ms, wl.MC_TRIALS, reason)
                if len(repeat_check) < 3:
                    repeat_check.append((q, stats))
            elif self.name == "cli-estimate":
                elapsed, reason = self.cli_call(q, traced)
                out.record(1000.0 * elapsed, 1, reason)
            else:
                ms, reason, refusal = self.certify_call(q, out, traced)
                out.record(ms, 1, reason, refusal)
        if mc:
            # same seed, same call: NoiseStats must repeat bit for bit
            for q, stats in repeat_check:
                if stats is None:
                    continue
                again = self.mc_call(q, spectrum, alpha)[2]
                if again != stats:
                    out.failed += 1
                    out.reasons.append(f"{q}: repeat gave {again}, "
                                       f"first call {stats}")
        return out

    # -- the run --------------------------------------------------------------

    def timed(self):
        setups = self.setup_times()
        out = self.run_stream(count=None, traced=False)
        if not out.latency_ms:
            raise RuntimeError("no query completed")
        p50 = statistics.median(out.latency_ms)
        tail_ms, tail_pct, beyond = tail(out.latency_ms)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "query_ms_p50": (p50, "ms"),
            "query_ms_tail": (tail_ms, "ms"),
        }
        notes = {
            "setup_s": "median of %d fresh interpreters: %s" % (
                len(setups), ", ".join(f"{t:.3f}" for t in setups)),
            "query_ms_p50": f"{len(out.latency_ms)} queries",
            "query_ms_tail": (f"p{tail_pct:.1f}, {beyond} samples beyond, "
                              f"{len(out.latency_ms)} queries"),
        }
        return out, metrics, notes

    def traced(self):
        self.tracer = spans.Tracer()
        self.child_spans: list[dict] = []
        metrics: dict[str, tuple[float, str]] = {}
        metrics.update(self.import_decomposition())
        metrics.update(self.cli_main_probe())
        metrics.update(self.solver_grid())
        overhead = self.overhead(first=10_000)
        out = self.run_stream(count=TRACE_QUERIES[self.name], traced=True)
        undo = spans.instrument(self.tracer)
        try:
            probe = self.layer_probe()
        finally:
            spans.uninstrument(undo)
        out.quality += probe.quality
        for v, c in probe.verdicts.items():
            out.verdicts[v] = out.verdicts.get(v, 0) + c
        if probe.failed:
            out.failed += probe.failed
            out.reasons += probe.reasons
        metrics.update(self.span_metrics(out))
        metrics["trace.overhead_pct"] = (overhead, "%")
        return out, metrics, {}

    def import_decomposition(self):
        """Interpreter start and each import, each in a fresh interpreter."""
        res = {}
        walls = []
        for _ in range(IMPORT_REPS):
            t0 = time.perf_counter()
            proc = run_child(["-c", "pass"], self.env)
            walls.append(1000.0 * (time.perf_counter() - t0))
            if proc.returncode != 0:
                raise RuntimeError("bare interpreter failed")
        res["cli.interpreter.ms"] = (statistics.median(walls), "ms")
        for module, key in (("scipy.optimize", "import_scipy_optimize"),
                            ("tracelogdet", "import_tracelogdet"),
                            ("tracelogdet.cli", "import_tracelogdet_cli")):
            ms = []
            for _ in range(IMPORT_REPS):
                proc = run_child([str(CHILD), "import", module], self.env)
                if proc.returncode != 0:
                    raise RuntimeError(f"import {module} failed: "
                                       f"{proc.stderr.strip()[-300:]}")
                ms.append(float(proc.stdout.strip()))
            res[f"cli.{key}.ms"] = (statistics.median(ms), "ms")
        return res

    def _probe_csv(self, rep: int) -> str:
        q = self.wl.setup_cli_query(self.wl.Stream(self.seed + 1), rep)
        path = self.scratch_file(".csv")
        self.wl.write_cli_input(q, path)
        return path

    def cli_main_probe(self):
        """In-process ``cli.main`` after import, untraced; median of five."""
        import tracelogdet.cli
        ms = []
        for rep in range(5):
            argv = ["estimate", "--traces", self._probe_csv(rep), "--m", "4"]
            buf = _io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = tracelogdet.cli.main(argv)
            ms.append(1000.0 * (time.perf_counter() - t0))
            if code != 0:
                raise RuntimeError(f"cli.main({argv}) returned {code}")
        return {"cli.main.ms": (statistics.median(ms), "ms")}

    def solver_grid(self):
        """One untraced solve per (family, sense, k) at n=1024, kappa=100."""
        from tracelogdet import measure_solver, spectra
        from tracelogdet.moments import normalize
        res = {}
        failed = 0
        for family in self.wl.FAMILIES:
            s = spectra.generate(family, 1024, 100.0, seed=0)
            nm = normalize(spectra.trace_powers(s, max(GRID_KS)))
            r = float(s.eigenvalues[0]) / spectra.exact_stats(s).am
            for sense in ("max", "min"):
                for k in GRID_KS:
                    t0 = time.perf_counter()
                    try:
                        measure_solver.solve(sense, nm.M[:k],
                                             r=r if sense == "min" else None)
                    except RuntimeError:
                        failed += 1
                    res[f"measure_solver.grid.{family}.{sense}.k{k}.ms"] = (
                        1000.0 * (time.perf_counter() - t0), "ms")
        res["measure_solver.grid.failed"] = (failed, "count")
        return res

    def overhead(self, first: int) -> float:
        """Traced minus untraced time on the same inputs, in % of untraced.

        Each input runs once each way, alternating which goes first; these
        are the only repeated inputs of a traced run.
        """
        wl = self.wl
        plain = traced = 0.0
        scratch = Outcome()
        if self.name == "noise-mc":
            spectrum, alpha = wl.mc_spectrum(), wl.mc_alpha()
        for j in range(OVERHEAD_PAIRS[self.name]):
            q = self.stream_query(first + j)
            for tr in ((False, True) if j % 2 else (True, False)):
                if self.name == "noise-mc":
                    ms = self.mc_call(q, spectrum, alpha, tr)[0]
                elif self.name == "cli-estimate":
                    ms = 1000.0 * self.cli_call(q, tr)[0]
                else:
                    ms = self.certify_call(q, scratch, tr)[0]
                if tr:
                    traced += ms
                else:
                    plain += ms
        return 100.0 * (traced - plain) / plain

    def layer_probe(self) -> Outcome:
        """Fixed calls, run traced on every workload, so that every layer
        has spans: one certify query, a short monte_carlo and the CLI's
        estimate and diagnose in-process."""
        import tracelogdet.cli
        wl = self.wl
        out = Outcome()
        q = wl.setup_certify_query(wl.Stream(self.seed + 1), 0, noisy=False)
        ms, reason, _ = self.certify_call(q, out)
        out.record(ms, 1, reason)
        from tracelogdet.noise import monte_carlo
        monte_carlo(wl.mc_spectrum(), 4, 0.01, PROBE_MC_TRIALS,
                    seed=self.seed)
        for rep, command in enumerate(("estimate", "diagnose")):
            argv = [command, "--traces", self._probe_csv(10 + rep),
                    "--m", "4"]
            with contextlib.redirect_stdout(_io.StringIO()):
                if tracelogdet.cli.main(argv) != 0:
                    out.failed += 1
                    out.reasons.append(f"cli.main({argv}) failed")
        return out

    def span_metrics(self, out: Outcome) -> dict:
        summ = self.tracer.summary()
        counts = dict(self.tracer.counts)
        for child in self.child_spans:
            for n, r in child["spans"].items():
                rec = summ.setdefault(n, {"calls": 0, "failed": 0,
                                          "dur": [], "self": []})
                rec["calls"] += r["calls"]
                rec["failed"] += r["failed"]
                rec["dur"] += r["dur"]
                rec["self"] += r["self"]
            for n, c in child["counts"].items():
                counts[n] = counts.get(n, 0) + c

        def med(name, scale, key="dur"):
            value = spans.median_of(summ.get(name), key)
            if value is None:
                raise RuntimeError(f"no span recorded for {name}")
            return value * scale

        def calls(name):
            return summ.get(name, {}).get("calls", 0)

        def failed(name):
            return summ.get(name, {}).get("failed", 0)

        us, ms = 1e-3, 1e-6
        m = {
            "io.read_traces.us": (med("io.read_traces", scale=us), "us"),
            "moments.normalize.us": (med("moments.normalize", scale=us), "us"),
            "moments.cumulants.us": (med("moments.cumulants", scale=us), "us"),
            "moments.newton_maclaurin.us": (
                med("moments.newton_maclaurin", scale=us), "us"),
            "moments.cancellation_fallbacks": (
                failed("moments.newton_maclaurin"), "count"),
            "estimators.k0m_estimate.us": (
                med("estimators.k0m_estimate", scale=us), "us"),
            "estimators.lagrange_weights.calls": (
                calls("estimators.lagrange_weights"), "count"),
            "estimators.lagrange_weights.us": (
                med("estimators.lagrange_weights", scale=us), "us"),
            "estimators.cv_diagnostic.us": (
                med("estimators.cv_diagnostic", scale=us), "us"),
            "bounds.bounds_report.ms": (
                med("bounds.bounds_report", scale=ms), "ms"),
            "bounds.bounds_report.self_ms": (
                med("bounds.bounds_report", ms, "self"), "ms"),
            "measure_solver.solve.ms": (
                med("measure_solver.solve", scale=ms), "ms"),
            "measure_solver.solve.calls": (
                calls("measure_solver.solve"), "count"),
            "measure_solver.solve.failed": (
                failed("measure_solver.solve"), "count"),
            "measure_solver.scipy_minimize.calls": (
                calls("scipy.minimize"), "count"),
            "measure_solver.scipy_minimize.nit": (
                counts.get("measure_solver.scipy_minimize.nit", 0), "count"),
            "measure_solver.scipy_nnls.calls": (calls("scipy.nnls"), "count"),
            "measure_solver.scipy_linprog.calls": (
                calls("scipy.linprog"), "count"),
            "measure_solver.scipy_least_squares.calls": (
                calls("scipy.least_squares"), "count"),
            "report.certify.ms": (med("report.certify", scale=ms), "ms"),
            "report.certify.self_ms": (
                med("report.certify", ms, "self"), "ms"),
            "report.rejected": (sum(out.rejected.values()), "count"),
            "noise.monte_carlo.ms": (med("noise.monte_carlo", scale=ms), "ms"),
            "noise.perturb.us": (med("noise.perturb", scale=us), "us"),
            "noise.truncations": (counts.get("noise.truncations", 0), "count"),
            "trace.spans": (sum(r["calls"] for r in summ.values()), "count"),
        }
        attempted = failures = 0
        for sense in ("upper", "lower"):
            for k in (3, 4):
                name = f"bounds.ktrace.{sense}.k{k}"
                m[f"{name}.ms"] = (med(name, scale=ms), "ms")
                attempted += calls(name)
                failures += failed(name)
        m["bounds.ktrace.attempted"] = (attempted, "count")
        m["bounds.ktrace.failed"] = (failures, "count")
        solve_ns = sum(summ.get("measure_solver.solve", {}).get("dur", []))
        certify_ns = sum(summ.get("report.certify", {}).get("dur", []))
        m["measure_solver.share_of_certify_pct"] = (
            100.0 * solve_ns / certify_ns, "%")
        for v in VERDICTS:
            m[f"report.verdict.{v}"] = (out.verdicts.get(v, 0), "count")
        m["report.verdict.other"] = (sum(
            c for v, c in out.verdicts.items() if v not in VERDICTS), "count")
        widths = [w for w, _ in out.quality]
        errs = [e for _, e in out.quality]
        m["report.interval_width_pct"] = (statistics.median(widths), "%")
        m["report.clipped_err_pct"] = (statistics.median(errs), "%")
        return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def manifest_names(trace: bool) -> list[str]:
    spec = json.loads(MANIFEST.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def describe_program() -> str:
    import numpy
    import scipy
    import tracelogdet
    src_file = Path(tracelogdet.__file__).resolve()
    if SRC.resolve() not in src_file.parents:
        raise RuntimeError(f"imported {src_file}, not the checkout's src/")
    return (f"# program: {src_file} | python {platform.python_version()} | "
            f"numpy {numpy.__version__} | scipy {scipy.__version__} | "
            f"nproc {nproc()} | threads pinned to 1 via "
            f"{','.join(THREAD_VARS)}")


def run_one(args) -> int:
    print(f"# tracelogdet benchmark: workload={args.workload} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(describe_program())
    work = BENCH / f"_work-{os.getpid()}"
    work.mkdir()
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        out, metrics, notes = run.traced() if args.trace else run.timed()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# inputs: {out.attempted} queries, {len(out.keys)} distinct "
          f"inputs (none repeats within a timed run)")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:44s} {value:14.6g} {unit:6s} {note}")
    unit = {"cli-estimate": "CLI processes", "noise-mc": "Monte Carlo trials"
            }.get(args.workload, "certify reports")
    print(f"{'throughput':44s} {out.items / out.busy_s:14.6g} {'1/s':6s} "
          f"{unit} completed per busy second")
    base = out.attempted
    rejected = sum(out.rejected.values())
    errors = out.failed + rejected
    refusals = "".join(f", {c} refused with ValueError '{t}'"
                       for t, c in sorted(out.rejected.items()))
    print(f"{'error_rate':44s} {errors / base:14.6g} {'':6s} "
          f"{errors} of {base} queries: {out.failed} failed (raised, exited "
          f"non-zero or failed the output check){refusals}")
    if out.quality:
        widths = [w for w, _ in out.quality]
        errs = [e for _, e in out.quality]
        print(f"{'interval_width_pct':44s} "
              f"{statistics.median(widths):14.6g} {'%':6s} median of "
              f"100*(hi-lo)/|n K'(0)| over {len(widths)} reports")
        print(f"{'clipped_err_pct':44s} {statistics.median(errs):14.6g} "
              f"{'%':6s} median of 100*|clipped - logdet_true|/|n K'(0)|")
    if out.verdicts:
        print("# verdicts: " + ", ".join(
            f"{v}={c}" for v, c in sorted(out.verdicts.items())))
    for reason in out.reasons:
        print(f"# FAILED: {reason}")

    expected = manifest_names(bool(args.trace))
    if sorted(expected) != sorted(metrics):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        print(f"metrics differ from {MANIFEST.name}: missing {missing}, "
              f"extra {extra}", file=sys.stderr)
        return 1
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            print(f"metric {name} is not finite: {value}", file=sys.stderr)
            return 1
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in expected},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, then one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, env=child_env(),
            timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        print()
    names = manifest_names(bool(args.trace))
    print(f"{'metric':44s} " + " ".join(f"{w:>14s}" for w in WORKLOADS))
    for metric in names:
        unit = results[WORKLOADS[0]]["metrics"][metric]["unit"]
        print(f"{metric + ' [' + unit + ']':44s} " + " ".join(
            f"{results[w]['metrics'][metric]['value']:14.6g}"
            for w in WORKLOADS))
    print(f"{'failed / attempted':44s} " + " ".join(
        f"{str(results[w]['failed']) + '/' + str(results[w]['attempted']):>14s}"
        for w in WORKLOADS))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "tracelogdet" / "__init__.py").is_file():
        print(f"error: no tracelogdet sources under {SRC}", file=sys.stderr)
        return 2
    if not MANIFEST.is_file():
        print(f"error: {MANIFEST} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
