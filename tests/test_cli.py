import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tracelogdet import __version__, analysis, io, spectra
from tracelogdet.bounds import certified_interval
from tracelogdet.cli import main
from tracelogdet.report import CertifiedReport, certify

GOLDEN = Path(__file__).parent / "golden"
# solver-free tables are byte-pinned; solver/Monte-Carlo tables are checked
# for determinism instead (their bytes may drift across numpy versions)
GOLDEN_TABLES = ("alpha", "radius-scan", "asymptotic", "k0m-errors",
                 "optimal-m", "saturation")


def run_cli(*argv):
    return main(list(argv))


class TestSpectrumJson:
    def test_roundtrip(self, tmp_path):
        s = spectra.generate("lognormal", 32, 40, seed=9)
        path = tmp_path / "s.json"
        io.write_spectrum(s, path)
        back = io.read_spectrum(path)
        assert np.array_equal(back.eigenvalues, s.eigenvalues)
        assert back.family == "lognormal" and back.seed == 9

    def test_eigenvalues_regenerated_when_absent(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(
            {"family": "geometric", "n": 8, "kappa": 16.0, "seed": None}))
        s = io.read_spectrum(path)
        np.testing.assert_allclose(s.eigenvalues,
                                   16.0 ** (np.arange(8) / 7))


class TestTracesCsv:
    def test_roundtrip(self, tmp_path):
        tp = spectra.trace_powers(spectra.generate("uniform", 16, 9), 5)
        path = tmp_path / "t.csv"
        io.write_traces(tp, path)
        back = io.read_traces(path)
        assert back.n == 16
        np.testing.assert_array_equal(back.p, tp.p)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,k,trace\n4,1,10\n")
        with pytest.raises(ValueError):
            io.read_traces(path)

    def test_gap_detected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("n,k,p_k\n4,1,10\n4,3,50\n")
        with pytest.raises(ValueError):
            io.read_traces(path)

    def test_spaced_header_reads_as_plain(self, tmp_path, capsys):
        rows = "".join(f"1024,{k},{p!r}\n" for k, p in enumerate(
            spectra.trace_powers(spectra.generate("geometric", 1024, 100.0),
                                 4).p, start=1))
        out = {}
        for header in ("n,k,p_k", "n, k, p_k", " n ,k , p_k"):
            path = tmp_path / "traces.csv"
            path.write_text(f"{header}\n{rows}")
            for command in ("estimate", "diagnose"):
                assert run_cli(command, "--traces", str(path)) == 0
                out[header, command] = capsys.readouterr()
        for (header, command), got in out.items():
            assert got == out["n,k,p_k", command], header


class TestSubcommands:
    def test_estimate_known_error(self, capsys):
        rc = run_cli("estimate", "--family", "geometric", "--n", "1024",
                     "--kappa", "100", "--m", "4")
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rel_error_pct"] == pytest.approx(5.6, abs=0.1)

    def test_pipeline_via_files(self, tmp_path, capsys):
        spath, tpath = tmp_path / "s.json", tmp_path / "t.csv"
        assert run_cli("gen-spectrum", "--family", "geometric", "--n", "64",
                       "--kappa", "10", "--out", str(spath)) == 0
        assert run_cli("traces", "--spectrum", str(spath), "--m", "4",
                       "--out", str(tpath)) == 0
        assert run_cli("certify", "--traces", str(tpath), "--m", "4",
                       "--floor", "0.2") == 0
        rep = json.loads(capsys.readouterr().out)
        for key in ("input", "m", "estimate", "bounds", "interval",
                    "verdict", "warnings"):
            assert key in rep
        assert rep["bounds"]["U_best"] == min(rep["bounds"]["upper"].values())

    def test_certify_composes_stages(self, tmp_path):
        s = spectra.generate("geometric", 64, 10)
        tp = spectra.trace_powers(s, 4)
        r = 0.2
        rep = certify(tp, 4, r=r, ks=(2, 3, 4))
        # certified interval = bounds piped through the interval formula
        lo, hi = certified_interval(tp.p[0], 64, rep.bounds.U_best,
                                    rep.bounds.L_best)
        assert rep.interval == (lo, hi)
        assert lo <= rep.clipped_logdet <= hi

    def test_certify_json_lossless(self):
        s = spectra.generate("uniform", 32, 8)
        rep = certify(spectra.trace_powers(s, 4), 4, r=0.1)
        back = CertifiedReport.from_json(rep.to_json())
        assert back.to_dict() == rep.to_dict()

    def test_certify_clips_pathological_estimate(self):
        # single extreme outlier: the order-4 estimate is off by ~520%
        # while both bounds are exact, so the report clips it
        s = spectra.generate("two_point", 1024, 100)
        st = spectra.exact_stats(s)
        tp = spectra.trace_powers(s, 4)
        r = float(s.eigenvalues[0]) / st.am
        rep = certify(tp, 4, r=r, ks=(2, 3, 4))
        assert rep.verdict == "clipped_to_lower"
        assert rep.estimate.logdet_hat < rep.interval[0]
        assert rep.clipped_logdet == pytest.approx(st.logdet, abs=1e-4)

    def test_certify_warns_on_cancellation(self):
        # the symmetric-mean bounds drop out with a warning instead of
        # poisoning the report
        s = spectra.generate("two_point", 1024, 1e6)
        tp = spectra.trace_powers(s, 4)
        rep = certify(tp, 4, ks=(2, 3, 4))
        assert any("cancellation" in w.lower() or "symmetric" in w
                   for w in rep.warnings)
        assert rep.bounds.U_best is not None

    def test_certify_without_floor(self, tmp_path, capsys):
        tpath = tmp_path / "t.csv"
        io.write_traces(spectra.trace_powers(
            spectra.generate("geometric", 32, 10), 4), tpath)
        assert run_cli("certify", "--traces", str(tpath), "--m", "4") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["interval"][0] is None
        assert rep["verdict"] in ("no_lower_bound", "clipped_to_upper")

    def test_diagnose(self, capsys):
        rc = run_cli("diagnose", "--family", "two_point", "--n", "1024",
                     "--kappa", "10")
        assert rc == 0
        out = capsys.readouterr().out
        assert "cv_pct" in out and "taylor_radius" in out

    @pytest.mark.parametrize("family, extra, p", [
        ("two_point", [], 1 / 1024),  # one outlier in n
        ("bimodal", [], 0.5),
        ("two_point", ["--p", "0.5"], 0.5),
    ])
    def test_diagnose_radius(self, family, extra, p, capsys):
        assert run_cli("diagnose", "--family", family, "--n", "1024",
                       "--kappa", "100", "--format", "json", *extra) == 0
        rows = {r["quantity"]: r["value"]
                for r in json.loads(capsys.readouterr().out)}
        rr = analysis.taylor_radius("two_point", 100.0, p)
        assert rows["taylor_radius"] == rr.radius
        assert rows["safe_order"] == rr.safe_order

    def test_noise_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run_cli("noise-sweep", "--family", "geometric", "--n", "256",
                     "--kappa", "50", "--m", "4", "--eta", "0.01",
                     "--trials", "50", "--out", str(out))
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("eta,m,bias,sd,rmse")
        assert len(lines) == 2

    def test_estimate_methods(self, capsys):
        for method in ("lognormal", "latane", "boxcox"):
            rc = run_cli("estimate", "--family", "uniform", "--n", "64",
                         "--kappa", "5", "--m", "4", "--method", method,
                         "--alpha", "1.3j")
            assert rc == 0
            json.loads(capsys.readouterr().out)


class TestBoundsCommand:
    """``bounds`` lists the bounds that ``certify`` reports for one input."""

    @pytest.fixture
    def traces(self, tmp_path):
        path = tmp_path / "t.csv"
        io.write_traces(spectra.trace_powers(
            spectra.generate("geometric", 1024, 100), 4), path)
        return path

    @pytest.mark.parametrize("source", ["traces", "family"])
    def test_matches_certify(self, source, traces, capsys):
        # from a traces file and from a family, bounds lists certify's
        # bounds to the last bit
        src = (["--traces", str(traces)] if source == "traces" else
               ["--family", "bimodal", "--n", "4096", "--kappa", "31.6"])
        assert run_cli("bounds", *src, "--floor", "0.01",
                       "--format", "json") == 0
        rows = json.loads(capsys.readouterr().out)
        assert run_cli("certify", *src, "--floor", "0.01") == 0
        rep = json.loads(capsys.readouterr().out)["bounds"]
        assert {"maclaurin_4", "last_slope_4"} <= set(rep["upper"])
        for side in ("upper", "lower"):
            assert {r["bound"]: r["gm_over_am"] for r in rows
                    if r["side"] == side and r["bound"] != "best"} \
                == rep[side]
        assert {r["side"]: r["gm_over_am"] for r in rows
                if r["bound"] == "best"} \
            == {"upper": rep["U_best"], "lower": rep["L_best"]}

    def test_logdet_from_certified_interval(self, traces, capsys):
        assert run_cli("bounds", "--traces", str(traces),
                       "--floor", "0.01") == 0
        rows = json.loads(capsys.readouterr().out)
        tp = io.read_traces(traces)
        for r in rows:
            v = r["gm_over_am"]
            lo, hi = certified_interval(tp.p[0], tp.n, v, v)
            assert r["logdet"] == (hi if r["side"] == "upper" else lo)

    @pytest.mark.parametrize("n", [1024, 10 ** 5])
    def test_rows_rounded_outward(self, n, capsys):
        # two_point bounds are sharp: each row's log det must still lie on
        # its own side of the truth
        s = spectra.generate("two_point", n, 100)
        st = spectra.exact_stats(s)
        floor = repr(float(s.eigenvalues[0]) / st.am)
        assert run_cli("bounds", "--family", "two_point", "--n", str(n),
                       "--kappa", "100", "--floor", floor) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["side"] for r in rows} == {"upper", "lower"}
        for r in rows:
            if r["side"] == "upper":
                assert r["logdet"] >= st.logdet
            else:
                assert r["logdet"] <= st.logdet

    def test_warnings_on_stderr(self, tmp_path, capsys):
        # Newton's identities cancel on traces alone: the symmetric-mean
        # bounds drop out with a warning, and stdout stays pure JSON
        path = tmp_path / "t.csv"
        io.write_traces(spectra.trace_powers(
            spectra.generate("two_point", 1024, 1e6), 4), path)
        assert run_cli("bounds", "--traces", str(path)) == 0
        out, err = capsys.readouterr()
        assert "maclaurin_4" not in {r["bound"] for r in json.loads(out)}
        assert err.startswith("warning: symmetric-mean bounds skipped")

    def test_orders_beyond_traces_warned(self, traces, capsys):
        want = "ktrace_5..ktrace_8 skipped: the input has traces p_1..p_4"
        assert run_cli("bounds", "--traces", str(traces), "--k", "8") == 0
        assert capsys.readouterr().err == f"warning: {want}\n"
        assert run_cli("certify", "--traces", str(traces), "--k", "8") == 0
        assert json.loads(capsys.readouterr().out)["warnings"] == [want]
        assert run_cli("bounds", "--traces", str(traces)) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("n", [2, 3])
    def test_small_spectrum(self, n, capsys):
        src = ["--family", "geometric", "--n", str(n), "--kappa", "10",
               "--floor", "0.1"]
        st = spectra.exact_stats(spectra.generate("geometric", n, 10))
        assert run_cli("bounds", *src) == 0
        rows = json.loads(capsys.readouterr().out)
        # Maclaurin's bound is exact at order n
        assert {r["bound"]: r["gm_over_am"] for r in rows
                if r["side"] == "upper"}[f"maclaurin_{n}"] \
            == pytest.approx(st.gm / st.am, rel=1e-12)
        assert run_cli("certify", *src) == 0
        lo, hi = json.loads(capsys.readouterr().out)["interval"]
        # the upper end is sharp; outward rounding keeps the truth inside
        assert lo <= st.logdet <= hi

    @pytest.mark.parametrize("family, kappa, floor", [
        *((f, "100", "0.01") for f in spectra.GENERATED_FAMILIES),
        # Newton's identities cancel; lambda_min/AM is 0.00102
        ("two_point", "1e6", "0.001"),
    ])
    def test_family_reports_as_its_traces(self, family, kappa, floor,
                                          tmp_path, capsys):
        # bounds come from the traces alone: a generated spectrum and a
        # traces file of it print the same, apart from the input field
        spec = ["--family", family, "--n", "1024", "--kappa", kappa,
                "--seed", "5"]
        path = tmp_path / "t.csv"
        assert run_cli("traces", *spec, "--out", str(path)) == 0
        for command in ("certify", "bounds"):
            outs = []
            for src in (spec, ["--traces", str(path)]):
                assert run_cli(command, *src, "--floor", floor) == 0
                out, err = capsys.readouterr()
                out = json.loads(out)
                if command == "certify":
                    out.pop("input")
                outs.append((out, err))
            assert outs[0] == outs[1]

    def test_one_trace_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("n,k,p_k\n4,1,10\n")
        assert run_cli("bounds", "--traces", str(path)) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run_cli("estimate", "--family", "geometric", "--n",
                       "1024") == 2
        assert run_cli("nonsense") == 2
        # "custom" spectra come only from --spectrum files
        for family in ("custom", "nonsense"):
            assert run_cli("gen-spectrum", "--family", family, "--n", "8",
                           "--kappa", "10") == 2

    def test_nonfinite_traces(self, tmp_path, capsys):
        path = tmp_path / "traces.csv"
        path.write_text("n,k,p_k\n4,1,4\n4,2,inf\n4,3,9\n4,4,20\n")
        assert run_cli("certify", "--traces", str(path)) == 2
        assert "finite" in capsys.readouterr().err

    def test_overflowing_moment(self, tmp_path, capsys):
        path = tmp_path / "traces.csv"
        path.write_text("n,k,p_k\n10000000000,1,1\n10000000000,2,1e300\n"
                        "10000000000,3,1e300\n10000000000,4,1e300\n")
        assert run_cli("estimate", "--traces", str(path)) == 2
        err = capsys.readouterr().err
        assert err == "error: moment M_2 = inf is not positive and finite\n"

    def test_numerical_failure(self, capsys):
        # kappa**m overflows the float range -> exit 3
        rc = run_cli("traces", "--family", "geometric", "--n", "4",
                     "--kappa", "1e200", "--m", "2")
        assert rc == 3

    def test_console_entry(self):
        out = subprocess.run(
            [sys.executable, "-m", "tracelogdet.cli", "reproduce",
             "--table", "alpha"], capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.startswith("m,weight_norm")

    def test_imports_no_scipy(self):
        code = ("import sys, tracelogdet.cli; "
                "print(sorted(m for m in sys.modules if m == 'scipy' "
                "or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_traces_queries_import_no_numpy(self, tmp_path):
        traces = tmp_path / "traces.csv"
        io.write_traces(spectra.trace_powers(
            spectra.generate("geometric", 1024, 100.0), 4), traces)
        code = f"""
import contextlib, io, sys
import tracelogdet
from tracelogdet.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["--version"])] + [
        main([command, "--traces", {str(traces)!r}])
        for command in ("estimate", "diagnose", "bounds", "certify")]
print(codes, "numpy" in sys.modules)
print(tracelogdet.generate.__name__, tracelogdet.monte_carlo.__name__)
"""
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["[0, 0, 0, 0, 0] False",
                                           "generate monte_carlo"]

    def test_traces_queries_load_no_solver(self, tmp_path):
        traces = tmp_path / "traces.csv"
        io.write_traces(spectra.trace_powers(
            spectra.generate("geometric", 1024, 100.0), 4), traces)
        code = f"""
import contextlib, io, sys
from tracelogdet.cli import main
heavy = ("tracelogdet.measure_solver", "tracelogdet.bounds",
         "tracelogdet.report", "numpy")
with contextlib.redirect_stdout(io.StringIO()):
    light = [main(["--version"])] + [
        main([command, "--traces", {str(traces)!r}])
        for command in ("estimate", "diagnose")]
    loaded = [m for m in heavy if m in sys.modules]
    solving = [main([command, "--traces", {str(traces)!r}])
               for command in ("bounds", "certify")]
print(light, loaded, solving)
"""
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["[0, 0, 0] [] [0, 0]"]

    def test_infeasible_error_exits_3(self, tmp_path, monkeypatch, capsys):
        import tracelogdet
        from tracelogdet import bounds, measure_solver, moments

        assert (tracelogdet.InfeasibleError is measure_solver.InfeasibleError
                is moments.InfeasibleError)

        def infeasible(*args, **kwargs):
            raise measure_solver.InfeasibleError("no measure fits")

        # bounds_report turns solver failures into warnings, so only a
        # stand-in carries the error up to main
        monkeypatch.setattr(bounds, "bounds_report", infeasible)
        traces = tmp_path / "traces.csv"
        traces.write_text("n,k,p_k\n4,1,4\n4,2,5\n4,3,7\n4,4,10\n")
        assert run_cli("bounds", "--traces", str(traces)) == 3
        assert capsys.readouterr().err == "numerical failure: no measure fits\n"

    def test_version(self, capsys):
        assert run_cli("--version") == 0
        assert capsys.readouterr().out == f"tracelogdet {__version__}\n"

    @pytest.mark.parametrize("row", ["4,2", "4,2,16,7"],
                             ids=["missing_field", "extra_field"])
    def test_misshapen_trace_row(self, tmp_path, capsys, row):
        path = tmp_path / "traces.csv"
        path.write_text(f"n,k,p_k\n4,1,4\n{row}\n")
        assert run_cli("estimate", "--traces", str(path)) == 2
        assert capsys.readouterr().err == (
            "error: traces file line 3: need exactly the fields n,k,p_k\n")


class TestReproduce:
    @pytest.mark.parametrize("table", GOLDEN_TABLES)
    def test_golden(self, table, tmp_path):
        out = tmp_path / f"{table}.csv"
        assert run_cli("reproduce", "--table", table, "--out",
                       str(out)) == 0
        expect = (GOLDEN / f"{table}.csv").read_text()
        assert out.read_text() == expect

    @pytest.mark.parametrize("table", ["bounds-comparison"])
    def test_solver_tables_deterministic(self, table, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("reproduce", "--table", table, "--seed", "1", "--out", str(a))
        run_cli("reproduce", "--table", table, "--seed", "1", "--out", str(b))
        assert a.read_text() == b.read_text()
        header = a.read_text().splitlines()[0]
        assert header == ("family,k04_err_pct,u2_gap,u4_gap,u8_gap,"
                          "ls_gap,l2_gap,l4_gap,l8_gap")

    def test_noise_crossover_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("reproduce", "--table", "noise-crossover", "--seed", "3",
                "--trials", "40", "--out", str(a))
        run_cli("reproduce", "--table", "noise-crossover", "--seed", "3",
                "--trials", "40", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_boxcox_sweep_schema(self, tmp_path):
        out = tmp_path / "bc.csv"
        assert run_cli("reproduce", "--table", "boxcox-sweep", "--out",
                       str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "family,m,best_alpha,best_err_pct,log_err_pct"
        assert len(lines) == 13  # six families x two orders
