"""Smoke test of ``tools/same_answers.py`` on a few benchmark queries."""

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "same_answers", ROOT / "tools" / "same_answers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports_moves_and_differences():
    tool = _tool()
    wl = tool.load_workloads(ROOT)
    a = {"reports": tool.certify_reports(wl, count=3),
         "tables": tool.reproduce_tables(["alpha"])}
    assert sorted(a["reports"]) == [f"{s} {i}" for s in ("exact", "noisy")
                                    for i in range(3)]
    assert tool.compare(a, copy.deepcopy(a)) == (
        ["reports: 6 of 6 identical", "tables: 1 of 1 identical"], True)

    b = copy.deepcopy(a)
    rep = b["reports"]["exact 1"]
    rep["bounds"]["upper"]["rodin"] *= 1 + 1e-12
    rep["verdict"] = "clipped_to_upper"
    b["tables"]["alpha"] += "x"
    lines, ok = tool.compare(a, b)
    assert not ok
    assert lines[0] == "reports: 5 of 6 identical"
    assert any(line.startswith("exact 1: verdict ") for line in lines)
    assert any(line.startswith("  upper rodin: 1 moved, at most 1e-12")
               for line in lines)
    assert lines[-1] == "tables: 0 of 1 identical; differ: alpha"

    # a warning whose text changes but whose bound stays is folded into one
    # line; a warning that moves to another bound is listed
    a["reports"]["exact 2"]["warnings"] = [
        "upper ktrace_4: extremal measure misses the moments by 2.1e-08"]
    b = copy.deepcopy(a)
    b["reports"]["exact 2"]["warnings"] = [
        "upper ktrace_4: extremal measure has atoms outside the support"]
    assert tool.compare(a, b) == (
        ["reports: 5 of 6 identical",
         "warnings: 1 reports differ only in detail text",
         "tables: 1 of 1 identical"], False)
    b["reports"]["exact 2"]["warnings"] = [
        "lower ktrace_4: extremal measure misses the moments by 2.1e-08"]
    lines, ok = tool.compare(a, b)
    assert not ok
    assert lines[1].startswith("exact 2: warnings ['upper ktrace_4: ")
    assert not any(line.startswith("warnings: ") for line in lines)


def test_compare_names_each_cli_command_that_differs():
    tool = _tool()
    commands = tool.readme_commands()
    assert "certify --traces traces.csv --m 4 --floor 0.01" in commands
    assert not any(c.startswith("reproduce") for c in commands)

    command = "traces --family two_point --n 64 --kappa 10 --m 3 --out t.csv"
    a = {"reports": {}, "tables": {}, "cli": tool.cli_outputs([command])}
    rec = a["cli"][command]
    assert (rec["exit"], rec["stdout"], rec["stderr"]) == (0, "", "")
    assert rec["out"].splitlines()[0] == "n,k,p_k"
    assert tool.compare(a, copy.deepcopy(a)) == (
        ["reports: 0 of 0 identical", "tables: 0 of 0 identical",
         "cli: 1 of 1 commands identical"], True)

    b = copy.deepcopy(a)
    b["cli"][command]["out"] += "64,4,1.0\n"
    b["cli"]["diagnose --n 2"] = {"exit": 2, "stdout": "", "stderr": "x"}
    lines, ok = tool.compare(a, b)
    assert not ok
    assert lines[2:] == ["cli: 0 of 2 commands identical",
                         f"  tracelogdet {command}: differs in out",
                         "  tracelogdet diagnose --n 2: run on one side only"]


def test_compare_stops_quietly_when_its_reader_does(tmp_path):
    # about 1 MB of differences: more than a pipe holds, so the tool is
    # still writing when the reader closes its end (``compare A B | head``)
    dumps = []
    for text in ("a", "b"):
        path = tmp_path / f"{text}.json"
        path.write_text(json.dumps({
            "reports": {f"exact {i}": {"refused": text * 200}
                        for i in range(2000)},
            "tables": {}}))
        dumps.append(str(path))
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "same_answers.py"), "compare",
         *dumps], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "reports: 0 of 2000 identical\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""
