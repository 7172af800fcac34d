"""Same-answers check: do two checkouts give the same reports and tables?

    python tools/same_answers.py dump CHECKOUT OUT.json
    python tools/same_answers.py compare A.json B.json

``dump`` imports ``CHECKOUT/src`` and, without writing to it,
``CHECKOUT/bench/workloads.py``.  It records ``certify(...).to_dict()``, or
the refusal text, for the first 300 certify-exact and the first 300
certify-noisy queries of the benchmark stream (seed 1, ``m = 4``,
``ks=(2, 3, 4)``), and the CSV of each ``reproduce`` table (seed 0).  It
also runs each ``tracelogdet`` example of this tool's README but
``reproduce`` through ``cli.main``, in order, in a fresh temporary
directory, and records its exit code, stdout, stderr and ``--out`` file.

``compare`` prints the number of identical reports, every difference in
verdict, warned bounds, refusal, bound names or estimate, the number of
reports whose warnings differ only in their detail text, the largest
relative move per bound name, per interval end and in ``clipped_logdet``,
the tables that differ and the CLI examples whose output differs.  It
exits 0 only when everything is identical.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io as _io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

QUERIES = 300        # per stream: the first 300 certify-exact and -noisy
STREAM_SEED = 1
TABLE_SEED = 0
STREAMS = (("exact", False), ("noisy", True))
README = Path(__file__).resolve().parent.parent / "README.md"


def load_workloads(checkout: Path):
    """Import ``checkout/bench/workloads.py`` without writing bytecode."""
    path = Path(checkout) / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def certify_reports(wl, count: int = QUERIES) -> dict[str, dict]:
    """``"exact 0"`` etc. to the report dict, or ``{"refused": text}``."""
    from tracelogdet import report

    stream = wl.Stream(STREAM_SEED)
    out = {}
    for label, noisy in STREAMS:
        for i in range(count):
            q = wl.certify_query(stream, i, noisy)
            try:
                out[f"{label} {i}"] = report.certify(
                    q.tp, wl.CERTIFY_M, r=q.r, ks=wl.CERTIFY_KS).to_dict()
            except ValueError as exc:
                out[f"{label} {i}"] = {"refused": str(exc)}
    return out


def reproduce_tables(names=None) -> dict[str, str]:
    """Each ``reproduce`` table as the CSV text the CLI writes."""
    from tracelogdet import io, tables

    out = {}
    for name in sorted(tables.BUILDERS) if names is None else names:
        buf = _io.StringIO()
        with contextlib.redirect_stdout(buf):
            io.write_csv(None, *tables.BUILDERS[name](seed=TABLE_SEED))
        out[name] = buf.getvalue()
    return out


def readme_commands(readme: Path = README) -> list[str]:
    """The README's ``tracelogdet`` examples but ``reproduce``, unprefixed."""
    commands = []
    for line in readme.read_text().replace("\\\n", " ").splitlines():
        words = line.split()
        if words[:1] == ["tracelogdet"] and words[1:2] != ["reproduce"]:
            commands.append(" ".join(words[1:]))
    return commands


def cli_outputs(commands) -> dict[str, dict]:
    """Each command's exit code, stdout, stderr and ``--out`` file text.

    The commands run in order in one temporary directory, so a later
    example reads the files an earlier one wrote.
    """
    from tracelogdet import cli

    out, cwd = {}, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for command in commands:
                argv = command.split()
                stdout, stderr = _io.StringIO(), _io.StringIO()
                with (contextlib.redirect_stdout(stdout),
                      contextlib.redirect_stderr(stderr)):
                    code = cli.main(argv)
                rec = {"exit": code, "stdout": stdout.getvalue(),
                       "stderr": stderr.getvalue()}
                if "--out" in argv:
                    path = Path(argv[argv.index("--out") + 1])
                    rec["out"] = path.read_text() if path.exists() else None
                out[command] = rec
        finally:
            os.chdir(cwd)
    return out


def dump(checkout: Path, out: Path) -> None:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(checkout) / "src"))
    wl = load_workloads(checkout)
    data = {"reports": certify_reports(wl), "tables": reproduce_tables(),
            "cli": cli_outputs(readme_commands())}
    Path(out).write_text(json.dumps(data, indent=1) + "\n")


def _values(rep: dict) -> dict[str, float | None]:
    """The numbers of one report whose moves are summarized, by name."""
    b = rep["bounds"]
    vals = {f"upper {k}": v for k, v in b["upper"].items()}
    vals.update({f"lower {k}": v for k, v in b["lower"].items()})
    vals.update({"U_best": b["U_best"], "L_best": b["L_best"],
                 "interval lo": rep["interval"][0],
                 "interval hi": rep["interval"][1],
                 "clipped_logdet": rep["clipped_logdet"]})
    return vals


def _rel(a, b) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / abs(a) if a else math.inf


def _warned(rep: dict) -> list[str]:
    """Each warning up to its colon: ``"upper ktrace_4"`` and the like."""
    return [w.split(":", 1)[0] for w in rep.get("warnings", [])]


def _detail_only(a: dict, b: dict) -> bool:
    """Whether the warnings differ in text but warn the same bounds."""
    return (a.get("warnings") != b.get("warnings")
            and _warned(a) == _warned(b))


def _report_diffs(key: str, a: dict, b: dict, moves: dict) -> list[str]:
    """Structural differences of one report; numeric moves go to ``moves``."""
    if "refused" in a or "refused" in b:
        return [f"{key}: refusal {a.get('refused')!r} -> "
                f"{b.get('refused')!r}"]
    lines = []
    for field in ("verdict", "estimate", "input", "m"):
        if a[field] != b[field]:
            lines.append(f"{key}: {field} {a[field]!r} -> {b[field]!r}")
    if _warned(a) != _warned(b):
        lines.append(f"{key}: warnings {a['warnings']!r} -> "
                     f"{b['warnings']!r}")
    for side in ("upper", "lower"):
        if list(a["bounds"][side]) != list(b["bounds"][side]):
            lines.append(f"{key}: {side} bound names "
                         f"{list(a['bounds'][side])} -> "
                         f"{list(b['bounds'][side])}")
    va, vb = _values(a), _values(b)
    for name in sorted(va.keys() & vb.keys()):
        x, y = va[name], vb[name]
        if (x is None) != (y is None):
            lines.append(f"{key}: {name} {x!r} -> {y!r}")
        elif x is not None and x != y:
            rel = _rel(x, y)
            worst, count = moves.get(name, ((0.0,), 0))
            moves[name] = (max(worst, (rel, key, x, y)), count + 1)
    return lines


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines and whether the two dumps are identical."""
    lines, moves = [], {}
    ra, rb = a["reports"], b["reports"]
    same = [k for k in ra if k in rb and ra[k] == rb[k]]
    lines.append(f"reports: {len(same)} of {len(ra)} identical")
    for key in sorted(ra.keys() ^ rb.keys()):
        lines.append(f"{key}: present on one side only")
    for key in ra:
        if key in rb and ra[key] != rb[key]:
            lines += _report_diffs(key, ra[key], rb[key], moves)
    detail = sum(_detail_only(ra[key], rb[key]) for key in ra if key in rb)
    if detail:
        lines.append(f"warnings: {detail} reports differ only in detail "
                     "text")
    if moves:
        lines.append("values moved, and the largest relative move:")
        for name in sorted(moves):
            (rel, key, x, y), count = moves[name]
            lines.append(f"  {name}: {count} moved, at most {rel:.2g} "
                         f"({key}: {x!r} -> {y!r})")
    ta, tb = a["tables"], b["tables"]
    names = ta.keys() | tb.keys()
    differ = sorted(t for t in names if ta.get(t) != tb.get(t))
    lines.append(f"tables: {len(names) - len(differ)} of {len(names)} "
                 "identical" + (f"; differ: {', '.join(differ)}"
                                if differ else ""))
    ok = len(same) == len(ra) == len(rb) and not differ
    if "cli" in a or "cli" in b:
        ca, cb = a.get("cli", {}), b.get("cli", {})
        commands = list(ca) + [c for c in cb if c not in ca]
        changed = [c for c in commands if ca.get(c) != cb.get(c)]
        lines.append(f"cli: {len(commands) - len(changed)} of "
                     f"{len(commands)} commands identical")
        for command in changed:
            x, y = ca.get(command), cb.get(command)
            what = ("run on one side only" if x is None or y is None
                    else "differs in " + ", ".join(
                        part for part in ("exit", "stdout", "stderr", "out")
                        if x.get(part) != y.get(part)))
            lines.append(f"  tracelogdet {command}: {what}")
        ok = ok and not changed
    return lines, ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "dump":
        dump(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
        lines, ok = compare(a, b)
        print("\n".join(lines))
        return 0 if ok else 1
    usage = __doc__.strip().splitlines()[2:4]
    print("usage:\n" + "\n".join(usage), file=sys.stderr)
    return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # the reader stopped early (``compare A B | head``): point stdout at
        # devnull so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
