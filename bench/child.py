"""Fresh-interpreter probes started by run.py.

    child.py certify FILE        import tracelogdet, run one certify query
    child.py noise FILE          import tracelogdet, run one monte_carlo call
    child.py import MODULE       print the milliseconds ``import MODULE`` took
    child.py cli-traced OUT ARG...
                                 run tracelogdet.cli.main(ARG...) with spans
                                 recorded, writing their summary to OUT

``certify`` and ``noise`` print ``ready`` once the query has returned,
so the parent can time interpreter start, import and first query
without the interpreter's exit.
"""

import json
import sys
import time


def _certify(path):
    with open(path) as fh:
        q = json.load(fh)
    from tracelogdet import TracePowers, certify
    try:
        rep = certify(TracePowers(n=q["n"], p=q["p"]), q["m"], r=q["r"],
                      ks=tuple(q["ks"]))
    except ValueError:
        # noisy traces may be refused; the query has returned all the same
        print("ready", flush=True)
        return
    print("ready", flush=True)
    lo, hi = rep.interval
    if not lo <= hi:
        raise SystemExit(f"empty interval ({lo}, {hi})")


def _noise(path):
    with open(path) as fh:
        q = json.load(fh)
    from tracelogdet import noise, spectra
    stats = noise.monte_carlo(spectra.generate("geometric", 1024, 100.0),
                              q["m"], q["eta"], q["trials"], seed=q["seed"])
    print("ready", flush=True)
    if stats.trials != q["trials"]:
        raise SystemExit(f"monte_carlo ran {stats.trials} trials")


def _import(module):
    t0 = time.perf_counter()
    __import__(module)
    print(f"{1000.0 * (time.perf_counter() - t0):.6f}", flush=True)


def _cli_traced(out, argv):
    import spans
    import tracelogdet.cli
    tracer = spans.Tracer()
    spans.instrument(tracer)
    code = tracelogdet.cli.main(argv)
    with open(out, "w") as fh:
        json.dump({"spans": tracer.summary(), "counts": dict(tracer.counts)},
                  fh)
    return code


def main(argv):
    mode, arg = argv[0], argv[1]
    if mode == "certify":
        _certify(arg)
    elif mode == "noise":
        _noise(arg)
    elif mode == "import":
        _import(arg)
    elif mode == "cli-traced":
        return _cli_traced(arg, argv[2:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
