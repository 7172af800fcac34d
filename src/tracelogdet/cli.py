"""Command-line interface.

Subcommands cover the full pipeline: generate benchmark spectra, compute
traces, run point estimates, compute certified bounds, produce the
combined certification report, run failure diagnostics and noise sweeps,
and regenerate the experiment tables as CSV.

Exit codes: 0 success, 2 usage error, 3 numerical failure (infeasible
bound program, irrecoverable cancellation, overflow).

A query on a traces file imports no numpy: the subcommands that generate
spectra, simulate noise or build tables import those modules themselves.
Likewise only ``bounds`` and ``certify`` load the bound solver, so
``estimate`` and ``diagnose`` on a traces file never compile it.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, io
from .catalog import GENERATED_FAMILIES, TABLES
from .estimators import (cv_diagnostic, k0m_estimate, latane_estimate,
                         lognormal_closed_form, transform_estimate)
from .moments import (CancellationError, InfeasibleError, boxcox_samples,
                      central_moments, cumulants, normalize)

_NUMERICAL_ERRORS = (InfeasibleError, CancellationError, OverflowError)

# closed-form radius family of each generated family, and its default
# outlier weight p from n: two_point has one outlier in n, bimodal n/2;
# geometric spectra discretize the log-uniform density, uniform the uniform
_RADIUS_FAMILY = {"two_point": ("two_point", lambda n: 1.0 / n),
                  "bimodal": ("two_point", lambda n: 0.5),
                  "geometric": ("log_uniform", lambda n: None),
                  "uniform": ("uniform", lambda n: None)}


def _spectrum_args(p):
    p.add_argument("--traces", help="traces CSV (header n,k,p_k)")
    p.add_argument("--spectrum", help="spectrum JSON file")
    p.add_argument("--family", choices=GENERATED_FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--kappa", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--m", type=int, default=4,
                   help="number of traces / interpolation order")


def _resolve_input(args, m):
    """Returns (TracePowers, Spectrum | None, input descriptor)."""
    if args.traces:
        tp = io.read_traces(args.traces)
        return tp, None, {"traces_file": args.traces}
    from .spectra import generate, trace_powers
    if getattr(args, "spectrum", None):
        s = io.read_spectrum(args.spectrum)
    else:
        if not (args.family and args.n and args.kappa):
            raise ValueError(
                "need --traces, --spectrum, or --family/--n/--kappa")
        s = generate(args.family, args.n, args.kappa, args.seed)
    desc = {"family": s.family, "n": s.n, "kappa": s.kappa, "seed": s.seed}
    return trace_powers(s, m), s, desc


def _write_json(path, text: str):
    with io._open_out(path) as fh:
        fh.write(text + "\n")


def _emit(args, header, rows):
    if getattr(args, "format", "json") == "csv":
        io.write_csv(args.out, header, rows)
    else:
        payload = [dict(zip(header, row)) for row in rows]
        _write_json(args.out, json.dumps(
            payload if len(payload) > 1 else payload[0], indent=2))


def _cmd_gen_spectrum(args):
    from .spectra import generate
    s = generate(args.family, args.n, args.kappa, args.seed)
    if args.out:
        io.write_spectrum(s, args.out)
    else:
        print(json.dumps(io.spectrum_to_dict(s)))
    return 0


def _cmd_traces(args):
    tp, _, _ = _resolve_input(args, args.m)
    io.write_traces(tp, args.out)
    return 0


def _cmd_estimate(args):
    tp, s, _ = _resolve_input(args, args.m)
    nm = normalize(tp)
    am = tp.p[0] / tp.n
    if args.method == "k0m":
        est = k0m_estimate(cumulants(nm), args.m, n=tp.n, am=am)
    elif args.method == "lognormal":
        est = lognormal_closed_form(tp.p[0], tp.p[1], tp.n)
    elif args.method == "latane":
        est = latane_estimate(central_moments(nm, args.m), args.m)
    else:  # boxcox
        alpha = complex(args.alpha)
        est = transform_estimate(boxcox_samples(nm, alpha), alpha, args.m)
    header = ["method", "m", "kprime0_hat", "gm_over_am_hat", "logdet_hat"]
    row = [est.method, est.m, est.kprime0_hat, est.gm_over_am_hat,
           est.logdet_hat]
    if s is not None:
        from .spectra import exact_stats
        st = exact_stats(s)
        header += ["kprime0_true", "logdet_true", "rel_error_pct"]
        row += [st.kprime0, st.logdet,
                100.0 * (est.kprime0_hat - st.kprime0) / abs(st.kprime0)]
    _emit(args, header, [row])
    return 0


def _cmd_bounds(args):
    from . import bounds
    tp, _, _ = _resolve_input(args, max(args.m, args.k))
    rep = bounds.bounds_report(
        normalize(tp), ks=tuple(range(2, args.k + 1)), r=args.floor)
    for text in rep.warnings:
        print(f"warning: {text}", file=sys.stderr)
    rows = [[name, side, val] for side, vals in (("upper", rep.upper),
                                                 ("lower", rep.lower))
            for name, val in sorted(vals.items())]
    rows.append(["best", "upper", rep.U_best])
    if rep.L_best is not None:
        rows.append(["best", "lower", rep.L_best])
    # log det = n (log AM + log GM/AM), as the certified interval has it:
    # upper rows rounded up, lower rows down
    for row in rows:
        v = row[2]
        lo, hi = bounds.certified_interval(tp.p[0], tp.n, v, v)
        row.append(hi if row[1] == "upper" else lo)
    _emit(args, ["bound", "side", "gm_over_am", "logdet"], rows)
    return 0


def _cmd_certify(args):
    from .report import certify
    tp, _, desc = _resolve_input(args, max(args.m, args.k))
    rep = certify(tp, args.m, r=args.floor, ks=tuple(range(2, args.k + 1)),
                  input_desc=desc)
    _write_json(args.out, rep.to_json())
    return 0


def _cmd_diagnose(args):
    tp, s, desc = _resolve_input(args, args.m)
    nm = normalize(tp)
    cv = cv_diagnostic(nm, args.m)
    header = ["quantity", "value", "note"]
    rows = [["cv_pct", cv,
             "transform-spread; > 20 means the estimate is unreliable"]]
    if desc.get("family") in _RADIUS_FAMILY:
        from .analysis import taylor_radius
        radius_family, default_p = _RADIUS_FAMILY[desc["family"]]
        p = default_p(desc["n"]) if args.p is None else args.p
        rr = taylor_radius(radius_family, desc["kappa"], p)
        rows.append(["taylor_radius", rr.radius, f"family={radius_family}"])
        rows.append(["safe_order", rr.safe_order,
                     "orders beyond the radius diverge"])
    _emit(args, header, rows)
    return 0


def _cmd_noise_sweep(args):
    tp, s, desc = _resolve_input(args, args.m)
    if s is None:
        raise ValueError("noise-sweep needs a generated spectrum")
    from . import noise
    from .spectra import exact_stats
    st = exact_stats(s)
    b_m = (k0m_estimate(cumulants(normalize(tp)), args.m).kprime0_hat
           - st.kprime0)
    header = ["eta", "m", "bias", "sd", "rmse", "pred_sd", "pred_rmse",
              "eta_star", "truncations"]
    rows = []
    for eta in args.eta:
        th = noise.theory(args.m, eta, b_m=b_m)
        stats = noise.monte_carlo(s, args.m, eta, args.trials,
                                  seed=args.noise_seed)
        rows.append([eta, args.m, stats.bias, stats.sd, stats.rmse,
                     th.alpha * eta, th.rmse_pred, th.crossover_eta,
                     stats.truncations])
    io.write_csv(args.out, header, rows)
    return 0


def _cmd_reproduce(args):
    from .tables import BUILDERS
    builder = BUILDERS[args.table]
    kwargs = {"seed": args.seed}
    if args.table == "noise-crossover":
        kwargs["trials"] = args.trials
    header, rows = builder(**kwargs)
    io.write_csv(args.out, header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tracelogdet",
        description="log det estimates and certified bounds from trace powers")
    ap.add_argument("--version", action="version",
                    version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-spectrum", help="generate a benchmark spectrum")
    p.add_argument("--family", required=True, choices=GENERATED_FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_spectrum)

    p = sub.add_parser("traces", help="compute trace powers p_1..p_m")
    _spectrum_args(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_traces)

    p = sub.add_parser("estimate", help="point estimate of log det")
    _spectrum_args(p)
    p.add_argument("--method", default="k0m",
                   choices=("k0m", "lognormal", "latane", "boxcox"))
    p.add_argument("--alpha", default="0.3j",
                   help="transform exponent for --method boxcox, "
                        "e.g. 0.5 or 1.3j")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bounds", help="certified bounds on log det")
    _spectrum_args(p)
    p.add_argument("--k", type=int, default=4, help="highest trace order")
    p.add_argument("--floor", type=float,
                   help="certified lower bound on lambda_min/AM")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("certify",
                       help="estimate + interval + verdict (JSON report)")
    _spectrum_args(p)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--floor", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("diagnose",
                       help="failure diagnostics: Taylor radius and "
                            "transform spread")
    _spectrum_args(p)
    p.add_argument("--p", type=float, help="two-point outlier weight")
    p.add_argument("--format", default="csv", choices=("json", "csv"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("noise-sweep",
                       help="Monte Carlo of estimates under trace noise")
    _spectrum_args(p)
    p.add_argument("--eta", type=float, nargs="+", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--noise-seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_noise_sweep)

    p = sub.add_parser("reproduce", help="regenerate an experiment table")
    p.add_argument("--table", required=True, choices=sorted(TABLES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reproduce)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
