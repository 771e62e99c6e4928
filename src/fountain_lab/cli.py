"""Command-line front end: analytic curves, simulation, comparison, sweeps, transfer.

Subcommands emit CSV/JSON for external plotting; every one is deterministic
given its full flag set including --seed (FOUNTAIN_LAB_SEED is the fallback
when --seed is omitted).  Exit codes: 0 ok, 2 usage, 3 budget-exhausted
majority (or failed transfer), 4 I/O error, 5 recovered data mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analytics, sim, wire
from .schemes import OFC, OFCNB, SOFC, EveryDegreeChange, SchemeConfig, Threshold

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_MISMATCH = 5

PREDICT_HEADER = "s,expected_n"
SWEEP_HEADER = "eps,sofc_mean_sent,ofc_mean_sent,diff"
COMPARE_HEADER = "s,sent_mean,expected_n,rel_err"


class UsageError(Exception):
    pass


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FOUNTAIN_LAB_SEED")
    return int(env) if env else 0


def _scheme(args) -> SchemeConfig:
    name = args.scheme
    if name == "ofcnb":
        if args.gamma0 is None:
            raise UsageError("--gamma0 is required with --scheme ofcnb")
        return OFCNB(args.gamma0)
    if args.gamma0 is not None:
        raise UsageError(f"--gamma0 is not valid with --scheme {name}")
    if name == "sofc":
        return SOFC()
    return OFC(getattr(args, "beta0", 0.5))


def _policy(args):
    if args.policy == "threshold":
        return Threshold(args.delta_p)
    return EveryDegreeChange()


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _sidecar(path: str) -> str:
    root, ext = os.path.splitext(path)
    return root + ".json" if ext.lower() == ".csv" else path + ".json"


def cmd_predict(args) -> int:
    config = _scheme(args)
    curve = analytics.expected_curve(config, args.k, args.eps)
    # one %-format over interleaved (s, n) values: half the cost of a row loop
    cells = [None] * (2 * args.k)
    cells[0::2] = range(1, args.k + 1)
    cells[1::2] = curve.tolist()
    _write(args.out, PREDICT_HEADER + "\n" + ("%d,%.6f\n" * args.k) % tuple(cells))
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _scheme(args)
    agg = sim.monte_carlo(
        config, args.k, args.eps, args.trials,
        policy=_policy(args), seed=_seed(args), jobs=args.jobs,
        budget=args.budget,
    )
    _write(args.out, sim.aggregate_csv(agg))
    _write(_sidecar(args.out), sim.summary_json(agg))
    if agg.budget_exceeded_count * 2 > args.trials:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _scheme(args)
    agg = sim.monte_carlo(
        config, args.k, args.eps, args.trials,
        policy=_policy(args), seed=_seed(args), jobs=args.jobs,
    )
    analytic = analytics.expected_curve(config, args.k, args.eps)
    report = analytics.compare_to_curve(agg.milestones, agg.sent_mean, analytic, args.k)
    rows = [COMPARE_HEADER]
    for s, mean in zip(agg.milestones, agg.sent_mean):
        ana = analytic[int(s) - 1]
        rel = abs(mean - ana) / ana if not np.isnan(mean) else float("nan")
        rows.append(f"{int(s)},{mean:.6f},{ana:.6f},{rel:.6f}")
    _write(args.out, "\n".join(rows) + "\n")
    _write(_sidecar(args.out), json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"max_rel_err={report['max_rel_err']:.4f} mean_rel_err={report['mean_rel_err']:.4f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = [float(x) for x in args.eps_list.split(",") if x]
    if not grid:
        raise UsageError("--eps-list must name at least one erasure rate")
    result = sim.sweep_epsilon(args.k, grid, args.trials, seed=_seed(args), jobs=args.jobs)
    rows = [SWEEP_HEADER]
    for p in result.points:
        rows.append(f"{p.eps:.6f},{p.sofc_mean_sent:.6f},{p.ofc_mean_sent:.6f},{p.diff:.6f}")
    _write(args.out, "\n".join(rows) + "\n")
    cross = result.crossover
    _write(_sidecar(args.out), json.dumps({"crossover": cross, "k": args.k}, indent=2) + "\n")
    print(f"crossover={cross}")
    return EXIT_OK


def cmd_transfer(args) -> int:
    config = _scheme(args)
    with open(args.infile, "rb") as fh:
        data = fh.read()
    try:
        out, report = wire.transfer(
            data, config, args.eps, seed=_seed(args), symbol_size=args.symbol_size,
            policy=_policy(args),
        )
    except wire.TransferFailed as exc:
        print(f"transfer failed: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except sim.PayloadMismatch as exc:
        print(f"transfer failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(out)
    print(json.dumps({
        "k": report.k,
        "symbol_size": report.symbol_size,
        "frames_sent": report.frames_sent,
        "overhead": round(report.overhead, 6),
        "feedback_frames": report.feedback_frames,
        "per_phase_sent": report.per_phase_sent,
        "sha256_match": out == data,   # transfer returns only verified bytes
    }, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fountain-lab",
        description="Feedback-driven rateless erasure codes: predictions, simulations, transfers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials_default=200):
        p.add_argument("--k", type=int, default=1000, help="source symbols (default 1000)")
        p.add_argument("--eps", type=float, default=0.0, help="erasure rate (default 0)")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (default: FOUNTAIN_LAB_SEED or 0)")
        p.add_argument("--trials", type=int, default=trials_default)
        p.add_argument("--jobs", type=int, default=1, help="trial parallelism (output-invariant)")

    def scheme_flags(p):
        p.add_argument("--scheme", choices=["ofc", "ofcnb", "sofc"], required=True)
        p.add_argument("--gamma0", type=float, default=None,
                       help="seeding fraction (ofcnb only)")

    def policy_flags(p):
        p.add_argument("--policy", choices=["every", "threshold"], default="every")
        p.add_argument("--delta-p", dest="delta_p", type=float, default=0.01)

    p = sub.add_parser("predict", help="closed-form expected transmitted-count curve")
    scheme_flags(p)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict, seed=None)

    p = sub.add_parser("simulate", help="Monte Carlo aggregate curve (CSV + JSON summary)")
    scheme_flags(p)
    common(p)
    p.add_argument("--beta0", type=float, default=0.5, help="component threshold (ofc only)")
    policy_flags(p)
    p.add_argument("--budget", type=int, default=None,
                   help="max sent symbols per trial (default 50*k)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="analytic-vs-empirical relative error report")
    scheme_flags(p)
    common(p)
    policy_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="systematic-vs-two-phase full-recovery sweep over eps")
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--eps-list", dest="eps_list", required=True,
                   help="comma-separated erasure rates, e.g. 0.1,0.3267,0.5")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("transfer", help="move a file through the framed lossy link")
    p.add_argument("--in", dest="infile", required=True)
    scheme_flags(p)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--symbol-size", dest="symbol_size", type=int, default=1024)
    policy_flags(p)
    p.add_argument("--out", default=None, help="write the reconstructed bytes here")
    p.set_defaults(func=cmd_transfer)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
