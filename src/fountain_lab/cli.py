"""Command-line front end: analytic curves, simulation, comparison, sweeps, transfer.

Subcommands emit CSV/JSON for external plotting; every one is deterministic
given its full flag set including --seed (FOUNTAIN_LAB_SEED is the fallback
when --seed is omitted).  Exit codes: 0 ok, 2 usage, 3 budget exhausted (in
most simulate or compare trials, in every trial of a sweep point's scheme, or
in a transfer), 4 I/O error, 5 recovered data mismatch.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# sim, wire and json are imported inside the commands that use them, so a
# cold predict loads the closed forms and neither numpy nor the session loop.
from . import analytics
from .config import OFC, OFCNB, SOFC, EveryDegreeChange, SchemeConfig, Threshold

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_MISMATCH = 5

PREDICT_HEADER = "s,expected_n"
SWEEP_HEADER = "eps,sofc_mean_sent,ofc_mean_sent,diff"
COMPARE_HEADER = "s,sent_mean,expected_n,rel_err"


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FOUNTAIN_LAB_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"FOUNTAIN_LAB_SEED must be an integer, got {env!r}") from None


def _scheme(args) -> SchemeConfig:
    name = args.scheme
    beta0 = getattr(args, "beta0", None)   # only simulate has --beta0
    if beta0 is not None and name != "ofc":
        raise ValueError(f"--beta0 is not valid with --scheme {name}")
    if getattr(args, "delta_p", None) is not None and args.policy != "threshold":
        raise ValueError(f"--delta-p is not valid with --policy {args.policy}")
    if name == "ofcnb":
        if args.gamma0 is None:
            raise ValueError("--gamma0 is required with --scheme ofcnb")
        return OFCNB(args.gamma0)
    if args.gamma0 is not None:
        raise ValueError(f"--gamma0 is not valid with --scheme {name}")
    if name == "sofc":
        return SOFC()
    return OFC() if beta0 is None else OFC(beta0)


def _policy(args):
    if args.policy == "threshold":
        return Threshold() if args.delta_p is None else Threshold(args.delta_p)
    return EveryDegreeChange()


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _sidecar(path: str) -> str:
    root, ext = os.path.splitext(path)
    return root + ".json" if ext.lower() == ".csv" else path + ".json"


def cmd_predict(args) -> int:
    config = _scheme(args)
    curve = analytics._curve(config, args.k, args.eps)
    # one %-format over interleaved (s, n) values: half the cost of a row loop
    cells = [None] * (2 * args.k)
    cells[0::2] = range(1, args.k + 1)
    cells[1::2] = curve
    _write(args.out, PREDICT_HEADER + "\n" + ("%d,%.6f\n" * args.k) % tuple(cells))
    return EXIT_OK


def _budget_exit(agg) -> int:
    """EXIT_BUDGET when most of a Monte Carlo run's trials ran out of budget."""
    return EXIT_BUDGET if agg.budget_exceeded_count * 2 > agg.trials else EXIT_OK


def cmd_simulate(args) -> int:
    from . import sim

    config = _scheme(args)
    agg = sim.monte_carlo(
        config, args.k, args.eps, args.trials,
        policy=_policy(args), seed=_seed(args), jobs=args.jobs,
        budget=args.budget,
    )
    _write(args.out, sim.aggregate_csv(agg))
    _write(_sidecar(args.out), sim.summary_json(agg))
    return _budget_exit(agg)


def cmd_compare(args) -> int:
    import json

    from . import sim

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
        rel = abs(mean - ana) / ana
        rows.append(f"{int(s)},{mean:.6f},{ana:.6f},{rel:.6f}")
    _write(args.out, "\n".join(rows) + "\n")
    _write(_sidecar(args.out), json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"max_rel_err={report['max_rel_err']:.4f} mean_rel_err={report['mean_rel_err']:.4f}")
    return _budget_exit(agg)


def cmd_sweep(args) -> int:
    import json

    from . import sim

    grid = [float(x) for x in args.eps_list.split(",") if x]
    if not grid:
        raise ValueError("--eps-list must name at least one erasure rate")
    result = sim.sweep_epsilon(args.k, grid, args.trials, seed=_seed(args), jobs=args.jobs)
    rows = [SWEEP_HEADER]
    for p in result.points:
        rows.append(f"{p.eps:.6f},{p.sofc_mean_sent:.6f},{p.ofc_mean_sent:.6f},{p.diff:.6f}")
    _write(args.out, "\n".join(rows) + "\n")
    cross = result.crossover
    _write(_sidecar(args.out), json.dumps({"crossover": cross, "k": args.k}, indent=2) + "\n")
    print(f"crossover={cross}")
    # a mean, and so the diff, is NaN when no trial of its scheme completed
    starved = ",".join(f"{p.eps:g}" for p in result.points if math.isnan(p.diff))
    if starved:
        print(f"no completed trial for a scheme at eps {starved}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_transfer(args) -> int:
    import json

    from . import sim, wire

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


# Every flag, declared once: option string -> add_argument keywords.  Only
# transfer's --out, an optional output of another kind, is declared apart.
_FLAGS = {
    "--in": dict(dest="infile", required=True, help="file to transfer"),
    "--scheme": dict(choices=["ofc", "ofcnb", "sofc"], required=True, help="coding scheme"),
    "--gamma0": dict(type=float, default=None, help="seeding fraction (ofcnb only)"),
    "--k": dict(type=int, default=1000, help="source symbols (default 1000)"),
    "--eps": dict(type=float, default=0.0, help="erasure rate (default 0)"),
    "--eps-list": dict(dest="eps_list", required=True,
                       help="comma-separated erasure rates, e.g. 0.1,0.3267,0.5"),
    "--seed": dict(type=int, default=None, help="master seed (default: FOUNTAIN_LAB_SEED or 0)"),
    "--trials": dict(type=int, default=200, help="Monte Carlo trials (default 200)"),
    "--jobs": dict(type=int, default=1, help="trial parallelism (output-invariant)"),
    "--beta0": dict(type=float, default=None, help="component threshold (ofc only)"),
    "--symbol-size": dict(dest="symbol_size", type=int, default=1024, help="bytes per symbol (default 1024)"),
    "--policy": dict(choices=["every", "threshold"], default="every", help="feedback policy (default every)"),
    "--delta-p": dict(dest="delta_p", type=float, default=None,
                      help="usable-probability gain that triggers feedback (threshold only, default 0.01)"),
    "--budget": dict(type=int, default=None, help="max sent symbols per trial (default 50*k)"),
    "--out": dict(required=True, help="output CSV path"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fountain-lab",
        description="Feedback-driven rateless erasure codes: predictions, simulations, transfers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command("predict", cmd_predict, "closed-form expected transmitted-count curve",
            "--scheme", "--gamma0", "--k", "--eps", "--out")
    command("simulate", cmd_simulate, "Monte Carlo aggregate curve (CSV + JSON summary)",
            "--scheme", "--gamma0", "--k", "--eps", "--seed", "--trials", "--jobs", "--beta0",
            "--policy", "--delta-p", "--budget", "--out")
    command("compare", cmd_compare, "analytic-vs-empirical relative error report",
            "--scheme", "--gamma0", "--k", "--eps", "--seed", "--trials", "--jobs",
            "--policy", "--delta-p", "--out")
    command("sweep", cmd_sweep, "systematic-vs-two-phase full-recovery sweep over eps",
            "--k", "--eps-list", "--trials", "--seed", "--jobs", "--out")
    p = command("transfer", cmd_transfer, "move a file through the framed lossy link",
                "--in", "--scheme", "--gamma0", "--eps", "--seed", "--symbol-size", "--policy", "--delta-p")
    p.add_argument("--out", default=None, help="write the reconstructed bytes here")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
