"""Command-line entry point.

Subcommands:
  run      one strategy over a date window, writing the trajectory CSV
           and a one-page text summary
  compare  several strategies on identical inputs plus a combined
           cumulative-cost CSV
  analyze  post-process an existing trajectory CSV (lcoh | kde | surface
           | cumcost)

Dates are local market time, matching the price files. Exit codes: 0 on
success, 2 on input errors (including a date window the price files do
not cover), 3 on solver aborts (no optimal solve at a commitment step, so
no commitment could be frozen).
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import date, datetime
from pathlib import Path

import numpy as np

from . import analysis, market, ocp, rollout, units
from .params import CostLedger, PlantParams, PlantState, load_params, validate_params
from .rollout import RolloutError, TrajectoryLog

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_analyze(args)
    # ParamError and PriceFileError are ValueErrors, file-system errors OSErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RolloutError as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="h2mpc")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat key=value plant parameter file")
        sp.add_argument("--dam", required=True, help="hourly day-ahead price CSV")
        sp.add_argument("--rtm", required=True, help="15-minute real-time price CSV")
        sp.add_argument("--start", required=True, help="first simulated day, YYYY-MM-DD")
        sp.add_argument("--end", required=True, help="last simulated day, inclusive")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--storage0", type=float, default=None,
                        help="initial storage [kmol], default 60%% of capacity")

    sp_run = sub.add_parser("run", help="roll one strategy")
    common(sp_run)
    sp_run.add_argument("--strategy", required=True, help="hf-ms | hf-ss | lf-ms | co")

    sp_cmp = sub.add_parser("compare", help="roll several strategies on shared inputs")
    common(sp_cmp)
    sp_cmp.add_argument(
        "--strategies", default="hf-ms,hf-ss,lf-ms,co",
        help="comma-separated strategy list",
    )

    sp_an = sub.add_parser("analyze", help="post-process a trajectory CSV")
    sp_an.add_argument("--log", required=True, help="trajectory CSV from run/compare")
    sp_an.add_argument("kind", choices=["lcoh", "kde", "surface", "cumcost"])
    sp_an.add_argument("--out", required=True, help="output directory")
    sp_an.add_argument("--temperature", type=float, default=None,
                       help="temperature level [K] for kde, default the log's "
                            "most-visited level")
    return parser


def _load_inputs(args):
    p = load_params(args.config) if args.config else validate_params(PlantParams())
    dam = market.load_price_csv(args.dam, resolution_minutes=60)
    rtm = market.load_price_csv(args.rtm, resolution_minutes=15)
    try:
        start = date.fromisoformat(args.start)
        end = date.fromisoformat(args.end)
    except ValueError as exc:
        raise ValueError(f"bad date: {exc}") from None
    storage0 = args.storage0 if args.storage0 is not None else 0.6 * p.storage_capacity
    state = PlantState(
        membrane_um=p.membrane_thickness_initial,
        storage_kmol=storage0,
        clock=datetime(start.year, start.month, start.day),
    )
    return p, dam, rtm, start, end, state


def _summary_text(log: TrajectoryLog) -> str:
    ledger = log.ledger()
    b = analysis.lcoh_breakdown(ledger)
    flagged = sum(log.flagged)
    lines = [
        f"strategy            {log.strategy}",
        f"steps               {len(log)}",
        f"flagged steps       {flagged}",
        f"electricity cost    {ledger.electricity_usd:,.2f} $",
        f"membrane cost       {ledger.membrane_usd:,.2f} $",
        f"total cost          {ledger.electricity_usd + ledger.membrane_usd:,.2f} $",
        f"hydrogen produced   {ledger.h2_ton:,.3f} ton",
        f"lcoh                {b.total_kusd_per_ton:,.3f} k$/ton "
        f"(elec {b.elec_share:.0%}, membrane {b.mem_share:.0%})",
        f"final membrane      {log.states[-1].membrane_um:.3f} um",
        f"final storage       {log.states[-1].storage_kmol:.1f} kmol",
    ]
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    strategy = ocp.StrategyKind.parse(args.strategy)
    p, dam, rtm, start, end, state = _load_inputs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log = rollout.run(strategy, state, dam, rtm, start, end, p)
    log.to_csv(out / f"trajectory_{strategy.value}.csv")
    (out / f"summary_{strategy.value}.txt").write_text(_summary_text(log))
    print(f"wrote {out / f'trajectory_{strategy.value}.csv'}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    names = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not names:
        raise ValueError("--strategies is empty")
    strategies = [ocp.StrategyKind.parse(s) for s in names]
    if len(set(strategies)) < len(strategies):
        raise ValueError(f"--strategies repeats a strategy: {args.strategies}")
    p, dam, rtm, start, end, state = _load_inputs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    logs = rollout.compare(strategies, state, dam, rtm, start, end, p)
    for name, log in logs.items():
        log.to_csv(out / f"trajectory_{name}.csv")
        (out / f"summary_{name}.txt").write_text(_summary_text(log))

    # combined cumulative-cost table, step-aligned across strategies
    first = logs[strategies[0].value]
    cols = {
        name: (np.asarray(log.cum_elec()) + np.asarray(log.cum_mem())).tolist()
        for name, log in logs.items()
    }
    lines = ["timestamp," + ",".join(f"cum_total_usd_{n}" for n in logs)]
    for i, ts in enumerate(first.timestamps):
        lines.append(ts.isoformat() + "," + ",".join(repr(cols[n][i]) for n in logs))
    (out / "cost_comparison.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'cost_comparison.csv'}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    strategy, stamps, cells = rollout.read_trajectory_csv(args.log)
    col = dict(zip(rollout.TRAJECTORY_CSV_HEADER.split(",")[2:], cells.T))
    if args.kind == "lcoh":
        # per-step tons are differences of the stored running total, as in from_csv
        h2_ton = np.diff(col["cum_h2_ton"], prepend=0.0)
        ledger = CostLedger(
            electricity_usd=math.fsum(col["elec_cost_usd"]),
            membrane_usd=math.fsum(col["mem_cost_usd"]),
            h2_ton=math.fsum(h2_ton),
        )
        analysis.write_lcoh_csv(strategy, ledger, out / "lcoh.csv")
    elif args.kind == "kde":
        level = args.temperature
        if level is None:
            level = analysis.most_visited_temperature(col["temperature_k"])
        analysis.write_kde_csv(col["temperature_k"], col["current_a"], level, out / "kde.csv")
    elif args.kind == "surface":
        p = PlantParams()
        t_grid = np.linspace(p.temperature_min, p.temperature_max, 21)
        j_lo = p.current_density_min / units.m2_to_cm2(1.0)
        j_hi = p.current_density_max / units.m2_to_cm2(1.0)
        analysis.write_degradation_surface_csv(
            t_grid, np.linspace(j_lo, j_hi, 25), out / "surface.csv"
        )
    else:
        analysis.write_cumulative_costs_csv(
            stamps, col["cum_elec_usd"], col["cum_mem_usd"], out / "cumcost.csv"
        )
    print(f"wrote analysis CSV into {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
