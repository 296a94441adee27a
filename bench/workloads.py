"""The benchmark's workloads: one timed unit of work each, and its output checks.

A unit returns its wall time, how many ops it attempted and how many failed, the whole-output checks that failed, and a
determinism fingerprint (the sha256 of every CSV it wrote, exact solver
iteration counts).

- A closed-loop op is one controller step. It fails when the step is
  flagged, when its applied ``p_dam_mw`` differs from that hour's frozen
  commitment, or when the run aborts with ``RolloutError`` before
  reaching it.
- A ``log-analyze`` op is one ``h2mpc analyze`` call. It fails on a
  non-zero exit, on wrong numbers, or on a cell that is not a plain
  number (numpy 2 writes ``np.float64(...)`` where ``repr`` meets a
  numpy scalar).

Failures are counted, described in ``failures`` and the run goes on;
nothing is retried or hidden. ``errors`` lists what makes the run's
output wrong as a whole: numbers that disagree with the ledger, or a
ledger that does not re-settle with ``market.settle``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from h2mpc import cli, market, ocp, rollout, units
from h2mpc.params import PlantState
from h2mpc.rollout import RolloutError
from inputs import SEASON_DAYS

STRATEGIES = ("hf-ms", "hf-ss", "lf-ms", "co")
HFMS_DAYS = 2
ANALYZE_KINDS = ("lcoh", "kde", "cumcost")
COMMITMENT_TOL_MW = 1e-9
LEDGER_TOL_USD = 1e-6  # the tolerance rollout's own ledger check uses
KDE_MASS_TOL = 1e-3
LCOH_REL_TOL = 1e-9  # h2 tons are re-derived from cum_h2 differences on read

clock = time.perf_counter


@dataclass
class UnitResult:
    wall_s: float
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    fingerprint: dict[str, object] = field(default_factory=dict)
    detail: dict[str, float] = field(default_factory=dict)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _initial_state(p, day) -> PlantState:
    # what `h2mpc run/compare` start from: a new membrane, storage at 60%
    return PlantState(
        membrane_um=p.membrane_thickness_initial,
        storage_kmol=0.6 * p.storage_capacity,
        clock=datetime(day.year, day.month, day.day),
    )


def _step_failure(log, i: int) -> str | None:
    ts = log.timestamps[i]
    com = log.commitments.get(ts.date())
    if com is None:
        return f"{log.strategy} {ts.isoformat()}: no commitment covers the step"
    sid = ts.hour * units.STEPS_PER_HOUR + ts.minute // 15
    applied, committed = log.actions[i].p_dam_mw, com.mw_at_step(sid)
    broken = abs(applied - committed) > COMMITMENT_TOL_MW
    if not (broken or log.flagged[i]):
        return None
    return (f"{log.strategy} {ts.isoformat()}: flagged={log.flagged[i]}, "
            f"applied p_dam {applied!r} MW, committed {committed!r} MW")


def _closed_loop(inp, tracer, out: Path, strategies, days: int, call) -> UnitResult:
    """Time ``call()``, write each log as `h2mpc compare` does, check every step."""
    span0, log0 = len(tracer.spans), len(tracer.logs)
    t0 = clock()
    try:
        logs = call()
        aborted = None
    except RolloutError as exc:
        logs = {log.strategy: log for log in tracer.logs[log0:]}
        aborted = str(exc)
    for name, log in logs.items():
        log.to_csv(out / f"trajectory_{name}.csv")
    wall = clock() - t0

    res = UnitResult(wall_s=wall, attempted=len(strategies) * days * units.STEPS_PER_DAY, failed=0)
    res.fingerprint["aborted"] = aborted
    for name in strategies:
        log = logs.get(name)
        if log is None:  # the aborted strategy and those after it
            res.failed += days * units.STEPS_PER_DAY
            res.failures.append(f"{name}: all {days * units.STEPS_PER_DAY} steps lost to {aborted}")
            continue
        failures = [f for i in range(len(log)) if (f := _step_failure(log, i))]
        res.failed += len(failures)
        res.failures += failures
        settled = market.settle(log.actions, log.dam_price, log.rtm_price)
        if abs(settled - log.ledger().electricity_usd) > LEDGER_TOL_USD:
            res.errors.append(f"{name}: ledger {log.ledger().electricity_usd!r} != settlement {settled!r}")
        res.fingerprint[f"trajectory_{name}.csv"] = sha256(out / f"trajectory_{name}.csv")
        res.fingerprint[f"iterations_applied.{name}"] = sum(log.solver_iterations)
    for s in tracer.spans[span0:]:
        if s[0] == "rollout.run" and s[4]:
            res.detail[f"sim_day_s.{s[4]['strategy']}"] = (s[2] - s[1]) / s[4]["days"]
    return res


def compare_day(inp, tracer, out: Path) -> UnitResult:
    """All four strategies over the strip's second day, via ``rollout.compare``."""
    day = inp.strip_start + timedelta(days=1)
    kinds = [ocp.StrategyKind.parse(s) for s in STRATEGIES]
    return _closed_loop(
        inp, tracer, out, STRATEGIES, 1,
        lambda: rollout.compare(kinds, _initial_state(inp.params, day), inp.dam, inp.rtm,
                                day, day, inp.params),
    )


def hfms_days(inp, tracer, out: Path) -> UnitResult:
    """hf-ms over consecutive days: a bootstrap day, then steady-state days."""
    first = inp.strip_start + timedelta(days=1)
    last = first + timedelta(days=HFMS_DAYS - 1)

    def call():
        log = rollout.run(ocp.StrategyKind.HF_MS, _initial_state(inp.params, first),
                          inp.dam, inp.rtm, first, last, inp.params)
        return {log.strategy: log}

    return _closed_loop(inp, tracer, out, ("hf-ms",), HFMS_DAYS, call)


# log-analyze ---------------------------------------------------------------

_NUMPY_SCALAR = re.compile(r"np\.float64\((.*)\)")


def _numbers(path: Path, first_col: int) -> tuple[np.ndarray, int]:
    """Numeric columns of a CSV, and how many cells were numpy scalar reprs."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    malformed = 0
    values = []
    for row in rows:
        for cell in row[first_col:]:
            m = _NUMPY_SCALAR.fullmatch(cell)
            malformed += m is not None
            values.append(float(m.group(1) if m else cell))
    return np.array(values).reshape(len(rows), -1), malformed


def _check_lcoh(dest: Path, log) -> tuple[str | None, int]:
    row, malformed = _numbers(dest / "lcoh.csv", 1)
    ledger = log.ledger()
    expected = (ledger.electricity_usd + ledger.membrane_usd) / ledger.h2_ton / 1000.0
    got = float(row[0, 0])
    if abs(got - expected) > LCOH_REL_TOL * abs(expected):
        return f"lcoh {got!r} != ledger total / tons {expected!r}", malformed
    return None, malformed


def _check_kde(dest: Path, log) -> tuple[str | None, int]:
    rows, malformed = _numbers(dest / "kde.csv", 0)
    grid, dens = rows[:, 0], rows[:, 1]
    mass = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)))
    if abs(mass - 1.0) > KDE_MASS_TOL:
        return f"kde density integrates to {mass!r}", malformed
    return None, malformed


def _check_cumcost(dest: Path, log) -> tuple[str | None, int]:
    rows, malformed = _numbers(dest / "cumcost.csv", 1)
    if len(rows) != len(log):
        return f"cumcost has {len(rows)} rows for {len(log)} steps", malformed
    if (rows[-1, 0], rows[-1, 1]) != (math.fsum(log.elec_cost), math.fsum(log.mem_cost)):
        return "cumcost final row differs from the ledger sums", malformed
    return None, malformed


_ANALYZE_CHECKS = {"lcoh": _check_lcoh, "kde": _check_kde, "cumcost": _check_cumcost}


def log_analyze(inp, tracer, out: Path) -> UnitResult:
    """Write the synthetic season log, then `h2mpc analyze` it three ways."""
    log = inp.season_log
    path = out / f"trajectory_{log.strategy}.csv"
    res = UnitResult(wall_s=0.0, attempted=len(ANALYZE_KINDS), failed=0)
    t0 = clock()
    log.to_csv(path)
    res.detail["write_s"] = clock() - t0
    codes = {}
    for kind in ANALYZE_KINDS:
        t = clock()
        with redirect_stdout(io.StringIO()):
            codes[kind] = cli.main(["analyze", "--log", str(path), kind, "--out", str(out / kind)])
        res.detail[f"analyze_s.{kind}"] = clock() - t
    res.wall_s = clock() - t0

    res.fingerprint[path.name] = sha256(path)
    for kind, code in codes.items():
        if code != 0:
            res.failed += 1
            res.failures.append(f"analyze {kind}: exit code {code}")
            continue
        problem, malformed = _ANALYZE_CHECKS[kind](out / kind, log)
        res.fingerprint[f"{kind}.csv"] = sha256(out / kind / f"{kind}.csv")
        if problem:
            res.errors.append(f"analyze {kind}: {problem}")
        if problem or malformed:
            res.failed += 1
            res.failures.append(f"analyze {kind}: {problem or f'{malformed} cells are not plain numbers'}")
    settled = market.settle(log.actions, log.dam_price, log.rtm_price)
    if abs(settled - log.ledger().electricity_usd) > LEDGER_TOL_USD:
        res.errors.append(f"season ledger does not re-settle: {settled!r}")
    return res


WORKLOADS = {"compare-day": compare_day, "hfms-days": hfms_days, "log-analyze": log_analyze}
# simulated days and trajectory rows one unit covers
SIZES = {
    "compare-day": (1, len(STRATEGIES) * units.STEPS_PER_DAY),
    "hfms-days": (HFMS_DAYS, HFMS_DAYS * units.STEPS_PER_DAY),
    "log-analyze": (SEASON_DAYS, SEASON_DAYS * units.STEPS_PER_DAY),
}
