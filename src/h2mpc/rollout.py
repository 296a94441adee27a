"""Closed-loop rolling-horizon engine.

Every 15 minutes: build the controller problem for the chosen strategy,
solve it, apply only the first action to the high-fidelity simulator, and
feed the resulting state back. At 09:00 the horizon additionally spans the
next day and the resulting 24 hourly day-ahead quantities are frozen into
an immutable commitment. The very first step of a run performs a
bootstrap solve with free day-ahead variables for its own day, since no
earlier 09:00 solve exists to have committed it.

A step starts warm from the latest optimal plan whose horizon ends where
its own does, shifted onto it: the previous step's, the 08:45 plan at
09:15 (the 09:00 solve ends a day later) and the previous day's 09:00
plan at midnight. Only the bootstrap and each 09:00 solve open a new
horizon end and start cold. A step whose warm solve is not optimal, or
that has no warm start, is solved from the cold start point along a fixed
ladder of barrier and objective scalings until one solve is optimal; only
an optimal solve's plan is applied, frozen or kept to start a later step
from. If every attempt fails at a step that freezes a commitment, the run
aborts with RolloutError rather than freezing a schedule from a failed
iterate; at any other step the plant holds its operating point while
buying exactly the committed day-ahead quantity, and the step is flagged.

Whatever model the controller used, the simulator always runs the
high-fidelity physics, and the cost ledger always accounts membrane wear
from simulated thinning, so strategies are compared on true degradation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

from . import electrolyzer, ocp, units
from .market import settle, step_in_day
from .params import ControlAction, CostLedger, DamCommitment, PlantParams, PlantState, PriceSeries
# ``rollout.solve`` is the name tests and the benchmark hook solves by
from .solver import SolveResult, SolverConfig, minimize as solve

TRAJECTORY_CSV_HEADER = (
    "timestamp,strategy,p_dam_mw,p_rtm_mw,temperature_k,current_a,"
    "h2_el_to_plant_kmolhr,h2_to_storage_kmolhr,h2_from_storage_kmolhr,"
    "membrane_um,storage_kmol,dam_price,rtm_price,elec_cost_usd,mem_cost_usd,"
    "cum_elec_usd,cum_mem_usd,cum_h2_ton"
)


class RolloutError(RuntimeError):
    pass


@dataclass
class TrajectoryLog:
    """Time-indexed record of one closed-loop run."""

    strategy: str
    timestamps: list[datetime] = field(default_factory=list)
    actions: list[ControlAction] = field(default_factory=list)
    states: list[PlantState] = field(default_factory=list)  # post-step
    dam_price: list[float] = field(default_factory=list)
    rtm_price: list[float] = field(default_factory=list)
    elec_cost: list[float] = field(default_factory=list)
    mem_cost: list[float] = field(default_factory=list)
    h2_ton: list[float] = field(default_factory=list)
    flagged: list[bool] = field(default_factory=list)
    solver_iterations: list[int] = field(default_factory=list)
    warm_started: list[bool] = field(default_factory=list)
    commitments: dict[date, DamCommitment] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.timestamps)

    # cumulative columns (compensated prefix sums) ----------------------
    def cum_elec(self) -> list[float]:
        return _prefix_fsum(self.elec_cost)

    def cum_mem(self) -> list[float]:
        return _prefix_fsum(self.mem_cost)

    def cum_h2(self) -> list[float]:
        return _prefix_fsum(self.h2_ton)

    def ledger(self) -> CostLedger:
        return CostLedger(
            electricity_usd=math.fsum(self.elec_cost),
            membrane_usd=math.fsum(self.mem_cost),
            h2_ton=math.fsum(self.h2_ton),
        )

    def to_csv(self, path: str | Path) -> None:
        """Write the log, one ``repr`` per float cell, formatted column by column."""
        floats = [
            *([getattr(a, f.name) for a in self.actions] for f in fields(ControlAction)),
            [s.membrane_um for s in self.states],
            [s.storage_kmol for s in self.states],
            self.dam_price, self.rtm_price, self.elec_cost, self.mem_cost,
            self.cum_elec(), self.cum_mem(), self.cum_h2(),
        ]
        stamps = [ts.isoformat() for ts in self.timestamps]
        rows = map(",".join, zip(stamps, [self.strategy] * len(stamps), *(map(repr, col) for col in floats)))
        Path(path).write_text("\n".join([TRAJECTORY_CSV_HEADER, *rows]) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "TrajectoryLog":
        """Read a log ``to_csv`` wrote; raises as ``read_trajectory_csv``."""
        strategy, stamps, cells = read_trajectory_csv(path)
        *action_cols, membrane, storage, dam, rtm, elec, mem, _, _, cum_h2 = cells.T.tolist()
        step = timedelta(minutes=units.STEP_MINUTES)
        return cls(
            strategy=strategy,
            timestamps=stamps,
            actions=list(map(ControlAction, *action_cols)),
            states=list(map(PlantState, membrane, storage, [ts + step for ts in stamps])),
            dam_price=dam,
            rtm_price=rtm,
            elec_cost=elec,
            mem_cost=mem,
            h2_ton=[b - a for a, b in zip([0.0, *cum_h2], cum_h2)],
        )


def read_trajectory_csv(path: str | Path) -> tuple[str, list[datetime], np.ndarray]:
    """A trajectory CSV as (strategy, timestamps, cells).

    ``cells`` is an (n, 16) float array of the numeric columns in header
    order, parsed in one numpy call. Raises ValueError for a wrong header or
    an empty log, and, naming ``path:line``, for a row with the wrong field
    count, a cell that is no number or timestamp, or a strategy other than
    the first row's.
    """
    path = Path(path)
    n_fields = TRAJECTORY_CSV_HEADER.count(",") + 1
    strategy = None
    stamps: list[datetime] = []
    rests: list[str] = []  # each row after its strategy cell
    with path.open() as fh:
        if fh.readline().rstrip("\n") != TRAJECTORY_CSV_HEADER:
            raise ValueError(f"{path}: unexpected trajectory header")
        for line_no, line in enumerate(fh, start=2):
            n = line.count(",") + 1
            if n != n_fields:
                raise ValueError(f"{path}:{line_no}: {n} fields, expected {n_fields}")
            stamp, name, rest = line.split(",", 2)
            if strategy is None:
                strategy = name
            elif name != strategy:
                raise ValueError(f"{path}:{line_no}: strategy {name!r} in a {strategy!r} log")
            try:
                stamps.append(datetime.fromisoformat(stamp))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            rests.append(rest)
    if not stamps:
        raise ValueError(f"{path}: empty trajectory")
    try:
        return strategy, stamps, _parse_cells(rests)
    except ValueError as exc:
        error = f"{path}: {exc}"
    for line_no, rest in enumerate(rests, start=2):  # name the first bad row
        try:
            _parse_cells([rest])
        except ValueError as exc:
            # numpy's own "at row 0, column c" counts within this one row
            error = f"{path}:{line_no}: {str(exc).partition(' at row ')[0]}"
            break
    raise ValueError(error)


def _parse_cells(rows: list[str]) -> np.ndarray:
    # comments=None: by default numpy drops everything after a '#' in a cell
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)


def _prefix_fsum(values: list[float]) -> list[float]:
    """Correctly rounded running sums, equal to fsum of each prefix.

    Keeps the running total exactly as Shewchuk's non-overlapping partials
    (the algorithm inside math.fsum), so each prefix costs one pass over a
    few partials instead of over the whole prefix.
    """
    partials: list[float] = []
    specials: list[float] = []  # inf and nan, which fsum resolves on its own
    sums = []
    for x in values:
        if not math.isfinite(x):
            specials.append(x)
        else:
            i = 0
            for y in partials:
                if abs(x) < abs(y):
                    x, y = y, x
                hi = x + y
                lo = y - (hi - x)
                if lo:
                    partials[i] = lo
                    i += 1
                x = hi
            partials[i:] = [x]
        sums.append(math.fsum(partials + specials))
    return sums


# cold solves tried in order until one is optimal: the default, a larger
# and a smaller initial barrier parameter, then a heavier objective scale
_RETRY_LADDER = ({}, {"mu0": 1.0}, {"mu0": 1.0e-2}, {"obj_scale": 1.0e-3})


def _fallback_action(
    strategy: ocp.StrategyKind,
    prev: ControlAction,
    p_dam_mw: float,
    state: PlantState,
    p: PlantParams,
) -> ControlAction:
    """Hold the previous operating point while buying the committed quantity.

    The temperature is held. Strategies that trade in real time keep the
    previous current and settle the power gap on the real-time market;
    hf-ss, with real-time trading pinned to zero, bisects the current at
    which plant power meets the commitment (power rises with current).
    Plant power and generation come from the model the simulator steps.
    """
    temp = prev.temperature_k

    def power_mw(current: float) -> float:
        kw = electrolyzer.stack_point(temp, current, state.membrane_um, p, partials=False).p_kw
        return float(kw) / 1000.0

    if strategy is ocp.StrategyKind.HF_SS:
        lo, hi = p.current_bounds()
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if power_mw(mid) < p_dam_mw:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        current = min((lo, hi), key=lambda c: abs(power_mw(c) - p_dam_mw))
        p_rtm_mw = 0.0
    else:
        current = prev.current_a
        p_rtm_mw = power_mw(current) - p_dam_mw

    gen = p.h2_kmol_hr_per_amp * current
    el_plant = min(gen, p.h2_setpoint)
    return ControlAction(
        p_dam_mw=p_dam_mw,
        p_rtm_mw=p_rtm_mw,
        temperature_k=temp,
        current_a=current,
        h2_el_to_plant_kmolhr=el_plant,
        h2_to_storage_kmolhr=gen - el_plant,
        h2_from_storage_kmolhr=p.h2_setpoint - el_plant,
    )


def run(
    strategy: ocp.StrategyKind,
    initial_state: PlantState,
    dam_series: PriceSeries,
    rtm_series: PriceSeries,
    start_day: date,
    end_day: date,
    p: PlantParams,
) -> TrajectoryLog:
    """Roll the closed loop from start_day 00:00 through end_day 23:45.

    Raises ValueError for a window that ends before it starts, a state
    clock off its first midnight, or prices that do not cover the run plus
    one lookahead day. Raises RolloutError when no solve of a commitment
    step (the 09:00 solve or the first step's bootstrap) is optimal: no
    commitment is frozen from a failed solve.
    """
    if end_day < start_day:
        raise ValueError("end day precedes start day")
    start_ts = datetime(start_day.year, start_day.month, start_day.day)
    if initial_state.clock != start_ts:
        raise ValueError(
            f"initial state clock {initial_state.clock} must sit at {start_ts}"
        )
    initial_state.validate(p)
    n_days = (end_day - start_day).days + 1
    n_steps = n_days * units.STEPS_PER_DAY
    _check_price_cover(dam_series, start_ts, n_steps + units.STEPS_PER_DAY, "DAM")
    _check_price_cover(rtm_series, start_ts, n_steps + units.STEPS_PER_DAY, "RTM")

    log = TrajectoryLog(strategy=strategy.value)
    state = initial_state
    commitments: dict[date, DamCommitment] = {}
    # the latest optimal solve per horizon end, today's and tomorrow's
    plans: dict[datetime, tuple[ocp.OcpProblem, SolveResult]] = {}
    prev_action: ControlAction | None = None

    # CO misses the supply setpoint by 0.014% by construction; optimizing
    # strategies carry the equality in their model and must hit it tightly
    setpoint_tol = 1e-3 * p.h2_setpoint if strategy is ocp.StrategyKind.CO else 1e-4

    for k in range(n_steps):
        ts = start_ts + timedelta(minutes=k * units.STEP_MINUTES)
        day = ts.date()
        sid = step_in_day(ts)

        # after the first step, yesterday's 09:00 solve has committed today
        today = commitments.get(day)
        bootstrap = today is None
        freezes = bootstrap or sid == units.COMMITMENT_STEP
        hourly = (None,) * 24 if bootstrap else today.hourly_mw
        dam_hourly = list(hourly[sid // units.STEPS_PER_HOUR :])
        horizon = units.STEPS_PER_DAY - sid
        if sid == units.COMMITMENT_STEP:
            dam_hourly += [None] * 24
            horizon += units.STEPS_PER_DAY

        prob = ocp.build(
            strategy,
            state,
            dam_hourly,
            dam_series.window(ts, horizon),
            rtm_series.window(ts, horizon),
            p,
        )

        # the latest optimal plan with this horizon's end plans the same
        # hours, so its tail is this step's warm start whatever the shift;
        # a plan whose end has passed can start no step again
        end = ts + timedelta(minutes=horizon * units.STEP_MINUTES)
        plans = {e: plan for e, plan in plans.items() if e > ts}
        warm = end in plans
        if warm:
            start = ocp.warm_start_from(prob, *plans[end])
            sol = solve(prob, start, SolverConfig(initialization="warm", max_iterations=400))
        if not warm or not sol.ok:
            for overrides in _RETRY_LADDER:
                sol = solve(prob, ocp.cold_start(prob), SolverConfig(**overrides))
                if sol.ok:
                    break

        if not sol.ok and freezes:
            raise RolloutError(
                f"every solve at {ts} failed ({sol.status}); "
                "no commitment is frozen from a failed solve"
            )
        if sol.ok:
            action = prob.first_action(sol.x)
        else:
            action = _fallback_action(
                strategy, prev_action, today.mw_at_step(sid), state, p
            )

        if freezes:
            # the plan's last 24 hours: today's at the bootstrap, tomorrow's at 09:00
            frozen = day if bootstrap else day + timedelta(days=1)
            commitments[frozen] = DamCommitment(day=frozen, hourly_mw=tuple(sol.x[prob.idx["p_dam"][-24:]].tolist()))

        try:
            result = electrolyzer.step(state, action, p, setpoint_tol_kmolhr=setpoint_tol)
        except electrolyzer.StepViolation as exc:
            raise RolloutError(f"simulator rejected the applied action at {ts}: {exc}") from exc

        c_dam = dam_series.window(ts, 1)[0]
        c_rtm = rtm_series.window(ts, 1)[0]
        elec = units.STEP_HOURS * (c_dam * action.p_dam_mw + c_rtm * action.p_rtm_mw)

        log.timestamps.append(ts)
        log.actions.append(action)
        log.states.append(result.state)
        log.dam_price.append(c_dam)
        log.rtm_price.append(c_rtm)
        log.elec_cost.append(elec)
        log.mem_cost.append(result.membrane_cost_usd)
        log.h2_ton.append(result.h2_produced_ton)
        log.flagged.append(not sol.ok)
        log.solver_iterations.append(sol.iterations)
        log.warm_started.append(warm)

        state = result.state
        prev_action = action
        if sol.ok:
            plans[end] = prob, sol

    log.commitments = commitments
    _verify_ledger(log)
    return log


def _check_price_cover(series: PriceSeries, start_ts: datetime, n_steps: int, label: str) -> None:
    try:
        series.window(start_ts, n_steps)
    except ValueError as exc:
        raise ValueError(f"{label} prices do not cover the run plus one lookahead day: {exc}") from exc


def _verify_ledger(log: TrajectoryLog) -> None:
    """Cross-check the electricity ledger against market settlement."""
    total = settle(log.actions, log.dam_price, log.rtm_price)
    ledger = log.ledger().electricity_usd
    if abs(total - ledger) > 1e-6:
        raise RolloutError(
            f"ledger electricity {ledger} disagrees with settlement {total}"
        )


def compare(
    strategies: list[ocp.StrategyKind],
    initial_state: PlantState,
    dam_series: PriceSeries,
    rtm_series: PriceSeries,
    start_day: date,
    end_day: date,
    p: PlantParams,
) -> dict[str, TrajectoryLog]:
    """Run several strategies on identical inputs, step-aligned."""
    out = {
        s.value: run(s, initial_state, dam_series, rtm_series, start_day, end_day, p)
        for s in strategies
    }
    stamps = [log.timestamps for log in out.values()]
    if any(st != stamps[0] for st in stamps[1:]):
        raise RolloutError("strategy logs are not step-aligned")
    return out
