import dataclasses
import math
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2mpc import electrolyzer as el
from h2mpc import market, ocp, rollout, units
from h2mpc.params import PlantParams, PlantState, PriceSeries
from h2mpc.rollout import RolloutError, TrajectoryLog

START = date(2022, 1, 3)


def series(values):
    return PriceSeries(datetime(2022, 1, 3), tuple(float(v) for v in values))


def flat_two_days(price):
    return series([price] * 192)


def spiky_rtm():
    """Flat $25 with a $500 spike from 10:00 to 10:45."""
    vals = [25.0] * 192
    for k in range(40, 44):
        vals[k] = 500.0
    return series(vals)


@pytest.fixture(scope="module")
def plant():
    return PlantParams()


@pytest.fixture(scope="module")
def start_state(plant):
    return PlantState(
        membrane_um=plant.membrane_thickness_initial,
        storage_kmol=4200.0,
        clock=datetime(2022, 1, 3),
    )


@pytest.fixture(scope="module")
def co_flat_log(plant, start_state):
    return rollout.run(
        ocp.StrategyKind.CO, start_state, flat_two_days(25.0), flat_two_days(25.0),
        START, START, plant,
    )


@pytest.fixture(scope="module")
def hf_spike_log(plant, start_state):
    return rollout.run(
        ocp.StrategyKind.HF_MS, start_state, flat_two_days(25.0), spiky_rtm(),
        START, START, plant,
    )


class TestConstantOperation:
    def test_flat_day_traces(self, co_flat_log, plant, start_state):
        log = co_flat_log
        assert len(log) == 96
        assert sum(log.flagged) == 0
        currents = {a.current_a for a in log.actions}
        assert currents == {3.526e4}
        # storage untouched: no cycling under constant operation
        stor = [s.storage_kmol for s in log.states]
        assert max(stor) == min(stor) == start_state.storage_kmol
        # power trace constant up to the membrane feedback: a day of
        # thinning at the pinned current lowers the ohmic drop by ~0.6%
        power = np.array([a.p_dam_mw + a.p_rtm_mw for a in log.actions])
        assert np.ptp(power) < 0.01 * np.mean(power)
        temps = np.array([a.temperature_k for a in log.actions])
        assert np.ptp(temps) < 0.01  # all solves park T at the same bound
        # membrane declines linearly: per-step losses equal to within the
        # same temperature wobble (rate sensitivity ~0.007 um per K)
        eps = [start_state.membrane_um] + [s.membrane_um for s in log.states]
        losses = np.diff(eps)
        assert np.max(np.abs(losses - losses[0])) < 1e-4

    def test_setpoint_within_documented_tolerance(self, co_flat_log, plant):
        for a in co_flat_log.actions:
            supply = a.h2_el_to_plant_kmolhr + a.h2_from_storage_kmolhr
            assert abs(supply - plant.h2_setpoint) <= 1e-3 * plant.h2_setpoint


class TestArbitrage:
    def test_sells_into_the_spike(self, hf_spike_log):
        spike = hf_spike_log.actions[40:44]
        assert any(a.p_rtm_mw < 0.0 for a in spike)

    def test_no_flagged_steps(self, hf_spike_log):
        assert sum(hf_spike_log.flagged) == 0


class TestReceedingHorizonMechanics:
    def test_timestamps_strictly_increasing(self, hf_spike_log):
        ts = hf_spike_log.timestamps
        assert all(b - a == timedelta(minutes=15) for a, b in zip(ts, ts[1:]))

    def test_day0_bootstrap_commitment_exists(self, hf_spike_log):
        assert START in hf_spike_log.commitments
        com = hf_spike_log.commitments[START]
        assert len(com.hourly_mw) == 24

    def test_nine_oclock_creates_next_day_commitment(self, hf_spike_log):
        assert START + timedelta(days=1) in hf_spike_log.commitments

    def test_dam_commitments_immutable_in_applied_actions(self, hf_spike_log):
        com = hf_spike_log.commitments[START]
        for i, act in enumerate(hf_spike_log.actions):
            assert act.p_dam_mw == com.mw_at_step(i)

    def test_state_feedback_chains_simulator_states(self, hf_spike_log, plant, start_state):
        # rebuilding each step from the previous post-state reproduces the log
        state = start_state
        for act, logged in zip(hf_spike_log.actions, hf_spike_log.states):
            res = el.step(state, act, plant, setpoint_tol_kmolhr=1.0)
            assert res.state.membrane_um == logged.membrane_um
            assert res.state.storage_kmol == logged.storage_kmol
            state = res.state

    def test_ledger_closure_against_settlement(self, hf_spike_log):
        led = hf_spike_log.ledger()
        settled = market.settle(
            hf_spike_log.actions, hf_spike_log.dam_price, hf_spike_log.rtm_price
        )
        assert abs(led.electricity_usd - settled) < 1e-6

    def test_cumulative_columns_are_running_sums(self, hf_spike_log):
        ce = hf_spike_log.cum_elec()
        assert ce[-1] == pytest.approx(math.fsum(hf_spike_log.elec_cost), abs=1e-9)
        assert all(
            ce[i] == pytest.approx(math.fsum(hf_spike_log.elec_cost[: i + 1]), abs=1e-9)
            for i in (0, 13, 57, 95)
        )

    def test_mass_closure_per_step(self, hf_spike_log, start_state):
        prev = start_state.storage_kmol
        for act, st in zip(hf_spike_log.actions, hf_spike_log.states):
            delta = st.storage_kmol - prev
            net = 0.25 * (act.h2_to_storage_kmolhr - act.h2_from_storage_kmolhr)
            assert abs(delta - net) < 1e-9
            prev = st.storage_kmol

    def test_logged_production_is_the_controllers_generation(self, hf_spike_log, plant):
        # the simulator generates the controller's mass_split expression,
        # the slope times the current, to the bit
        k = plant.h2_kmol_hr_per_amp
        missed = [
            i for i, (act, ton) in enumerate(zip(hf_spike_log.actions, hf_spike_log.h2_ton))
            if ton != units.kmol_to_ton_h2(k * act.current_a * units.STEP_HOURS)
        ]
        assert len(hf_spike_log) == 96 and missed == []


class TestRunValidation:
    def test_requires_midnight_clock(self, plant):
        bad = PlantState(178.0, 4200.0, datetime(2022, 1, 3, 0, 15))
        with pytest.raises(ValueError, match="must sit at"):
            rollout.run(
                ocp.StrategyKind.CO, bad, flat_two_days(25.0), flat_two_days(25.0),
                START, START, plant,
            )

    def test_requires_price_coverage(self, plant, start_state):
        short = series([25.0] * 100)  # not enough lookahead
        with pytest.raises(ValueError, match="prices do not cover"):
            rollout.run(
                ocp.StrategyKind.CO, start_state, short, flat_two_days(25.0),
                START, START, plant,
            )

    def test_end_before_start(self, plant, start_state):
        with pytest.raises(ValueError, match="precedes"):
            rollout.run(
                ocp.StrategyKind.CO, start_state, flat_two_days(25.0),
                flat_two_days(25.0), START, START - timedelta(days=1), plant,
            )

    def test_co_plant_that_misses_the_setpoint_is_rejected_before_any_step(self, start_state):
        # 900 stacks make co's pinned current generate 562 kmol/hr; the
        # simulator would reject its first step
        with pytest.raises(ocp.BuildError, match="setpoint"):
            rollout.run(
                ocp.StrategyKind.CO, start_state, flat_two_days(25.0), flat_two_days(25.0),
                START, START, dataclasses.replace(PlantParams(), n_stacks=900),
            )

    def test_simulator_rejection_is_a_rollout_error(self, plant):
        # a membrane of 0.5 um wears through in the fourth step of constant operation
        thin = PlantState(0.5, 4200.0, datetime(2022, 1, 3))
        with pytest.raises(RolloutError, match="rejected the applied action at 2022-01-03 00:45:00: membrane") as err:
            rollout.run(
                ocp.StrategyKind.CO, thin, flat_two_days(25.0), flat_two_days(25.0),
                START, START, plant,
            )
        assert isinstance(err.value.__cause__, el.StepViolation)


def step_time(abs_step):
    return datetime(2022, 1, 3) + abs_step * timedelta(minutes=units.STEP_MINUTES)


def fail_solves_at(monkeypatch, abs_step, failure):
    """Make every solve attempt at one absolute step end as ``failure`` (the
    result fields it replaces); count the attempts."""
    real_solve = rollout.solve
    attempts = []

    def solve(prob, init, cfg):
        sol = real_solve(prob, init, cfg)
        if prob.start_time != step_time(abs_step):
            return sol
        attempts.append((cfg, init))
        return dataclasses.replace(sol, **failure)

    monkeypatch.setattr(rollout, "solve", solve)
    return attempts


def watch_starts(monkeypatch, abs_step):
    """Map each warm-started problem's start time to that of the plan it
    shifts; record the (config, result) of every attempt at one step."""
    real_warm, real_solve = ocp.warm_start_from, rollout.solve
    shifted_from, attempts = {}, []

    def warm_start_from(prob, prev, prev_sol):
        shifted_from[prob.start_time] = prev.start_time
        return real_warm(prob, prev, prev_sol)

    def solve(prob, init, cfg):
        sol = real_solve(prob, init, cfg)
        if prob.start_time == step_time(abs_step):
            attempts.append((cfg, sol))
        return sol

    monkeypatch.setattr(ocp, "warm_start_from", warm_start_from)
    monkeypatch.setattr(rollout, "solve", solve)
    return shifted_from, attempts


FAILED_STEP = 50  # 12:30, neither a bootstrap nor a commitment step


def with_failures(values):
    """``values`` paired with a failed line search, then with an
    iteration-capped solve at a feasible point, which is no less failed."""
    failures = {"": {"status": "line_search_failed"}, "-capped": {"status": "max_iterations", "feasibility": 1e-9}}
    return [pytest.param(v, f, id=f"{v}{suffix}") for suffix, f in failures.items() for v in values]


class TestFailedSolveFallback:
    @pytest.mark.parametrize("strategy, failure", with_failures([ocp.StrategyKind.HF_SS, ocp.StrategyKind.HF_MS]))
    def test_fallback_keeps_the_commitment(self, strategy, failure, plant, start_state, monkeypatch):
        attempts = fail_solves_at(monkeypatch, FAILED_STEP, failure)
        shifted_from, next_attempts = watch_starts(monkeypatch, FAILED_STEP + 1)
        log = rollout.run(
            strategy, start_state, flat_two_days(25.0), flat_two_days(25.0),
            START, START, plant,
        )
        assert len(log) == 96
        # the next step shifts the last optimal plan, two steps back, and
        # its warm solve is optimal with no rung of the ladder run
        assert shifted_from[step_time(FAILED_STEP + 1)] == step_time(FAILED_STEP - 1)
        assert [(cfg.initialization, sol.ok) for cfg, sol in next_attempts] == [("warm", True)]
        assert step_time(FAILED_STEP) not in shifted_from.values()
        # warm, then every cold rung of the retry ladder
        assert len(attempts) == 1 + len(rollout._RETRY_LADDER)
        assert [cfg.initialization for cfg, _ in attempts] == ["warm"] + ["cold"] * len(rollout._RETRY_LADDER)
        assert [cfg.mu0 for cfg, _ in attempts[1:]] == [rung.get("mu0") for rung in rollout._RETRY_LADDER]
        # only the warm start carries multipliers; the cold ones are points
        assert attempts[0][1].multipliers is not None
        assert all(isinstance(init, np.ndarray) for _, init in attempts[1:])
        assert [i for i, f in enumerate(log.flagged) if f] == [FAILED_STEP]
        act, prev = log.actions[FAILED_STEP], log.actions[FAILED_STEP - 1]
        assert act.p_dam_mw == log.commitments[START].mw_at_step(FAILED_STEP)
        assert act.temperature_k == prev.temperature_k
        if strategy is ocp.StrategyKind.HF_SS:
            assert act.p_rtm_mw == 0.0
        else:
            assert act.current_a == prev.current_a
        # the fallback buys the plant's draw at its pre-step state
        membrane = log.states[FAILED_STEP - 1].membrane_um
        draw_kw = el.stack_point(act.temperature_k, act.current_a, membrane, plant, partials=False).p_kw
        bought_mwh = (act.p_dam_mw + act.p_rtm_mw) * units.STEP_HOURS
        assert abs(bought_mwh - draw_kw * units.STEP_HOURS / 1000.0) <= 1e-9
        supply = act.h2_el_to_plant_kmolhr + act.h2_from_storage_kmolhr
        assert abs(supply - plant.h2_setpoint) < 1e-9
        # the fallback splits the controller's generation, the slope times the current
        assert act.h2_el_to_plant_kmolhr + act.h2_to_storage_kmolhr == plant.h2_kmol_hr_per_amp * act.current_a
        settled = market.settle(log.actions, log.dam_price, log.rtm_price)
        assert abs(log.ledger().electricity_usd - settled) < 1e-6

    @pytest.mark.parametrize("abs_step, failure", with_failures([0, units.COMMITMENT_STEP]))
    def test_no_commitment_frozen_from_a_failed_solve(self, abs_step, failure, plant, start_state, monkeypatch):
        attempts = fail_solves_at(monkeypatch, abs_step, failure)
        with pytest.raises(RolloutError, match="no commitment is frozen"):
            rollout.run(
                ocp.StrategyKind.CO, start_state, flat_two_days(25.0), flat_two_days(25.0),
                START, START, plant,
            )
        assert len(attempts) == len(rollout._RETRY_LADDER)


class TestTrajectoryCsv:
    def test_round_trip(self, hf_spike_log, tmp_path):
        path = tmp_path / "log.csv"
        hf_spike_log.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == rollout.TRAJECTORY_CSV_HEADER
        back = TrajectoryLog.from_csv(path)
        assert back.strategy == hf_spike_log.strategy
        assert back.timestamps == hf_spike_log.timestamps
        # repr round-trips floats: every stored column comes back exactly
        assert back.actions == hf_spike_log.actions
        assert back.states == hf_spike_log.states
        assert back.dam_price == hf_spike_log.dam_price
        assert back.rtm_price == hf_spike_log.rtm_price
        assert back.elec_cost == hf_spike_log.elec_cost
        assert back.mem_cost == hf_spike_log.mem_cost
        # h2_ton is recovered from differences of the stored cum_h2 column
        assert back.h2_ton == pytest.approx(hf_spike_log.h2_ton, abs=1e-12)
        assert back.cum_h2()[-1] == pytest.approx(hf_spike_log.cum_h2()[-1], abs=1e-9)

    def test_columns_write_the_bytes_of_a_row_writer(self, hf_spike_log, tmp_path):
        # the reference formats row by row, one repr per cell; signed zeros
        # and subnormals must keep their bits through either
        log = dataclasses.replace(
            hf_spike_log,
            actions=[dataclasses.replace(hf_spike_log.actions[0], p_rtm_mw=-0.0), *hf_spike_log.actions[1:]],
            rtm_price=[5e-324, -0.0, *hf_spike_log.rtm_price[2:]],
            mem_cost=[*hf_spike_log.mem_cost[:-1], 2.2250738585072014e-308 / 3.0],
        )
        ce, cm, ch = log.cum_elec(), log.cum_mem(), log.cum_h2()
        lines = [rollout.TRAJECTORY_CSV_HEADER]
        for i, ts in enumerate(log.timestamps):
            a, st = log.actions[i], log.states[i]
            cells = [ts.isoformat(), log.strategy, repr(a.p_dam_mw), repr(a.p_rtm_mw), repr(a.temperature_k),
                     repr(a.current_a), repr(a.h2_el_to_plant_kmolhr), repr(a.h2_to_storage_kmolhr),
                     repr(a.h2_from_storage_kmolhr), repr(st.membrane_um), repr(st.storage_kmol),
                     repr(log.dam_price[i]), repr(log.rtm_price[i]), repr(log.elec_cost[i]),
                     repr(log.mem_cost[i]), repr(ce[i]), repr(cm[i]), repr(ch[i])]
            lines.append(",".join(cells))
        path = tmp_path / "log.csv"
        log.to_csv(path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert b",-0.0," in path.read_bytes() and b",5e-324," in path.read_bytes()

    def test_wrong_header_rejected(self, hf_spike_log, tmp_path):
        path = tmp_path / "log.csv"
        hf_spike_log.to_csv(path)
        path.write_text(path.read_text().replace("cum_h2_ton", "cum_h2_kg", 1))
        with pytest.raises(ValueError, match="log.csv: unexpected trajectory header"):
            rollout.read_trajectory_csv(path)

    def test_write_is_deterministic(self, hf_spike_log, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        hf_spike_log.to_csv(a)
        hf_spike_log.to_csv(b)
        assert a.read_bytes() == b.read_bytes()


class TestCompare:
    def test_two_strategies_step_aligned(self, plant, start_state):
        logs = rollout.compare(
            [ocp.StrategyKind.HF_MS, ocp.StrategyKind.HF_SS],
            start_state, flat_two_days(25.0), spiky_rtm(), START, START, plant,
        )
        a, b = logs["hf-ms"], logs["hf-ss"]
        assert a.timestamps == b.timestamps
        # every single-scale real-time trade is zero by construction
        assert all(act.p_rtm_mw == 0.0 for act in b.actions)
        # identical accounting rules: membrane cost follows simulated thinning
        for log in (a, b):
            for act, st, mem in zip(log.actions, log.states, log.mem_cost):
                assert mem >= 0.0
        # the restriction can only cost money on identical inputs
        tot_a = a.ledger().electricity_usd + a.ledger().membrane_usd
        tot_b = b.ledger().electricity_usd + b.ledger().membrane_usd
        assert tot_a <= tot_b + 1e-6


class TestWarmStarts:
    def test_bundled_lf_ms_day_needs_few_warm_iterations(self, plant, dam_csv_path, rtm_csv_path, monkeypatch):
        # a warm start carries the previous solve's plan and multipliers and
        # begins at the barrier level that solve converged at
        dam = market.load_price_csv(dam_csv_path, resolution_minutes=60)
        rtm = market.load_price_csv(rtm_csv_path, resolution_minutes=15)
        real_solve = rollout.solve
        warm_iterations = []

        def solve(prob, init, cfg):
            sol = real_solve(prob, init, cfg)
            if cfg.initialization == "warm":
                warm_iterations.append(sol.iterations)
            return sol

        monkeypatch.setattr(rollout, "solve", solve)
        day = date(2022, 1, 2)
        state = PlantState(
            membrane_um=plant.membrane_thickness_initial,
            storage_kmol=0.6 * plant.storage_capacity,
            clock=datetime(2022, 1, 2),
        )
        log = rollout.run(ocp.StrategyKind.LF_MS, state, dam, rtm, day, day, plant)
        assert not any(log.flagged)
        # every step but the bootstrap and 09:00, the two that open a horizon end
        assert len(warm_iterations) == 94
        assert np.median(warm_iterations) <= 4

    def test_bundled_hf_ms_days_start_cold_only_at_a_new_horizon_end(self, plant, dam_csv_path, rtm_csv_path,
                                                                      monkeypatch):
        # the benchmark's hfms-days run: 09:15 shifts the 08:45 plan past the
        # 09:00 solve, and the second midnight shifts the first day's 09:00 plan
        dam = market.load_price_csv(dam_csv_path, resolution_minutes=60)
        rtm = market.load_price_csv(rtm_csv_path, resolution_minutes=15)
        real_solve = rollout.solve
        attempts = []

        def solve(prob, init, cfg):
            sol = real_solve(prob, init, cfg)
            attempts.append((prob.start_time, cfg.initialization, sol.ok))
            return sol

        monkeypatch.setattr(rollout, "solve", solve)
        first = date(2022, 1, 2)
        state = PlantState(
            membrane_um=plant.membrane_thickness_initial,
            storage_kmol=0.6 * plant.storage_capacity,
            clock=datetime(2022, 1, 2),
        )
        log = rollout.run(ocp.StrategyKind.HF_MS, state, dam, rtm, first, first + timedelta(days=1), plant)
        # one attempt per step, each optimal
        assert [ts for ts, _, _ in attempts] == log.timestamps
        assert all(ok for _, _, ok in attempts)
        cold = [ts for ts, init, _ in attempts if init == "cold"]
        assert cold == [datetime(2022, 1, 2), datetime(2022, 1, 2, 9), datetime(2022, 1, 3, 9)]
        warm = dict(zip(log.timestamps, log.warm_started))
        assert all(warm[ts] for ts in (datetime(2022, 1, 2, 9, 15), datetime(2022, 1, 3), datetime(2022, 1, 3, 9, 15)))
        assert sum(warm.values()) == 189


_MIXED = st.one_of(
    st.builds(lambda mant, exp: mant * 10.0**exp, st.floats(-1.0, 1.0), st.integers(-20, 20)),
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0, 2.0**-60]),
)


@given(st.lists(_MIXED, max_size=60), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_prefix_fsum_equals_fsum_of_each_prefix(values, rnd):
    # every value also appears negated, so prefixes cancel across magnitudes
    values = values + [-v for v in values]
    rnd.shuffle(values)
    expected = [math.fsum(values[: i + 1]) for i in range(len(values))]
    assert [repr(v) for v in rollout._prefix_fsum(values)] == [repr(v) for v in expected]


@pytest.mark.parametrize(
    "values", [[1.0, math.inf, 2.0], [-math.inf, 1e300, 1e300], [3.0, math.nan, -3.0]]
)
def test_prefix_fsum_keeps_fsum_special_values(values):
    expected = [math.fsum(values[: i + 1]) for i in range(len(values))]
    assert [repr(v) for v in rollout._prefix_fsum(values)] == [repr(v) for v in expected]
    with pytest.raises(ValueError):
        rollout._prefix_fsum([*values, math.inf, -math.inf])
