"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The week-long rollouts (criteria 5-10) share one session fixture;
the full module took 33 s on a 2-core x86 host.
"""

import math
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from h2mpc import analysis, market, ocp, rollout, units
from h2mpc import electrolyzer as el
from h2mpc.ocp import StrategyKind, build, cold_start
from h2mpc.params import PlantParams, PlantState, PriceSeries
from h2mpc.solver import SolverConfig, minimize

from _oracles import brute_force_h2, euler_consistent_point, horner_rate, hourly, jacobian

WEEK_START = date(2022, 1, 2)
WEEK_END = date(2022, 1, 8)

PAPER_LCOH = {"hf-ms": 0.746, "lf-ms": 0.768, "hf-ss": 3.543, "co": 4.383}
PAPER_ELEC_SHARE = {"hf-ms": 0.87, "lf-ms": 0.79, "hf-ss": 0.03, "co": 0.04}


def ok(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="session")
def week_prices(dam_csv_path, rtm_csv_path):
    dam = market.load_price_csv(dam_csv_path, resolution_minutes=60)
    rtm = market.load_price_csv(rtm_csv_path, resolution_minutes=15)
    return dam, rtm


@pytest.fixture(scope="session")
def week_state(params):
    return PlantState(
        membrane_um=params.membrane_thickness_initial,
        storage_kmol=0.6 * params.storage_capacity,
        clock=datetime(2022, 1, 2),
    )


@pytest.fixture(scope="session")
def week_logs(params, week_prices, week_state, tmp_path_factory):
    """Criterion 6's four rollouts, shared by criteria 5, 8, 9, and 10."""
    dam, rtm = week_prices
    logs = rollout.compare(
        list(StrategyKind), week_state, dam, rtm, WEEK_START, WEEK_END, params
    )
    out = tmp_path_factory.mktemp("week_run1")
    for name, log in logs.items():
        log.to_csv(out / f"trajectory_{name}.csv")
    return logs, out


class TestCriterion1Physics:
    def test_physics_oracles(self, params):
        got = params.h2_kmol_hr_per_amp * 65000.0  # the simulator's and the controller's, kmol/hr
        expected = units.mol_s_to_kmol_hr(800 * 65000 * 0.95 / (2 * 96485))  # 255.998... mol/s
        assert abs(got - expected) < 1e-6
        assert el.reversible_potential(298.0) == 1.299
        assert abs(el.membrane_conductivity(303.0, params) - 0.0687) < 1e-5
        # direct-evaluation oracle of the thinning polynomial (the spec's
        # printed -0.0060325 is an arithmetic slip; see the decisions ledger)
        assert abs(el.degradation_rate(343.15, 1.0) - horner_rate(343.15, 1.0)) < 1e-7
        assert abs(el.degradation_rate(343.15, 1.0) - (-0.006042)) < 1e-7
        ok(1, "generation 921.594 kmol/hr (255.998 mol/s), V_rev(298)=1.299, beta(303)=0.0687, "
              "rate(343.15,1.0)=-0.006042 um/min")


class TestCriterion2CoConsistency:
    def test_fixed_current_reproduces_setpoint(self, params):
        gen = params.h2_kmol_hr_per_amp * ocp.CO_FIXED_CURRENT_A
        rel = abs(gen - params.h2_setpoint) / params.h2_setpoint
        assert rel < 1e-3
        ok(2, f"35.26 kA gives {gen:.3f} kmol/hr, {rel:.2e} relative from the setpoint")


class TestCriterion3Derivatives:
    def test_24_step_hf_ms_derivatives(self, params, week_state):
        rng = np.random.default_rng(2022)
        H = 24
        dam_price = rng.uniform(15.0, 60.0, H)
        rtm_price = rng.uniform(-10.0, 250.0, H)
        prob = build(
            StrategyKind.HF_MS, week_state, hourly(week_state, H, 60.0), dam_price, rtm_price, params
        )
        worst_grad = 0.0
        worst_jac = 0.0
        for _ in range(10):
            x = euler_consistent_point(prob, rng)
            _, g = prob.objective_and_gradient(x)
            res0, jac = jacobian(prob, x)
            jac = jac.toarray()
            cols = rng.choice(prob.n, size=25, replace=False)
            for i in cols:
                # objective: wide central difference (exact for a linear form)
                h = 0.5 * max(1.0, abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fp, _ = prob.objective_and_gradient(xp)
                fm, _ = prob.objective_and_gradient(xm)
                fd = (fp - fm) / (2 * h)
                worst_grad = max(worst_grad, abs(g[i] - fd) / max(abs(fd), 1.0))
                # constraints: small central difference
                h = 4e-6 * max(1.0, abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                rp, _ = jacobian(prob, xp)
                rm, _ = jacobian(prob, xm)
                fd_col = (rp - rm) / (xp[i] - xm[i])
                err = np.max(np.abs(jac[:, i] - fd_col) / np.maximum(np.abs(fd_col), 1.0))
                worst_jac = max(worst_jac, float(err))
        assert worst_grad < 1e-6
        assert worst_jac < 1e-6
        ok(3, f"max relative error vs central differences: gradient {worst_grad:.2e}, "
              f"Jacobian {worst_jac:.2e} over 10 feasible points")


class TestCriterion4BruteForce:
    def test_h2_solver_against_enumeration(self, params, week_state):
        dam_price = np.array([30.0, 30.0])
        rtm_price = np.array([28.0, 33.0])
        prob = build(
            StrategyKind.HF_MS, week_state, [60.0], dam_price, rtm_price, params
        )
        best_obj, best_controls, cells = brute_force_h2(prob, params)
        assert np.isfinite(best_obj)
        x0 = cold_start(prob)
        for t in range(2):
            gen = params.h2_kmol_hr_per_amp * best_controls[3 * t + 1]
            x0[prob.idx["temp"][t]] = best_controls[3 * t]
            x0[prob.idx["current"][t]] = best_controls[3 * t + 1]
            x0[prob.idx["stor_in"][t]] = best_controls[3 * t + 2]
            x0[prob.idx["el_plant"][t]] = gen - best_controls[3 * t + 2]
            x0[prob.idx["stor_out"][t]] = params.h2_setpoint - (gen - best_controls[3 * t + 2])
        res = minimize(prob, x0, SolverConfig())
        assert res.ok
        obj = prob.objective_and_gradient(res.x)[0]
        assert obj <= best_obj + 1e-6 * max(1.0, abs(best_obj))
        got = np.array([
            res.x[prob.idx["temp"][0]], res.x[prob.idx["current"][0]],
            res.x[prob.idx["temp"][1]], res.x[prob.idx["current"][1]],
        ])
        ref = best_controls[[0, 1, 3, 4]]
        spans = np.array([cells[0], cells[1]] * 2)
        # proximity on the determining controls; the storage split has a
        # structural null direction (see decisions ledger)
        assert np.all(np.abs(got - ref) <= spans + 1e-9)
        ok(4, f"NLP objective {obj:,.0f} <= grid best {best_obj:,.0f}, "
              "within one cell in (T, I)")


@pytest.mark.slow
class TestCriterion5FeasibleSetDominance:
    def test_hf_ms_cheaper_than_hf_ss(self, week_logs):
        logs, _ = week_logs
        ms = logs["hf-ms"].ledger()
        ss = logs["hf-ss"].ledger()
        total_ms = ms.electricity_usd + ms.membrane_usd
        total_ss = ss.electricity_usd + ss.membrane_usd
        assert total_ms <= total_ss + 1e-6
        ok(5, f"HF-MS total ${total_ms:,.0f} <= HF-SS total ${total_ss:,.0f}")


@pytest.mark.slow
class TestCriterion6StrategyOrdering:
    def test_week_ordering_and_lcoh_report(self, week_logs):
        logs, _ = week_logs
        totals = {
            name: log.ledger().electricity_usd + log.ledger().membrane_usd
            for name, log in logs.items()
        }
        assert totals["hf-ms"] < totals["lf-ms"]
        assert totals["hf-ss"] < totals["co"]
        print("  strategy   lcoh[k$/ton]  elec-share   paper-lcoh  paper-share")
        for name in ("hf-ms", "lf-ms", "hf-ss", "co"):
            b = analysis.lcoh_breakdown(logs[name].ledger())
            print(
                f"  {name:8s} {b.total_kusd_per_ton:12.3f}  {b.elec_share:10.1%}"
                f"  {PAPER_LCOH[name]:10.3f}  {PAPER_ELEC_SHARE[name]:10.0%}"
            )
        ok(6, "orderings HF-MS < LF-MS and HF-SS < CO hold on the bundled week "
              "(levelized costs reported above for qualitative comparison)")


class TestCriterion7Arbitrage:
    def test_rtm_spike_triggers_sell_back(self, params):
        start = date(2022, 1, 3)
        state = PlantState(178.0, 4200.0, datetime(2022, 1, 3))
        rtm_vals = [25.0] * 192
        for k in range(40, 44):
            rtm_vals[k] = 500.0
        dam = PriceSeries(datetime(2022, 1, 3), tuple([25.0] * 192))
        rtm = PriceSeries(datetime(2022, 1, 3), tuple(rtm_vals))
        log = rollout.run(StrategyKind.HF_MS, state, dam, rtm, start, start, params)
        spike_rtm = [log.actions[k].p_rtm_mw for k in range(40, 44)]
        assert min(spike_rtm) < 0.0
        ok(7, f"sold back up to {-min(spike_rtm):.1f} MW during the $500 spike")


@pytest.mark.slow
class TestCriterion8ClosedLoopInvariants:
    def test_invariants_over_every_rollout(self, week_logs, params, week_state):
        logs, _ = week_logs
        i_lo, i_hi = params.current_bounds()
        pmax_mw = params.plant_power_max / 1000.0
        for name, log in logs.items():
            prev = week_state.storage_kmol
            worst_mass = worst_setpoint = 0.0
            for act, st in zip(log.actions, log.states):
                net = units.STEP_HOURS * (
                    act.h2_to_storage_kmolhr - act.h2_from_storage_kmolhr
                )
                worst_mass = max(worst_mass, abs(st.storage_kmol - prev - net))
                prev = st.storage_kmol
                supply = act.h2_el_to_plant_kmolhr + act.h2_from_storage_kmolhr
                worst_setpoint = max(worst_setpoint, abs(supply - params.h2_setpoint))
                assert 0.0 <= act.p_dam_mw <= pmax_mw + 1e-9
                assert -0.9 * pmax_mw - 1e-9 <= act.p_rtm_mw <= pmax_mw + 1e-9
                assert params.temperature_min - 1e-9 <= act.temperature_k <= params.temperature_max + 1e-9
                assert i_lo - 1e-9 <= act.current_a <= i_hi + 1e-9
                assert params.storage_min - 1e-9 <= st.storage_kmol <= params.storage_max + 1e-9
                assert 0.0 < st.membrane_um <= params.membrane_thickness_initial
            assert worst_mass < 1e-9, name
            if name == "co":
                # pinned current reproduces the setpoint to 0.014% (criterion 2)
                assert worst_setpoint <= 1e-3 * params.h2_setpoint, name
            else:
                assert worst_setpoint < 1e-6, name
            settled = market.settle(log.actions, log.dam_price, log.rtm_price)
            assert abs(log.ledger().electricity_usd - settled) < 1e-6, name
            # day-ahead commitments immutable: every applied quantity equals
            # the frozen hourly block of its day
            for ts, act in zip(log.timestamps, log.actions):
                com = log.commitments[ts.date()]
                assert act.p_dam_mw == com.mw_at_step(market.step_in_day(ts)), (name, ts)
        ok(8, "mass closure < 1e-9 kmol, setpoint tight, bounds and "
              "commitments respected, ledgers settle")


@pytest.mark.slow
class TestCriterion9Kde:
    def test_kde_normalization_and_mode(self, week_logs):
        logs, _ = week_logs
        log = logs["hf-ms"]
        temps = np.array([a.temperature_k for a in log.actions])
        currents = np.array([a.current_a for a in log.actions])
        grid, dens, samples = analysis.kde_current_density(temps, currents, 343.15)
        integral = float(np.trapezoid(dens, grid))
        assert abs(integral - 1.0) < 1e-6
        mode_j = float(grid[np.argmax(dens)])
        # the rate at the mode is taken at the temperature the selected
        # steps ran at, not at the nominal level: |rate| grows by about
        # 4.4e-4 um/min per K here, far more than the mode-median gap
        level_t = float(np.median(temps[np.abs(temps - 343.15) < analysis.TEMP_MATCH_TOL_K]))
        mode_rate = abs(el.degradation_rate(level_t, mode_j))
        traj = np.array([
            abs(el.degradation_rate(a.temperature_k, a.current_a / 50000.0))
            for a in log.actions
        ])
        median_rate = float(np.median(traj))
        assert mode_rate <= median_rate + 1e-12
        ok(9, f"KDE integral {integral:.8f}; mode at j={mode_j:.3f} with "
              f"|rate| {mode_rate:.2e} <= trajectory median {median_rate:.2e}")


@pytest.mark.slow
class TestCriterion10Determinism:
    def test_rerun_is_byte_identical(self, week_logs, params, week_prices, week_state, tmp_path_factory):
        logs, first_dir = week_logs
        dam, rtm = week_prices
        rerun = rollout.compare(
            list(StrategyKind), week_state, dam, rtm, WEEK_START, WEEK_END, params
        )
        out = tmp_path_factory.mktemp("week_run2")
        for name, log in rerun.items():
            log.to_csv(out / f"trajectory_{name}.csv")
            a = (first_dir / f"trajectory_{name}.csv").read_bytes()
            b = (out / f"trajectory_{name}.csv").read_bytes()
            assert a == b, name
        ok(10, "all four week-long trajectory CSVs byte-identical on re-run")


@pytest.mark.slow
class TestWarmStartGuard:
    """Solver module invariant, benchmarked on the week's first day."""

    def test_warm_iterations_bounded_by_cold_median(self, week_logs, params, week_prices, week_state):
        logs, _ = week_logs
        log = logs["hf-ms"]
        dam, rtm = week_prices
        warm_iters = [
            it for it, w, fl in zip(log.solver_iterations, log.warm_started, log.flagged)
            if w and not fl
        ]
        assert warm_iters, "no warm-started solves recorded"
        # cold-start baseline: re-solve a sample of the same problems from
        # scratch, rebuilding each from the logged state and commitments
        rng = np.random.default_rng(99)
        sample = sorted(rng.choice(len(log), size=12, replace=False))
        cold_iters = []
        for k in sample:
            ts = log.timestamps[k]
            sid = market.step_in_day(ts)
            days = [ts.date()] + ([ts.date() + timedelta(days=1)] if sid == units.COMMITMENT_STEP else [])
            horizon = len(days) * units.STEPS_PER_DAY - sid
            state = week_state if k == 0 else log.states[k - 1]
            # the committed hours from the step's own on, None past the log
            dam_hourly = [
                mw for day in days
                for mw in (log.commitments[day].hourly_mw if day in log.commitments else [None] * 24)
            ][sid // units.STEPS_PER_HOUR :]
            prob = build(
                StrategyKind.HF_MS, state, dam_hourly,
                dam.window(ts, horizon), rtm.window(ts, horizon), params,
            )
            res = minimize(prob, cold_start(prob), SolverConfig())
            if res.ok:
                cold_iters.append(res.iterations)
        cold_median = float(np.median(cold_iters))
        assert max(warm_iters) <= 3.0 * cold_median, (max(warm_iters), cold_median)
        ok("warm-start guard",
           f"max warm iterations {max(warm_iters)} <= 3 x cold median {cold_median:.0f}")

    def test_only_new_horizon_ends_start_cold(self, week_logs):
        # the bootstrap and each day's 09:00 solve; every other step shifts
        # the latest optimal plan with its own horizon end
        log = week_logs[0]["hf-ms"]
        cold = [ts for ts, warm in zip(log.timestamps, log.warm_started) if not warm]
        days = [WEEK_START + timedelta(days=d) for d in range((WEEK_END - WEEK_START).days + 1)]
        assert cold == [datetime(2022, 1, 2)] + [datetime(d.year, d.month, d.day, 9) for d in days]
        assert len(cold) == 8
        ok("warm-start guard", f"{len(cold)} cold-started hf-ms steps in {len(log)}")
