import dataclasses
from datetime import timedelta

import numpy as np
import pytest

from _oracles import commitment_problem, hourly, jacobian, row_names, state_at
from h2mpc import electrolyzer as el
from h2mpc import ocp, units
from h2mpc.ocp import BuildError, StrategyKind, build, cold_start, warm_start_from
from h2mpc.params import PlantParams, PlantState
from h2mpc.solver import Multipliers, SolverConfig, Start, minimize


def make_problem(strategy, state, p, H=6, dam=55.0, seed=0):
    """``H`` steps from ``state`` with every hour's day-ahead entry ``dam``
    (None: free)."""
    rng = np.random.default_rng(seed)
    dam_price = rng.uniform(15.0, 60.0, H)
    rtm_price = rng.uniform(-10.0, 150.0, H)
    return build(strategy, state, hourly(state, H, dam), dam_price, rtm_price, p)


def euler_consistent_point(prob, rng):
    """A random point satisfying every equality constraint by construction."""
    p = prob.params
    H = prob.horizon
    x = np.empty(prob.n)
    idx = prob.idx
    lo, hi = p.current_bounds()
    fixed = prob.ub - prob.lb <= 0.0

    x[idx["temp"]] = rng.uniform(p.temperature_min, p.temperature_max, H)
    x[idx["current"]] = rng.uniform(lo, hi, H)
    x[fixed] = prob.lb[fixed]  # strategy fixations win before flows derive

    gen = p.h2_kmol_hr_per_amp * x[idx["current"]]
    stor_in = np.minimum(rng.uniform(0.0, 120.0, H), np.maximum(gen - p.h2_setpoint, 0.0) + 50.0)
    if prob.strategy is StrategyKind.CO:
        stor_in = np.zeros(H)
    el_plant = gen - stor_in
    stor_out = np.maximum(p.h2_setpoint - el_plant, 0.0)
    if prob.strategy is not StrategyKind.CO:
        el_plant = np.minimum(el_plant, p.h2_setpoint)
        stor_in = gen - el_plant
        stor_out = p.h2_setpoint - el_plant
    x[idx["el_plant"]] = el_plant
    x[idx["stor_in"]] = stor_in
    x[idx["stor_out"]] = stor_out

    stor = prob.lb[idx["stor"][0]] + np.concatenate(
        [[0.0], np.cumsum(units.STEP_HOURS * (stor_in - stor_out))]
    )
    x[idx["stor"]] = stor
    if prob.high_fidelity:
        eps0 = prob.lb[idx["eps"][0]]
        rate = el.degradation_rate(x[idx["temp"]], x[idx["current"]] / p.membrane_area_cm2)
        x[idx["eps"]] = eps0 + np.concatenate([[0.0], np.cumsum(units.STEP_MINUTES * rate)])
        eps_for_power = x[idx["eps"]][:-1]
    else:
        eps_for_power = np.full(H, prob.eps_const_um)

    p_kw = el.stack_point(x[idx["temp"]], x[idx["current"]], eps_for_power, p).p_kw
    x[idx["p_dam"]] = np.where(fixed[idx["p_dam"]], prob.lb[idx["p_dam"]], 55.0)
    # the real-time purchase closes each step's power balance, also where
    # hf-ss pins it to zero: an hour's steps draw different power
    x[idx["p_rtm"]] = p_kw / 1000.0 - x[idx["p_dam"]][prob.dam_hour]
    return x


class TestBuildStructure:
    def test_h1_layout_counts(self, params, state):
        prob = make_problem(StrategyKind.HF_MS, state, params, H=1)
        # 7 controls plus the two successor states are the free layout;
        # the two t=0 states ride along as pinned parameters
        assert prob.n == 7 + 2 * 2
        free = int(np.sum(prob.ub - prob.lb > 0.0))
        assert free == 7 + 2 - 1  # committed day-ahead quantity is pinned too
        assert {name: rows.stop - rows.start for name, rows in prob._rows.items()} == {
            "mass_split": 1, "setpoint": 1, "power_balance": 1, "storage_dyn": 1,
            "thickness_dyn": 1, "voltage": 1, "plant_power": 1,
        }
        assert prob.m_eq == 5
        assert len(prob.rg_lb) == 2

    def test_hf_ss_pins_every_rtm_variable(self, params, state):
        prob = make_problem(StrategyKind.HF_SS, state, params, H=8)
        i = prob.idx["p_rtm"]
        assert np.all(prob.lb[i] == 0.0) and np.all(prob.ub[i] == 0.0)

    def test_co_fixations(self, params, state):
        prob = make_problem(StrategyKind.CO, state, params, H=8)
        i = prob.idx["current"]
        assert np.all(prob.lb[i] == 3.526e4) and np.all(prob.ub[i] == 3.526e4)
        for f in ("stor_in", "stor_out"):
            i = prob.idx[f]
            assert np.all(prob.lb[i] == 0.0) and np.all(prob.ub[i] == 0.0)
        # no hard setpoint equality; direct supply tracks generation instead
        assert "setpoint" not in prob._rows
        assert "mass_split" in prob._rows

    def test_lf_has_no_thickness_state(self, params, state):
        prob = make_problem(StrategyKind.LF_MS, state, params, H=8)
        assert "eps" not in prob.idx
        assert "thickness_dyn" not in prob._rows
        assert prob.eps_const_um == state.membrane_um

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_one_day_ahead_variable_per_hour(self, strategy, params, state):
        # the 09:00 horizon: 15 committed hours of today, 24 free of tomorrow
        prob = commitment_problem(strategy, state, params)
        dam = prob.idx["p_dam"]
        assert len(dam) == 15 + 24
        assert np.array_equal(prob.dam_hour, np.arange(prob.horizon) // 4)
        assert np.all(prob.lb[dam[:15]] == 55.0) and np.all(prob.ub[dam[:15]] == 55.0)
        assert np.all(prob.lb[dam[15:]] == 0.0) and np.all(prob.ub[dam[15:]] == 110.0)
        # an hour's quantity is bought on each of its steps at that step's price
        _, g = prob.objective_and_gradient(cold_start(prob))
        hour_prices = prob.dam_price.reshape(-1, 4).sum(axis=1)
        assert np.allclose(g[dam], 0.25 * hour_prices, rtol=1e-15, atol=0.0)

    def test_day_ahead_hours_follow_the_state_clock(self, params, state):
        # from 00:15, steps 0-2 close the first hour and steps 3-6 fill the next
        prob = build(StrategyKind.HF_MS, state_at(state, 1), [None, 40.0], np.full(7, 25.0), np.full(7, 25.0), params)
        assert prob.start_time == state.clock + timedelta(minutes=15)
        assert prob.dam_hour.tolist() == [0, 0, 0, 1, 1, 1, 1]
        assert prob.lb[prob.idx["p_dam"]].tolist() == [0.0, 40.0]
        # one entry per hour the horizon touches, no more and no fewer
        for entries in ([None], [None, 40.0, 40.0]):
            with pytest.raises(BuildError, match="touches 2 hours"):
                build(StrategyKind.HF_MS, state_at(state, 1), entries, np.full(7, 25.0), np.full(7, 25.0), params)

    def test_committed_dam_below_floor_with_rtm_disabled(self, params, state):
        with pytest.raises(BuildError, match="floor"):
            make_problem(StrategyKind.HF_SS, state, params, H=4, dam=5.0)
        # same committed quantities are fine when real-time trading exists
        make_problem(StrategyKind.HF_MS, state, params, H=4, dam=5.0)

    def test_committed_dam_out_of_range_rejected(self, params, state):
        with pytest.raises(BuildError, match="outside"):
            make_problem(StrategyKind.HF_MS, state, params, H=4, dam=150.0)

    @pytest.mark.parametrize("case, message", [
        ("empty horizon", "at least one step"),
        ("window lengths differ", "price windows must match"),
        ("co current outside the box", "outside the current box"),
        # 900 stacks turn co's pinned 35,260 A into 562 kmol/hr
        ("co current misses the setpoint", "562.42 kmol/hr, off the 500.0 kmol/hr setpoint"),
    ])
    def test_impossible_problem_rejected(self, params, state, case, message):
        dam, rtm, p = np.full(4, 25.0), np.full(4, 25.0), params
        if case == "empty horizon":
            dam = rtm = np.zeros(0)
        elif case == "window lengths differ":
            rtm = np.full(3, 25.0)
        elif case == "co current outside the box":
            # 7,000 A/m2 over 5 m2 caps the current at 35,000 A
            p = dataclasses.replace(params, current_density_max=7000.0)
        else:
            p = dataclasses.replace(params, n_stacks=900)
        with pytest.raises(BuildError, match=message):
            build(StrategyKind.CO, state, [55.0] * max(1, len(dam) // 4), dam, rtm, p)

    def test_vector_of_the_wrong_length_rejected(self, params, state):
        prob = make_problem(StrategyKind.HF_MS, state, params, H=4)
        with pytest.raises(ValueError, match=f"expected vector of length {prob.n}, got {prob.n - 1}"):
            prob.objective_and_gradient(np.zeros(prob.n - 1))

    def test_commitment_storage_margin(self, params, state):
        # only the states free day-ahead steps reach keep the margin
        prob = build(StrategyKind.HF_MS, state, [55.0, None], np.full(8, 25.0), np.full(8, 25.0), params)
        s = prob.idx["stor"]
        assert np.all(prob.ub[s[1:5]] == params.storage_max)
        assert np.all(prob.lb[s[1:5]] == params.storage_min)
        assert np.all(prob.ub[s[5:]] == params.storage_max - 35.0)
        assert np.all(prob.lb[s[5:]] == params.storage_min + 35.0)
        assert prob.ub[s[0]] == state.storage_kmol  # pinned start unaffected

    def test_simulator_mode_has_zero_dof(self, params, state):
        # pinning every control leaves exactly the state variables free,
        # matched one-for-one by the dynamics equalities
        prob = make_problem(StrategyKind.HF_MS, state, params, H=5)
        controls = np.concatenate([prob.idx[f] for f in
                                   ("p_dam", "p_rtm", "temp", "current",
                                    "el_plant", "stor_in", "stor_out")])
        free_states = int(np.sum(prob.ub - prob.lb > 0.0)) - int(
            np.sum(prob.ub[controls] - prob.lb[controls] > 0.0)
        )
        dynamics = sum(prob._rows[name].stop - prob._rows[name].start for name in ("storage_dyn", "thickness_dyn"))
        assert free_states == dynamics == 2 * prob.horizon


class TestEvaluators:
    def test_residuals_vanish_on_consistent_trajectory(self, params, state):
        rng = np.random.default_rng(5)
        for strat in StrategyKind:
            prob = make_problem(strat, state, params, H=6, seed=2)
            x = euler_consistent_point(prob, rng)
            res, _ = jacobian(prob, x)
            assert np.max(np.abs(res[: prob.m_eq])) < 1e-9, strat

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_residual_only_path_matches(self, strategy, params, state):
        rng = np.random.default_rng(6)
        prob = make_problem(strategy, state, params, H=6)
        x = euler_consistent_point(prob, rng)
        res, _ = jacobian(prob, x)
        assert np.array_equal(prob.constraints_residual(x), res)

    def test_gradient_matches_finite_differences(self, params, state):
        # both objectives are linear, so a wide central difference is an
        # exact oracle with no truncation term and negligible roundoff
        rng = np.random.default_rng(7)
        for strat in StrategyKind:
            prob = make_problem(strat, state, params, H=5, seed=3)
            x = euler_consistent_point(prob, rng)
            _, g = prob.objective_and_gradient(x)
            for i in rng.choice(prob.n, size=12, replace=False):
                h = 0.5 * max(1.0, abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fp, _ = prob.objective_and_gradient(xp)
                fm, _ = prob.objective_and_gradient(xm)
                fd = (fp - fm) / (xp[i] - xm[i])
                assert g[i] == pytest.approx(fd, rel=1e-9, abs=1e-9), (strat, prob.names[i])

    def test_jacobian_matches_finite_differences(self, params, state):
        rng = np.random.default_rng(8)
        for strat in (StrategyKind.HF_MS, StrategyKind.LF_MS):
            prob = make_problem(strat, state, params, H=4, seed=4)
            x = euler_consistent_point(prob, rng)
            _, jac = jacobian(prob, x)
            jac = jac.toarray()
            for i in rng.choice(prob.n, size=14, replace=False):
                h = 4e-6 * max(1.0, abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                rp, _ = jacobian(prob, xp)
                rm, _ = jacobian(prob, xm)
                fd = (rp - rm) / (xp[i] - xm[i])
                worst = np.max(np.abs(jac[:, i] - fd) / np.maximum(np.abs(fd), 1.0))
                assert worst < 1e-6, (strat, prob.names[i])

    def test_dynamics_rows_couple_adjacent_steps_only(self, params, state):
        prob = make_problem(StrategyKind.HF_MS, state, params, H=6)
        rng = np.random.default_rng(9)
        x = euler_consistent_point(prob, rng)
        _, jac = jacobian(prob, x)
        for row, name in enumerate(row_names(prob)[: prob.m_eq]):
            if not name.startswith(("storage_dyn", "thickness_dyn")):
                continue
            t = int(name.split("[")[1].rstrip("]"))
            cols = jac.indices[jac.indptr[row] : jac.indptr[row + 1]]
            for c in cols:
                var_t = int(prob.names[c].split("[")[1].rstrip("]"))
                assert var_t in (t, t + 1), (name, prob.names[c])

    def test_lf_objective_ignores_thickness(self, params, state):
        # the low-fidelity fee depends on production only
        prob = make_problem(StrategyKind.LF_MS, state, params, H=4)
        rng = np.random.default_rng(10)
        x = euler_consistent_point(prob, rng)
        _, g = prob.objective_and_gradient(x)
        coeff = params.lf_membrane_coeff * units.STEP_HOURS * params.h2_kmol_hr_per_amp
        for t in range(4):
            i = prob.idx["current"][t]
            assert g[i] == pytest.approx(coeff, rel=1e-12)

    def test_electricity_gradient_is_price_times_energy(self, params, state):
        # two hours of four steps: an hour's quantity is bought on each
        prob = make_problem(StrategyKind.HF_MS, state, params, H=8, seed=11)
        rng = np.random.default_rng(11)
        x = euler_consistent_point(prob, rng)
        _, g = prob.objective_and_gradient(x)
        assert np.allclose(g[prob.idx["p_rtm"]], 0.25 * prob.rtm_price)
        assert np.allclose(g[prob.idx["p_dam"]], 0.25 * np.array([prob.dam_price[:4].sum(), prob.dam_price[4:].sum()]))

    def test_hf_membrane_gradient_through_euler_chain(self, params, state):
        """Reduced single-step sensitivity: dC_mem/dj = -n P_mem rate'(j) dt."""
        p = params
        prob = make_problem(StrategyKind.HF_MS, state, params, H=1)
        t_k, j = 348.0, 0.9
        current = j * p.membrane_area_cm2

        def reduced_mem_cost(jv):
            rate = el.degradation_rate(t_k, jv)
            eps_end = state.membrane_um + rate * 15.0
            return p.n_stacks * p.membrane_cost_coeff * (state.membrane_um - eps_end)

        h = 1e-7
        fd = (reduced_mem_cost(j + h) - reduced_mem_cost(j - h)) / (2 * h)
        a4 = -0.008255 * t_k + 2.906615
        a3 = 0.021855 * t_k - 7.740815
        a2 = -0.01798 * t_k + 6.44534
        a1 = 0.00415 * t_k - 1.53825
        drate_dj = 4 * a4 * j**3 + 3 * a3 * j**2 + 2 * a2 * j + a1
        analytic = -p.n_stacks * p.membrane_cost_coeff * drate_dj * 15.0
        assert analytic == pytest.approx(fd, rel=1e-6)

    def test_nonfinite_input_reports_index(self, params, state):
        prob = make_problem(StrategyKind.HF_MS, state, params, H=2)
        x = cold_start(prob)
        x[prob.idx["current"][1]] = np.nan
        with pytest.raises(ocp.EvalError, match=r"current\[1\]"):
            prob.objective_and_gradient(x)
        with pytest.raises(ocp.EvalError, match=r"current\[1\]"):
            prob.constraints_and_jacobian(x)


class TestRowTable:
    """Row names, residuals and the Jacobian layout come from one table."""

    @staticmethod
    def step_columns(prob, name):
        """The variables a per-step row may touch, by the model's equations."""
        kind, t = name.split("[")[0], int(name.split("[")[1].rstrip("]"))
        stack = [f"temp[{t}]", f"current[{t}]"] + ([f"eps[{t}]"] if prob.high_fidelity else [])
        return {
            "power_balance": {f"p_dam[{prob.dam_hour[t]}]", f"p_rtm[{t}]", *stack},
            "thickness_dyn": {f"eps[{t + 1}]", f"eps[{t}]", f"temp[{t}]", f"current[{t}]"},
            "voltage": set(stack),
        }[kind]

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_step_rows_touch_exactly_their_step(self, strategy, params, state):
        prob = commitment_problem(strategy, state, params)
        _, jac = jacobian(prob, cold_start(prob))
        names = row_names(prob)
        assert len(names) == jac.shape[0]
        checked = 0
        for row, name in enumerate(names):
            if not name.startswith(("power_balance[", "thickness_dyn[", "voltage[")):
                continue
            cols = jac.indices[jac.indptr[row] : jac.indptr[row + 1]]
            assert {prob.names[c] for c in cols} == self.step_columns(prob, name), name
            checked += 1
        assert checked == prob.horizon * (3 if prob.high_fidelity else 2)

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_jacobian_layout_is_canonical_and_fixed(self, strategy, params, state):
        prob = commitment_problem(strategy, state, params)
        rng = np.random.default_rng(14)
        x0 = cold_start(prob)
        x1 = prob.lb + rng.uniform(0.0, 1.0, prob.n) * (prob.ub - prob.lb)
        _, v0, _ = prob.constraints_and_jacobian(x0)
        _, v1, _ = prob.constraints_and_jacobian(x1)
        assert len(v0) == len(v1) == len(prob.jac_rows) == len(prob.jac_cols)
        assert not np.array_equal(v0, v1)
        assert jacobian(prob, x0)[1].shape == (prob.m_eq + len(prob.rg_lb), prob.n)

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    @pytest.mark.parametrize("shape", ["bootstrap", "09:00", "09:15"])
    def test_build_declares_the_entries_without_the_plant_model(self, strategy, shape, params, state, monkeypatch):
        # the closed loop's three horizon shapes; the table evaluated with the
        # plant model at the box midpoint lays out the same entries
        calls = []
        real = el.stack_point
        monkeypatch.setattr(el, "stack_point", lambda *args, **kw: calls.append(args) or real(*args, **kw))
        if shape == "09:00":
            prob = commitment_problem(strategy, state, params)
        else:
            sid = 0 if shape == "bootstrap" else units.COMMITMENT_STEP + 1
            H = units.STEPS_PER_DAY - sid
            prob = make_problem(strategy, state_at(state, sid), params, H=H,
                                dam=None if shape == "bootstrap" else 55.0)
        assert calls == []
        blocks, _ = prob._row_blocks(0.5 * (prob.lb + prob.ub))
        assert len(calls) == 1
        rows, cols, m = [], [], 0
        for _, res, terms in blocks:
            for columns, _ in terms:
                rows.append(np.arange(m, m + len(res)))
                cols.append(columns)
            m += len(res)
        assert np.array_equal(prob.jac_rows, np.concatenate(rows))
        assert np.array_equal(prob.jac_cols, np.concatenate(cols))

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_jacobian_values_are_the_row_tables_partials(self, strategy, params, state):
        # the constant entries come from the template written at build, the
        # plant model's from the evaluation: together, every term's partials
        # in table order, bit for bit
        prob = commitment_problem(strategy, state, params)
        x = prob.lb + np.random.default_rng(23).uniform(0.25, 0.75, prob.n) * (prob.ub - prob.lb)
        blocks, _ = prob._row_blocks(x)
        expected = np.concatenate([
            np.broadcast_to(partials, len(res)) for _, res, terms in blocks for _, partials in terms
        ])
        assert np.array_equal(prob.constraints_and_jacobian(x)[1], expected)

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_declared_entries_are_unique_and_inside_their_step(self, strategy, params, state):
        # a row of step t touches step t's variables, its hour's day-ahead
        # quantity and the states at the step's end (t + 1)
        prob = commitment_problem(strategy, state, params)
        rows, cols = prob.jac_rows, prob.jac_cols
        assert len(np.unique(rows * prob.n + cols)) == len(rows)
        assert np.all((rows >= 0) & (rows < prob.m_eq + len(prob.rg_lb)))
        assert np.all((cols >= 0) & (cols < prob.n))
        names = row_names(prob)

        def split(name):
            kind, at = name.rstrip("]").split("[")
            return kind, int(at)

        for r, c in zip(rows, cols):
            (block, i), (var, t) = split(names[r]), split(prob.names[c])
            if var == "p_dam":
                assert t == prob.dam_hour[i], (names[r], prob.names[c])
            else:
                assert t == i or (var in ("stor", "eps") and t == i + 1), (names[r], prob.names[c])


class TestHessianBlocks:
    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_blocks_match_differences_of_jacobian_transpose_multipliers(self, strategy, params, state):
        # each block is d(J' lam)/dx on its step's stack-point columns; the
        # steps are separate, so one column of every step moves at once
        prob = commitment_problem(strategy, state, params)
        rng = np.random.default_rng(21)
        x = prob.lb + rng.uniform(0.25, 0.75, prob.n) * (prob.ub - prob.lb)
        lam = rng.normal(size=prob.m_eq + len(prob.rg_lb))
        curvature = prob.constraints_and_jacobian(x)[2]
        hess = curvature(1.0, lam)
        cols = prob.nonlinear_blocks()
        k = 3 if prob.high_fidelity else 2
        assert cols.shape == (prob.horizon, k) and hess.shape == (prob.horizon, k, k)
        # the objective is linear: its weight adds no curvature
        assert np.array_equal(curvature(0.0, lam), hess)
        for a in range(k):
            xp, xm = x.copy(), x.copy()
            xp[cols[:, a]] *= 1.0 + 1e-6
            xm[cols[:, a]] *= 1.0 - 1e-6
            g_p = jacobian(prob, xp)[1].T @ lam
            g_m = jacobian(prob, xm)[1].T @ lam
            fd = (g_p - g_m)[cols] / (xp[cols[:, a]] - xm[cols[:, a]])[:, None]
            exact = hess[:, :, a]
            scale = np.maximum(np.abs(exact), 1e-3 * np.max(np.abs(exact), axis=0))
            worst = np.max(np.abs(exact - fd) / np.maximum(scale, 1e-300))
            assert worst < 1e-6, (a, worst)

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_blocks_equal_the_weighted_dense_hessians(self, strategy, params, state):
        # the oracle: the plant model's second partials as dense (H, 3, 3)
        # stacks, weighted by the multipliers of the rows that evaluate them
        # and cut to the block size, bit for bit, at random box points
        prob = commitment_problem(strategy, state, params)
        rng = np.random.default_rng(24)
        rows, k = prob._rows, prob.nonlinear_blocks().shape[1]
        for _ in range(5):
            x = prob.lb + rng.uniform(0.0, 1.0, prob.n) * (prob.ub - prob.lb)
            lam = rng.normal(scale=1e3, size=prob.m_eq + len(prob.rg_lb))
            sp = prob._stack_point(x, partials=True)
            d2v, d2p, d2rate = (np.zeros((prob.horizon, 3, 3)) for _ in range(3))
            for dense, entries in ((d2v, sp.d2v), (d2p, sp.d2p), (d2rate, sp.d2rate)):
                for (a, b), entry in zip(el.SECOND_PARTIALS, entries):
                    dense[:, a, b] = dense[:, b, a] = entry
            power = lam[rows["plant_power"]] - lam[rows["power_balance"]] / 1000.0
            ref = power[:, None, None] * d2p + lam[rows["voltage"]][:, None, None] * d2v
            if prob.high_fidelity:
                ref -= (units.STEP_MINUTES * lam[rows["thickness_dyn"]])[:, None, None] * d2rate
            got = prob.constraints_and_jacobian(x)[2](1.0, lam)
            assert got.shape == (prob.horizon, k, k)
            assert got.tobytes() == np.ascontiguousarray(ref[:, :k, :k]).tobytes()

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_blocks_reuse_the_jacobian_evaluation(self, strategy, params, state, monkeypatch):
        # the blocks come from the Jacobian evaluation's second partials
        # without running the plant model again, and stay that point's, bit
        # for bit, after a later evaluation elsewhere
        prob = commitment_problem(strategy, state, params)
        rng = np.random.default_rng(22)
        x = prob.lb + rng.uniform(0.25, 0.75, prob.n) * (prob.ub - prob.lb)
        lam = rng.normal(size=prob.m_eq + len(prob.rg_lb))
        curvature = prob.constraints_and_jacobian(x)[2]
        x_moved = x.copy()
        x_moved[prob.nonlinear_blocks()[0, 0]] *= 1.0 + 1e-3
        moved = prob.constraints_and_jacobian(x_moved)[2](1.0, lam)
        calls = []
        real = el.stack_point
        monkeypatch.setattr(el, "stack_point", lambda *args: calls.append(args) or real(*args))
        hess = curvature(1.0, lam)
        assert calls == []
        assert not np.array_equal(hess, moved)
        assert np.array_equal(hess, prob.constraints_and_jacobian(x)[2](1.0, lam))


class TestFeasibleSetInclusion:
    def test_hf_ms_never_worse_than_hf_ss(self, params, state):
        """Pinning the real-time variables only shrinks the feasible set."""
        rng = np.random.default_rng(12)
        H = 8
        dam_price = rng.uniform(15.0, 60.0, H)
        rtm_price = rng.uniform(-10.0, 150.0, H)
        fixed = [40.0] * (H // 4)
        ss = build(StrategyKind.HF_SS, state, fixed, dam_price, rtm_price, params)
        ms = build(StrategyKind.HF_MS, state, fixed, dam_price, rtm_price, params)
        cfg = SolverConfig()
        res_ss = minimize(ss, cold_start(ss), cfg)
        assert res_ss.ok
        # the single-scale optimum is feasible for the multi-scale problem;
        # descending from it can only improve
        res_ms = minimize(ms, res_ss.x, cfg)
        assert res_ms.ok
        obj_ms = ms.objective_and_gradient(res_ms.x)[0]
        assert obj_ms <= ss.objective_and_gradient(res_ss.x)[0] + 1e-6


class TestStarts:
    def test_cold_start_within_bounds(self, params, state):
        for strat in StrategyKind:
            prob = make_problem(strat, state, params, H=6)
            x = cold_start(prob)
            assert np.all(x >= prob.lb - 1e-12)
            assert np.all(x <= prob.ub + 1e-12)

    @staticmethod
    def random_multipliers(prob, rng):
        m_rg = len(prob.rg_lb)
        return Multipliers(
            rows=rng.normal(size=prob.m_eq + m_rg),
            lower=rng.uniform(1, 2, prob.n + m_rg),
            upper=rng.uniform(1, 2, prob.n + m_rg),
        )

    @staticmethod
    def assert_tails(b, a, start, xa, mult):
        """Each field and row block of ``b`` holds the tail of ``a``'s, fixed
        entries their pinned value."""
        fixed = b.ub - b.lb <= 0.0
        got = start.multipliers
        for f, cols in b.idx.items():
            tail = a.idx[f][len(a.idx[f]) - len(cols) :]
            assert np.array_equal(start.x[cols], np.where(fixed[cols], b.lb[cols], xa[tail])), f
            assert np.array_equal(got.lower[cols], mult.lower[tail]), f
            assert np.array_equal(got.upper[cols], mult.upper[tail]), f
        for name, rows in b._rows.items():
            old = a._rows[name]
            tail = np.arange(old.stop - (rows.stop - rows.start), old.stop)
            assert np.array_equal(got.rows[rows], mult.rows[tail]), name
            if rows.start >= b.m_eq:  # the range slack's bound multipliers
                new = b.n - b.m_eq + np.arange(rows.start, rows.stop)
                old_slack = a.n - a.m_eq + tail
                assert np.array_equal(got.lower[new], mult.lower[old_slack]), name
                assert np.array_equal(got.upper[new], mult.upper[old_slack]), name

    def test_warm_start_takes_the_previous_tail(self, params, state):
        # the closed loop's usual warm start: one step on, one step shorter
        a = make_problem(StrategyKind.HF_MS, state, params, H=6)
        rng = np.random.default_rng(13)
        xa = euler_consistent_point(a, rng)
        b = build(StrategyKind.HF_MS, state_at(state, 1), [55.0] * 2, np.full(5, 30.0), np.full(5, 40.0), params)
        assert warm_start_from(b, a, Start(xa)).multipliers is None
        mult = self.random_multipliers(a, rng)
        start = warm_start_from(b, a, Start(xa, mult))
        self.assert_tails(b, a, start, xa, mult)
        for f in ("stor", "eps"):
            assert start.x[b.idx[f]][0] == b.lb[b.idx[f]][0] != xa[a.idx[f]][1]  # pinned state wins

    @pytest.mark.parametrize("dam", [55.0, None])
    def test_warm_start_after_a_bootstrap_carries_every_row_multiplier(self, dam, params, state):
        # the bootstrap's 24 free hours, then the 00:15 horizon, committed as
        # the closed loop builds it or still free: every row has a counterpart
        a = make_problem(StrategyKind.HF_MS, state, params, H=96, dam=None)
        rng = np.random.default_rng(14)
        xa, mult = cold_start(a), self.random_multipliers(a, rng)
        b = make_problem(StrategyKind.HF_MS, state_at(state, 1), params, H=95, dam=dam)
        assert len(a.idx["p_dam"]) == len(b.idx["p_dam"]) == 24
        start = warm_start_from(b, a, Start(xa, mult))
        self.assert_tails(b, a, start, xa, mult)
        assert np.array_equal(start.multipliers.rows, mult.rows[np.concatenate(
            [np.arange(a._rows[name].start + 1, a._rows[name].stop) for name in a._rows]
        )])

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_warm_start_shifts_past_the_commitment_solve(self, strategy, params, state):
        # 09:15 starts from the 08:45 plan, two steps back, since the 09:00
        # solve between them ends a day later; both open in a partial hour
        a = make_problem(strategy, state_at(state, 35), params, H=61)
        b = make_problem(strategy, state_at(state, 37), params, H=59)
        assert (len(a.idx["p_dam"]), len(b.idx["p_dam"])) == (16, 15)
        rng = np.random.default_rng(15)
        xa, mult = euler_consistent_point(a, rng), self.random_multipliers(a, rng)
        self.assert_tails(b, a, warm_start_from(b, a, Start(xa, mult)), xa, mult)

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_warm_start_at_midnight_shifts_the_commitment_plan(self, strategy, params, state):
        # the next day's 00:00 problem, its 24 hours now committed, starts
        # from the 09:00 plan 60 steps back, whose last 96 steps plan that day
        a = commitment_problem(strategy, state, params)
        b = make_problem(strategy, state_at(state, units.STEPS_PER_DAY), params, H=units.STEPS_PER_DAY)
        assert (a.horizon, len(a.idx["p_dam"]), len(b.idx["p_dam"])) == (156, 39, 24)
        rng = np.random.default_rng(16)
        xa, mult = euler_consistent_point(a, rng), self.random_multipliers(a, rng)
        start = warm_start_from(b, a, Start(xa, mult))
        self.assert_tails(b, a, start, xa, mult)
        # tomorrow's free hours in the 09:00 plan take their committed value
        assert np.all(start.x[b.idx["p_dam"]] == 55.0)

    def test_warm_start_needs_the_strategy_and_the_horizon_end(self, params, state):
        def problem(strategy, H, step):
            start = state_at(state, step)
            return build(strategy, start, hourly(start, H, 55.0), np.full(H, 30.0), np.full(H, 40.0), params)

        a = problem(StrategyKind.HF_MS, 6, 0)
        for prob in (
            problem(StrategyKind.HF_MS, 6, 1),  # ends a step later
            problem(StrategyKind.HF_MS, 4, 1),  # ends a step earlier
            problem(StrategyKind.HF_SS, 5, 1),  # the same end, another strategy
        ):
            with pytest.raises(ValueError, match="horizon end"):
                warm_start_from(prob, a, Start(cold_start(a)))
        # the same end and strategy, from a start before the previous one's
        b = problem(StrategyKind.HF_MS, 5, 1)
        with pytest.raises(ValueError, match="horizon end"):
            warm_start_from(a, b, Start(cold_start(b)))
