import numpy as np
import pytest

from _oracles import commitment_problem
from h2mpc import electrolyzer as el
from h2mpc import ocp, units
from h2mpc.ocp import BuildError, StrategyKind, build, cold_start, warm_start_from
from h2mpc.params import PlantParams, PlantState
from h2mpc.solver import SolverConfig, minimize


def make_problem(strategy, state, p, H=6, dam_fixed=None, seed=0, step0=0):
    rng = np.random.default_rng(seed)
    dam_price = rng.uniform(15.0, 60.0, H)
    rtm_price = rng.uniform(-10.0, 150.0, H)
    if dam_fixed is None:
        dam_fixed = [55.0] * H
    return build(strategy, state, dam_fixed, dam_price, rtm_price, step0, p)


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
    dam_mask = prob.ub[idx["p_dam"]] - prob.lb[idx["p_dam"]] <= 0.0
    x[idx["p_dam"]] = np.where(dam_mask, prob.lb[idx["p_dam"]], 55.0)
    if prob.strategy is StrategyKind.HF_SS:
        x[idx["p_dam"]] = p_kw / 1000.0
    x[idx["p_rtm"]] = p_kw / 1000.0 - x[idx["p_dam"]]
    if prob.strategy is StrategyKind.HF_SS:
        x[idx["p_rtm"]] = 0.0
    return x


class TestBuildStructure:
    def test_h1_layout_counts(self, params, state):
        prob = make_problem(StrategyKind.HF_MS, state, params, H=1)
        # 7 controls plus the two successor states are the free layout;
        # the two t=0 states ride along as pinned parameters
        assert prob.n == 7 + 2 * 2
        free = int(np.sum(prob.ub - prob.lb > 0.0))
        assert free == 7 + 2 - 1  # committed day-ahead quantity is pinned too
        names = prob.eq_names
        assert sum(n.startswith("thickness_dyn") for n in names) == 1
        assert sum(n.startswith("storage_dyn") for n in names) == 1
        assert sum(n.startswith("power_balance") for n in names) == 1
        assert sum(n.startswith("setpoint") for n in names) == 1
        assert sum(n.startswith("mass_split") for n in names) == 1
        assert prob.m_eq == 5
        assert len(prob.rg_names) == len(prob.rg_lb) == 2

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
        assert not any(n.startswith("setpoint") for n in prob.eq_names)
        assert any(n.startswith("mass_split") for n in prob.eq_names)

    def test_lf_has_no_thickness_state(self, params, state):
        prob = make_problem(StrategyKind.LF_MS, state, params, H=8)
        assert "eps" not in prob.idx
        assert not any(n.startswith("thickness_dyn") for n in prob.eq_names)
        assert prob.eps_const_um == state.membrane_um

    def test_free_dam_hour_ties(self, params, state):
        prob = build(
            StrategyKind.HF_MS, state, [None] * 8,
            np.full(8, 25.0), np.full(8, 25.0), 0, params,
        )
        # two hour blocks of four steps each: three ties per block
        assert len(prob.tie_pairs) == 6
        assert sum(n.startswith("dam_tie") for n in prob.eq_names) == 6

    def test_mixed_hour_block_rejected(self, params, state):
        with pytest.raises(BuildError, match="mixes"):
            build(
                StrategyKind.HF_MS, state, [None, 40.0, None, None],
                np.full(4, 25.0), np.full(4, 25.0), 0, params,
            )

    def test_committed_dam_below_floor_with_rtm_disabled(self, params, state):
        with pytest.raises(BuildError, match="floor"):
            make_problem(StrategyKind.HF_SS, state, params, H=4, dam_fixed=[5.0] * 4)
        # same committed quantities are fine when real-time trading exists
        make_problem(StrategyKind.HF_MS, state, params, H=4, dam_fixed=[5.0] * 4)

    def test_committed_dam_out_of_range_rejected(self, params, state):
        with pytest.raises(BuildError, match="outside"):
            make_problem(StrategyKind.HF_MS, state, params, H=4, dam_fixed=[150.0] * 4)

    def test_commitment_storage_margin(self, params, state):
        prob = build(
            StrategyKind.HF_MS, state, [None] * 4,
            np.full(4, 25.0), np.full(4, 25.0), 0, params,
            commitment_storage_margin_kmol=35.0,
        )
        s = prob.idx["stor"]
        assert prob.ub[s[1]] == params.storage_max - 35.0
        assert prob.lb[s[1]] == params.storage_min + 35.0
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
        dynamics = sum(
            n.startswith(("storage_dyn", "thickness_dyn")) for n in prob.eq_names
        )
        assert free_states == dynamics == 2 * prob.horizon


class TestEvaluators:
    def test_residuals_vanish_on_consistent_trajectory(self, params, state):
        rng = np.random.default_rng(5)
        for strat in StrategyKind:
            prob = make_problem(strat, state, params, H=6, seed=2)
            x = euler_consistent_point(prob, rng)
            res, _ = prob.constraints_and_jacobian(x)
            assert np.max(np.abs(res[: prob.m_eq])) < 1e-9, strat

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_residual_only_path_matches(self, strategy, params, state):
        rng = np.random.default_rng(6)
        prob = make_problem(strategy, state, params, H=6)
        x = euler_consistent_point(prob, rng)
        res, _ = prob.constraints_and_jacobian(x)
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
            _, jac = prob.constraints_and_jacobian(x)
            jac = jac.toarray()
            for i in rng.choice(prob.n, size=14, replace=False):
                h = 4e-6 * max(1.0, abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                rp, _ = prob.constraints_and_jacobian(xp)
                rm, _ = prob.constraints_and_jacobian(xm)
                fd = (rp - rm) / (xp[i] - xm[i])
                worst = np.max(np.abs(jac[:, i] - fd) / np.maximum(np.abs(fd), 1.0))
                assert worst < 1e-6, (strat, prob.names[i])

    def test_dynamics_rows_couple_adjacent_steps_only(self, params, state):
        prob = make_problem(StrategyKind.HF_MS, state, params, H=6)
        rng = np.random.default_rng(9)
        x = euler_consistent_point(prob, rng)
        _, jac = prob.constraints_and_jacobian(x)
        jac = jac.tocsr()
        for row, name in enumerate(prob.eq_names):
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
        prob = make_problem(StrategyKind.HF_MS, state, params, H=4, seed=11)
        rng = np.random.default_rng(11)
        x = euler_consistent_point(prob, rng)
        _, g = prob.objective_and_gradient(x)
        assert np.allclose(g[prob.idx["p_rtm"]], 0.25 * prob.rtm_price)
        assert np.allclose(g[prob.idx["p_dam"]], 0.25 * prob.dam_price)

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
            "power_balance": {f"p_dam[{t}]", f"p_rtm[{t}]", *stack},
            "thickness_dyn": {f"eps[{t + 1}]", f"eps[{t}]", f"temp[{t}]", f"current[{t}]"},
            "voltage": set(stack),
        }[kind]

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_step_rows_touch_exactly_their_step(self, strategy, params, state):
        prob = commitment_problem(strategy, state, params)
        _, jac = prob.constraints_and_jacobian(cold_start(prob))
        row_names = prob.eq_names + prob.rg_names
        assert len(row_names) == jac.shape[0]
        checked = 0
        for row, name in enumerate(row_names):
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
        _, j0 = prob.constraints_and_jacobian(x0)
        _, j1 = prob.constraints_and_jacobian(x1)
        assert j0.has_canonical_format and j1.has_canonical_format
        assert np.array_equal(j0.indices, j1.indices)
        assert np.array_equal(j0.indptr, j1.indptr)
        assert not np.array_equal(j0.data, j1.data)
        assert j0.shape == (prob.m_eq + len(prob.rg_names), prob.n)


class TestFeasibleSetInclusion:
    def test_hf_ms_never_worse_than_hf_ss(self, params, state):
        """Pinning the real-time variables only shrinks the feasible set."""
        rng = np.random.default_rng(12)
        H = 8
        dam_price = rng.uniform(15.0, 60.0, H)
        rtm_price = rng.uniform(-10.0, 150.0, H)
        fixed = [40.0] * H
        ss = build(StrategyKind.HF_SS, state, fixed, dam_price, rtm_price, 0, params)
        ms = build(StrategyKind.HF_MS, state, fixed, dam_price, rtm_price, 0, params)
        cfg = SolverConfig()
        res_ss = minimize(ss, cold_start(ss), cfg)
        assert res_ss.ok
        # the single-scale optimum is feasible for the multi-scale problem;
        # descending from it can only improve
        res_ms = minimize(ms, res_ss.x, cfg)
        assert res_ms.ok
        assert res_ms.objective <= res_ss.objective + 1e-6


class TestStarts:
    def test_cold_start_within_bounds(self, params, state):
        for strat in StrategyKind:
            prob = make_problem(strat, state, params, H=6)
            x = cold_start(prob)
            assert np.all(x >= prob.lb - 1e-12)
            assert np.all(x <= prob.ub + 1e-12)

    def test_warm_start_shifts_by_absolute_step(self, params, state):
        a = make_problem(StrategyKind.HF_MS, state, params, H=6, step0=0)
        rng = np.random.default_rng(13)
        xa = euler_consistent_point(a, rng)
        # one step later and one step longer: b's last step and last state
        # lie beyond a's horizon
        b = build(
            StrategyKind.HF_MS, state, [55.0] * 6,
            np.full(6, 30.0), np.full(6, 40.0), 1, params, abs_step0=1,
        )
        xb = warm_start_from(b, a, xa)
        cold = cold_start(b)
        for f in ("p_rtm", "temp", "current", "el_plant", "stor_in", "stor_out"):
            assert np.array_equal(xb[b.idx[f]][:5], xa[a.idx[f]][1:]), f
            assert xb[b.idx[f]][5] == cold[b.idx[f]][5], f
        for f in ("stor", "eps"):
            assert xb[b.idx[f]][0] == b.lb[b.idx[f]][0]  # pinned state wins
            assert np.array_equal(xb[b.idx[f]][1:6], xa[a.idx[f]][2:]), f
            assert xb[b.idx[f]][6] == cold[b.idx[f]][6], f
