import numpy as np
import pytest
import scipy.sparse as sp

from _oracles import commitment_problem
from h2mpc import electrolyzer as el
from h2mpc import ocp
from h2mpc.ocp import StrategyKind, build, cold_start
from h2mpc.params import PlantParams, PlantState
from h2mpc.solver import (
    _PUSH_COLD, SolverConfig, _BlockBfgs, _KktLayout, _ScaledNlp, _push_interior, minimize, solve,
)

BOX = 100.0  # default half-width of the variable box; the solver needs finite bounds


class Quadratic:
    """min 0.5 x'Qx - b'x with optional equalities Ax = d, ranges, boxes (default +-BOX)."""

    def __init__(self, Q, b, lb=None, ub=None, A=None, d=None, rg=None):
        self.Q = np.asarray(Q, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.n = len(self.b)
        self.lb = np.full(self.n, -BOX) if lb is None else np.asarray(lb, dtype=float)
        self.ub = np.full(self.n, BOX) if ub is None else np.asarray(ub, dtype=float)
        self.A = np.zeros((0, self.n)) if A is None else np.asarray(A, dtype=float)
        self.d = np.zeros(0) if d is None else np.asarray(d, dtype=float)
        self.m_eq = len(self.d)
        if rg is None:
            self.rgA = np.zeros((0, self.n))
            self.rg_lb = np.zeros(0)
            self.rg_ub = np.zeros(0)
        else:
            self.rgA, self.rg_lb, self.rg_ub = (np.asarray(v, dtype=float) for v in rg)

    def objective_and_gradient(self, x):
        return 0.5 * x @ self.Q @ x - self.b @ x, self.Q @ x - self.b

    def constraints_residual(self, x):
        return np.concatenate([self.A @ x - self.d, self.rgA @ x])

    def constraints_and_jacobian(self, x):
        return self.constraints_residual(x), sp.csr_matrix(np.vstack([self.A, self.rgA]))

    def nonlinear_blocks(self):
        return [np.arange(self.n)]


def raw_cfg(**kw):
    kw.setdefault("obj_scale", 1.0)
    return SolverConfig(**kw)


class TestQuadraticOracles:
    def test_unconstrained_convex_quadratic(self):
        Q = np.diag([2.0, 10.0, 1.0])
        b = np.array([4.0, -30.0, 2.0])
        prob = Quadratic(Q, b)
        res = minimize(prob, np.zeros(3), raw_cfg())
        assert res.ok
        assert res.iterations <= 50
        assert np.max(np.abs(res.x - np.linalg.solve(Q, b))) < 1e-5

    def test_equality_constrained_quadratic_kkt(self):
        # min 0.5(x1^2 + x2^2) s.t. x1 + x2 = 2; the 2x2 KKT system gives
        # x = (1, 1), multiplier -1
        prob = Quadratic(np.eye(2), np.zeros(2), A=[[1.0, 1.0]], d=[2.0])
        res = minimize(prob, np.array([9.0, -7.0]), raw_cfg())
        assert res.ok
        assert np.max(np.abs(res.x - 1.0)) < 1e-8
        assert res.feasibility < 1e-8

    def test_active_box_bound(self):
        # min (x-3)^2 on [0, 1] sticks to the upper bound
        prob = Quadratic([[2.0]], [6.0], lb=[0.0], ub=[1.0])
        res = minimize(prob, np.array([0.4]), raw_cfg())
        assert res.ok
        assert res.x[0] == pytest.approx(1.0, abs=1e-6)
        assert res.x[0] <= 1.0  # bounds hold exactly

    def test_range_constraint(self):
        # min x1^2 + x2^2 with 1 <= x1 + x2 <= 2 lands on (0.5, 0.5)
        prob = Quadratic(
            2 * np.eye(2), np.zeros(2), rg=([[1.0, 1.0]], [1.0], [2.0])
        )
        res = minimize(prob, np.array([4.0, -2.0]), raw_cfg())
        assert res.ok
        assert np.max(np.abs(res.x - 0.5)) < 1e-5

    def test_iteration_cap_reported(self):
        prob = Quadratic(np.diag([2.0, 10.0]), np.array([4.0, -30.0]))
        res = minimize(prob, np.zeros(2), raw_cfg(max_iterations=2))
        assert res.status == "max_iterations"
        assert res.iterations == 2


class TestSolverContract:
    def test_determinism_identical_iterate_sequence(self, params, state):
        prob = _electrolyzer_problem(params, state, H=12, seed=21)
        x0 = cold_start(prob)
        a = minimize(prob, x0, SolverConfig())
        b = minimize(prob, x0, SolverConfig())
        assert a.iterations == b.iterations
        assert np.array_equal(a.x, b.x)
        for ra, rb in zip(a.log, b.log):
            assert ra.merit_after == rb.merit_after
            assert ra.alpha == rb.alpha

    def test_merit_monotone_across_accepted_steps(self, params, state):
        prob = _electrolyzer_problem(params, state, H=16, seed=22)
        res = minimize(prob, cold_start(prob), SolverConfig())
        assert res.ok
        eps = np.finfo(float).eps
        for rec in res.log:
            allowance = 100.0 * eps * max(1.0, abs(rec.merit_before)) + 10.0 * rec.mu
            assert rec.merit_after <= rec.merit_before + allowance

    def test_bounds_hold_exactly_at_solution(self, params, state):
        prob = _electrolyzer_problem(params, state, H=10, seed=23)
        res = minimize(prob, cold_start(prob), SolverConfig())
        assert res.ok
        assert np.all(res.x >= prob.lb)
        assert np.all(res.x <= prob.ub)

    def test_equality_residuals_within_tolerance(self, params, state):
        prob = _electrolyzer_problem(params, state, H=10, seed=24)
        cfg = SolverConfig()
        res = minimize(prob, cold_start(prob), cfg)
        assert res.ok
        assert res.feasibility <= cfg.feasibility_tolerance

    @pytest.mark.parametrize("max_iterations", [3, 3000])
    def test_feasibility_reported_where_measured(self, max_iterations, params, state):
        # a record holds the feasibility at its iteration's start, the
        # result the returned point's
        prob = _electrolyzer_problem(params, state, H=10, seed=24)
        x0 = cold_start(prob)
        cfg = SolverConfig(max_iterations=max_iterations)
        nlp = _ScaledNlp(prob, x0, cfg.obj_scale)
        z0 = _push_interior(nlp.z_from_x_full(x0, nlp.res0[nlp.m_eq :]), nlp.lz, nlp.uz, _PUSH_COLD)
        res = minimize(prob, x0, cfg)
        assert res.status == ("max_iterations" if max_iterations == 3 else "optimal")
        assert res.log[0].feasibility == nlp.constraints(z0)[2]
        r = prob.constraints_residual(res.x)
        rg = r[prob.m_eq :]
        violation = np.maximum(prob.rg_lb - rg, rg - prob.rg_ub)
        assert res.feasibility == max(float(np.max(np.abs(r[: prob.m_eq]))), float(np.max(violation)), 0.0)

    def test_solution_mapping(self, params, state):
        prob = _electrolyzer_problem(params, state, H=4, seed=26)
        sol = solve(prob, cold_start(prob), SolverConfig())
        assert sol.ok
        assert len(sol.actions) == 4
        for act in sol.actions:
            act.validate(params)

    @pytest.mark.parametrize("bound", ["lb", "ub", "rg_lb", "rg_ub"])
    def test_nonfinite_bound_rejected(self, bound):
        prob = Quadratic(np.eye(2), np.zeros(2), rg=([[1.0, 1.0]], [1.0], [2.0]))
        getattr(prob, bound)[0] = np.inf if bound.endswith("ub") else -np.inf
        with pytest.raises(ValueError, match="finite"):
            minimize(prob, np.zeros(2), raw_cfg())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(kkt_tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(initialization="tepid")


class TestSparsityLayout:
    """Once-per-solve layouts against the matrices scipy's sparse constructors build."""

    @staticmethod
    def scaled_jacobian(nlp, jac):
        jx = jac.tocsc()[:, nlp.free] @ sp.diags(nlp.dx)
        slack = sp.vstack([sp.csc_matrix((nlp.m_eq, nlp.m_rg)), sp.diags(-nlp.ds).tocsc()])
        return (sp.diags(nlp.row_scale) @ sp.hstack([jx, slack], format="csr")).tocsr()

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    @pytest.mark.parametrize("commitment", [False, True])
    def test_jacobian_equals_scipy_assembly(self, strategy, commitment, params, state):
        if commitment:
            prob = commitment_problem(strategy, state, params)
            assert len(prob.tie_pairs) and np.any(prob.lb[prob.idx["p_dam"]] == 55.0)
        else:
            rng = np.random.default_rng(3)
            prices = rng.uniform(15.0, 60.0, 12), rng.uniform(-10.0, 150.0, 12)
            prob = build(strategy, state, [55.0] * 12, *prices, 0, params)
        x0 = cold_start(prob)
        nlp = _ScaledNlp(prob, x0, 1.0e-4)
        _, jac0 = prob.constraints_and_jacobian(x0)
        row_max = np.abs(jac0.tocsc()[:, nlp.free] @ sp.diags(nlp.dx)).max(axis=1).toarray().ravel()
        assert np.array_equal(nlp.row_scale, 1.0 / np.maximum(1.0, row_max))

        rng = np.random.default_rng(11)
        x_moved = x0.copy()
        x_moved[nlp.free] += 1e-3 * nlp.dx * rng.uniform(-1.0, 1.0, nlp.n_free)
        for x in (x0, x_moved):
            z = nlp.z_from_x_full(x, prob.constraints_residual(x)[prob.m_eq :])
            _, J, _ = nlp.constraints(z)
            _, jac = prob.constraints_and_jacobian(nlp.x_full(z))
            ref = self.scaled_jacobian(nlp, jac)
            assert np.array_equal(J.indptr, ref.indptr)
            assert np.array_equal(J.indices, ref.indices)
            assert np.array_equal(J.data, ref.data)

    @pytest.mark.parametrize("delta_c", [0.0, 1.0e-8])
    def test_kkt_matrix_equals_scipy_assembly(self, delta_c, params, state):
        prob = commitment_problem(StrategyKind.HF_MS, state, params)
        nlp = _ScaledNlp(prob, cold_start(prob), 1.0e-4)
        _, J, _ = nlp.constraints(nlp.z_from_x_full(cold_start(prob), nlp.res0[prob.m_eq :]))
        bfgs = _BlockBfgs(nlp.blocks)
        rng = np.random.default_rng(5)
        for B in bfgs.mats[::2]:  # dense curvature on some blocks, seeds elsewhere
            R = rng.normal(size=B.shape)
            B[:] = R @ R.T
        h_diag = rng.uniform(0.0, 2.0, nlp.nz)
        h_diag[::7] = 0.0
        K = _KktLayout(nlp.blocks, J).matrix(bfgs, h_diag, J, delta_c)

        rows = np.concatenate([np.repeat(b, len(b)) for b in nlp.blocks])
        cols = np.concatenate([np.tile(b, len(b)) for b in nlp.blocks])
        data = np.concatenate([B.ravel() for B in bfgs.mats])
        W = sp.csr_matrix((data, (rows, cols)), shape=(nlp.nz, nlp.nz))
        corner = -delta_c * sp.identity(J.shape[0]) if delta_c else None
        ref = sp.bmat([[(W + sp.diags(h_diag)).tocsc(), J.T], [J, corner]], format="csc")
        ref.sum_duplicates()
        assert K.has_canonical_format
        assert np.array_equal(K.indptr, ref.indptr)
        assert np.array_equal(K.indices, ref.indices)
        assert np.array_equal(K.data, ref.data)

    def test_changed_jacobian_pattern_is_rejected(self):
        class ShiftingPattern(Quadratic):
            calls = 0

            def constraints_and_jacobian(self, x):
                self.calls += 1
                res, jac = super().constraints_and_jacobian(x)
                if self.calls > 1:
                    jac = sp.csr_matrix(jac.toarray() * [1.0, 0.0])  # loses an entry
                return res, jac

        prob = ShiftingPattern(np.eye(2), np.zeros(2), A=[[1.0, 1.0]], d=[2.0])
        with pytest.raises(ValueError, match="sparsity pattern"):
            minimize(prob, np.array([9.0, -7.0]), raw_cfg())


def _electrolyzer_problem(params, state, H, seed):
    rng = np.random.default_rng(seed)
    dam_price = rng.uniform(15.0, 60.0, H)
    rtm_price = rng.uniform(-10.0, 150.0, H)
    return build(StrategyKind.HF_MS, state, [55.0] * H, dam_price, rtm_price, 0, params)


class TestBruteForceOracle:
    """H = 2 against exhaustive enumeration on a 10-point control grid."""

    def brute_force(self, prob, params):
        p = params
        H = 2
        n_pts = 10
        lo, hi = p.current_bounds()
        t_grid = np.linspace(p.temperature_min, p.temperature_max, n_pts)
        i_grid = np.linspace(lo, hi, n_pts)
        s_grid = np.linspace(0.0, p.h2_gen_max, n_pts)  # storage inflow
        cells = (
            t_grid[1] - t_grid[0],
            i_grid[1] - i_grid[0],
            s_grid[1] - s_grid[0],
        )

        T1, I1, S1, T2, I2, S2 = np.meshgrid(
            t_grid, i_grid, s_grid, t_grid, i_grid, s_grid, indexing="ij"
        )
        shape = T1.shape
        dam = prob.lb[prob.idx["p_dam"]]
        eps0 = prob.lb[prob.idx["eps"][0]]
        stor0 = prob.lb[prob.idx["stor"][0]]

        def step_quantities(T, I, S_in, eps):
            gen = p.h2_kmol_hr_per_amp * I
            el_plant = gen - S_in
            stor_out = p.h2_setpoint - el_plant
            pt = el.stack_point(T, I, eps, p)
            p_kw = pt.p_kw
            rate = el.degradation_rate(T, I / p.membrane_area_cm2)
            ok = (
                (el_plant >= 0.0)
                & (stor_out >= 0.0)
                & (pt.v_tot >= p.voltage_min)
                & (pt.v_tot <= p.voltage_max)
                & (p_kw >= 0.1 * p.plant_power_max)
                & (p_kw <= p.plant_power_max)
            )
            return gen, el_plant, stor_out, p_kw, rate, ok

        gen1, el1, out1, pkw1, rate1, ok1 = step_quantities(T1, I1, S1, eps0)
        eps1 = eps0 + rate1 * 15.0
        stor1 = stor0 + 0.25 * (S1 - out1)
        ok1 &= (stor1 >= p.storage_min) & (stor1 <= p.storage_max) & (eps1 > 1.0)

        gen2, el2, out2, pkw2, rate2, ok2 = step_quantities(T2, I2, S2, eps1)
        eps2 = eps1 + rate2 * 15.0
        stor2 = stor1 + 0.25 * (S2 - out2)
        ok = ok1 & ok2 & (stor2 >= p.storage_min) & (stor2 <= p.storage_max) & (eps2 > 1.0)

        rtm1 = pkw1 / 1000.0 - dam[0]
        rtm2 = pkw2 / 1000.0 - dam[1]
        pmax_mw = p.plant_power_max / 1000.0
        ok &= (rtm1 >= -0.9 * pmax_mw) & (rtm1 <= pmax_mw)
        ok &= (rtm2 >= -0.9 * pmax_mw) & (rtm2 <= pmax_mw)

        elec = 0.25 * (
            prob.dam_price[0] * dam[0]
            + prob.dam_price[1] * dam[1]
            + prob.rtm_price[0] * rtm1
            + prob.rtm_price[1] * rtm2
        )
        mem = p.n_stacks * p.membrane_cost_coeff * (eps0 - eps2)
        obj = np.where(ok, elec + mem, np.inf)
        flat = int(np.argmin(obj))
        best = np.unravel_index(flat, shape)
        best_controls = np.array(
            [T1[best], I1[best], S1[best], T2[best], I2[best], S2[best]]
        )
        return float(obj[best]), best_controls, cells

    def test_nlp_at_most_grid_best_and_nearby(self, params, state):
        rng = np.random.default_rng(31)
        dam_price = np.array([30.0, 30.0])
        rtm_price = np.array([28.0, 33.0])
        prob = build(
            StrategyKind.HF_MS, state, [60.0, 60.0], dam_price, rtm_price, 0, params
        )
        best_obj, best_controls, cells = self.brute_force(prob, params)
        assert np.isfinite(best_obj)

        # embed the best grid point as the start; the solver may only descend
        x0 = cold_start(prob)
        for t in range(2):
            x0[prob.idx["temp"][t]] = best_controls[3 * t]
            x0[prob.idx["current"][t]] = best_controls[3 * t + 1]
            x0[prob.idx["stor_in"][t]] = best_controls[3 * t + 2]
            gen = params.h2_kmol_hr_per_amp * best_controls[3 * t + 1]
            x0[prob.idx["el_plant"][t]] = gen - best_controls[3 * t + 2]
            x0[prob.idx["stor_out"][t]] = params.h2_setpoint - (gen - best_controls[3 * t + 2])
        res = minimize(prob, x0, SolverConfig())
        assert res.ok
        assert res.objective <= best_obj + 1e-6 * max(1.0, abs(best_obj))

        # proximity is asserted on the determining controls: the storage
        # split carries a null direction ((in, out) -> (in+d, out+d) changes
        # nothing physical), so only (T, I) pin the optimum's location
        got = np.array(
            [
                res.x[prob.idx["temp"][0]], res.x[prob.idx["current"][0]],
                res.x[prob.idx["temp"][1]], res.x[prob.idx["current"][1]],
            ]
        )
        ref = best_controls[[0, 1, 3, 4]]
        spans = np.array([cells[0], cells[1]] * 2)
        assert np.all(np.abs(got - ref) <= spans + 1e-9)
