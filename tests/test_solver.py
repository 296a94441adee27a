import dataclasses
import math
from datetime import date, datetime

import numpy as np
import pytest
import scipy.sparse as sp

from _oracles import commitment_problem, hourly, jacobian, state_at
from h2mpc import electrolyzer as el
from h2mpc import market, ocp, rollout, solver, units
from h2mpc.ocp import StrategyKind, build, cold_start
from h2mpc.params import PlantParams, PlantState
from h2mpc.solver import (
    _EIG_FLOOR, _PUSH_COLD, FEASIBILITY_TOLERANCE, KKT_TOLERANCE, Multipliers, SolverConfig, Start, _SchurKkt,
    _ScaledNlp, _inverse_blocks, _project_blocks, _push_interior, _solve_kkt, minimize,
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
        # a dense Jacobian: every (row, column) entry, row by row
        self.jac_rows, self.jac_cols = np.divmod(np.arange((self.m_eq + len(self.rg_lb)) * self.n), self.n)

    def objective_and_gradient(self, x):
        return 0.5 * x @ self.Q @ x - self.b @ x, self.Q @ x - self.b

    def constraints_residual(self, x):
        return np.concatenate([self.A @ x - self.d, self.rgA @ x])

    def constraints_and_jacobian(self, x):
        def curvature(obj_weight, lam):
            # the constraints are linear: only the objective has curvature
            return obj_weight * self.Q[None]

        return self.constraints_residual(x), np.vstack([self.A, self.rgA]).ravel(), curvature

    def nonlinear_blocks(self):
        return np.arange(self.n)[None, :]


def dense_blocks(nlp, w):
    """The reduced (nz, nz) matrix of the curvature blocks ``w`` of ``nlp``."""
    kept = nlp.blk_kept
    W = np.zeros((nlp.nz, nlp.nz))
    W[np.broadcast_to(nlp.blk[:, :, None], kept.shape)[kept], np.broadcast_to(nlp.blk[:, None, :], kept.shape)[kept]] = w[kept]
    return W


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
        res = minimize(prob, cold_start(prob), SolverConfig())
        assert res.ok
        assert res.feasibility <= FEASIBILITY_TOLERANCE

    @pytest.mark.parametrize("max_iterations", [3, 3000])
    def test_feasibility_reported_where_measured(self, max_iterations, params, state):
        # a record holds the feasibility at its iteration's start, the
        # result the returned point's
        prob = _electrolyzer_problem(params, state, H=10, seed=24)
        x0 = cold_start(prob)
        cfg = SolverConfig(max_iterations=max_iterations)
        nlp = _ScaledNlp(prob, x0, cfg.obj_scale, _PUSH_COLD)
        # the start: free variables pushed inside, slacks at the range values there, pushed alike
        n = nlp.n_free
        zx = _push_interior(x0[nlp.free] / nlp.dx, nlp.lz[:n], nlp.uz[:n], _PUSH_COLD)
        rg0 = prob.constraints_residual(nlp.x_full(np.concatenate([zx, np.zeros(nlp.m_rg)])))[prob.m_eq :]
        z0 = np.concatenate([zx, _push_interior(rg0 / nlp.ds, nlp.lz[n:], nlp.uz[n:], _PUSH_COLD)])
        assert np.array_equal(nlp.z0, z0)
        res = minimize(prob, x0, cfg)
        assert res.status == ("max_iterations" if max_iterations == 3 else "optimal")
        assert res.log[0].feasibility == nlp.constraints(z0)[2]
        r = prob.constraints_residual(res.x)
        rg = r[prob.m_eq :]
        violation = np.maximum(prob.rg_lb - rg, rg - prob.rg_ub)
        assert res.feasibility == max(float(np.max(np.abs(r[: prob.m_eq]))), float(np.max(violation)), 0.0)

    def test_solution_mapping(self, params, state):
        prob = _electrolyzer_problem(params, state, H=4, seed=26)
        sol = minimize(prob, cold_start(prob), SolverConfig())
        assert sol.ok
        # the applied action is the plan's first step, field by field
        act = prob.first_action(sol.x)
        act.validate(params)
        fields = ("p_dam", "p_rtm", "temp", "current", "el_plant", "stor_in", "stor_out")
        assert dataclasses.astuple(act) == tuple(float(sol.x[prob.idx[f][0]]) for f in fields)

    def test_one_jacobian_evaluation_at_the_start_and_per_step(self):
        # the start's evaluation serves the scaling and the first iterate,
        # and the converged iterate is returned as it was checked
        class Counting(Quadratic):
            jac_calls = 0

            def constraints_and_jacobian(self, x):
                self.jac_calls += 1
                return super().constraints_and_jacobian(x)

        prob = Counting(np.eye(2), np.zeros(2), A=[[1.0, 1.0]], d=[2.0])
        res = minimize(prob, np.array([9.0, -7.0]), raw_cfg())
        assert res.ok
        assert prob.jac_calls == 1 + len(res.log)

    def test_warm_start_begins_at_the_converged_barrier(self, params, state):
        # the previous optimum converged at mu = KKT_TOLERANCE / 11, and a
        # warm start from it begins there; an explicit mu0 still wins
        first = _electrolyzer_problem(params, state, H=10, seed=27)
        prev = minimize(first, cold_start(first), SolverConfig())
        prob = _electrolyzer_problem(params, state, H=10, seed=28)
        warm = minimize(prob, prev.x, SolverConfig(initialization="warm"))
        assert warm.ok
        assert warm.log[0].mu == KKT_TOLERANCE / 11.0
        pinned = minimize(prob, prev.x, SolverConfig(initialization="warm", mu0=1.0e-2))
        assert pinned.ok
        assert pinned.log[0].mu == 1.0e-2

    @pytest.mark.parametrize("obj_scale", [1.0e-5, 1.0e-3])
    def test_own_optimum_and_multipliers_are_optimal_at_once(self, obj_scale, params, state, monkeypatch):
        # the multipliers come back unscaled, so a re-solve under another
        # objective scale maps them into its own scaling and stops at its
        # first KKT check, having laid out no KKT system
        prob = _electrolyzer_problem(params, state, H=10, seed=29)
        sol = minimize(prob, cold_start(prob), SolverConfig())
        assert sol.ok
        fixed = prob.ub - prob.lb <= 0.0
        assert not np.any(sol.multipliers.lower[: prob.n][fixed])
        assert not np.any(sol.multipliers.upper[: prob.n][fixed])
        plans = []
        monkeypatch.setattr(solver, "_SchurKkt", lambda *a: plans.append(a) or _SchurKkt(*a))
        again = minimize(prob, Start(sol.x, sol.multipliers), SolverConfig(initialization="warm", obj_scale=obj_scale))
        assert again.ok
        assert again.iterations == 1
        assert plans == []
        assert np.allclose(again.multipliers.rows, sol.multipliers.rows, rtol=1e-12, atol=0.0)

    def test_zero_carried_multipliers_are_safeguarded(self, params, state):
        # a warm start gives rows and bounds with no predecessor zero
        # multipliers; clipped up to the barrier's safeguard they still move
        prob = _electrolyzer_problem(params, state, H=10, seed=29)
        sol = minimize(prob, cold_start(prob), SolverConfig())
        zeros = Multipliers(*(np.zeros_like(v) for v in dataclasses.astuple(sol.multipliers)))
        again = minimize(prob, Start(sol.x, zeros), SolverConfig(initialization="warm"))
        assert again.ok

    @pytest.mark.parametrize("bound", ["lb", "ub", "rg_lb", "rg_ub"])
    def test_nonfinite_bound_rejected(self, bound):
        prob = Quadratic(np.eye(2), np.zeros(2), rg=([[1.0, 1.0]], [1.0], [2.0]))
        getattr(prob, bound)[0] = np.inf if bound.endswith("ub") else -np.inf
        with pytest.raises(ValueError, match="finite"):
            minimize(prob, np.zeros(2), raw_cfg())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(initialization="tepid")


class TestSparsityLayout:
    """Once-per-solve patterns against the matrices scipy's sparse constructors build."""

    @staticmethod
    def scaled_jacobian(nlp, jac):
        """The free columns of ``jac`` and the -ds slack block, each entry
        times its row's scale times its column's, as scipy builds them."""
        slack = sp.vstack([sp.csc_matrix((nlp.m_eq, nlp.m_rg)), sp.diags(-nlp.ds).tocsc()])
        reduced = sp.hstack([jac.tocsc()[:, nlp.free], slack], format="csr")
        scale = nlp.row_scale[:, None] * np.concatenate([nlp.dx, np.ones(nlp.m_rg)])[None, :]
        return sp.csr_matrix(reduced.multiply(scale))

    @staticmethod
    def assembled(nlp, jac):
        """The scaled Jacobian with values ``jac`` on the solve's pattern, as scipy assembles it."""
        return sp.csr_matrix((jac, (nlp.jac_rows, nlp.jac_cols)), shape=(nlp.m, nlp.nz))

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    @pytest.mark.parametrize("commitment", [False, True])
    def test_jacobian_equals_scipy_assembly(self, strategy, commitment, params, state):
        if commitment:
            prob = commitment_problem(strategy, state, params)
            dam = prob.idx["p_dam"]
            assert np.any(prob.ub[dam] > prob.lb[dam]) and np.any(prob.lb[dam] == 55.0)
        else:
            rng = np.random.default_rng(3)
            prices = rng.uniform(15.0, 60.0, 12), rng.uniform(-10.0, 150.0, 12)
            prob = build(strategy, state, hourly(state, 12, 55.0), *prices, params)
        x0 = cold_start(prob)
        nlp = _ScaledNlp(prob, x0, 1.0e-4, _PUSH_COLD)
        # the row scaling comes from the Jacobian at the pushed start
        _, jac0 = jacobian(prob, nlp.x_full(nlp.z0))
        row_max = np.abs(jac0.tocsc()[:, nlp.free] @ sp.diags(nlp.dx)).max(axis=1).toarray().ravel()
        assert np.array_equal(nlp.row_scale, 1.0 / np.maximum(1.0, row_max))

        rng = np.random.default_rng(11)
        x_moved = x0.copy()
        x_moved[nlp.free] += 1e-3 * nlp.dx * rng.uniform(-1.0, 1.0, nlp.n_free)
        points = [(nlp.z0, nlp.at_z0[1])]  # the start's own evaluation, then fresh ones
        for x in (x0, x_moved):
            z = np.concatenate([x[nlp.free] / nlp.dx, prob.constraints_residual(x)[prob.m_eq :] / nlp.ds])
            points.append((z, nlp.constraints(z)[1]))
        for z, values in points:
            _, jac = jacobian(prob, nlp.x_full(z))
            ref = self.scaled_jacobian(nlp, jac)
            got = self.assembled(nlp, values)
            # one value per entry of the pattern, equal to scipy's to the bit
            assert len(values) == len(nlp.jac_rows) == got.nnz
            assert got.shape == ref.shape and (got != ref).nnz == 0

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_transpose_product_equals_scipy(self, strategy, params, state):
        # J.T @ y from the values and the pattern sums in scipy's order, bit for bit
        prob = commitment_problem(strategy, state, params)
        nlp = _ScaledNlp(prob, cold_start(prob), 1.0e-4, _PUSH_COLD)
        jac = nlp.at_z0[1]
        y = np.random.default_rng(6).normal(size=nlp.m) * np.logspace(-6, 6, nlp.m)
        assert np.array_equal(nlp.jac_t_dot(jac, y), self.assembled(nlp, jac).T @ y)


class TestSchurKkt:
    """The Newton system solved through the banded Schur complement, against dense linear algebra."""

    @staticmethod
    def system(nlp, seed):
        """Random positive definite curvature blocks, a barrier diagonal
        spread over eight decades, and the dense H and J they make with the
        start's Jacobian."""
        rng = np.random.default_rng(seed)
        R = rng.normal(size=nlp.blk_kept.shape)
        w = np.where(nlp.blk_kept, R @ R.transpose(0, 2, 1), 0.0)
        w[1::2] *= np.eye(w.shape[-1])  # diagonal curvature on some blocks
        h = 10.0 ** rng.uniform(-4.0, 4.0, nlp.nz)
        jac = nlp.at_z0[1]
        J = np.zeros((nlp.m, nlp.nz))
        J[nlp.jac_rows, nlp.jac_cols] = jac
        return w, h, jac, dense_blocks(nlp, w) + np.diag(h), J

    @staticmethod
    def kkt_matrix(H, J, delta_c):
        return np.block([[H, J.T], [J, -delta_c * np.eye(len(J))]])

    def assert_band_is_schur_complement(self, prob, delta_c, max_bw):
        """Nothing of the dense J H^-1 J^T + delta_c I, rows in the plan's
        order, lies outside a band of half-width ``kkt.bw <= max_bw``."""
        nlp = _ScaledNlp(prob, cold_start(prob), 1.0e-4, _PUSH_COLD)
        w, h, jac, H, J = self.system(nlp, 5)
        kkt = _SchurKkt(nlp)
        band = kkt.band(np.linalg.inv(kkt.blocks(w, h)), 1.0 / h, jac, delta_c)
        S = (J @ np.linalg.solve(H, J.T) + delta_c * np.eye(nlp.m))[np.ix_(kkt.order, kkt.order)]
        assert band.shape == (kkt.bw + 1, nlp.m) and kkt.bw <= max_bw
        got = np.zeros_like(S)
        for d in range(kkt.bw + 1):
            got[np.arange(d, nlp.m), np.arange(nlp.m - d)] = band[d, : nlp.m - d]
        assert np.allclose(got, np.tril(S), rtol=1e-12, atol=1e-12 * np.max(np.abs(S)))

    @pytest.mark.parametrize("delta_c", [0.0, 1.0e-8])
    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_band_equals_dense_schur_complement(self, strategy, delta_c, params, state):
        # a free hour's one day-ahead column enters the power-balance rows of
        # its four steps, so S couples rows three steps apart: the band is at
        # most three steps' rows wide (21 for hf-ms and hf-ss, 18 for lf-ms)
        prob = commitment_problem(strategy, state, params)
        rows_per_step = (prob.m_eq + len(prob.rg_lb)) // prob.horizon
        self.assert_band_is_schur_complement(prob, delta_c, (units.STEPS_PER_HOUR - 1) * rows_per_step)

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_committed_band_spans_two_steps(self, strategy, params, state):
        # with every hour committed no column is shared between steps, and
        # the band is no wider than a stage's rows and the next's
        H = units.STEPS_PER_DAY - units.COMMITMENT_STEP - 1
        start = state_at(state, units.COMMITMENT_STEP + 1)
        prices = np.random.default_rng(5).uniform(15.0, 60.0, (2, H))
        prob = build(strategy, start, hourly(start, H, 55.0), *prices, params)
        self.assert_band_is_schur_complement(prob, 0.0, 16)

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_refined_solve_matches_dense_kkt(self, strategy, params, state):
        prob = commitment_problem(strategy, state, params)
        nlp = _ScaledNlp(prob, cold_start(prob), 1.0e-4, _PUSH_COLD)
        w, h, jac, H, J = self.system(nlp, 7)
        K = self.kkt_matrix(H, J, 0.0)
        rhs = np.random.default_rng(8).normal(size=len(K))
        step = _SchurKkt(nlp).factor(w, h, jac, 0.0)(rhs)
        assert np.linalg.norm(K @ step - rhs) <= 1e-10 * np.linalg.norm(rhs)
        ref = np.linalg.solve(K, rhs)
        assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("twin", [[1.0, 2.0, 0.0], [1.0, 1.0, 1.0]])
    def test_duplicated_row_escalates_delta_c(self, twin, monkeypatch):
        # twin rows make S singular: the first factorization fails, the next
        # with delta_c = 1e-10 gives a finite step of the regularized system.
        # The first twin leaves LAPACK a pivot <= 0, the second a positive
        # pivot of roundoff, under the floor
        prob = Quadratic(np.eye(3), np.ones(3), A=[twin, twin, [0.0, 1.0, 1.0]], d=[1.0, 1.0, 2.0])
        nlp = _ScaledNlp(prob, np.zeros(3), 1.0, _PUSH_COLD)
        kkt = _SchurKkt(nlp)
        tried = []

        def factor(w, h, jac, delta_c):
            tried.append(delta_c)
            return _SchurKkt.factor(kkt, w, h, jac, delta_c)

        monkeypatch.setattr(kkt, "factor", factor)
        w, h, jac, H, J = self.system(nlp, 9)
        rhs = np.random.default_rng(10).normal(size=nlp.nz + nlp.m)
        step, _, delta_w = _solve_kkt(kkt, w, h, jac, rhs, 0.0)
        assert tried == [0.0, 1.0e-10]
        assert delta_w == pytest.approx(1.0e-8 / 3.0)
        # the multipliers' null direction grows as 1/delta_c: the step solves
        # the regularized system to a backward error of roundoff
        K = self.kkt_matrix(H + 1.0e-8 * np.eye(nlp.nz), J, 1.0e-10)
        assert np.all(np.isfinite(step))
        scale = np.linalg.norm(K, 2) * np.linalg.norm(step) + np.linalg.norm(rhs)
        assert np.linalg.norm(K @ step - rhs) <= 1e-12 * scale
        res = minimize(prob, np.zeros(3), raw_cfg())
        assert res.ok and res.feasibility <= FEASIBILITY_TOLERANCE

    def test_every_factorization_failing_ends_singular_kkt(self, params, state, monkeypatch):
        # a Schur complement that factors at no regularization: the solve
        # stops at its first Newton step and reports it, without raising
        tried = []

        def factor(kkt, w, h, jac, delta_c):
            tried.append(delta_c)
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(_SchurKkt, "factor", factor)
        prob = _electrolyzer_problem(params, state, H=6, seed=25)
        res = minimize(prob, cold_start(prob), SolverConfig())
        assert res.status == "singular_kkt" and not res.ok
        assert res.iterations == 1 and np.all(np.isfinite(res.x))
        # the least-squares multiplier estimate, then 12 ever more regularized tries
        assert tried == pytest.approx([1.0e-8, 0.0] + [1.0e-10 * 10.0**i for i in range(11)], rel=1e-12)

    def test_no_constraint_rows(self):
        # m = 0: the step is H^-1 rhs and there is no S to factor
        prob = Quadratic(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]]), [1.0, 2.0, 3.0])
        nlp = _ScaledNlp(prob, np.zeros(3), 1.0, _PUSH_COLD)
        kkt = _SchurKkt(nlp)
        assert nlp.m == 0 and kkt.bw == 0 and len(kkt.order) == 0
        w, h, jac, H, _ = self.system(nlp, 11)
        rhs = np.random.default_rng(12).normal(size=3)
        assert np.allclose(kkt.factor(w, h, jac, 0.0)(rhs), np.linalg.solve(H, rhs), rtol=1e-12, atol=0.0)

    def test_rows_that_touch_no_block(self):
        # min 0.5 x0^2 - 3 x0 + x1 + 2 x2 s.t. x1 + x2 = 1 and 0 <= x1 - x2 <= 5:
        # the curvature block is x0 alone and no row touches it, so the rows
        # keep their order
        class Split(Quadratic):
            def constraints_and_jacobian(self, x):
                res, vals, _ = super().constraints_and_jacobian(x)
                return res, vals, lambda obj_weight, lam: obj_weight * self.Q[None, :1, :1]

            def nonlinear_blocks(self):
                return np.array([[0]])

        prob = Split(np.diag([1.0, 0.0, 0.0]), [3.0, -1.0, -2.0], lb=[-10.0, 0.0, 0.0], ub=[10.0, 10.0, 10.0],
                     A=[[0.0, 1.0, 1.0]], d=[1.0], rg=([[0.0, 1.0, -1.0]], [0.0], [5.0]))
        nlp = _ScaledNlp(prob, np.ones(3), 1.0, _PUSH_COLD)
        kkt = _SchurKkt(nlp)
        assert list(kkt.order) == [0, 1]
        w, h, jac, H, J = self.system(nlp, 13)
        K = self.kkt_matrix(H, J, 0.0)
        rhs = np.random.default_rng(14).normal(size=len(K))
        assert np.allclose(kkt.factor(w, h, jac, 0.0)(rhs), np.linalg.solve(K, rhs), rtol=1e-10, atol=1e-12)
        res = minimize(prob, np.ones(3), raw_cfg())
        assert res.ok
        assert np.max(np.abs(res.x - [3.0, 1.0, 0.0])) < 1e-6


class TestCurvature:
    """Exact stage Hessians, projected onto eigenvalues at or above the floor."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_projected_blocks_are_symmetric_and_above_the_floor(self, k):
        # k = 2 takes the closed form, k = 3 LAPACK's eigh
        rng = np.random.default_rng(17)
        R = rng.normal(size=(200, k, k))
        blocks = R + R.transpose(0, 2, 1)  # mostly indefinite
        blocks[::4] = R[::4] @ R[::4].transpose(0, 2, 1) + 0.1 * np.eye(k)  # definite
        blocks[1::4, k - 1, :] = blocks[1::4, :, k - 1] = 0.0  # singular, as a fixed column leaves it
        proj = _project_blocks(blocks)
        assert np.array_equal(proj, proj.transpose(0, 2, 1))
        norms = np.max(np.abs(blocks), axis=(1, 2))
        assert np.all(np.linalg.eigvalsh(proj)[:, 0] >= _EIG_FLOOR - 1e-12 * norms)
        definite = np.linalg.eigvalsh(blocks)[:, 0] >= _EIG_FLOOR
        assert definite[::4].all() and not definite[1::4].any() and definite.any() and not definite.all()
        assert np.array_equal(proj[definite], blocks[definite])
        # the projection keeps the eigenvectors and every eigenvalue above the floor
        w, v = np.linalg.eigh(blocks[~definite])
        ref = (v * np.maximum(w, _EIG_FLOOR)[:, None, :]) @ v.transpose(0, 2, 1)
        assert np.allclose(proj[~definite], ref, rtol=0.0, atol=1e-12 * norms.max())

    def test_projection_of_a_multiple_of_the_identity(self):
        # equal eigenvalues leave the closed form no eigenvector to take
        blocks = np.array([[[-2.0, 0.0], [0.0, -2.0]], [[0.0, 0.0], [0.0, 0.0]], [[3.0, 0.0], [0.0, 3.0]]])
        proj = _project_blocks(blocks)
        assert np.array_equal(proj[:2], np.broadcast_to(_EIG_FLOOR * np.eye(2), (2, 2, 2)))
        assert np.array_equal(proj[2], blocks[2])

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_scaled_curvature_projects_the_free_columns(self, strategy, params, state):
        # fixed columns (the pinned entry thickness, co's current) leave the
        # block; the rest is scaled by the column ranges and projected alone
        prob = commitment_problem(strategy, state, params)
        x0 = cold_start(prob)
        nlp = _ScaledNlp(prob, x0, 1.0e-4, _PUSH_COLD)
        curvature = nlp.at_z0[3]
        rng = np.random.default_rng(19)
        y = rng.normal(scale=1e3, size=prob.m_eq + len(prob.rg_lb))
        w = nlp.hessian(curvature, y)
        assert not np.any(w[~nlp.blk_kept])
        W = dense_blocks(nlp, w)

        hx = prob.constraints_and_jacobian(nlp.x_full(nlp.z0))[2](nlp.obj_scale, y * nlp.row_scale)
        pos = {col: i for i, col in enumerate(nlp.free)}
        checked = 0
        for cols, block in zip(prob.nonlinear_blocks(), hx):
            keep = [a for a, col in enumerate(cols) if col in pos]
            red = [pos[cols[a]] for a in keep]
            scale = nlp.dx[red]
            exact = scale[:, None] * block[np.ix_(keep, keep)] * scale[None, :]
            ev, vec = np.linalg.eigh(exact)
            ref = (vec * np.maximum(ev, _EIG_FLOOR)) @ vec.T
            got = W[np.ix_(red, red)]
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-12 * max(1.0, np.max(np.abs(exact)))), cols
            checked += len(red) ** 2
        assert checked == np.count_nonzero(nlp.blk_kept)

    def test_second_order_correction_keeps_full_steps(self):
        # Powell's example of the Maratos effect: min 2|x|^2 - x1 on
        # the unit circle, solution (1, 0). From a point on the circle a
        # full Newton step raises the l1 merit through the constraint's
        # curvature; the corrected step is accepted at full length
        class Circle(Quadratic):
            def constraints_residual(self, x):
                return np.array([x @ x - 1.0])

            def constraints_and_jacobian(self, x):
                def curvature(obj_weight, lam):
                    return ((obj_weight * 4.0 + 2.0 * lam[0]) * np.eye(2))[None]

                return self.constraints_residual(x), 2.0 * x, curvature

        prob = Circle(4.0 * np.eye(2), [1.0, 0.0], lb=[-2.0, -2.0], ub=[2.0, 2.0], A=[[0.0, 0.0]], d=[0.0])
        res = minimize(prob, np.array([math.cos(0.3), math.sin(0.3)]), raw_cfg(initialization="warm"))
        assert res.ok
        assert np.max(np.abs(res.x - [1.0, 0.0])) < 1e-8
        assert [rec.alpha for rec in res.log] == [1.0] * len(res.log)


class TestBlockKernels:
    """The stage-block inverse and the solves around it, on the blocks and
    problems of the bundled price data."""

    @pytest.fixture(scope="class")
    def bundled(self, params, dam_csv_path, rtm_csv_path):
        dam = market.load_price_csv(dam_csv_path, resolution_minutes=60)
        rtm = market.load_price_csv(rtm_csv_path, resolution_minutes=15)
        state = PlantState(membrane_um=params.membrane_thickness_initial,
                           storage_kmol=0.6 * params.storage_capacity, clock=datetime(2022, 1, 2))
        return dam, rtm, state

    def test_closed_form_inverse_is_as_accurate_as_lapack(self, params, bundled, monkeypatch):
        # every H block factored over the bundled compare day, 3x3 for the
        # high-fidelity strategies and 2x2 for the others, some with
        # condition numbers near 1e18
        dam, rtm, state = bundled
        captured = []
        real = _SchurKkt.blocks
        monkeypatch.setattr(_SchurKkt, "blocks", lambda kkt, w, h: captured.append(real(kkt, w, h)) or captured[-1])
        day = date(2022, 1, 2)
        rollout.compare(list(StrategyKind), state, dam, rtm, day, day, params)
        for k in (2, 3):
            H = np.concatenate([hb for hb in captured if hb.shape[1] == k])
            assert len(H) > 10_000
            ours = np.max(np.abs(H @ _inverse_blocks(H) - np.eye(k)))
            lapack = np.max(np.abs(H @ np.linalg.inv(H) - np.eye(k)))
            assert ours <= 2.0 * lapack, (k, ours, lapack)

    def test_ill_conditioned_warm_solve_takes_no_more_work(self, params, bundled, monkeypatch):
        # hf-ss's 00:15 solve of the bundled day: 95 steps, warm, barrier
        # diagonals from 7e-7 to 1.5e13, where the Schur path loses accuracy
        # and the line search cuts the first steps short. It took 4
        # iterations and 51 residual-only trials when the blocks were
        # inverted by LAPACK
        dam, rtm, state = bundled
        caught = {}
        real_solve = rollout.solve

        def solve(prob, start, cfg):
            if prob.start_time == datetime(2022, 1, 2, 0, 15):
                caught["args"] = (prob, start, cfg)
            return real_solve(prob, start, cfg)

        monkeypatch.setattr(rollout, "solve", solve)
        day = date(2022, 1, 2)
        rollout.run(StrategyKind.HF_SS, state, dam, rtm, day, day, params)
        prob, start, cfg = caught["args"]
        assert prob.horizon == 95 and cfg.initialization == "warm"
        trials = []
        real_constraints = _ScaledNlp.constraints

        def constraints(nlp, z, need_jac=True):
            trials.append(not need_jac)
            return real_constraints(nlp, z, need_jac)

        monkeypatch.setattr(_ScaledNlp, "constraints", constraints)
        res = minimize(prob, start, cfg)
        assert res.ok
        assert res.iterations <= 4
        assert sum(trials) <= 51


def _electrolyzer_problem(params, state, H, seed):
    rng = np.random.default_rng(seed)
    dam_price = rng.uniform(15.0, 60.0, H)
    rtm_price = rng.uniform(-10.0, 150.0, H)
    return build(StrategyKind.HF_MS, state, hourly(state, H, 55.0), dam_price, rtm_price, params)


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
        dam = prob.lb[prob.idx["p_dam"][prob.dam_hour]]  # each step's committed quantity
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
            StrategyKind.HF_MS, state, [60.0], dam_price, rtm_price, params
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
        assert prob.objective_and_gradient(res.x)[0] <= best_obj + 1e-6 * max(1.0, abs(best_obj))

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
