"""Primal-dual interior-point solver for the controller's nonlinear programs.

Problems arrive as: minimize f(x) subject to box bounds, equality
constraints c_eq(x) = 0, and nonlinear range constraints
rg_lb <= c_rg(x) <= rg_ub. Ranges get slack variables, turning everything
into the canonical bound-constrained equality form. The algorithm is a
line-search barrier method in the style of large-scale interior-point
codes: damped Newton steps on the primal-dual barrier KKT system, a
fraction-to-the-boundary rule, a monotone barrier-reduction schedule, and
an l1-penalty merit line search. Second-order information comes from
damped BFGS updates on the per-step variable blocks the problem declares
as nonlinear (exact Hessians are never formed).

Everything is deterministic: identical (problem, start, config) yields an
identical iterate sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .ocp import OcpProblem, OcpSolution


@dataclass(frozen=True)
class SolverConfig:
    kkt_tolerance: float = 1.0e-6
    feasibility_tolerance: float = 1.0e-8
    max_iterations: int = 3000
    initialization: str = "cold"  # "cold" | "warm"
    obj_scale: float = 1.0e-4
    mu0: float | None = None  # default picked from initialization mode

    def __post_init__(self) -> None:
        if self.kkt_tolerance <= 0.0 or self.feasibility_tolerance <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.initialization not in ("cold", "warm"):
            raise ValueError("initialization must be 'cold' or 'warm'")


@dataclass
class IterationRecord:
    iteration: int
    mu: float
    merit_before: float
    merit_after: float
    alpha: float
    kkt_residual: float
    feasibility: float


@dataclass
class SolveResult:
    x: np.ndarray
    objective: float
    kkt_residual: float
    feasibility: float
    iterations: int
    status: str
    log: list[IterationRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


# barrier-loop constants (standard interior-point settings)
_KAPPA_EPS = 10.0
_KAPPA_MU = 0.2
_THETA_MU = 1.5
_TAU_MIN = 0.99
_KAPPA_SIGMA = 1.0e10
_S_MAX = 100.0
_ARMIJO_ETA = 1.0e-4
_MAX_BACKTRACKS = 40
_PUSH_COLD = 1.0e-2
_PUSH_WARM = 1.0e-4


class _ScaledNlp:
    """Reduced (fixed variables removed) and diagonally scaled problem.

    z = [free variables / column scale ; range slacks / slack scale];
    equality residuals are row-scaled from the Jacobian at the start point.
    The scaled Jacobian's sparsity is laid out once, from the start-point
    evaluation; later evaluations only refill its values.
    """

    def __init__(self, prob, x0_full: np.ndarray, obj_scale: float):
        lb = np.asarray(prob.lb, dtype=float)
        ub = np.asarray(prob.ub, dtype=float)
        self.prob = prob
        self.obj_scale = obj_scale
        self.free = np.flatnonzero(ub - lb > 0.0)
        self.x_template = np.where(np.isfinite(lb), lb, 0.0)
        fixed = np.setdiff1d(np.arange(len(lb)), self.free)
        self.x_template[fixed] = lb[fixed]

        rng = ub[self.free] - lb[self.free]
        x0f = x0_full[self.free]
        self.dx = np.where(np.isfinite(rng), rng, np.maximum(1.0, np.abs(x0f)))
        self.m_eq = prob.m_eq
        self.rg_lb = np.asarray(prob.rg_lb, dtype=float)
        self.rg_ub = np.asarray(prob.rg_ub, dtype=float)
        self.m_rg = len(self.rg_lb)
        self.ds = np.maximum(self.rg_ub - self.rg_lb, 1.0e-8)

        self.n_free = len(self.free)
        self.nz = self.n_free + self.m_rg
        self.lz = np.concatenate([lb[self.free] / self.dx, self.rg_lb / self.ds])
        self.uz = np.concatenate([ub[self.free] / self.dx, self.rg_ub / self.ds])

        self.res0, jac0 = prob.constraints_and_jacobian(self._x_full_from(x0f / self.dx))
        m = self.m_eq + self.m_rg
        self.jac_indptr = jac0.indptr.copy()
        pos = -np.ones(len(lb), dtype=np.int64)
        pos[self.free] = np.arange(self.n_free)
        rows = np.repeat(np.arange(m), np.diff(jac0.indptr))
        cols = pos[jac0.indices]
        src = np.flatnonzero(cols >= 0)
        col_scale = self.dx[cols[src]]

        # row scaling from the start-point Jacobian's free columns
        row_max = np.zeros(m)
        np.maximum.at(row_max, rows[src], np.abs(jac0.data[src] * col_scale))
        self.row_scale = 1.0 / np.maximum(1.0, row_max)

        # reduced entries then the -ds slack block; each row lists its
        # columns descending, the order the summations in J @ J.T follow
        slack = np.arange(self.m_rg)
        rows = np.concatenate([rows[src], self.m_eq + slack])
        cols = np.concatenate([cols[src], self.n_free + slack])
        order = np.lexsort((-cols, rows))
        self.jac_src = np.concatenate([src, jac0.nnz + slack])[order]
        self.jac_col_scale = np.concatenate([col_scale, np.ones(self.m_rg)])[order]
        self.jac_row_scale = self.row_scale[rows[order]]
        self.jac_layout = sp.csr_matrix(
            (np.zeros(len(order)), cols[order], np.searchsorted(rows[order], np.arange(m + 1))),
            shape=(m, self.nz),
        )
        # every evaluation's Jacobian shares these; they must never change
        self.jac_layout.indices.flags.writeable = self.jac_layout.indptr.flags.writeable = False

        # nonlinear block structure mapped into reduced coordinates
        self.blocks: list[np.ndarray] = []
        for blk in prob.nonlinear_blocks():
            reduced = pos[np.asarray(blk, dtype=np.int64)]
            reduced = reduced[reduced >= 0]
            if len(reduced):
                self.blocks.append(reduced)

    # mappings --------------------------------------------------------
    def _x_full_from(self, zx: np.ndarray) -> np.ndarray:
        x = self.x_template.copy()
        x[self.free] = zx * self.dx
        return x

    def x_full(self, z: np.ndarray) -> np.ndarray:
        return self._x_full_from(z[: self.n_free])

    def z_from_x_full(self, x_full: np.ndarray, s_unscaled: np.ndarray) -> np.ndarray:
        return np.concatenate([x_full[self.free] / self.dx, s_unscaled / self.ds])

    # evaluators ------------------------------------------------------
    def objective(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        f, g = self.prob.objective_and_gradient(self.x_full(z))
        gz = np.zeros(self.nz)
        gz[: self.n_free] = self.obj_scale * g[self.free] * self.dx
        return self.obj_scale * f, gz

    def constraints(self, z: np.ndarray, need_jac: bool = True):
        x = self.x_full(z)
        if not need_jac:
            return self._scaled_residual(self.prob.constraints_residual(x), z), None
        res, jac = self.prob.constraints_and_jacobian(x)
        if not np.array_equal(jac.indptr, self.jac_indptr):
            raise ValueError("the constraint Jacobian's sparsity pattern changed during the solve")
        vals = np.concatenate([jac.data, -self.ds])[self.jac_src]
        data = self.jac_row_scale * (vals * self.jac_col_scale)
        J = self.jac_layout
        return self._scaled_residual(res, z), sp.csr_matrix((data, J.indices, J.indptr), shape=J.shape)

    def _scaled_residual(self, res: np.ndarray, z: np.ndarray) -> np.ndarray:
        s = z[self.n_free :] * self.ds
        c = np.empty(self.m_eq + self.m_rg)
        c[: self.m_eq] = res[: self.m_eq]
        c[self.m_eq :] = res[self.m_eq :] - s
        c *= self.row_scale
        return c

    def unscaled_feasibility(self, z: np.ndarray) -> float:
        """Inf-norm of raw equality residuals and range-bound violations."""
        res = self.prob.constraints_residual(self.x_full(z))
        rg = res[self.m_eq :]
        viol = np.maximum(self.rg_lb - rg, rg - self.rg_ub)
        return max(float(np.max(np.abs(res[: self.m_eq]), initial=0.0)), float(np.max(viol, initial=0.0)))


class _BlockBfgs:
    """Damped BFGS curvature, one small dense matrix per nonlinear block."""

    def __init__(self, blocks: list[np.ndarray]):
        self.blocks = blocks
        self.mats = [np.eye(len(b)) for b in blocks]
        self.virgin = [True] * len(blocks)

    def update(self, dz: np.ndarray, dgrad: np.ndarray) -> None:
        for i, (b, B) in enumerate(zip(self.blocks, self.mats)):
            s = dz[b]
            y = dgrad[b]
            ss = float(s @ s)
            if ss < 1.0e-20:
                continue
            sy = float(s @ y)
            if self.virgin[i] and sy > 1.0e-12 * ss:
                # self-scale the seed matrix so curvature starts at the
                # right order of magnitude (critical for near-linear
                # problems where an identity seed is far too stiff)
                gamma = float(y @ y) / sy
                B *= min(max(gamma, 1.0e-4), 1.0e6)
                self.virgin[i] = False
            Bs = B @ s
            sBs = float(s @ Bs)
            if sBs <= 0.0:
                continue
            if sy < 0.2 * sBs:  # Powell damping keeps B positive definite
                theta = 0.8 * sBs / (sBs - sy)
                y = theta * y + (1.0 - theta) * Bs
                sy = float(s @ y)
            if sy <= 1.0e-16:
                continue
            B -= np.outer(Bs, Bs) / sBs
            B += np.outer(y, y) / sy


class _KktLayout:
    """Sparsity of the barrier KKT matrix [[W + diag, J^T], [J, -delta_c I]].

    W is the block-diagonal BFGS curvature. The (row, col) slots are fixed
    per solve; each factorization only supplies values, and drops the ones
    that come out zero, since SuperLU's column ordering follows the pattern.
    """

    def __init__(self, blocks: list[np.ndarray], J: sp.csr_matrix):
        m, nz = J.shape
        n = nz + m
        diag = np.arange(n)
        j_rows = nz + np.repeat(np.arange(m), np.diff(J.indptr))
        rows = [*(np.repeat(b, len(b)) for b in blocks), diag[:nz], j_rows, J.indices, diag[nz:]]
        cols = [*(np.tile(b, len(b)) for b in blocks), diag[:nz], J.indices, j_rows, diag[nz:]]
        keys, self.slot = np.unique(np.concatenate(cols) * n + np.concatenate(rows), return_inverse=True)
        self.indices = keys % n
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        self.shape = (n, n)

    def matrix(self, bfgs: _BlockBfgs, h_diag: np.ndarray, J: sp.csr_matrix, delta_c: float) -> sp.csc_matrix:
        # a block's diagonal and h_diag share slots and sum in list order
        values = np.concatenate(
            [*(B.ravel() for B in bfgs.mats), h_diag, J.data, J.data, np.full(J.shape[0], -delta_c)]
        )
        data = np.bincount(self.slot, weights=values, minlength=len(self.indices))
        K = sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape, copy=True)
        K.eliminate_zeros()
        return K


def minimize(prob, x0: np.ndarray, cfg: SolverConfig) -> SolveResult:
    """Solve a problem exposing the OcpProblem evaluator surface.

    ``x0`` is a full-space start; fixed variables are forced to their
    pinned values, free ones are pushed strictly inside their bounds.
    ``constraints_and_jacobian`` must return a CSR Jacobian whose sparsity
    pattern is the same at every point: the solve lays it out once and
    raises ValueError when an evaluation's pattern differs.
    """
    x0 = np.asarray(x0, dtype=float)
    if len(x0) != prob.n:
        raise ValueError(f"start vector has length {len(x0)}, expected {prob.n}")
    lb_full = np.asarray(prob.lb, dtype=float)
    ub_full = np.asarray(prob.ub, dtype=float)
    x0 = np.minimum(np.maximum(x0, lb_full), ub_full)
    nlp = _ScaledNlp(prob, x0, cfg.obj_scale)
    warm = cfg.initialization == "warm"
    push = _PUSH_WARM if warm else _PUSH_COLD
    mu = cfg.mu0 if cfg.mu0 is not None else (1.0e-4 if warm else 0.1)
    mu_min = cfg.kkt_tolerance / 11.0

    # start point: map x0 in, initialize slacks at the range values
    z = _push_interior(nlp.z_from_x_full(x0, nlp.res0[nlp.m_eq :]), nlp.lz, nlp.uz, push)

    has_lb = np.isfinite(nlp.lz)
    has_ub = np.isfinite(nlp.uz)
    vl = np.where(has_lb, mu / np.maximum(z - nlp.lz, 1.0e-12), 0.0)
    vu = np.where(has_ub, mu / np.maximum(nlp.uz - z, 1.0e-12), 0.0)

    m = nlp.m_eq + nlp.m_rg
    f, g = nlp.objective(z)
    c, J = nlp.constraints(z)
    y = _least_squares_duals(g, J, vl, vu)

    bfgs = _BlockBfgs(nlp.blocks)
    kkt = _KktLayout(nlp.blocks, J)
    nu = 1.0
    tau = max(_TAU_MIN, 1.0 - mu)
    log: list[IterationRecord] = []
    status = "max_iterations"
    delta_w = 0.0
    it = 0

    for it in range(1, cfg.max_iterations + 1):
        gL = g + J.T @ y - vl + vu
        sd = max(_S_MAX, (np.sum(np.abs(y)) + np.sum(np.abs(vl)) + np.sum(np.abs(vu))) / max(1, m + 2 * nlp.nz)) / _S_MAX
        sc = max(_S_MAX, (np.sum(np.abs(vl)) + np.sum(np.abs(vu))) / max(1, 2 * nlp.nz)) / _S_MAX
        comp0 = _complementarity(z, vl, vu, nlp.lz, nlp.uz, has_lb, has_ub, 0.0)
        feas_scaled = float(np.max(np.abs(c), initial=0.0))
        kkt0 = max(float(np.max(np.abs(gL))) / sd, feas_scaled, comp0 / sc)
        feas_raw = nlp.unscaled_feasibility(z)

        if kkt0 <= cfg.kkt_tolerance and feas_raw <= cfg.feasibility_tolerance:
            status = "optimal"
            break

        comp_mu = _complementarity(z, vl, vu, nlp.lz, nlp.uz, has_lb, has_ub, mu)
        kkt_mu = max(float(np.max(np.abs(gL))) / sd, feas_scaled, comp_mu / sc)
        while kkt_mu <= _KAPPA_EPS * mu and mu > mu_min:
            mu = max(mu_min, min(_KAPPA_MU * mu, mu**_THETA_MU))
            tau = max(_TAU_MIN, 1.0 - mu)
            nu = 1.0
            comp_mu = _complementarity(z, vl, vu, nlp.lz, nlp.uz, has_lb, has_ub, mu)
            kkt_mu = max(float(np.max(np.abs(gL))) / sd, feas_scaled, comp_mu / sc)

        # primal-dual Newton direction on the barrier KKT system
        sigma = np.zeros(nlp.nz)
        sigma[has_lb] += vl[has_lb] / (z[has_lb] - nlp.lz[has_lb])
        sigma[has_ub] += vu[has_ub] / (nlp.uz[has_ub] - z[has_ub])
        grad_mu = g.copy()
        grad_mu[has_lb] -= mu / (z[has_lb] - nlp.lz[has_lb])
        grad_mu[has_ub] += mu / (nlp.uz[has_ub] - z[has_ub])

        dz, dy, delta_w = _solve_kkt(kkt, bfgs, sigma, J, grad_mu, y, c, delta_w)
        if dz is None:
            status = "singular_kkt"
            break

        dvl = np.zeros_like(vl)
        dvu = np.zeros_like(vu)
        zl = z - nlp.lz
        zu = nlp.uz - z
        dvl[has_lb] = mu / zl[has_lb] - vl[has_lb] - vl[has_lb] * dz[has_lb] / zl[has_lb]
        dvu[has_ub] = mu / zu[has_ub] - vu[has_ub] + vu[has_ub] * dz[has_ub] / zu[has_ub]

        alpha_max = _fraction_to_boundary(z, dz, nlp.lz, nlp.uz, has_lb, has_ub, tau)
        alpha_vl = _dual_fraction(vl, dvl, tau, has_lb)
        alpha_vu = _dual_fraction(vu, dvu, tau, has_ub)

        nu = max(nu, 1.05 * float(np.max(np.abs(y + dy), initial=0.0)) + 0.01)
        merit0 = _merit(f, z, c, mu, nu, nlp, has_lb, has_ub)
        dmerit = float(grad_mu @ dz) - nu * float(np.sum(np.abs(c)))
        if dmerit >= 0.0:
            # quasi-Newton curvature was too weak for a descent direction;
            # fall back to a heavier penalty
            nu *= 10.0
            merit0 = _merit(f, z, c, mu, nu, nlp, has_lb, has_ub)
            dmerit = float(grad_mu @ dz) - nu * float(np.sum(np.abs(c)))

        accepted = False
        alpha = alpha_max
        # two allowances keep the endgame from drifting with tiny alphas:
        # float roundoff on the merit itself, and the O(mu) barrier-value
        # wobble of primal-dual steps taken slightly off the central path
        noise = 100.0 * np.finfo(float).eps * max(1.0, abs(merit0)) + 10.0 * mu
        for _ in range(_MAX_BACKTRACKS):
            z_t = z + alpha * dz
            f_t, g_t = nlp.objective(z_t)
            c_t, _ = nlp.constraints(z_t, need_jac=False)
            merit_t = _merit(f_t, z_t, c_t, mu, nu, nlp, has_lb, has_ub)
            if math.isfinite(merit_t) and merit_t <= merit0 + _ARMIJO_ETA * alpha * dmerit + noise:
                accepted = True
                break
            alpha *= 0.5
            if alpha < 1.0e-14:
                break
        if not accepted:
            status = "line_search_failed"
            break

        z_new = z + alpha * dz
        c_t, J_t = nlp.constraints(z_new)
        y_new = y + alpha * dy
        gL_old_at_new_duals = g + J.T @ y_new
        gL_new = g_t + J_t.T @ y_new
        bfgs.update(alpha * dz, gL_new - gL_old_at_new_duals)

        z = z_new
        y = y_new
        vl = vl + alpha_vl * dvl
        vu = vu + alpha_vu * dvu
        vl, vu = _dual_safeguard(z, vl, vu, nlp.lz, nlp.uz, has_lb, has_ub, mu)
        f, g, c, J = f_t, g_t, c_t, J_t

        merit_after = _merit(f, z, c, mu, nu, nlp, has_lb, has_ub)
        log.append(
            IterationRecord(it, mu, merit0, merit_after, alpha, kkt0, feas_raw)
        )

    if status == "optimal":
        z = _feasibility_polish(nlp, z, cfg.feasibility_tolerance)
        f, g = nlp.objective(z)
        c, J = nlp.constraints(z)

    gL = g + J.T @ y - vl + vu
    sd = max(_S_MAX, (np.sum(np.abs(y)) + np.sum(np.abs(vl)) + np.sum(np.abs(vu))) / max(1, m + 2 * nlp.nz)) / _S_MAX
    sc = max(_S_MAX, (np.sum(np.abs(vl)) + np.sum(np.abs(vu))) / max(1, 2 * nlp.nz)) / _S_MAX
    kkt_final = max(
        float(np.max(np.abs(gL), initial=0.0)) / sd,
        float(np.max(np.abs(c), initial=0.0)),
        _complementarity(z, vl, vu, nlp.lz, nlp.uz, has_lb, has_ub, 0.0) / sc,
    )
    feas_final = nlp.unscaled_feasibility(z)
    x_final = nlp.x_full(z)
    obj_final, _ = prob.objective_and_gradient(x_final)

    return SolveResult(
        x=x_final,
        objective=obj_final,
        kkt_residual=kkt_final,
        feasibility=feas_final,
        iterations=it,
        status=status,
        log=log,
    )


def solve(prob: OcpProblem, init: np.ndarray, cfg: SolverConfig) -> OcpSolution:
    """Solve a controller problem and map the result onto the action layout."""
    res = minimize(prob, init, cfg)
    return OcpSolution(
        actions=prob.extract_actions(res.x),
        objective=res.objective,
        kkt_residual=res.kkt_residual,
        feasibility=res.feasibility,
        iterations=res.iterations,
        status=res.status,
        x=res.x,
    )


# helpers ------------------------------------------------------------------

def _push_interior(z, lz, uz, kappa):
    width = np.where(np.isfinite(uz - lz), uz - lz, 2.0)
    lo = np.where(np.isfinite(lz), lz + kappa * np.minimum(width, 1.0), -np.inf)
    hi = np.where(np.isfinite(uz), uz - kappa * np.minimum(width, 1.0), np.inf)
    return np.minimum(np.maximum(z, lo), hi)


def _complementarity(z, vl, vu, lz, uz, has_lb, has_ub, mu):
    worst = 0.0
    if np.any(has_lb):
        worst = max(worst, float(np.max(np.abs((z[has_lb] - lz[has_lb]) * vl[has_lb] - mu))))
    if np.any(has_ub):
        worst = max(worst, float(np.max(np.abs((uz[has_ub] - z[has_ub]) * vu[has_ub] - mu))))
    return worst


def _merit(f, z, c, mu, nu, nlp, has_lb, has_ub):
    barrier = 0.0
    if np.any(has_lb):
        gap = z[has_lb] - nlp.lz[has_lb]
        if np.any(gap <= 0.0):
            return math.inf
        barrier -= mu * float(np.sum(np.log(gap)))
    if np.any(has_ub):
        gap = nlp.uz[has_ub] - z[has_ub]
        if np.any(gap <= 0.0):
            return math.inf
        barrier -= mu * float(np.sum(np.log(gap)))
    return f + barrier + nu * (float(np.sum(np.abs(c))) if len(c) else 0.0)


def _fraction_to_boundary(z, dz, lz, uz, has_lb, has_ub, tau):
    alpha = 1.0
    neg = has_lb & (dz < 0.0)
    if np.any(neg):
        alpha = min(alpha, float(np.min(-tau * (z[neg] - lz[neg]) / dz[neg])))
    pos = has_ub & (dz > 0.0)
    if np.any(pos):
        alpha = min(alpha, float(np.min(tau * (uz[pos] - z[pos]) / dz[pos])))
    return max(min(alpha, 1.0), 0.0)


def _dual_fraction(v, dv, tau, mask):
    alpha = 1.0
    neg = mask & (dv < 0.0)
    if np.any(neg):
        alpha = min(alpha, float(np.min(-tau * v[neg] / dv[neg])))
    return max(min(alpha, 1.0), 0.0)


def _dual_safeguard(z, vl, vu, lz, uz, has_lb, has_ub, mu):
    vl = vl.copy()
    vu = vu.copy()
    gap_l = np.where(has_lb, np.maximum(z - lz, 1.0e-12), 1.0)
    gap_u = np.where(has_ub, np.maximum(uz - z, 1.0e-12), 1.0)
    vl[has_lb] = np.clip(
        vl[has_lb], mu / (_KAPPA_SIGMA * gap_l[has_lb]), _KAPPA_SIGMA * mu / gap_l[has_lb]
    )
    vu[has_ub] = np.clip(
        vu[has_ub], mu / (_KAPPA_SIGMA * gap_u[has_ub]), _KAPPA_SIGMA * mu / gap_u[has_ub]
    )
    return vl, vu


def _least_squares_duals(g, J, vl, vu):
    """Initial multipliers from min ||g + J^T y - vl + vu||, capped."""
    m = J.shape[0]
    rhs = -(J @ (g - vl + vu))
    JJt = (J @ J.T).tocsc() + 1.0e-8 * sp.identity(m, format="csc")
    try:
        y = spla.splu(JJt).solve(rhs)
    except RuntimeError:
        return np.zeros(m)
    if not np.all(np.isfinite(y)) or np.max(np.abs(y), initial=0.0) > 1.0e3:
        return np.zeros(m)
    return y


def _solve_kkt(kkt, bfgs, sigma, J, grad_mu, y, c, delta_w):
    """Factor and solve the reduced barrier KKT system, regularizing on demand."""
    nz = len(sigma)
    rhs = np.concatenate([-(grad_mu + J.T @ y), -c])
    delta_c = 0.0
    for _ in range(12):
        try:
            step = spla.splu(kkt.matrix(bfgs, sigma + delta_w, J, delta_c)).solve(rhs)
        except RuntimeError:
            delta_c = max(delta_c * 10.0, 1.0e-10)
            delta_w = max(delta_w * 10.0, 1.0e-8)
            continue
        if np.all(np.isfinite(step)):
            return step[:nz], step[nz:], max(delta_w / 3.0, 0.0)
        delta_c = max(delta_c * 10.0, 1.0e-10)
        delta_w = max(delta_w * 10.0, 1.0e-8)
    return None, None, delta_w


def _feasibility_polish(nlp: _ScaledNlp, z: np.ndarray, feas_tol: float) -> np.ndarray:
    """Newton least-norm projection onto the equality manifold.

    Moves only coordinates comfortably away from their bounds, so bound
    feasibility and complementarity survive; linear rows land at roundoff
    and nonlinear rows contract quadratically.
    """
    for _ in range(3):
        c, J = nlp.constraints(z)
        if float(np.max(np.abs(c), initial=0.0)) < 1.0e-14 or nlp.unscaled_feasibility(z) <= feas_tol * 1e-3:
            break
        interior = np.ones(nlp.nz, dtype=bool)
        fin_l = np.isfinite(nlp.lz)
        fin_u = np.isfinite(nlp.uz)
        interior[fin_l] &= z[fin_l] - nlp.lz[fin_l] > 1.0e-6
        interior[fin_u] &= nlp.uz[fin_u] - z[fin_u] > 1.0e-6
        cols = np.flatnonzero(interior)
        if not len(cols):
            break
        Ji = J.tocsc()[:, cols]
        JJt = (Ji @ Ji.T).tocsc() + 1.0e-12 * sp.identity(J.shape[0], format="csc")
        try:
            w = spla.splu(JJt).solve(-c)
        except RuntimeError:
            break
        dz_i = Ji.T @ w
        z_t = z.copy()
        z_t[cols] += dz_i
        inside = True
        if np.any(fin_l):
            inside &= bool(np.all(z_t[fin_l] > nlp.lz[fin_l]))
        if np.any(fin_u):
            inside &= bool(np.all(z_t[fin_u] < nlp.uz[fin_u]))
        if not inside:
            break
        z = z_t
    return z
