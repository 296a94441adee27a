"""Primal-dual interior-point solver for the controller's nonlinear programs.

Problems arrive as: minimize f(x) subject to box bounds, equality
constraints c_eq(x) = 0, and nonlinear range constraints
rg_lb <= c_rg(x) <= rg_ub. Ranges get slack variables, turning everything
into the canonical bound-constrained equality form. The algorithm is a
line-search barrier method in the style of large-scale interior-point
codes: damped Newton steps on the primal-dual barrier KKT system, a
fraction-to-the-boundary rule, a monotone barrier-reduction schedule, and
an l1-penalty merit line search with one second-order correction (as in
IPOPT) against the Maratos effect. Second-order information is the exact
Lagrangian Hessian on the per-step variable blocks the problem declares as
nonlinear, as the curvature each Jacobian evaluation returns; each scaled
block is projected onto eigenvalues at or above a floor, the
convexification acados applies to stage Hessians, so the curvature stays
positive definite.

As in IPOPT's NLP interface, the problem declares its Jacobian's (row,
column) entries once and its evaluations return only their values. Each
solve fixes its scaled Jacobian's pattern once and keeps the Jacobian as
values on it; only the least-squares multiplier estimate builds a sparse
matrix from them.

A solve is ``optimal`` at the first iterate whose scaled KKT error is
within ``KKT_TOLERANCE`` and whose raw infeasibility is within
``FEASIBILITY_TOLERANCE``, and returns that iterate as it was checked;
every other status is a failed solve.

A start may carry multipliers (``Start``); every result returns its own,
unscaled, so the closed loop can shift them onto its next problem as it
shifts the plan, whatever that problem's scaling.

Every variable and range bound must be finite; ``minimize`` rejects a
problem with an infinite one. Everything is deterministic: identical
(problem, start, config) yields an identical iterate sequence.

scipy's sparse modules are imported at their first use, the first
factorization, so importing the package for log analysis loads no solver
dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


KKT_TOLERANCE = 1.0e-6
FEASIBILITY_TOLERANCE = 1.0e-8


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 3000
    initialization: str = "cold"  # "cold" | "warm"
    obj_scale: float = 1.0e-4
    mu0: float | None = None  # default picked from initialization mode

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class Multipliers:
    """A problem's multipliers, unscaled and in full space.

    ``rows`` has one per constraint row, equalities then ranges (a range
    row's multiplier is that of c_rg(x) - s = 0 for its slack s).
    ``lower`` and ``upper`` have one per variable, then one per range row,
    for its lower and upper bound; a fixed variable's are zero.
    """

    rows: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class Start:
    """A start point, with the multipliers to begin from when it has them."""

    x: np.ndarray
    multipliers: Multipliers | None = None


@dataclass
class SolveResult:
    x: np.ndarray
    kkt_residual: float
    feasibility: float
    iterations: int
    status: str
    multipliers: Multipliers
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
_PUSH_WARM = 1.0e-12
# smallest eigenvalue a projected curvature block keeps (scaled problem)
_EIG_FLOOR = 1.0e-8
# a start without multipliers discards least-squares ones larger than this
# (IPOPT's constr_mult_init_max)
_LS_DUAL_MAX = 1.0e3


class _ScaledNlp:
    """Reduced (fixed variables removed) and diagonally scaled problem.

    z = [free variables / column scale ; range slacks / slack scale].
    The one evaluation at the start ``z0`` (free variables pushed ``push``
    inside their bounds, slacks at the range values there, pushed alike)
    sets the row scaling and gives the first iterate's ``(c, jac, feas,
    curvature)`` as ``at_z0``. The scaled Jacobian is an array of values on
    this solve's pattern, the entries the problem declares with the -ds
    slack block: ``jac_rows``/``jac_cols``, row by row, each row's columns
    descending (the order the summations in ``J @ J.T`` follow). Every
    evaluation only computes new values.
    """

    def __init__(self, prob, x0_full: np.ndarray, obj_scale: float, push: float):
        lb = np.asarray(prob.lb, dtype=float)
        ub = np.asarray(prob.ub, dtype=float)
        self.prob = prob
        self.obj_scale = obj_scale
        self.free = np.flatnonzero(ub - lb > 0.0)
        self.x_template = lb.copy()
        self.dx = ub[self.free] - lb[self.free]
        self.m_eq = prob.m_eq
        self.rg_lb = np.asarray(prob.rg_lb, dtype=float)
        self.rg_ub = np.asarray(prob.rg_ub, dtype=float)
        self.m_rg = len(self.rg_lb)
        self.ds = np.maximum(self.rg_ub - self.rg_lb, 1.0e-8)

        self.n_free = len(self.free)
        self.nz = self.n_free + self.m_rg
        self.lz = np.concatenate([lb[self.free] / self.dx, self.rg_lb / self.ds])
        self.uz = np.concatenate([ub[self.free] / self.dx, self.rg_ub / self.ds])
        # each z entry's place among a Multipliers' bounds, and the factor
        # from an unscaled bound multiplier to that entry's
        self.bound_pos = np.concatenate([self.free, len(lb) + np.arange(self.m_rg)])
        self.bound_scale = obj_scale * np.concatenate([self.dx, self.ds])

        # the start: the one evaluation every solve makes before its loop
        n = self.n_free
        zx = _push_interior(x0_full[self.free] / self.dx, self.lz[:n], self.uz[:n], push)
        res0, vals0, curv0 = prob.constraints_and_jacobian(self._x_full_from(zx))
        self.z0 = np.concatenate([zx, _push_interior(res0[self.m_eq :] / self.ds, self.lz[n:], self.uz[n:], push)])

        self.m = m = self.m_eq + self.m_rg
        pos = -np.ones(len(lb), dtype=np.int64)
        pos[self.free] = np.arange(self.n_free)
        rows, cols = prob.jac_rows, pos[prob.jac_cols]
        src = np.flatnonzero(cols >= 0)
        col_scale = self.dx[cols[src]]

        # row scaling from the start-point Jacobian's free columns
        row_max = np.zeros(m)
        np.maximum.at(row_max, rows[src], np.abs(vals0[src] * col_scale))
        self.row_scale = 1.0 / np.maximum(1.0, row_max)

        # reduced entries then the -ds slack block, in the pattern's order
        slack = np.arange(self.m_rg)
        rows = np.concatenate([rows[src], self.m_eq + slack])
        cols = np.concatenate([cols[src], self.n_free + slack])
        order = np.lexsort((-cols, rows))
        self.jac_rows, self.jac_cols = rows[order], cols[order]
        self.jac_src = np.concatenate([src, len(vals0) + slack])[order]
        self.jac_col_scale = np.concatenate([col_scale, np.ones(self.m_rg)])[order]
        self.jac_row_scale = self.row_scale[self.jac_rows]

        # nonlinear blocks in reduced coordinates: each column's scale, zero
        # where the column is fixed (which zeroes its row and column of the
        # scaled block), and the reduced (row, col) of every kept entry
        blk = pos[np.asarray(prob.nonlinear_blocks(), dtype=np.int64)]
        free_blk = blk >= 0
        self.blk_dx = np.zeros(blk.shape)
        self.blk_dx[free_blk] = self.dx[blk[free_blk]]
        kept = free_blk[:, :, None] & free_blk[:, None, :]
        self.hess_keep = np.flatnonzero(kept)
        self.hess_rows = np.broadcast_to(blk[:, :, None], kept.shape)[kept]
        self.hess_cols = np.broadcast_to(blk[:, None, :], kept.shape)[kept]

        self.at_z0 = (self._scaled_residual(res0, self.z0), self._scaled_jacobian(vals0), self._infeasibility(res0), curv0)

    # mappings --------------------------------------------------------
    def _x_full_from(self, zx: np.ndarray) -> np.ndarray:
        x = self.x_template.copy()
        x[self.free] = zx * self.dx
        return x

    def x_full(self, z: np.ndarray) -> np.ndarray:
        return self._x_full_from(z[: self.n_free])

    # the scaled problem's multipliers are those of obj_scale * L in z
    def duals_in(self, mult: Multipliers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(y, vl, vu) of the scaled problem from unscaled full-space ones."""
        return (
            self.obj_scale * mult.rows / self.row_scale,
            self.bound_scale * mult.lower[self.bound_pos],
            self.bound_scale * mult.upper[self.bound_pos],
        )

    def duals_out(self, y: np.ndarray, vl: np.ndarray, vu: np.ndarray) -> Multipliers:
        """The inverse of ``duals_in``; fixed variables get zeros."""
        lower, upper = np.zeros((2, len(self.x_template) + self.m_rg))
        lower[self.bound_pos] = vl / self.bound_scale
        upper[self.bound_pos] = vu / self.bound_scale
        return Multipliers(rows=y * self.row_scale / self.obj_scale, lower=lower, upper=upper)

    # evaluators ------------------------------------------------------
    def objective(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        f, g = self.prob.objective_and_gradient(self.x_full(z))
        gz = np.zeros(self.nz)
        gz[: self.n_free] = self.obj_scale * g[self.free] * self.dx
        return self.obj_scale * f, gz

    def constraints(self, z: np.ndarray, need_jac: bool = True):
        """Scaled residual, scaled Jacobian values, raw infeasibility and
        the problem's curvature at z, all from one problem evaluation;
        without ``need_jac`` the Jacobian and the curvature are None."""
        x = self.x_full(z)
        if not need_jac:
            res = self.prob.constraints_residual(x)
            return self._scaled_residual(res, z), None, self._infeasibility(res), None
        res, vals, curvature = self.prob.constraints_and_jacobian(x)
        return self._scaled_residual(res, z), self._scaled_jacobian(vals), self._infeasibility(res), curvature

    def jac_t_dot(self, jac: np.ndarray, y: np.ndarray) -> np.ndarray:
        """J.T @ y for the Jacobian with values ``jac`` on this solve's
        pattern; each entry sums in row order, as scipy's does."""
        return np.bincount(self.jac_cols, jac * y[self.jac_rows], minlength=self.nz)

    def hessian(self, curvature, y: np.ndarray) -> np.ndarray:
        """Projected curvature of the scaled Lagrangian with multipliers y,
        from an evaluation's ``curvature``: one value per (``hess_rows``,
        ``hess_cols``) entry."""
        hx = curvature(self.obj_scale, y * self.row_scale)
        hz = self.blk_dx[:, :, None] * hx * self.blk_dx[:, None, :]
        return _project_blocks(hz).reshape(-1)[self.hess_keep]

    def _scaled_jacobian(self, values: np.ndarray) -> np.ndarray:
        vals = np.concatenate([values, -self.ds])[self.jac_src]
        return self.jac_row_scale * (vals * self.jac_col_scale)

    def _scaled_residual(self, res: np.ndarray, z: np.ndarray) -> np.ndarray:
        s = z[self.n_free :] * self.ds
        c = np.empty(self.m_eq + self.m_rg)
        c[: self.m_eq] = res[: self.m_eq]
        c[self.m_eq :] = res[self.m_eq :] - s
        c *= self.row_scale
        return c

    def _infeasibility(self, res: np.ndarray) -> float:
        """Inf-norm of raw equality residuals and range-bound violations."""
        rg = res[self.m_eq :]
        viol = np.maximum(self.rg_lb - rg, rg - self.rg_ub)
        return max(float(np.max(np.abs(res[: self.m_eq]), initial=0.0)), float(np.max(viol, initial=0.0)))


def _project_blocks(h: np.ndarray) -> np.ndarray:
    """Each symmetric block of an (H, k, k) stack with its eigenvalues raised
    to at least ``_EIG_FLOOR``; blocks already there come back unchanged."""
    w, v = np.linalg.eigh(h)
    proj = (v * np.maximum(w, _EIG_FLOOR)[:, None, :]) @ v.transpose(0, 2, 1)
    proj = 0.5 * (proj + proj.transpose(0, 2, 1))
    return np.where((w[:, 0] >= _EIG_FLOOR)[:, None, None], h, proj)


class _KktLayout:
    """Sparsity of the barrier KKT matrix [[W + diag, J^T], [J, -delta_c I]]
    of a ``_ScaledNlp``.

    W is the block-diagonal projected curvature, given as values at the
    (``hess_rows``, ``hess_cols``) entries, and J the Jacobian's values on
    its (``jac_rows``, ``jac_cols``) pattern. The (row, col) slots are fixed
    per solve; each factorization only supplies values, and drops the ones
    that come out zero, since SuperLU's column ordering follows the pattern.
    """

    def __init__(self, nlp: _ScaledNlp):
        nz = nlp.nz
        n = nz + nlp.m
        diag = np.arange(n)
        j_rows = nz + nlp.jac_rows
        rows = [nlp.hess_rows, diag[:nz], j_rows, nlp.jac_cols, diag[nz:]]
        cols = [nlp.hess_cols, diag[:nz], nlp.jac_cols, j_rows, diag[nz:]]
        keys, self.slot = np.unique(np.concatenate(cols) * n + np.concatenate(rows), return_inverse=True)
        self.indices = keys % n
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        self.shape = (n, n)
        self.m = nlp.m

    def matrix(self, w: np.ndarray, h_diag: np.ndarray, jac: np.ndarray, delta_c: float) -> sp.csc_matrix:
        import scipy.sparse as sp

        # a block's diagonal and h_diag share slots and sum in list order
        values = np.concatenate([w, h_diag, jac, jac, np.full(self.m, -delta_c)])
        data = np.bincount(self.slot, weights=values, minlength=len(self.indices))
        K = sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape, copy=True)
        K.eliminate_zeros()
        return K


def minimize(prob, start: np.ndarray | Start, cfg: SolverConfig) -> SolveResult:
    """Solve a problem exposing the OcpProblem evaluator surface.

    ``start`` is a full-space point, or a ``Start`` that may also carry
    multipliers; fixed variables are forced to their pinned values, free
    ones are pushed strictly inside their bounds. Carried multipliers are
    scaled into this solve and clipped to the barrier's safeguard; a start
    without them gets least-squares estimates.
    ``lb``/``ub`` and ``rg_lb``/``rg_ub`` must be finite: a non-finite
    bound raises ValueError.
    ``jac_rows``/``jac_cols`` declare the constraint Jacobian's entries,
    each (row, column) pair once. ``constraints_and_jacobian(x)`` returns
    the residuals, the values of those entries in declared order, and a
    ``curvature(obj_weight, lam)`` of that point. ``nonlinear_blocks()``
    gives an (H, k) array of column groups outside which the Lagrangian is
    linear, and the curvature is its (H, k, k) Hessian on them.
    """
    if not isinstance(start, Start):
        start = Start(start)
    x0 = np.asarray(start.x, dtype=float)
    if len(x0) != prob.n:
        raise ValueError(f"start vector has length {len(x0)}, expected {prob.n}")
    lb_full = np.asarray(prob.lb, dtype=float)
    ub_full = np.asarray(prob.ub, dtype=float)
    for bound in (lb_full, ub_full, prob.rg_lb, prob.rg_ub):
        if not np.all(np.isfinite(bound)):
            raise ValueError("every variable and range bound must be finite")
    warm = cfg.initialization == "warm"
    nlp = _ScaledNlp(prob, np.minimum(np.maximum(x0, lb_full), ub_full), cfg.obj_scale,
                     _PUSH_WARM if warm else _PUSH_COLD)
    mu_min = KKT_TOLERANCE / 11.0
    # a warm start sits next to the previous optimum, which converged at
    # mu_min: starting higher only walks the barrier back down
    mu = cfg.mu0 if cfg.mu0 is not None else (mu_min if warm else 0.1)

    z = nlp.z0
    f, g = nlp.objective(z)
    c, jac, feas, curvature = nlp.at_z0
    if start.multipliers is not None:
        y, vl, vu = nlp.duals_in(start.multipliers)
        vl, vu = _dual_safeguard(z, vl, vu, nlp.lz, nlp.uz, mu)
    else:
        vl = mu / np.maximum(z - nlp.lz, 1.0e-12)
        vu = mu / np.maximum(nlp.uz - z, 1.0e-12)
        y = _least_squares_duals(nlp, g, jac, vl, vu)

    # laid out at the first Newton step: a start that is already optimal needs none
    kkt = None
    nu = 1.0
    tau = max(_TAU_MIN, 1.0 - mu)
    log: list[IterationRecord] = []
    status = "max_iterations"
    delta_w = 0.0
    it = 0

    for it in range(1, cfg.max_iterations + 1):
        jty = nlp.jac_t_dot(jac, y)
        gL = g + jty - vl + vu
        kkt_err = _kkt_error(nlp, z, gL, c, y, vl, vu, 0.0)

        if kkt_err <= KKT_TOLERANCE and feas <= FEASIBILITY_TOLERANCE:
            status = "optimal"
            break

        while mu > mu_min and _kkt_error(nlp, z, gL, c, y, vl, vu, mu) <= _KAPPA_EPS * mu:
            mu = max(mu_min, min(_KAPPA_MU * mu, mu**_THETA_MU))
            tau = max(_TAU_MIN, 1.0 - mu)
            nu = 1.0

        # primal-dual Newton direction on the barrier KKT system
        zl = z - nlp.lz
        zu = nlp.uz - z
        sigma = vl / zl + vu / zu
        grad_mu = g - mu / zl + mu / zu

        grad_y = grad_mu + jty
        w = nlp.hessian(curvature, y)
        if kkt is None:
            kkt = _KktLayout(nlp)
        step, kkt_solve, delta_w = _solve_kkt(kkt, w, sigma, jac, np.concatenate([-grad_y, -c]), delta_w)
        if step is None:
            status = "singular_kkt"
            break
        dz, dy = step[: nlp.nz], step[nlp.nz :]

        dvl = mu / zl - vl - vl * dz / zl
        dvu = mu / zu - vu + vu * dz / zu

        alpha_max = _fraction_to_boundary(z, dz, nlp.lz, nlp.uz, tau)
        alpha_vl = _dual_fraction(vl, dvl, tau)
        alpha_vu = _dual_fraction(vu, dvu, tau)

        nu = max(nu, 1.05 * float(np.max(np.abs(y + dy), initial=0.0)) + 0.01)
        merit0 = _merit(f, z, c, mu, nu, nlp)
        dmerit = float(grad_mu @ dz) - nu * float(np.sum(np.abs(c)))

        alpha = alpha_max
        # two allowances keep the endgame from drifting with tiny alphas:
        # float roundoff on the merit itself, and the O(mu) barrier-value
        # wobble of primal-dual steps taken slightly off the central path
        noise = 100.0 * np.finfo(float).eps * max(1.0, abs(merit0)) + 10.0 * mu

        def armijo(z_t, alpha):
            f_t, g_t = nlp.objective(z_t)
            c_t = nlp.constraints(z_t, need_jac=False)[0]
            merit_t = _merit(f_t, z_t, c_t, mu, nu, nlp)
            ok = math.isfinite(merit_t) and merit_t <= merit0 + _ARMIJO_ETA * alpha * dmerit + noise
            return ok, f_t, g_t, c_t, merit_t

        for trial in range(_MAX_BACKTRACKS):
            z_t = z + alpha * dz
            accepted, f_t, g_t, c_t, merit_t = armijo(z_t, alpha)
            if not accepted and trial == 0 and np.sum(np.abs(c_t)) >= np.sum(np.abs(c)):
                # second-order correction: the first trial lost feasibility
                # to the constraints' curvature, so re-solve with the
                # residual it met (same factors) and try that point once
                dz_soc = kkt_solve(np.concatenate([-grad_y, -(alpha * c + c_t)]))[: nlp.nz]
                z_t = z + _fraction_to_boundary(z, dz_soc, nlp.lz, nlp.uz, tau) * dz_soc
                accepted, f_t, g_t, c_t, merit_t = armijo(z_t, alpha)
            if accepted:
                break
            alpha *= 0.5
            if alpha < 1.0e-14:
                break
        # free the factors before the next factorization: holding two sets
        # at once fragments the heap, and peak RSS grows with every solve
        del kkt_solve
        if not accepted:
            status = "line_search_failed"
            break

        z = z_t
        y = y + alpha * dy
        vl = vl + alpha_vl * dvl
        vu = vu + alpha_vu * dvu
        vl, vu = _dual_safeguard(z, vl, vu, nlp.lz, nlp.uz, mu)
        f, g = f_t, g_t
        c, jac, feas_t, curvature = nlp.constraints(z)

        log.append(IterationRecord(it, mu, merit0, merit_t, alpha, kkt_err, feas))
        feas = feas_t

    if status == "max_iterations":
        # the last accepted step moved the iterate past its KKT check
        kkt_err = _kkt_error(nlp, z, g + nlp.jac_t_dot(jac, y) - vl + vu, c, y, vl, vu, 0.0)
    return SolveResult(
        x=nlp.x_full(z),
        kkt_residual=kkt_err,
        feasibility=feas,
        iterations=it,
        status=status,
        multipliers=nlp.duals_out(y, vl, vu),
        log=log,
    )


# helpers ------------------------------------------------------------------

def _push_interior(z, lz, uz, kappa):
    width = uz - lz
    lo = lz + kappa * np.minimum(width, 1.0)
    hi = uz - kappa * np.minimum(width, 1.0)
    return np.minimum(np.maximum(z, lo), hi)


def _kkt_error(nlp, z, gL, c, y, vl, vu, mu):
    """Scaled KKT error of the mu-perturbed conditions: the Lagrangian
    gradient ``gL`` and complementarity over their multiplier-size scalings,
    and the scaled constraint residual ``c``."""
    sd = max(_S_MAX, (np.sum(np.abs(y)) + np.sum(np.abs(vl)) + np.sum(np.abs(vu))) / max(1, len(y) + 2 * nlp.nz)) / _S_MAX
    sc = max(_S_MAX, (np.sum(np.abs(vl)) + np.sum(np.abs(vu))) / max(1, 2 * nlp.nz)) / _S_MAX
    return max(
        float(np.max(np.abs(gL), initial=0.0)) / sd,
        float(np.max(np.abs(c), initial=0.0)),
        _complementarity(z, vl, vu, nlp.lz, nlp.uz, mu) / sc,
    )


def _complementarity(z, vl, vu, lz, uz, mu):
    return max(
        float(np.max(np.abs((z - lz) * vl - mu), initial=0.0)),
        float(np.max(np.abs((uz - z) * vu - mu), initial=0.0)),
    )


def _merit(f, z, c, mu, nu, nlp):
    gap_l = z - nlp.lz
    gap_u = nlp.uz - z
    if np.any(gap_l <= 0.0) or np.any(gap_u <= 0.0):
        return math.inf
    barrier = 0.0
    barrier -= mu * float(np.sum(np.log(gap_l)))
    barrier -= mu * float(np.sum(np.log(gap_u)))
    return f + barrier + nu * float(np.sum(np.abs(c)))


def _fraction_to_boundary(z, dz, lz, uz, tau):
    neg = dz < 0.0
    pos = dz > 0.0
    alpha = min(
        float(np.min(-tau * (z[neg] - lz[neg]) / dz[neg], initial=1.0)),
        float(np.min(tau * (uz[pos] - z[pos]) / dz[pos], initial=1.0)),
    )
    return max(alpha, 0.0)


def _dual_fraction(v, dv, tau):
    neg = dv < 0.0
    return max(float(np.min(-tau * v[neg] / dv[neg], initial=1.0)), 0.0)


def _dual_safeguard(z, vl, vu, lz, uz, mu):
    gap_l = np.maximum(z - lz, 1.0e-12)
    gap_u = np.maximum(uz - z, 1.0e-12)
    vl = np.clip(vl, mu / (_KAPPA_SIGMA * gap_l), _KAPPA_SIGMA * mu / gap_l)
    vu = np.clip(vu, mu / (_KAPPA_SIGMA * gap_u), _KAPPA_SIGMA * mu / gap_u)
    return vl, vu


def _least_squares_duals(nlp, g, jac, vl, vu):
    """Initial multipliers from min ||g + J^T y - vl + vu||; zero when that
    fails or any of them exceeds ``_LS_DUAL_MAX`` in magnitude. J is the
    Jacobian with values ``jac`` on ``nlp``'s pattern."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    m = nlp.m
    J = sp.csr_matrix((jac, nlp.jac_cols, np.searchsorted(nlp.jac_rows, np.arange(m + 1))), shape=(m, nlp.nz))
    rhs = -(J @ (g - vl + vu))
    JJt = (J @ J.T).tocsc() + 1.0e-8 * sp.identity(m, format="csc")
    try:
        y = spla.splu(JJt).solve(rhs)
    except RuntimeError:
        return np.zeros(m)
    if not np.all(np.isfinite(y)) or np.max(np.abs(y), initial=0.0) > _LS_DUAL_MAX:
        return np.zeros(m)
    return y


def _solve_kkt(kkt, w, sigma, jac, rhs, delta_w):
    """Factor and solve the reduced barrier KKT system, regularizing on demand.

    Returns the step, a solve for further right-hand sides with the same
    factors, and the regularization to start the next iteration from.
    ``splu`` is read from its module at each call, so a tracer that
    replaces ``scipy.sparse.linalg.splu`` sees every factorization.
    """
    import scipy.sparse.linalg as spla

    delta_c = 0.0
    for _ in range(12):
        try:
            lu = spla.splu(kkt.matrix(w, sigma + delta_w, jac, delta_c))
            step = lu.solve(rhs)
        except RuntimeError:
            delta_c = max(delta_c * 10.0, 1.0e-10)
            delta_w = max(delta_w * 10.0, 1.0e-8)
            continue
        if np.all(np.isfinite(step)):
            return step, lu.solve, max(delta_w / 3.0, 0.0)
        delta_c = max(delta_c * 10.0, 1.0e-10)
        delta_w = max(delta_w * 10.0, 1.0e-8)
    return None, None, delta_w
