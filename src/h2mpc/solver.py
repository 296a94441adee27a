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
nonlinear, as the curvature each Jacobian evaluation returns; as in IPOPT,
it is formed only for a Newton step, never at a trial point or at the
iterate that ends the solve. Each scaled block is projected onto
eigenvalues at or above a floor, the convexification acados applies to
stage Hessians, so the curvature stays positive definite: 2x2 blocks in
closed form, larger ones by LAPACK's symmetric eigensolver.

As in IPOPT's NLP interface, the problem declares its Jacobian's (row,
column) entries once and its evaluations return only their values. Each
solve keeps that order, range slacks' entries last, as its scaled
Jacobian's pattern and keeps the Jacobian as values on it.

Each Newton step goes through the Schur complement of the barrier
Hessian, as MPC-tailored interior-point methods do (Rao, Wright and
Rawlings 1998; HPIPM): H is block diagonal and positive definite, so it is
inverted block by block, a 2x2 or 3x3 block in closed form (adjugate over
determinant, all blocks at once), and the multiplier step solves the banded
S = J H^-1 J^T + delta_c I by LAPACK's banded Cholesky (``dpbtrf`` and
``dpbtrs``), with one step of iterative refinement against the whole KKT
system, as in IPOPT. The least-squares multiplier estimate uses the same
kernel with H = I.

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

scipy's LAPACK wrappers are imported at the first factorization, so
importing the package for log analysis loads no solver dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


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
# smallest share of its diagonal entry a pivot of the Schur complement keeps
_PIVOT_FLOOR = 100.0 * np.finfo(float).eps
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
    this solve's pattern, ``jac_rows``/``jac_cols``: the entries the problem
    declares in its free columns, in its order, then the -ds slack block.
    Every evaluation only computes new values.
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

        # declared free-column entries, then the -ds slack block (values read an appended 1)
        slack = np.arange(self.m_rg)
        self.jac_src = np.concatenate([src, np.full(self.m_rg, len(vals0))])
        self.jac_rows = np.concatenate([rows[src], self.m_eq + slack])
        self.jac_cols = np.concatenate([cols[src], self.n_free + slack])
        self.jac_scale = self.row_scale[self.jac_rows] * np.concatenate([col_scale, -self.ds])

        # nonlinear blocks in reduced coordinates: each column's scale, zero
        # where the column is fixed (which zeroes its row and column of the
        # scaled block), and its reduced index, -1 where fixed
        self.blk = pos[np.asarray(prob.nonlinear_blocks(), dtype=np.int64)]
        free_blk = self.blk >= 0
        self.blk_dx = np.zeros(self.blk.shape)
        self.blk_dx[free_blk] = self.dx[self.blk[free_blk]]
        self.blk_kept = free_blk[:, :, None] & free_blk[:, None, :]

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
        pattern; each column sums in its declared, ascending row order."""
        return np.bincount(self.jac_cols, jac * y[self.jac_rows], minlength=self.nz)

    def hessian(self, curvature, y: np.ndarray) -> np.ndarray:
        """Projected curvature of the scaled Lagrangian with multipliers y,
        from an evaluation's ``curvature``: one (k, k) block per row of
        ``blk``, zero in the rows and columns of fixed variables."""
        hx = curvature(self.obj_scale, y * self.row_scale)
        hz = self.blk_dx[:, :, None] * hx * self.blk_dx[:, None, :]
        return np.where(self.blk_kept, _project_blocks(hz), 0.0)

    def _scaled_jacobian(self, values: np.ndarray) -> np.ndarray:
        return self.jac_scale * np.append(values, 1.0)[self.jac_src]

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
    to at least ``_EIG_FLOOR``; blocks already there come back unchanged.
    2x2 blocks take the closed form, larger ones LAPACK's ``eigh``."""
    if h.shape[1] != 2:
        w, v = np.linalg.eigh(h)
        proj = (v * np.maximum(w, _EIG_FLOOR)[:, None, :]) @ v.transpose(0, 2, 1)
        proj = 0.5 * (proj + proj.transpose(0, 2, 1))
        return np.where((w[:, 0] >= _EIG_FLOOR)[:, None, None], h, proj)
    a, b, c = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
    mid, half = 0.5 * (a + c), 0.5 * np.hypot(a - c, 2.0 * b)
    # the eigenvalue of larger magnitude, then the other as det / it, which
    # keeps a nearly singular block's small eigenvalue accurate (as LAPACK's dlaev2)
    big = mid + np.copysign(half, mid)
    safe = np.where(big == 0.0, 1.0, big)
    small = (a / safe) * c - (b / safe) * b
    lo = np.minimum(big, small)
    w_lo, w_hi = np.maximum(lo, _EIG_FLOOR), np.maximum(np.maximum(big, small), _EIG_FLOOR)
    # V diag(w_lo, w_hi) V^T = s I + t N, with N = (h - mid I) / half of eigenvalues -1 and 1
    s, t = 0.5 * (w_lo + w_hi), 0.5 * (w_hi - w_lo) / np.where(half == 0.0, 1.0, half)
    proj = np.empty_like(h)
    proj[:, 0, 0] = s + t * (a - mid)
    proj[:, 1, 1] = s + t * (c - mid)
    proj[:, 0, 1] = proj[:, 1, 0] = t * b
    return np.where((lo >= _EIG_FLOOR)[:, None, None], h, proj)


def _inverse_blocks(h: np.ndarray) -> np.ndarray:
    """The inverses of an (H, k, k) stack of symmetric positive definite
    blocks: adjugate over determinant for k = 2 and 3, LAPACK beyond."""
    k = h.shape[1]
    if k not in (2, 3):
        return np.linalg.inv(h)
    inv = np.empty_like(h)
    if k == 2:
        a, b, d = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
        r = 1.0 / (a * d - b * b)
        inv[:, 0, 0], inv[:, 1, 1] = d * r, a * r
        inv[:, 0, 1] = inv[:, 1, 0] = -b * r
        return inv
    a, b, c, d, e, f = h[:, 0, 0], h[:, 0, 1], h[:, 0, 2], h[:, 1, 1], h[:, 1, 2], h[:, 2, 2]
    c00, c01, c02 = d * f - e * e, c * e - b * f, b * e - c * d
    r = 1.0 / (a * c00 + b * c01 + c * c02)
    inv[:, 0, 0], inv[:, 1, 1], inv[:, 2, 2] = c00 * r, (a * f - c * c) * r, (a * d - b * b) * r
    inv[:, 0, 1] = inv[:, 1, 0] = c01 * r
    inv[:, 0, 2] = inv[:, 2, 0] = c02 * r
    inv[:, 1, 2] = inv[:, 2, 1] = (b * c - a * e) * r
    return inv


class _SchurKkt:
    """The barrier KKT system [[H, J^T], [J, -delta_c I]] of a ``_ScaledNlp``,
    solved through the Schur complement S = J H^-1 J^T + delta_c I.

    H = W + diag(h) is block diagonal: the curvature blocks W on the rows of
    ``blk``, and h alone on every other column. With h positive, as the
    barrier's is, H is positive definite, and so is S when J has full row
    rank or delta_c is positive. H is inverted block by block
    (``_inverse_blocks``) and S factored by LAPACK's banded Cholesky.

    The plan, laid out once per solve: an order of the rows that keeps S's
    band narrow (``_band_order``), and the band slot of every term of S on
    or below its diagonal. A block adds its local Jacobian (the rows that
    reach it, by rank) times its inverse times that transposed, one batched
    product for all blocks; a column outside the blocks adds the products
    of its entries over h, pair by pair.
    """

    def __init__(self, nlp: _ScaledNlp):
        self.nz, self.m = nz, m = nlp.nz, nlp.m
        self.rows, self.cols = rows, cols = nlp.jac_rows, nlp.jac_cols
        nb, k = nlp.blk.shape
        kept = nlp.blk >= 0
        # index nz stands in for a block's fixed columns
        self.blk = np.where(kept, nlp.blk, nz)
        self.order = _band_order(rows, cols, self.blk, m, nz)
        rank = np.empty(m, dtype=np.intp)
        rank[self.order] = np.arange(m)

        # each column's group, its block or else nb + the column, and its
        # place in the block; the entries by (group, rank), blocks first
        group = nb + np.arange(nz + 1)
        local = np.zeros(nz + 1, dtype=np.intp)
        b_of, a_of = np.nonzero(kept)
        group[self.blk[kept]], local[self.blk[kept]] = b_of, a_of
        g, r = group[cols], rank[rows]
        e = np.argsort(g * m + r)
        g, r = g[e], r[e]
        split = np.searchsorted(g, nb)

        # the blocks: each entry's place in the (nb, R, k) local Jacobians
        # (index len(cols) reads a zero), and the (i, j) products with
        # rank i >= rank j
        g_b, r_b, e_b = g[:split], r[:split], e[:split]
        new_row = np.diff(g_b * m + r_b, prepend=-1) != 0
        row_id = np.cumsum(new_row) - 1
        row_at = row_id - np.maximum.accumulate(np.where(np.diff(g_b, prepend=-1) != 0, row_id, 0))
        self.R = R = int(np.max(row_at, initial=-1)) + 1
        self.jb_at = np.full(nb * R * k, len(cols))
        self.jb_at[(g_b * R + row_at) * k + local[cols[e_b]]] = e_b
        block_rank = np.full((nb, R), -1)
        block_rank[g_b[new_row], row_at[new_row]] = r_b[new_row]
        rank_i, rank_j = np.broadcast_arrays(block_rank[:, :, None], block_rank[:, None, :])
        lower = (rank_i >= rank_j) & (rank_j >= 0)
        self.sb_keep = np.flatnonzero(lower)

        # the other columns: each entry paired with itself and the entries of
        # its column before it
        g_d, r_d, e_d = g[split:], r[split:], e[split:]
        at = np.arange(len(g_d))
        start = np.maximum.accumulate(np.where(np.diff(g_d, prepend=-1) != 0, at, 0))
        span = at - start + 1
        first = np.repeat(at, span)
        second = np.arange(len(first)) - np.repeat(np.cumsum(span) - span - start, span)
        self.d1, self.d2, self.d_col = e_d[first], e_d[second], g_d[first] - nb

        rank_i = np.concatenate([rank_i[lower], r_d[first]])
        rank_j = np.concatenate([rank_j[lower], r_d[second]])
        self.bw = int(np.max(rank_i - rank_j, initial=0))
        self.slot = (rank_i - rank_j) * m + rank_j

    def blocks(self, w: np.ndarray, h: np.ndarray) -> np.ndarray:
        """H's blocks: the curvature ``w`` with the diagonal ``h`` added, and
        1 on the diagonal at a block's fixed columns."""
        diag = np.arange(self.blk.shape[1])
        hb = w.copy()
        hb[:, diag, diag] += np.append(h, 1.0)[self.blk]
        return hb

    def band(self, hb_inv: np.ndarray, h_inv: np.ndarray, jac: np.ndarray, delta_c: float) -> np.ndarray:
        """S in LAPACK's lower band storage, rows and columns in ``order``:
        S[i, j] at [i - j, j]. H^-1 is given as the block inverses ``hb_inv``
        and the inverse diagonal ``h_inv``, J as the values ``jac``."""
        nb, k, _ = hb_inv.shape
        jb = np.append(jac, 0.0)[self.jb_at].reshape(nb, self.R, k)
        sb = jb @ hb_inv @ jb.transpose(0, 2, 1)
        vals = np.concatenate([sb.ravel()[self.sb_keep], jac[self.d1] * h_inv[self.d_col] * jac[self.d2]])
        band = np.bincount(self.slot, vals, minlength=(self.bw + 1) * self.m).reshape(self.bw + 1, self.m)
        band[0] += delta_c
        return band

    def factor(self, w: np.ndarray, h: np.ndarray, jac: np.ndarray, delta_c: float):
        """A solve of the system with curvature blocks ``w``, diagonal ``h`` and
        Jacobian values ``jac``, refined once against the whole system.
        Raises LinAlgError when S is not numerically positive definite."""
        from scipy.linalg.lapack import dpbtrf, dpbtrs

        nz, m, rows, cols, blk = self.nz, self.m, self.rows, self.cols, self.blk
        hb = self.blocks(w, h)
        hb_inv = _inverse_blocks(hb)
        h_inv = 1.0 / h
        if m:
            band = self.band(hb_inv, h_inv, jac, delta_c)
            chol, info = dpbtrf(band, lower=1)
            # a pivot left with a few ulps of its diagonal entry is roundoff:
            # its row depends on the rows before it
            if info or np.any(chol[0] ** 2 <= _PIVOT_FLOOR * band[0]):
                raise np.linalg.LinAlgError("Schur complement is numerically singular")

        # a block's fixed columns read the zero past v's end, and their
        # products land past the end of the result
        v_pad = np.zeros(nz + 1)

        def apply(blocks, d, v):
            """The block diagonal matrix of ``blocks``, ``d`` off the blocks, times v."""
            v_pad[:nz] = v
            out = np.empty(nz + 1)
            out[:nz] = d * v
            out[blk] = (blocks @ v_pad[blk][:, :, None])[:, :, 0]
            return out[:nz]

        def once(r1, r2):
            """(dz, dy) and J^T dy: dy from S dy = J H^-1 r1 - r2, then
            dz = H^-1 (r1 - J^T dy)."""
            t = apply(hb_inv, h_inv, r1)
            dy = np.empty(m)
            if m:
                rhs = np.bincount(rows, jac * t[cols], minlength=m) - r2
                dy[self.order] = dpbtrs(chol, rhs[self.order], lower=1)[0]
            jt_dy = np.bincount(cols, jac * dy[rows], minlength=nz)
            return apply(hb_inv, h_inv, r1 - jt_dy), dy, jt_dy

        def solve(rhs: np.ndarray) -> np.ndarray:
            r1, r2 = rhs[:nz], rhs[nz:]
            dz, dy, jt_dy = once(r1, r2)
            # one step of iterative refinement on the residual of the full system
            ky = np.bincount(rows, jac * dz[cols], minlength=m) - delta_c * dy
            ez, ey, _ = once(r1 - apply(hb, h, dz) - jt_dy, r2 - ky)
            return np.concatenate([dz + ez, dy + ey])

        return solve


def _band_order(rows, cols, blk, m, nz) -> np.ndarray:
    """An order of the constraint rows that keeps S narrow.

    A block's columns stand at the block's index; a row stands at the mean
    of its placed columns, and a column outside the blocks at the mean of its
    placed rows. Sweeps place rows, then columns, until no row is newly
    placed. Rows sort by where they stand, ties and the never-placed rows
    (they reach no block) in row order, the latter last.
    """
    col_at = np.full(nz + 1, np.nan)
    col_at[blk] = np.arange(len(blk))[:, None]
    col_at[nz] = np.nan
    row_at = np.full(m, np.nan)
    while True:
        placed = ~np.isnan(col_at[cols])
        count = np.bincount(rows[placed], minlength=m)
        new = (count > 0) & np.isnan(row_at)
        row_at[new] = np.bincount(rows[placed], col_at[cols[placed]], minlength=m)[new] / count[new]
        if not new.any() or not np.isnan(row_at).any():
            return np.argsort(row_at, kind="stable")
        placed = ~np.isnan(row_at[rows])
        count = np.bincount(cols[placed], minlength=nz + 1)
        new = (count > 0) & np.isnan(col_at)
        col_at[new] = np.bincount(cols[placed], row_at[rows[placed]], minlength=nz + 1)[new] / count[new]


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
    gives an (H, k) array of disjoint column groups outside which the
    Lagrangian is linear, and the curvature is its (H, k, k) Hessian on them.
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
    # laid out at its first use: a start that is already optimal needs none
    kkt = None
    if start.multipliers is not None:
        y, vl, vu = nlp.duals_in(start.multipliers)
        vl, vu = _dual_safeguard(z, vl, vu, nlp.lz, nlp.uz, mu)
    else:
        vl = mu / np.maximum(z - nlp.lz, 1.0e-12)
        vu = mu / np.maximum(nlp.uz - z, 1.0e-12)
        kkt = _SchurKkt(nlp)
        y = _least_squares_duals(kkt, g, jac, vl, vu)
    nu = 1.0
    tau = max(_TAU_MIN, 1.0 - mu)
    log: list[IterationRecord] = []
    status = "max_iterations"
    delta_w = 0.0
    it = 0

    for it in range(1, cfg.max_iterations + 1):
        jty = nlp.jac_t_dot(jac, y)
        gL = g + jty - vl + vu
        kkt_error_at = _kkt_error(nlp, z, gL, c, y, vl, vu)
        kkt_err = kkt_error_at(0.0)

        if kkt_err <= KKT_TOLERANCE and feas <= FEASIBILITY_TOLERANCE:
            status = "optimal"
            break

        while mu > mu_min and kkt_error_at(mu) <= _KAPPA_EPS * mu:
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
            kkt = _SchurKkt(nlp)
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
        kkt_err = _kkt_error(nlp, z, g + nlp.jac_t_dot(jac, y) - vl + vu, c, y, vl, vu)(0.0)
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


def _kkt_error(nlp, z, gL, c, y, vl, vu):
    """The scaled KKT error of the mu-perturbed conditions as a function of
    mu: the Lagrangian gradient ``gL`` and complementarity over their
    multiplier-size scalings, and the scaled constraint residual ``c``.
    Everything but mu's share of the complementarity is computed once."""
    sum_vl, sum_vu = np.abs(vl).sum(), np.abs(vu).sum()
    sd = max(_S_MAX, (np.abs(y).sum() + sum_vl + sum_vu) / max(1, len(y) + 2 * nlp.nz)) / _S_MAX
    sc = max(_S_MAX, (sum_vl + sum_vu) / max(1, 2 * nlp.nz)) / _S_MAX
    stationarity = float(np.max(np.abs(gL), initial=0.0)) / sd
    residual = float(np.max(np.abs(c), initial=0.0))
    comp_l, comp_u = (z - nlp.lz) * vl, (nlp.uz - z) * vu

    def at(mu: float) -> float:
        comp = max(float(np.max(np.abs(comp_l - mu), initial=0.0)), float(np.max(np.abs(comp_u - mu), initial=0.0)))
        return max(stationarity, residual, comp / sc)

    return at


def _merit(f, z, c, mu, nu, nlp):
    gap_l = z - nlp.lz
    gap_u = nlp.uz - z
    if (gap_l <= 0.0).any() or (gap_u <= 0.0).any():
        return math.inf
    barrier = 0.0
    barrier -= mu * float(np.log(gap_l).sum())
    barrier -= mu * float(np.log(gap_u).sum())
    return f + barrier + nu * float(np.abs(c).sum())


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


def _least_squares_duals(kkt, g, jac, vl, vu):
    """Initial multipliers from min ||g + J^T y - vl + vu||; zero when that
    fails or any of them exceeds ``_LS_DUAL_MAX`` in magnitude. J is the
    Jacobian with values ``jac`` on the pattern of ``kkt``. With H = I the
    KKT system's multiplier part is (J J^T + 1e-8 I) y = -J (g - vl + vu)."""
    nb, k = kkt.blk.shape
    try:
        solve = kkt.factor(np.zeros((nb, k, k)), np.ones(kkt.nz), jac, 1.0e-8)
    except np.linalg.LinAlgError:
        return np.zeros(kkt.m)
    y = solve(np.concatenate([vl - vu - g, np.zeros(kkt.m)]))[kkt.nz :]
    if not np.all(np.isfinite(y)) or np.max(np.abs(y), initial=0.0) > _LS_DUAL_MAX:
        return np.zeros(kkt.m)
    return y


def _solve_kkt(kkt, w, sigma, jac, rhs, delta_w):
    """Factor and solve the reduced barrier KKT system, regularizing on demand.

    Returns the step, a solve for further right-hand sides with the same
    factors, and the regularization to start the next iteration from. A
    factorization that fails, or a step that is not finite, raises delta_c
    and delta_w and tries again, at most 12 times.
    """
    delta_c = 0.0
    for _ in range(12):
        try:
            solve = kkt.factor(w, sigma + delta_w, jac, delta_c)
            step = solve(rhs)
        except np.linalg.LinAlgError:
            delta_c = max(delta_c * 10.0, 1.0e-10)
            delta_w = max(delta_w * 10.0, 1.0e-8)
            continue
        if np.all(np.isfinite(step)):
            return step, solve, max(delta_w / 3.0, 0.0)
        delta_c = max(delta_c * 10.0, 1.0e-10)
        delta_w = max(delta_w * 10.0, 1.0e-8)
    return None, None, delta_w
