"""Finite-horizon optimal-control problem for one controller solve.

Simultaneous (full discretization) transcription: per-step controls plus
state variables, dynamics as equality constraints. Variables, bounds,
equality residuals, nonlinear range constraints, objective, and exact
first derivatives are all assembled here; the solver module only sees the
generic evaluator surface. Each constraint block is declared once, in
``OcpProblem._row_blocks``: its name, residual and Jacobian terms. Row
names, the residual vector and the Jacobian's CSR layout, fixed in
``build``, are all read from that table.

Strategy differences:

  * high-fidelity (HF_MS, HF_SS): membrane thickness is a state with
    thinning dynamics; membrane cost prices the projected thickness loss.
  * HF_SS additionally pins every real-time market variable to zero.
  * low-fidelity (LF_MS, CO): no thickness state (held at the measured
    value); membrane cost is a flat fee per kmol of hydrogen produced.
  * CO pins current to its constant value and both storage flows to zero;
    the supply-setpoint equality is dropped because the pinned current
    reproduces the setpoint only to 0.014%.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from . import electrolyzer, units
from .params import ControlAction, PlantParams, PlantState

# pinned stack current of the constant-operation benchmark [A]
CO_FIXED_CURRENT_A = 3.526e4

# floor for the membrane-thickness state [um]; replacement is out of scope
EPS_FLOOR_UM = 1.0


class BuildError(ValueError):
    """The requested fixation combination cannot yield a feasible problem."""


class EvalError(FloatingPointError):
    """A problem evaluator hit a non-finite intermediate."""


class StrategyKind(enum.Enum):
    HF_MS = "hf-ms"
    HF_SS = "hf-ss"
    LF_MS = "lf-ms"
    CO = "co"

    @classmethod
    def parse(cls, text: str) -> "StrategyKind":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(
                f"unknown strategy {text!r}; expected one of "
                + ", ".join(k.value for k in cls)
            ) from None

    @property
    def high_fidelity(self) -> bool:
        return self in (StrategyKind.HF_MS, StrategyKind.HF_SS)


@dataclass
class OcpProblem:
    """One controller problem: evaluators plus layout metadata.

    Variable vector layout (field-major):
      p_dam[H] | p_rtm[H] | temp[H] | current[H] | el_plant[H] |
      stor_in[H] | stor_out[H] | stor[H+1] | eps[H+1 when high fidelity]

    Fixed parameters (committed day-ahead quantities, strategy fixations,
    initial states) are encoded as lb == ub.
    """

    strategy: StrategyKind
    horizon: int
    params: PlantParams
    abs_step0: int
    step_in_day0: int
    n: int
    lb: np.ndarray
    ub: np.ndarray
    names: list[str]
    idx: dict[str, np.ndarray]
    eps_const_um: float
    dam_price: np.ndarray
    rtm_price: np.ndarray
    rg_lb: np.ndarray
    rg_ub: np.ndarray
    tie_pairs: np.ndarray  # (k, 2) free-DAM tie (t, t0) step pairs
    # fixed by _fix_layout from the row table
    m_eq: int = 0
    eq_names: list[str] = field(default_factory=list)
    rg_names: list[str] = field(default_factory=list)
    _jac_order: np.ndarray = field(repr=False, default=None)
    _jac_indices: np.ndarray = field(repr=False, default=None)
    _jac_indptr: np.ndarray = field(repr=False, default=None)

    # ------------------------------------------------------------------
    @property
    def high_fidelity(self) -> bool:
        return self.strategy.high_fidelity

    def _stack_columns(self) -> list[np.ndarray]:
        """Columns of the stack-point inputs: temperature, current and
        (high fidelity) the step's entry thickness."""
        cols = [self.idx["temp"], self.idx["current"]]
        if self.high_fidelity:
            cols.append(self.idx["eps"][:-1])
        return cols

    def nonlinear_blocks(self) -> list[np.ndarray]:
        """Per-step variable groups entering the model nonlinearly.

        Only the stack-point inputs appear in nonlinear expressions;
        everything else is linear, which the solver's structured
        quasi-Newton exploits.
        """
        return list(np.column_stack(self._stack_columns()))

    # evaluation --------------------------------------------------------
    def objective_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        self._check_finite(x, "variable")
        p = self.params
        g = np.zeros(self.n)
        g[self.idx["p_dam"]] = units.STEP_HOURS * self.dam_price
        g[self.idx["p_rtm"]] = units.STEP_HOURS * self.rtm_price
        elec = units.STEP_HOURS * (
            float(self.dam_price @ x[self.idx["p_dam"]])
            + float(self.rtm_price @ x[self.idx["p_rtm"]])
        )
        if self.high_fidelity:
            npmem = p.n_stacks * p.membrane_cost_coeff
            eps_idx = self.idx["eps"]
            mem = npmem * (x[eps_idx[0]] - x[eps_idx[-1]])
            g[eps_idx[0]] += npmem
            g[eps_idx[-1]] -= npmem
        else:
            kgen = p.h2_kmol_hr_per_amp
            coeff = p.lf_membrane_coeff * units.STEP_HOURS * kgen
            mem = coeff * float(np.sum(x[self.idx["current"]]))
            g[self.idx["current"]] += coeff
        obj = elec + mem
        if not math.isfinite(obj):
            raise EvalError("objective is not finite")
        return obj, g

    def _row_blocks(self, x: np.ndarray) -> list[tuple[str, np.ndarray, list]]:
        """The constraint rows, declared once: ``(name, residual, terms)`` per block.

        Blocks come in row order, equalities first, then the ``voltage`` and
        ``plant_power`` ranges. Row i of a block has one Jacobian entry per
        term ``(columns, partials)``: at column ``columns[i]``, with value
        ``partials[i]`` (a scalar partial holds for every row). Equality
        residuals vanish when satisfied; range rows hold the raw constraint
        value, to be compared against rg_lb/rg_ub.
        """
        self._check_finite(x, "variable")
        idx, p = self.idx, self.params
        eps_in = x[idx["eps"][:-1]] if self.high_fidelity else np.full(self.horizon, self.eps_const_um)
        ph = electrolyzer.stack_point(x[idx["temp"]], x[idx["current"]], eps_in, p)
        dam, rtm, el_plant = idx["p_dam"], idx["p_rtm"], idx["el_plant"]
        cur, s_in, s_out, stor = idx["current"], idx["stor_in"], idx["stor_out"], idx["stor"]
        stack = self._stack_columns()
        dv_stack = [ph.dv_dT, ph.dv_dI, ph.dv_deps][: len(stack)]
        dp_stack = [ph.dp_dT, ph.dp_dI, ph.dp_deps][: len(stack)]

        blocks = [(
            "mass_split",
            p.h2_kmol_hr_per_amp * x[cur] - x[el_plant] - x[s_in],
            [(cur, p.h2_kmol_hr_per_amp), (el_plant, -1.0), (s_in, -1.0)],
        )]
        if self.strategy is not StrategyKind.CO:
            blocks.append((
                "setpoint", x[el_plant] + x[s_out] - p.h2_setpoint, [(el_plant, 1.0), (s_out, 1.0)],
            ))
        blocks.append((
            "power_balance",
            x[dam] + x[rtm] - ph.p_kw / 1000.0,
            [(dam, 1.0), (rtm, 1.0)] + [(c, -d / 1000.0) for c, d in zip(stack, dp_stack)],
        ))
        blocks.append((
            "storage_dyn",
            x[stor[1:]] - x[stor[:-1]] - units.STEP_HOURS * (x[s_in] - x[s_out]),
            [(stor[1:], 1.0), (stor[:-1], -1.0), (s_in, -units.STEP_HOURS), (s_out, units.STEP_HOURS)],
        ))
        if self.high_fidelity:
            eps = idx["eps"]
            blocks.append((
                "thickness_dyn",
                x[eps[1:]] - x[eps[:-1]] - units.STEP_MINUTES * ph.rate,
                [(eps[1:], 1.0), (eps[:-1], -1.0),
                 (idx["temp"], -units.STEP_MINUTES * ph.drate_dT),
                 (cur, -units.STEP_MINUTES * ph.drate_dI)],
            ))
        tied, anchor = dam[self.tie_pairs[:, 0]], dam[self.tie_pairs[:, 1]]
        blocks.append(("dam_tie", x[tied] - x[anchor], [(tied, 1.0), (anchor, -1.0)]))
        blocks.append(("voltage", ph.v_tot, list(zip(stack, dv_stack))))
        blocks.append(("plant_power", ph.p_kw, list(zip(stack, dp_stack))))
        return blocks

    @staticmethod
    def _stacked_residual(blocks) -> np.ndarray:
        residual = np.concatenate([res for _, res, _ in blocks])
        if not np.all(np.isfinite(residual)):
            bad = int(np.flatnonzero(~np.isfinite(residual))[0])
            raise EvalError(f"constraint residual {bad} is not finite")
        return residual

    def constraints_residual(self, x: np.ndarray) -> np.ndarray:
        """Residual vector only; the cheap path for line-search trials."""
        return self._stacked_residual(self._row_blocks(x))

    def constraints_and_jacobian(self, x: np.ndarray) -> tuple[np.ndarray, sp.csr_matrix]:
        """Residuals and CSR Jacobian, rows as ``_row_blocks`` declares them.

        The Jacobian wraps the canonical layout ``build`` fixed, so every
        point yields the same ``indices`` and ``indptr``.
        """
        blocks = self._row_blocks(x)
        data = np.empty(len(self._jac_order))
        at = 0
        for _, res, terms in blocks:
            for _, partials in terms:
                data[at : at + len(res)] = partials
                at += len(res)
        shape = (len(self._jac_indptr) - 1, self.n)
        jac = sp.csr_matrix((data[self._jac_order], self._jac_indices, self._jac_indptr), shape=shape)
        return self._stacked_residual(blocks), jac

    def _fix_layout(self) -> None:
        """Name the rows and fix the Jacobian's canonical CSR layout.

        One evaluation of the row table at the box midpoint gives every
        entry's (row, column); their (row, column) sort order maps later
        evaluations' partials, laid end to end in table order, onto that
        layout. No entry repeats, so the layout is canonical CSR.
        """
        blocks = self._row_blocks(0.5 * (self.lb + self.ub))
        names: list[str] = []
        rows, cols = [], []
        for name, res, terms in blocks:
            block_rows = np.arange(len(names), len(names) + len(res))
            names.extend(f"{name}[{i}]" for i in range(len(res)))
            for columns, _ in terms:
                rows.append(block_rows)
                cols.append(columns)
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        self._jac_order = np.argsort(rows * self.n + cols, kind="stable")
        # int32, scipy's own choice at this size: it would copy int64 indices at every wrap
        self._jac_indices = cols[self._jac_order].astype(np.int32)
        self._jac_indptr = np.searchsorted(rows[self._jac_order], np.arange(len(names) + 1)).astype(np.int32)
        # every returned Jacobian shares these; they must never change
        self._jac_indices.flags.writeable = self._jac_indptr.flags.writeable = False
        self.m_eq = len(names) - len(self.rg_lb)
        self.eq_names, self.rg_names = names[: self.m_eq], names[self.m_eq :]

    def _check_finite(self, x: np.ndarray, what: str) -> None:
        if len(x) != self.n:
            raise ValueError(f"expected vector of length {self.n}, got {len(x)}")
        if not np.all(np.isfinite(x)):
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise EvalError(f"{what} {self.names[bad]} (index {bad}) is not finite")

    # solution handling -------------------------------------------------
    def extract_actions(self, x: np.ndarray) -> list[ControlAction]:
        idx = self.idx
        return [
            ControlAction(
                p_dam_mw=float(x[idx["p_dam"][t]]),
                p_rtm_mw=float(x[idx["p_rtm"][t]]),
                temperature_k=float(x[idx["temp"][t]]),
                current_a=float(x[idx["current"][t]]),
                h2_el_to_plant_kmolhr=float(x[idx["el_plant"][t]]),
                h2_to_storage_kmolhr=float(x[idx["stor_in"][t]]),
                h2_from_storage_kmolhr=float(x[idx["stor_out"][t]]),
            )
            for t in range(self.horizon)
        ]


@dataclass(frozen=True)
class OcpSolution:
    """Solver output mapped back onto the control layout."""

    actions: list[ControlAction]
    objective: float
    kkt_residual: float
    feasibility: float
    iterations: int
    status: str
    x: np.ndarray

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def build(
    strategy: StrategyKind,
    state: PlantState,
    dam_fixed_mw: Sequence[float | None],
    dam_price: Sequence[float],
    rtm_price: Sequence[float],
    step_in_day0: int,
    p: PlantParams,
    abs_step0: int = 0,
    commitment_storage_margin_kmol: float = 0.0,
) -> OcpProblem:
    """Assemble the controller problem for one solve.

    ``dam_fixed_mw`` holds the committed day-ahead quantity for each step,
    or None where the hour's quantity is a free decision (the 09:00
    next-day block and the day-0 bootstrap). Free steps of one hour are
    tied equal, which is what makes the day-ahead decision hourly.

    ``commitment_storage_margin_kmol`` shrinks the storage box on states
    reached through freely-committed steps. A commitment planned against
    the raw bounds leaves the plant no recourse once the schedule is
    frozen (with real-time trading disabled, committed power fully
    determines production), so closed-loop drift of a fraction of a kmol
    can strand the plant against the storage cap.
    """
    H = len(dam_fixed_mw)
    if H < 1:
        raise BuildError("horizon must cover at least one step")
    if not len(dam_price) == len(rtm_price) == H:
        raise BuildError("price windows must match the horizon length")
    dam_price = np.asarray(dam_price, dtype=float)
    rtm_price = np.asarray(rtm_price, dtype=float)
    state.validate(p)

    hf = strategy.high_fidelity
    sizes = dict.fromkeys(["p_dam", "p_rtm", "temp", "current", "el_plant", "stor_in", "stor_out"], H)
    sizes["stor"] = H + 1
    if hf:
        sizes["eps"] = H + 1
    idx: dict[str, np.ndarray] = {}
    names: list[str] = []
    for f_name, size in sizes.items():
        idx[f_name] = np.arange(len(names), len(names) + size, dtype=np.int64)
        names.extend(f"{f_name}[{t}]" for t in range(size))
    n = len(names)

    pmax_mw = units.kw_to_mw(p.plant_power_max)
    i_lo, i_hi = p.current_bounds()
    lb = np.empty(n)
    ub = np.empty(n)
    lb[idx["p_dam"]], ub[idx["p_dam"]] = 0.0, pmax_mw
    lb[idx["p_rtm"]], ub[idx["p_rtm"]] = -0.9 * pmax_mw, pmax_mw
    lb[idx["temp"]], ub[idx["temp"]] = p.temperature_min, p.temperature_max
    lb[idx["current"]], ub[idx["current"]] = i_lo, i_hi
    for f_name in ("el_plant", "stor_in", "stor_out"):
        lb[idx[f_name]], ub[idx[f_name]] = 0.0, p.h2_gen_max
    lb[idx["stor"]], ub[idx["stor"]] = p.storage_min, p.storage_max
    if commitment_storage_margin_kmol > 0.0:
        margin = commitment_storage_margin_kmol
        for t, v in enumerate(dam_fixed_mw):
            if v is None:
                s = idx["stor"][t + 1]
                lb[s] = p.storage_min + margin
                ub[s] = p.storage_max - margin
    lb[idx["stor"][0]] = ub[idx["stor"][0]] = state.storage_kmol
    if hf:
        lb[idx["eps"]], ub[idx["eps"]] = EPS_FLOOR_UM, p.membrane_thickness_initial
        lb[idx["eps"][0]] = ub[idx["eps"][0]] = state.membrane_um

    # committed day-ahead quantities
    power_floor_mw = 0.1 * pmax_mw
    rtm_disabled = strategy is StrategyKind.HF_SS
    for t, v in enumerate(dam_fixed_mw):
        if v is None:
            continue
        if not 0.0 <= v <= pmax_mw + 1e-9:
            raise BuildError(f"committed DAM at step {t} is {v} MW, outside [0, {pmax_mw}]")
        lb[idx["p_dam"][t]] = ub[idx["p_dam"][t]] = float(v)
        if rtm_disabled and v < power_floor_mw - 1e-9:
            raise BuildError(
                f"committed DAM {v} MW at step {t} is below the {power_floor_mw} MW "
                "plant-power floor with real-time trading disabled"
            )

    if rtm_disabled:
        lb[idx["p_rtm"]] = ub[idx["p_rtm"]] = 0.0
    if strategy is StrategyKind.CO:
        if not i_lo <= CO_FIXED_CURRENT_A <= i_hi:
            raise BuildError("constant-operation current sits outside the current box")
        lb[idx["current"]] = ub[idx["current"]] = CO_FIXED_CURRENT_A
        lb[idx["stor_in"]] = ub[idx["stor_in"]] = 0.0
        lb[idx["stor_out"]] = ub[idx["stor_out"]] = 0.0

    # free-DAM hourly ties: group free steps by absolute hour
    tie_pairs: list[tuple[int, int]] = []
    block_first: dict[int, int] = {}
    for t, v in enumerate(dam_fixed_mw):
        if v is not None:
            continue
        hour = (step_in_day0 + t) // units.STEPS_PER_HOUR
        if hour in block_first:
            tie_pairs.append((t, block_first[hour]))
        else:
            block_first[hour] = t
    for hour, t0 in block_first.items():
        members = [
            t for t in range(H)
            if (step_in_day0 + t) // units.STEPS_PER_HOUR == hour
        ]
        if any(dam_fixed_mw[t] is not None for t in members):
            raise BuildError(f"hour block {hour} mixes committed and free DAM steps")
    tie_arr = np.asarray(tie_pairs, dtype=np.int64).reshape(-1, 2)

    rg_lb = np.concatenate([np.full(H, p.voltage_min), np.full(H, 0.1 * p.plant_power_max)])
    rg_ub = np.concatenate([np.full(H, p.voltage_max), np.full(H, p.plant_power_max)])

    prob = OcpProblem(
        strategy=strategy,
        horizon=H,
        params=p,
        abs_step0=abs_step0,
        step_in_day0=step_in_day0,
        n=n,
        lb=lb,
        ub=ub,
        names=names,
        idx=idx,
        eps_const_um=state.membrane_um,
        dam_price=dam_price,
        rtm_price=rtm_price,
        rg_lb=rg_lb,
        rg_ub=rg_ub,
        tie_pairs=tie_arr,
    )
    prob._fix_layout()
    return prob


def cold_start(prob: OcpProblem) -> np.ndarray:
    """Bound midpoints for controls, propagated current state for states."""
    x = 0.5 * (prob.lb + prob.ub)
    idx = prob.idx
    H = prob.horizon
    x[idx["stor"][0]] = prob.lb[idx["stor"][0]]
    net = units.STEP_HOURS * (x[idx["stor_in"]] - x[idx["stor_out"]])
    x[idx["stor"][1:]] = x[idx["stor"][0]] + np.cumsum(net)
    x[idx["stor"]] = np.clip(x[idx["stor"]], prob.lb[idx["stor"]], prob.ub[idx["stor"]])
    if prob.high_fidelity:
        eps0 = prob.lb[idx["eps"][0]]
        rate = electrolyzer.degradation_rate(
            x[idx["temp"]], x[idx["current"]] / prob.params.membrane_area_cm2
        )
        x[idx["eps"][0]] = eps0
        x[idx["eps"][1:]] = eps0 + np.cumsum(units.STEP_MINUTES * np.atleast_1d(rate))
        x[idx["eps"]] = np.clip(x[idx["eps"]], prob.lb[idx["eps"]], prob.ub[idx["eps"]])
    return x


def warm_start_from(prob: OcpProblem, prev: OcpProblem, x_prev: np.ndarray) -> np.ndarray:
    """Shift the previous solution onto a new horizon by absolute step.

    Steps the previous solve did not cover keep the cold-start value.
    """
    x = cold_start(prob)
    shift = prob.abs_step0 - prev.abs_step0
    for f_name, new in prob.idx.items():
        if f_name in prev.idx:
            old = prev.idx[f_name]
            lo = max(0, -shift)
            hi = max(lo, min(len(new), len(old) - shift))
            x[new[lo:hi]] = x_prev[old[lo + shift : hi + shift]]
    # fixed entries always win
    fixed = prob.ub - prob.lb <= 0.0
    x[fixed] = prob.lb[fixed]
    return x
