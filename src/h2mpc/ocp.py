"""Finite-horizon optimal-control problem for one controller solve.

Simultaneous (full discretization) transcription: per-step controls (the
day-ahead purchase per hour, as that market clears) plus state variables,
dynamics as equality constraints. Variables, bounds,
equality residuals, nonlinear range constraints, objective, exact first
derivatives and the Lagrangian's second derivatives are all assembled
here; the solver module only sees the generic evaluator surface. Each
constraint block is declared once, in ``OcpProblem._row_blocks``: its
name, residual and Jacobian terms. Each block's row slice, the residual
vector and the Jacobian's (row, column) entries, declared in ``build``,
are all read from that table; variable names derive from the layout on
demand. The problem lays out no sparse matrix: an evaluation
returns the Jacobian's values in the declared order, and the solver owns
every matrix built from them. No evaluation writes to the problem.

Strategy differences:

  * high-fidelity (HF_MS, HF_SS): membrane thickness is a state with
    thinning dynamics; membrane cost prices the projected thickness loss
    at the simulator's price, ``PlantParams.membrane_cost_per_um``.
  * HF_SS additionally pins every real-time market variable to zero.
  * low-fidelity (LF_MS, CO): no thickness state (held at the measured
    value); membrane cost is a flat fee per kmol of hydrogen produced.
  * CO pins current to its constant value and both storage flows to zero;
    the supply-setpoint equality is dropped because the pinned current
    reproduces the setpoint only to 0.014%.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Sequence

import numpy as np

from . import electrolyzer, units
from .market import step_in_day
from .params import ControlAction, PlantParams, PlantState
from .solver import Multipliers, SolveResult, Start

# pinned stack current of the constant-operation benchmark [A]
CO_FIXED_CURRENT_A = 3.526e4

# floor for the membrane-thickness state [um]; replacement is out of scope
EPS_FLOOR_UM = 1.0

# recourse headroom kept against the storage box on the states that free
# day-ahead steps reach (0.5% of capacity). A commitment planned against
# the raw bounds leaves the plant no recourse once the schedule is frozen
# (with real-time trading disabled, committed power fully determines
# production), so closed-loop drift of a fraction of a kmol can strand the
# plant against the storage cap.
COMMITMENT_STORAGE_MARGIN_KMOL = 35.0


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

    Variable vector layout (field-major), over the horizon's H steps and
    the hours they touch:
      p_dam[hours] | p_rtm[H] | temp[H] | current[H] | el_plant[H] |
      stor_in[H] | stor_out[H] | stor[H+1] | eps[H+1 when high fidelity]

    The day-ahead market clears hourly, so ``p_dam`` holds one quantity per
    hour and step t draws ``p_dam[dam_hour[t]]``. Fixed parameters
    (committed day-ahead quantities, strategy fixations, initial states)
    are encoded as lb == ub.
    """

    strategy: StrategyKind
    horizon: int
    params: PlantParams
    start_time: datetime  # when the horizon's first step opens: the state's clock
    n: int
    lb: np.ndarray
    ub: np.ndarray
    idx: dict[str, np.ndarray]
    eps_const_um: float
    dam_price: np.ndarray
    rtm_price: np.ndarray
    rg_lb: np.ndarray
    rg_ub: np.ndarray
    dam_hour: np.ndarray  # (H,) each step's hour: its entry of p_dam
    # fixed by _fix_layout from the row table
    m_eq: int = 0
    _rows: dict[str, slice] = field(repr=False, default_factory=dict)
    # the Jacobian's (row, column) entries, in the order its values come
    jac_rows: np.ndarray = field(repr=False, default=None)
    jac_cols: np.ndarray = field(repr=False, default=None)
    # the Jacobian's constant values, zero where the plant model's partials
    # go, and per such term its (block, term) in the row table and its slice
    _jac_template: np.ndarray = field(repr=False, default=None)
    _jac_model: list[tuple[int, int, slice]] = field(repr=False, default_factory=list)

    # ------------------------------------------------------------------
    @property
    def high_fidelity(self) -> bool:
        return self.strategy.high_fidelity

    # variable names, ``field[t]``, derived from the layout at first use
    @functools.cached_property
    def names(self) -> list[str]:
        return [f"{f_name}[{t}]" for f_name, cols in self.idx.items() for t in range(len(cols))]

    def _stack_columns(self) -> list[np.ndarray]:
        """Columns of the stack-point inputs: temperature, current and
        (high fidelity) the step's entry thickness."""
        cols = [self.idx["temp"], self.idx["current"]]
        if self.high_fidelity:
            cols.append(self.idx["eps"][:-1])
        return cols

    def nonlinear_blocks(self) -> np.ndarray:
        """Per-step variable groups entering the model nonlinearly, (H, k).

        Only the stack-point inputs appear in nonlinear expressions, so the
        Lagrangian Hessian is block diagonal on these groups (the curvature
        ``constraints_and_jacobian`` returns) and zero everywhere else.
        """
        return np.column_stack(self._stack_columns())

    def _stack_point(self, x: np.ndarray, partials: bool) -> electrolyzer.StackPoint:
        idx = self.idx
        eps_in = x[idx["eps"][:-1]] if self.high_fidelity else np.full(self.horizon, self.eps_const_um)
        return electrolyzer.stack_point(x[idx["temp"]], x[idx["current"]], eps_in, self.params, partials)

    # evaluation --------------------------------------------------------
    def objective_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        self._check_finite(x, "variable")
        p = self.params
        dam = self.idx["p_dam"]
        g = np.zeros(self.n)
        g[dam] = units.STEP_HOURS * np.bincount(self.dam_hour, self.dam_price, len(dam))
        g[self.idx["p_rtm"]] = units.STEP_HOURS * self.rtm_price
        elec = units.STEP_HOURS * (
            float(self.dam_price @ x[dam[self.dam_hour]])
            + float(self.rtm_price @ x[self.idx["p_rtm"]])
        )
        if self.high_fidelity:
            per_um, eps_idx = p.membrane_cost_per_um, self.idx["eps"]
            mem = per_um * (x[eps_idx[0]] - x[eps_idx[-1]])
            g[eps_idx[0]] += per_um
            g[eps_idx[-1]] -= per_um
        else:
            kgen = p.h2_kmol_hr_per_amp
            coeff = p.lf_membrane_coeff * units.STEP_HOURS * kgen
            mem = coeff * float(np.sum(x[self.idx["current"]]))
            g[self.idx["current"]] += coeff
        obj = elec + mem
        if not math.isfinite(obj):
            raise EvalError("objective is not finite")
        return obj, g

    def _row_blocks(self, x: np.ndarray, jac: bool = True,
                    ph: electrolyzer.StackPoint | None = None) -> tuple[list, electrolyzer.StackPoint]:
        """The constraint rows, declared once: ``(name, residual, terms)`` per
        block, and the plant model they were evaluated with, ``ph`` when
        given.

        Blocks come in row order, equalities first, then the ``voltage`` and
        ``plant_power`` ranges. Row i of a block has one Jacobian entry per
        term ``(columns, partials)``: at column ``columns[i]``, with value
        ``partials[i]`` (a scalar partial holds for every row). Equality
        residuals vanish when satisfied; range rows hold the raw constraint
        value, to be compared against rg_lb/rg_ub. Without ``jac`` the plant
        model is evaluated for values only and the terms through it are
        left out, so only the residuals are complete. With ``jac`` it is
        evaluated with its first and second partials, for the curvature.
        """
        self._check_finite(x, "variable")
        idx, p = self.idx, self.params
        if ph is None:
            ph = self._stack_point(x, partials=jac)
        dam, rtm, el_plant = idx["p_dam"][self.dam_hour], idx["p_rtm"], idx["el_plant"]
        cur, s_in, s_out, stor = idx["current"], idx["stor_in"], idx["stor_out"], idx["stor"]
        stack = self._stack_columns()
        # partials on the stack-point inputs, in (T, I, eps) order; zip
        # stops at the shorter of these and ``stack``
        dv, dp, drate = (ph.dv, ph.dp, ph.drate) if jac else ((), (), ())

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
            [(dam, 1.0), (rtm, 1.0)] + [(c, -d / 1000.0) for c, d in zip(stack, dp)],
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
                [(eps[1:], 1.0), (eps[:-1], -1.0)]
                + [(c, -units.STEP_MINUTES * d) for c, d in zip(stack, drate)],
            ))
        blocks.append(("voltage", ph.v_tot, list(zip(stack, dv))))
        blocks.append(("plant_power", ph.p_kw, list(zip(stack, dp))))
        return blocks, ph

    @staticmethod
    def _stacked_residual(blocks) -> np.ndarray:
        residual = np.concatenate([res for _, res, _ in blocks])
        if not np.all(np.isfinite(residual)):
            bad = int(np.flatnonzero(~np.isfinite(residual))[0])
            raise EvalError(f"constraint residual {bad} is not finite")
        return residual

    def constraints_residual(self, x: np.ndarray) -> np.ndarray:
        """Residual vector only; the cheap path for line-search trials."""
        return self._stacked_residual(self._row_blocks(x, jac=False)[0])

    def constraints_and_jacobian(self, x: np.ndarray):
        """Residuals, Jacobian values in ``jac_rows``/``jac_cols`` order, and
        ``curvature(obj_weight, lam)``: the Hessian of obj_weight * f + lam' c
        at ``x`` on each ``nonlinear_blocks`` group, (H, k, k).

        ``lam`` holds one multiplier per constraint row, in row order. The
        objective is linear, so ``obj_weight`` adds nothing; the curvature is
        the plant model's, at this evaluation, weighted by the multipliers of
        the rows that evaluate it, assembled only when called.
        The Jacobian's constant values come from the template ``build``
        writes; only the plant model's partials are written per evaluation.
        """
        blocks, ph = self._row_blocks(x)
        values = self._jac_template.copy()
        for b, t, at in self._jac_model:
            values[at] = blocks[b][2][t][1]
        rows, k, hf = self._rows, len(self._stack_columns()), self.high_fidelity

        def curvature(obj_weight: float, lam: np.ndarray) -> np.ndarray:
            power = lam[rows["plant_power"]] - lam[rows["power_balance"]] / 1000.0
            thin = -units.STEP_MINUTES * lam[rows["thickness_dyn"]] if hf else None
            return ph.hessian(lam[rows["voltage"]], power, thin, k)

        return self._stacked_residual(blocks), values, curvature

    def _fix_layout(self) -> None:
        """Name the rows, record each block's row slice, declare the
        Jacobian's entries and write its constant values into a template.

        The row table read with a stack point of zeros in place of the plant
        model gives every entry's (row, column), in table order: the order
        in which ``constraints_and_jacobian`` returns their values. No entry
        repeats. A scalar partial is a constant and goes into the template;
        the partials through the plant model, arrays, are left for each
        evaluation to write.
        """
        zero = np.zeros(self.horizon)
        unevaluated = electrolyzer.StackPoint(*[zero] * 6, dv=(zero,) * 3, dp=(zero,) * 3, drate=(zero,) * 2)
        blocks, _ = self._row_blocks(np.zeros(self.n), ph=unevaluated)
        m = at = 0
        rows, cols, constants, lengths, self._jac_model = [], [], [], [], []
        for b, (name, res, terms) in enumerate(blocks):
            self._rows[name] = slice(m, m + len(res))
            block_rows = np.arange(m, m + len(res))
            m += len(res)
            for t, (columns, partials) in enumerate(terms):
                rows.append(block_rows)
                cols.append(columns)
                model = isinstance(partials, np.ndarray)
                constants.append(0.0 if model else partials)
                lengths.append(len(res))
                if model:
                    self._jac_model.append((b, t, slice(at, at + len(res))))
                at += len(res)
        self.jac_rows, self.jac_cols = np.concatenate(rows), np.concatenate(cols)
        self._jac_template = np.repeat(constants, lengths)
        self.m_eq = m - len(self.rg_lb)

    def _check_finite(self, x: np.ndarray, what: str) -> None:
        if len(x) != self.n:
            raise ValueError(f"expected vector of length {self.n}, got {len(x)}")
        if not np.all(np.isfinite(x)):
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise EvalError(f"{what} {self.names[bad]} (index {bad}) is not finite")

    # solution handling -------------------------------------------------
    def first_action(self, x: np.ndarray) -> ControlAction:
        """The plan's first step: the action the closed loop applies."""
        idx = self.idx
        return ControlAction(
            p_dam_mw=float(x[idx["p_dam"][0]]),
            p_rtm_mw=float(x[idx["p_rtm"][0]]),
            temperature_k=float(x[idx["temp"][0]]),
            current_a=float(x[idx["current"][0]]),
            h2_el_to_plant_kmolhr=float(x[idx["el_plant"][0]]),
            h2_to_storage_kmolhr=float(x[idx["stor_in"][0]]),
            h2_from_storage_kmolhr=float(x[idx["stor_out"][0]]),
        )


def build(
    strategy: StrategyKind,
    state: PlantState,
    dam_hourly_mw: Sequence[float | None],
    dam_price: Sequence[float],
    rtm_price: Sequence[float],
    p: PlantParams,
) -> OcpProblem:
    """Assemble the controller problem for the horizon that opens at
    ``state.clock`` and runs as many steps as the price windows.

    ``dam_hourly_mw`` holds one entry per hour the horizon touches, the
    first possibly partial: the committed day-ahead quantity, or None where
    the hour's quantity is a free decision (the 09:00 next-day block and the
    day-0 bootstrap). The states free hours' steps reach keep
    COMMITMENT_STORAGE_MARGIN_KMOL off the storage bounds.
    """
    H = len(dam_price)
    if H < 1:
        raise BuildError("horizon must cover at least one step")
    if len(rtm_price) != H:
        raise BuildError("price windows must match the horizon length")
    dam_price = np.asarray(dam_price, dtype=float)
    rtm_price = np.asarray(rtm_price, dtype=float)
    state.validate(p)
    # each step's hour, counted from the one the horizon opens in
    dam_hour = (step_in_day(state.clock) % units.STEPS_PER_HOUR + np.arange(H)) // units.STEPS_PER_HOUR
    n_hours = int(dam_hour[-1]) + 1
    if len(dam_hourly_mw) != n_hours:
        raise BuildError(f"the horizon touches {n_hours} hours, got {len(dam_hourly_mw)} day-ahead entries")

    hf = strategy.high_fidelity
    sizes = {"p_dam": n_hours, **dict.fromkeys(["p_rtm", "temp", "current", "el_plant", "stor_in", "stor_out"], H)}
    sizes["stor"] = H + 1
    if hf:
        sizes["eps"] = H + 1
    idx: dict[str, np.ndarray] = {}
    n = 0
    for f_name, size in sizes.items():
        idx[f_name] = np.arange(n, n + size, dtype=np.int64)
        n += size

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
    free = np.array([v is None for v in dam_hourly_mw])[dam_hour]
    reached = idx["stor"][1:][free]
    lb[reached] = p.storage_min + COMMITMENT_STORAGE_MARGIN_KMOL
    ub[reached] = p.storage_max - COMMITMENT_STORAGE_MARGIN_KMOL
    lb[idx["stor"][0]] = ub[idx["stor"][0]] = state.storage_kmol
    if hf:
        lb[idx["eps"]], ub[idx["eps"]] = EPS_FLOOR_UM, p.membrane_thickness_initial
        lb[idx["eps"][0]] = ub[idx["eps"][0]] = state.membrane_um

    # committed day-ahead quantities
    power_floor_mw = 0.1 * pmax_mw
    rtm_disabled = strategy is StrategyKind.HF_SS
    for h, v in enumerate(dam_hourly_mw):
        if v is None:
            continue
        if not 0.0 <= v <= pmax_mw + 1e-9:
            raise BuildError(f"committed DAM in hour {h} is {v} MW, outside [0, {pmax_mw}]")
        lb[idx["p_dam"][h]] = ub[idx["p_dam"][h]] = float(v)
        if rtm_disabled and v < power_floor_mw - 1e-9:
            raise BuildError(
                f"committed DAM {v} MW in hour {h} is below the {power_floor_mw} MW "
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

    rg_lb = np.concatenate([np.full(H, p.voltage_min), np.full(H, 0.1 * p.plant_power_max)])
    rg_ub = np.concatenate([np.full(H, p.voltage_max), np.full(H, p.plant_power_max)])

    prob = OcpProblem(
        strategy=strategy,
        horizon=H,
        params=p,
        start_time=state.clock,
        n=n,
        lb=lb,
        ub=ub,
        idx=idx,
        eps_const_um=state.membrane_um,
        dam_price=dam_price,
        rtm_price=rtm_price,
        rg_lb=rg_lb,
        rg_ub=rg_ub,
        dam_hour=dam_hour,
    )
    prob._fix_layout()
    return prob


def cold_start(prob: OcpProblem) -> np.ndarray:
    """Bound midpoints for controls, propagated current state for states."""
    x = 0.5 * (prob.lb + prob.ub)
    idx = prob.idx
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


def warm_start_from(prob: OcpProblem, prev: OcpProblem, prev_sol: Start | SolveResult) -> Start:
    """An earlier solve's tail: a start for a horizon with the same end.

    The closed loop starts a problem warm from the latest optimal plan that
    ends where it does, any number of steps back: the previous step's, or
    past a failed step or the 09:00 solve an older one (09:15 from 08:45,
    midnight from the previous day's 09:00). Every variable field and
    every row block of ``prob`` takes the last entries of its counterpart
    in ``prev``: the plan, and when ``prev_sol`` carries them, the row
    multipliers and the bound multipliers of the variables and of the
    range slacks. Fixed entries keep their pinned value. ``prob`` must have
    ``prev``'s strategy and horizon end, and start no earlier, or the call
    raises ValueError.
    """
    shift = (prob.start_time - prev.start_time) // timedelta(minutes=units.STEP_MINUTES)
    same_end = shift + prob.horizon == prev.horizon
    if prob.strategy is not prev.strategy or not same_end or shift < 0:
        raise ValueError("a warm start needs the previous problem's strategy and horizon end")
    # each variable's and each row's counterpart in prev
    cols = np.concatenate([prev.idx[f_name][-len(new) :] for f_name, new in prob.idx.items()])
    rows = np.concatenate([
        np.arange(prev._rows[name].stop - (new.stop - new.start), prev._rows[name].stop)
        for name, new in prob._rows.items()
    ])
    x = prev_sol.x[cols]
    fixed = prob.ub - prob.lb <= 0.0
    x[fixed] = prob.lb[fixed]
    mult = prev_sol.multipliers
    if mult is None:
        return Start(x)
    # the range slacks' bounds follow the variables', one per range row
    bounds = np.concatenate([cols, prev.n - prev.m_eq + rows[prob.m_eq :]])
    return Start(x, Multipliers(rows=mult.rows[rows], lower=mult.lower[bounds], upper=mult.upper[bounds]))
