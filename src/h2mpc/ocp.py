"""Finite-horizon optimal-control problem for one controller solve.

Simultaneous (full discretization) transcription: per-step controls plus
state variables, dynamics as equality constraints. Variables, bounds,
equality residuals, nonlinear range constraints, objective, and exact
first derivatives are all assembled here; the solver module only sees the
generic evaluator surface.

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
    m_eq: int
    eq_names: list[str]
    rg_lb: np.ndarray
    rg_ub: np.ndarray
    rg_names: list[str]
    tie_pairs: np.ndarray  # (k, 2) free-DAM tie (t, t0) step pairs
    _jac_rows: np.ndarray = field(repr=False, default=None)
    _jac_cols: np.ndarray = field(repr=False, default=None)

    # ------------------------------------------------------------------
    @property
    def high_fidelity(self) -> bool:
        return self.strategy.high_fidelity

    @property
    def m_rg(self) -> int:
        return len(self.rg_lb)

    def nonlinear_blocks(self) -> list[np.ndarray]:
        """Per-step variable groups entering the model nonlinearly.

        Only temperature, current, and (high fidelity) the step's entry
        thickness appear in nonlinear expressions; everything else is
        linear, which the solver's structured quasi-Newton exploits.
        """
        blocks = []
        for t in range(self.horizon):
            ids = [self.idx["temp"][t], self.idx["current"][t]]
            if self.high_fidelity:
                ids.append(self.idx["eps"][t])
            blocks.append(np.asarray(ids, dtype=np.int64))
        return blocks

    # evaluation --------------------------------------------------------
    def _physics(self, x: np.ndarray) -> electrolyzer.StackPoint:
        idx = self.idx
        if self.high_fidelity:
            eps = x[idx["eps"]][:-1]
        else:
            eps = np.full(self.horizon, self.eps_const_um)
        return electrolyzer.stack_point(x[idx["temp"]], x[idx["current"]], eps, self.params)

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

    def constraints_residual(self, x: np.ndarray) -> np.ndarray:
        """Residual vector only; the cheap path for line-search trials."""
        return self._residual(x, self._physics(x))

    def constraints_and_jacobian(self, x: np.ndarray) -> tuple[np.ndarray, sp.csr_matrix]:
        """Residuals and sparse Jacobian, equalities first then ranges.

        Equality rows equal zero when satisfied; range rows report the raw
        constraint value, to be compared against rg_lb/rg_ub.
        """
        ph = self._physics(x)
        residual = self._residual(x, ph)
        data = self._jacobian_data(x, ph)
        jac = sp.csr_matrix(
            (data, (self._jac_rows, self._jac_cols)), shape=(len(residual), self.n)
        )
        return residual, jac

    def _residual(self, x: np.ndarray, ph: electrolyzer.StackPoint) -> np.ndarray:
        self._check_finite(x, "variable")
        idx = self.idx

        gen = self.params.h2_kmol_hr_per_amp * x[idx["current"]]
        res_parts = [
            gen - x[idx["el_plant"]] - x[idx["stor_in"]],
        ]
        if self.strategy is not StrategyKind.CO:
            res_parts.append(
                x[idx["el_plant"]] + x[idx["stor_out"]] - self.params.h2_setpoint
            )
        res_parts.append(x[idx["p_dam"]] + x[idx["p_rtm"]] - ph.p_kw / 1000.0)
        stor = x[idx["stor"]]
        res_parts.append(
            stor[1:] - stor[:-1]
            - units.STEP_HOURS * (x[idx["stor_in"]] - x[idx["stor_out"]])
        )
        if self.high_fidelity:
            eps = x[idx["eps"]]
            res_parts.append(eps[1:] - eps[:-1] - units.STEP_MINUTES * ph.rate)
        if len(self.tie_pairs):
            res_parts.append(
                x[idx["p_dam"][self.tie_pairs[:, 0]]] - x[idx["p_dam"][self.tie_pairs[:, 1]]]
            )
        res_parts.append(ph.v_tot)
        res_parts.append(ph.p_kw)
        residual = np.concatenate([np.atleast_1d(r) for r in res_parts])
        if not np.all(np.isfinite(residual)):
            bad = int(np.flatnonzero(~np.isfinite(residual))[0])
            raise EvalError(f"constraint residual {bad} is not finite")
        return residual

    def _jacobian_data(self, x: np.ndarray, ph: electrolyzer.StackPoint) -> np.ndarray:
        """Values matching the fixed (rows, cols) pattern from build time."""
        H = self.horizon
        ones = np.ones(H)
        parts = [self.params.h2_kmol_hr_per_amp * ones, -ones, -ones]  # mass split: I, el, in
        if self.strategy is not StrategyKind.CO:
            parts += [ones, ones]  # setpoint: el, out
        balance = [ones, ones, -ph.dp_dT / 1000.0, -ph.dp_dI / 1000.0]
        if self.high_fidelity:
            balance.append(-ph.dp_deps / 1000.0)
        parts += balance
        parts += [ones, -ones, -units.STEP_HOURS * ones, units.STEP_HOURS * ones]
        if self.high_fidelity:
            parts += [
                ones, -ones,
                -units.STEP_MINUTES * ph.drate_dT,
                -units.STEP_MINUTES * ph.drate_dI,
            ]
        if len(self.tie_pairs):
            k = len(self.tie_pairs)
            parts += [np.ones(k), -np.ones(k)]
        voltage = [ph.dv_dT, ph.dv_dI]
        power = [ph.dp_dT, ph.dp_dI]
        if self.high_fidelity:
            voltage.append(ph.dv_deps)
            power.append(ph.dp_deps)
        parts += voltage + power
        return np.concatenate(parts)

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
    fields = ["p_dam", "p_rtm", "temp", "current", "el_plant", "stor_in", "stor_out"]
    idx: dict[str, np.ndarray] = {}
    names: list[str] = []
    cursor = 0
    for f_name in fields:
        idx[f_name] = np.arange(cursor, cursor + H, dtype=np.int64)
        names.extend(f"{f_name}[{t}]" for t in range(H))
        cursor += H
    idx["stor"] = np.arange(cursor, cursor + H + 1, dtype=np.int64)
    names.extend(f"stor[{t}]" for t in range(H + 1))
    cursor += H + 1
    if hf:
        idx["eps"] = np.arange(cursor, cursor + H + 1, dtype=np.int64)
        names.extend(f"eps[{t}]" for t in range(H + 1))
        cursor += H + 1
    n = cursor

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

    eq_names: list[str] = [f"mass_split[{t}]" for t in range(H)]
    if strategy is not StrategyKind.CO:
        eq_names += [f"setpoint[{t}]" for t in range(H)]
    eq_names += [f"power_balance[{t}]" for t in range(H)]
    eq_names += [f"storage_dyn[{t}]" for t in range(H)]
    if hf:
        eq_names += [f"thickness_dyn[{t}]" for t in range(H)]
    eq_names += [f"dam_tie[{t}={t0}]" for t, t0 in tie_pairs]
    m_eq = len(eq_names)

    rg_names = [f"voltage[{t}]" for t in range(H)] + [f"plant_power[{t}]" for t in range(H)]
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
        m_eq=m_eq,
        eq_names=eq_names,
        rg_lb=rg_lb,
        rg_ub=rg_ub,
        rg_names=rg_names,
        tie_pairs=tie_arr,
    )
    prob._jac_rows, prob._jac_cols = _jacobian_pattern(prob)
    return prob


def _jacobian_pattern(prob: OcpProblem) -> tuple[np.ndarray, np.ndarray]:
    """Fixed sparsity pattern matching _jacobian_data's value order."""
    H = prob.horizon
    idx = prob.idx
    steps = np.arange(H)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    row0 = 0

    def block(cols_per_term: list[np.ndarray]) -> None:
        nonlocal row0
        for c in cols_per_term:
            rows.append(row0 + steps)
            cols.append(c)
        row0 += H

    block([idx["current"], idx["el_plant"], idx["stor_in"]])
    if prob.strategy is not StrategyKind.CO:
        block([idx["el_plant"], idx["stor_out"]])
    bal = [idx["p_dam"], idx["p_rtm"], idx["temp"], idx["current"]]
    if prob.high_fidelity:
        bal.append(idx["eps"][:-1])
    block(bal)
    block([idx["stor"][1:], idx["stor"][:-1], idx["stor_in"], idx["stor_out"]])
    if prob.high_fidelity:
        block([idx["eps"][1:], idx["eps"][:-1], idx["temp"], idx["current"]])
    if len(prob.tie_pairs):
        k = len(prob.tie_pairs)
        tie_rows = row0 + np.arange(k)
        rows.append(tie_rows)
        cols.append(idx["p_dam"][prob.tie_pairs[:, 0]])
        rows.append(tie_rows)
        cols.append(idx["p_dam"][prob.tie_pairs[:, 1]])
        row0 += k
    vol = [idx["temp"], idx["current"]] + ([idx["eps"][:-1]] if prob.high_fidelity else [])
    block(vol)
    pow_ = [idx["temp"], idx["current"]] + ([idx["eps"][:-1]] if prob.high_fidelity else [])
    block(pow_)
    return np.concatenate(rows), np.concatenate(cols)


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
    lo, hi = prev.abs_step0, prev.abs_step0 + prev.horizon
    for f_name in ("p_dam", "p_rtm", "temp", "current", "el_plant", "stor_in", "stor_out"):
        for t in range(prob.horizon):
            s = prob.abs_step0 + t
            if lo <= s < hi:
                x[prob.idx[f_name][t]] = x_prev[prev.idx[f_name][s - lo]]
    for t in range(prob.horizon + 1):
        s = prob.abs_step0 + t
        if lo <= s <= hi:
            x[prob.idx["stor"][t]] = x_prev[prev.idx["stor"][s - lo]]
            if prob.high_fidelity and prev.high_fidelity:
                x[prob.idx["eps"][t]] = x_prev[prev.idx["eps"][s - lo]]
    # fixed entries always win
    fixed = prob.ub - prob.lb <= 0.0
    x[fixed] = prob.lb[fixed]
    return x
