"""The plant model and the closed-loop simulator step.

One model serves both the simulator and the high-fidelity controller:
``stack_point`` evaluates the three-term stack voltage, total plant power
and the empirical membrane-thinning rate at the configured chamber
pressures, with their exact first and second partial derivatives on
request, and their weighted second partials as the controller's
curvature blocks. ``step`` advances the plant state with forward Euler,
at the controller's generation slope and membrane price (``PlantParams``).

Functions accept floats or numpy arrays (everything is written with numpy
ufuncs), which the optimal-control transcription relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import timedelta

import numpy as np

from . import units
from .params import FARADAY, GAS_CONSTANT, ControlAction, PlantParams, PlantState

# reversible cell potential E_rev(T) = 1.299 - 0.9e-3 (T - 298) [V]
E_REV_298 = 1.299
E_REV_SLOPE = 0.9e-3  # V/K
# Arrhenius temperature of the membrane conductivity [K]
CONDUCTIVITY_ACTIVATION_K = 1268.0

# membrane thinning rate [um/min]: polynomial in current density j [A/cm2]
# with coefficients affine in temperature [K]; valid on j in [0.1, 1.3],
# T in [343, 353]
DEG_COEFFS = (
    (-0.008255, 2.906615),  # j^4
    (0.021855, -7.740815),  # j^3
    (-0.01798, 6.44534),    # j^2
    (0.00415, -1.53825),    # j^1
    (-0.00005, 0.01715),    # j^0
)


class StepViolation(ValueError):
    """A simulator step would violate a physical or contractual bound."""


def reversible_potential(temperature):
    """Reversible cell potential [V]: 1.299 - 0.9e-3 (T - 298)."""
    return E_REV_298 - E_REV_SLOPE * (np.asarray(temperature, dtype=float) - 298.0)


def membrane_conductivity(temperature, p: PlantParams):
    """Membrane conductivity [S/cm] from water content and temperature."""
    t = np.asarray(temperature, dtype=float)
    return (0.00514 * p.water_content - 0.00326) * np.exp(
        CONDUCTIVITY_ACTIVATION_K * (1.0 / 303.0 - 1.0 / t)
    )


def _thinning(temperature, current_density, partials: bool):
    """The rate [um/min] of DEG_COEFFS' polynomial sum_k (s_k T + c_k) j^k and,
    with ``partials``, its partials d/dT, d/dj, d2/dTdj and d2/dj2 (else
    zeros), each summed once over the coefficients in descending powers of j."""
    t, j = np.asarray(temperature, dtype=float), np.asarray(current_density, dtype=float)
    power = [j**k for k in range(5)]
    rate = r_t = r_j = r_tj = r_jj = 0.0
    for k, (slope, intercept) in zip((4, 3, 2, 1, 0), DEG_COEFFS):
        a = slope * t + intercept
        rate = rate + a * power[k]
        if partials:
            r_t = r_t + slope * power[k]
            if k > 0:
                r_j, r_tj = r_j + k * a * power[k - 1], r_tj + k * slope * power[k - 1]
            if k > 1:
                r_jj = r_jj + k * (k - 1) * a * power[k - 2]
    return (float(rate) if np.ndim(rate) == 0 else rate), r_t, r_j, r_tj, r_jj


def degradation_rate(temperature, current_density):
    """Signed membrane-thickness rate [um/min] at T [K], j [A/cm2].

    Negative throughout the admissible operating box (the membrane thins).
    """
    return _thinning(temperature, current_density, partials=False)[0]


# the (row, column) in (T, I, eps) of each entry of a StackPoint's second partials
SECOND_PARTIALS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2))


@dataclass(frozen=True)
class StackPoint:
    """The plant model at one or more (T, I, eps) points, with exact partials.

    Voltages are per stack [V], power is the whole plant's draw [kW], the
    rate is the signed membrane-thickness rate [um/min]. Partials are taken
    in temperature [K], stack current [A] and membrane thickness [um]:
    ``dv``, ``dp`` and ``drate`` hold the first partials of ``v_tot``,
    ``p_kw`` and ``rate`` in that (T, I, eps) order, ``drate`` without the
    eps entry, as the rate does not depend on thickness. ``d2v``, ``d2p``
    and ``d2rate`` hold their distinct second partials, in
    ``SECOND_PARTIALS`` order; no model term is quadratic in eps, so the
    eps-eps entry is zero and left out. An evaluation without partials
    leaves them None.
    """

    v_act: np.ndarray
    v_oc: np.ndarray
    v_ohm: np.ndarray
    v_tot: np.ndarray
    p_kw: np.ndarray
    rate: np.ndarray
    dv: tuple | None = None
    dp: tuple | None = None
    drate: tuple | None = None
    d2v: tuple | None = None
    d2p: tuple | None = None
    d2rate: tuple | None = None

    def hessian(self, w_v, w_p, w_rate, k: int) -> np.ndarray:
        """The (n, k, k) Hessian of w_v v_tot + w_p p_kw + w_rate rate in the
        first ``k`` of (T, I, eps), for per-point weights; a ``w_rate`` of
        None leaves the rate out."""
        hess = np.empty((len(w_v), k, k))
        # the eps-eps entry is zero in every term; summed like the rest, its
        # zero takes the sign the weighted sum gives it
        pairs = SECOND_PARTIALS + ((2, 2),)
        for (a, b), d2v, d2p, d2rate in zip(pairs, self.d2v + (0.0,), self.d2p + (0.0,), self.d2rate + (0.0,)):
            if b < k:
                entry = w_p * d2p + w_v * d2v
                if w_rate is not None:
                    entry = entry + w_rate * d2rate
                hess[:, a, b] = hess[:, b, a] = entry
        return hess


def stack_point(temperature, current, thickness_um, p: PlantParams, partials: bool = True) -> StackPoint:
    """Voltage terms, plant power and thinning rate at the configured chamber pressures.

    The one plant model: the simulator and the controller problem both
    evaluate it. Per stack, V = V_act + V_oc + V_ohm with

      V_act = (R T)/(2 F C) ln(I / (rho_I A))      (rho_I A/cm2, A cm2)
      V_oc  = (R T)/(2 F) ln(p_H2 sqrt(p_O2)) + E_rev(T)
      V_ohm = I eps / (A beta(T))                   (eps cm, A cm2)

    Stacks are in series, so the plant draws V I n plus auxiliaries of
    extra_energy_coeff kWh per kg of hydrogen produced.

    With ``partials`` the first and second partials come too
    (``StackPoint``). The values come from the same expressions either
    way, so they agree to the bit.
    """
    T, I, eps = temperature, current, thickness_um
    acm2 = p.membrane_area_cm2
    j = I / acm2
    i0 = p.exchange_current_density * acm2
    rt_2f = GAS_CONSTANT * T / (2.0 * FARADAY)

    log_arg = np.log(I / i0)
    v_act = rt_2f / p.charge_coefficient * log_arg

    nernst_log = math.log(p.chamber_pressure_h2 * math.sqrt(p.chamber_pressure_o2))
    v_oc = rt_2f * nernst_log + reversible_potential(T)

    beta = membrane_conductivity(T, p)
    eps_cm = units.um_to_cm(eps)
    v_ohm = I * eps_cm / (acm2 * beta)

    v_tot = v_act + v_oc + v_ohm
    aux = p.extra_energy_coeff * units.MOLAR_MASS_H2 * p.h2_kmol_hr_per_amp  # kW per A
    p_kw = v_tot * I * p.n_stacks / 1000.0 + aux * I
    rate, rate_T, rate_j, rate_Tj, rate_jj = _thinning(T, j, partials)
    if not partials:
        return StackPoint(v_act=v_act, v_oc=v_oc, v_ohm=v_ohm, v_tot=v_tot, p_kw=p_kw, rate=rate)

    act_per_t = GAS_CONSTANT / (2.0 * FARADAY * p.charge_coefficient)
    dva_dT = act_per_t * log_arg
    dva_dI = rt_2f / p.charge_coefficient / I
    dvo_dT = GAS_CONSTANT / (2.0 * FARADAY) * nernst_log - E_REV_SLOPE
    dvh_dI = eps_cm / (acm2 * beta)
    dvh_deps = I * units.um_to_cm(1.0) / (acm2 * beta)
    dvh_dT = -v_ohm * CONDUCTIVITY_ACTIVATION_K / T**2

    dv_dT = dva_dT + dvo_dT + dvh_dT
    dv_dI = dva_dI + dvh_dI
    dv_deps = dvh_deps
    dp_dT = dv_dT * I * p.n_stacks / 1000.0
    dp_dI = (v_tot + I * dv_dI) * p.n_stacks / 1000.0 + aux
    dp_deps = dv_deps * I * p.n_stacks / 1000.0

    # V_act is T ln I times a constant and V_oc is affine in T. V_ohm's T
    # partial is -V_ohm K/T^2, so a T partial of any V_ohm term brings a
    # factor -K/T^2, and in V_TT differentiating K/T^2 itself adds -2/T
    arrhenius = CONDUCTIVITY_ACTIVATION_K / T**2
    ohm_per_um = units.um_to_cm(1.0) / (acm2 * beta)  # d2 V_ohm / dI deps
    kw_per_va = p.n_stacks / 1000.0
    v_TT = -dvh_dT * (arrhenius + 2.0 / T)
    v_TI = act_per_t / I - dvh_dI * arrhenius
    v_Te = -dvh_deps * arrhenius
    v_II = -dva_dI / I
    d2v = (v_TT, v_TI, v_Te, v_II, ohm_per_um)
    # P = V I n/1000 + aux I, so each I partial adds the V partial once more
    d2p = (
        v_TT * I * kw_per_va,
        (dv_dT + I * v_TI) * kw_per_va,
        v_Te * I * kw_per_va,
        (2.0 * dv_dI + I * v_II) * kw_per_va,
        (dv_deps + I * ohm_per_um) * kw_per_va,
    )
    # j = I / A, so each I partial of the rate divides a j partial by A
    d2rate = (0.0, rate_Tj / acm2, 0.0, rate_jj / acm2**2, 0.0)
    return StackPoint(
        v_act=v_act, v_oc=v_oc, v_ohm=v_ohm, v_tot=v_tot, p_kw=p_kw, rate=rate,
        dv=(dv_dT, dv_dI, dv_deps), dp=(dp_dT, dp_dI, dp_deps), drate=(rate_T, rate_j / acm2),
        d2v=d2v, d2p=d2p, d2rate=d2rate,
    )


@dataclass(frozen=True)
class StepResult:
    """Outcome of one simulator step."""

    state: PlantState
    h2_produced_ton: float
    membrane_cost_usd: float


def step(state: PlantState, action: ControlAction, p: PlantParams, setpoint_tol_kmolhr: float) -> StepResult:
    """Advance the plant one market step (``units.STEP_MINUTES``) with
    forward Euler. The plant supply must meet the setpoint within
    ``setpoint_tol_kmolhr``; membrane thickness follows ``degradation_rate``.
    """
    action.validate(p)

    # the current box intersects the generation limits, so generation is within them
    gen_kmolhr = p.h2_kmol_hr_per_amp * action.current_a
    split_residual = gen_kmolhr - action.h2_to_storage_kmolhr - action.h2_el_to_plant_kmolhr
    if abs(split_residual) > 1e-6:
        raise StepViolation(
            f"mass split violated by {split_residual:.3e} kmol/hr: generation must "
            "equal storage inflow plus direct plant supply"
        )

    supply = action.h2_el_to_plant_kmolhr + action.h2_from_storage_kmolhr
    if abs(supply - p.h2_setpoint) > setpoint_tol_kmolhr:
        raise StepViolation(
            f"plant supply {supply:.4f} kmol/hr misses the {p.h2_setpoint} "
            f"kmol/hr setpoint beyond tolerance {setpoint_tol_kmolhr}"
        )

    storage_next = state.storage_kmol + units.STEP_HOURS * (
        action.h2_to_storage_kmolhr - action.h2_from_storage_kmolhr
    )
    if not p.storage_min - 1e-9 <= storage_next <= p.storage_max + 1e-9:
        raise StepViolation(
            f"storage {storage_next:.3f} kmol outside "
            f"[{p.storage_min:.1f}, {p.storage_max:.1f}]"
        )
    # within the tolerance, the state lands in the box every consumer checks
    storage_next = min(max(storage_next, p.storage_min), p.storage_max)

    rate = degradation_rate(action.temperature_k, action.current_a / p.membrane_area_cm2)
    membrane_next = state.membrane_um + rate * units.STEP_MINUTES
    if membrane_next <= 0.0:
        raise StepViolation("membrane thickness would reach zero")

    new_state = PlantState(
        membrane_um=membrane_next,
        storage_kmol=storage_next,
        clock=state.clock + timedelta(minutes=units.STEP_MINUTES),
    )
    return StepResult(
        state=new_state,
        h2_produced_ton=units.kmol_to_ton_h2(gen_kmolhr * units.STEP_HOURS),
        membrane_cost_usd=p.membrane_cost_per_um * (state.membrane_um - membrane_next),
    )
