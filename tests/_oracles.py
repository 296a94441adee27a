"""Shared independent oracles and problem shapes for the test suite.

Everything here avoids the package's evaluation paths except the plant
model itself (``electrolyzer.stack_point``): Horner evaluation for the
thinning polynomial, plain finite differences, and a vectorized
exhaustive grid enumeration for tiny control problems. ``jacobian`` is the
one exception: it evaluates a problem and assembles the matrix with scipy.
"""

from dataclasses import replace
from datetime import timedelta

import numpy as np
import scipy.sparse as sp

from h2mpc import electrolyzer as el
from h2mpc import units
from h2mpc.market import step_in_day
from h2mpc.ocp import build


def state_at(state, steps):
    """``state`` with its clock ``steps`` steps on."""
    return replace(state, clock=state.clock + timedelta(minutes=steps * units.STEP_MINUTES))


def hourly(state, H, value):
    """``value`` once for each hour a horizon of ``H`` steps from
    ``state.clock`` touches: ``build``'s day-ahead entries."""
    first = step_in_day(state.clock) % units.STEPS_PER_HOUR
    return [value] * ((first + H - 1) // units.STEPS_PER_HOUR + 1)


def row_names(prob):
    """Constraint row names, ``block[i]``, in row order: equalities first."""
    return [f"{name}[{i}]" for name, rows in prob._rows.items() for i in range(rows.stop - rows.start)]


def commitment_problem(strategy, state, p, seed=7):
    """A 09:00 horizon, from ``state`` moved to 09:00 of its day: today's
    15 committed hours, then tomorrow's 24 free day-ahead hours."""
    sid = units.COMMITMENT_STEP
    H = units.STEPS_PER_DAY - sid + units.STEPS_PER_DAY
    dam_hourly = [55.0] * (24 - sid // units.STEPS_PER_HOUR) + [None] * 24
    rng = np.random.default_rng(seed)
    state = replace(state, clock=state.clock.replace(hour=9, minute=0))
    return build(strategy, state, dam_hourly, rng.uniform(15.0, 60.0, H), rng.uniform(-10.0, 150.0, H), p)


def jacobian(prob, x):
    """Residual and CSR constraint Jacobian of ``prob`` at ``x``, the matrix
    assembled by scipy from the declared ``jac_rows``/``jac_cols`` entries."""
    res, values, _ = prob.constraints_and_jacobian(x)
    return res, sp.csr_matrix((values, (prob.jac_rows, prob.jac_cols)), shape=(len(res), prob.n))


def horner_rate(t, j):
    a4 = -0.008255 * t + 2.906615
    a3 = 0.021855 * t - 7.740815
    a2 = -0.01798 * t + 6.44534
    a1 = 0.00415 * t - 1.53825
    a0 = -0.00005 * t + 0.01715
    return (((a4 * j + a3) * j + a2) * j + a1) * j + a0


def euler_consistent_point(prob, rng):
    """Random point satisfying every equality of an OCP by construction."""
    p = prob.params
    H = prob.horizon
    x = np.empty(prob.n)
    idx = prob.idx
    lo, hi = p.current_bounds()
    fixed = prob.ub - prob.lb <= 0.0

    x[idx["temp"]] = rng.uniform(p.temperature_min, p.temperature_max, H)
    x[idx["current"]] = rng.uniform(lo, hi, H)
    x[fixed] = prob.lb[fixed]

    gen = p.h2_kmol_hr_per_amp * x[idx["current"]]
    el_plant = np.minimum(gen, p.h2_setpoint)
    stor_in = gen - el_plant
    stor_out = p.h2_setpoint - el_plant
    x[idx["el_plant"]] = el_plant
    x[idx["stor_in"]] = stor_in
    x[idx["stor_out"]] = stor_out

    x[idx["stor"]] = prob.lb[idx["stor"][0]] + np.concatenate(
        [[0.0], np.cumsum(units.STEP_HOURS * (stor_in - stor_out))]
    )
    if prob.high_fidelity:
        eps0 = prob.lb[idx["eps"][0]]
        rate = el.degradation_rate(x[idx["temp"]], x[idx["current"]] / p.membrane_area_cm2)
        x[idx["eps"]] = eps0 + np.concatenate([[0.0], np.cumsum(units.STEP_MINUTES * rate)])
        eps_for_power = x[idx["eps"]][:-1]
    else:
        eps_for_power = np.full(H, prob.eps_const_um)

    p_kw = el.stack_point(x[idx["temp"]], x[idx["current"]], eps_for_power, p).p_kw
    x[idx["p_dam"]] = np.where(fixed[idx["p_dam"]], prob.lb[idx["p_dam"]], 55.0)
    # the real-time purchase closes each step's power balance
    x[idx["p_rtm"]] = p_kw / 1000.0 - x[idx["p_dam"]][prob.dam_hour]
    return x


def brute_force_h2(prob, p, n_pts=10):
    """Exhaustively enumerate a two-step problem on control grids.

    Returns (best objective, best (T1, I1, S1, T2, I2, S2), cell spans).
    """
    lo, hi = p.current_bounds()
    t_grid = np.linspace(p.temperature_min, p.temperature_max, n_pts)
    i_grid = np.linspace(lo, hi, n_pts)
    s_grid = np.linspace(0.0, p.h2_gen_max, n_pts)
    cells = (t_grid[1] - t_grid[0], i_grid[1] - i_grid[0], s_grid[1] - s_grid[0])

    T1, I1, S1, T2, I2, S2 = np.meshgrid(
        t_grid, i_grid, s_grid, t_grid, i_grid, s_grid, indexing="ij"
    )
    dam = prob.lb[prob.idx["p_dam"][prob.dam_hour]]  # each step's committed quantity
    eps0 = prob.lb[prob.idx["eps"][0]]
    stor0 = prob.lb[prob.idx["stor"][0]]

    def step_quantities(T, I, S_in, eps):
        gen = p.h2_kmol_hr_per_amp * I
        el_plant = gen - S_in
        stor_out = p.h2_setpoint - el_plant
        sp = el.stack_point(T, I, eps, p)
        p_kw = sp.p_kw
        rate = el.degradation_rate(T, I / p.membrane_area_cm2)
        ok = (
            (el_plant >= 0.0)
            & (stor_out >= 0.0)
            & (sp.v_tot >= p.voltage_min)
            & (sp.v_tot <= p.voltage_max)
            & (p_kw >= 0.1 * p.plant_power_max)
            & (p_kw <= p.plant_power_max)
        )
        return el_plant, stor_out, p_kw, rate, ok

    el1, out1, pkw1, rate1, ok1 = step_quantities(T1, I1, S1, eps0)
    eps1 = eps0 + rate1 * units.STEP_MINUTES
    stor1 = stor0 + units.STEP_HOURS * (S1 - out1)
    ok1 &= (stor1 >= p.storage_min) & (stor1 <= p.storage_max) & (eps1 > 1.0)

    el2, out2, pkw2, rate2, ok2 = step_quantities(T2, I2, S2, eps1)
    eps2 = eps1 + rate2 * units.STEP_MINUTES
    stor2 = stor1 + units.STEP_HOURS * (S2 - out2)
    ok = ok1 & ok2 & (stor2 >= p.storage_min) & (stor2 <= p.storage_max) & (eps2 > 1.0)

    rtm1 = pkw1 / 1000.0 - dam[0]
    rtm2 = pkw2 / 1000.0 - dam[1]
    pmax_mw = p.plant_power_max / 1000.0
    ok &= (rtm1 >= -0.9 * pmax_mw) & (rtm1 <= pmax_mw)
    ok &= (rtm2 >= -0.9 * pmax_mw) & (rtm2 <= pmax_mw)

    elec = units.STEP_HOURS * (
        prob.dam_price[0] * dam[0]
        + prob.dam_price[1] * dam[1]
        + prob.rtm_price[0] * rtm1
        + prob.rtm_price[1] * rtm2
    )
    mem = p.n_stacks * p.membrane_cost_coeff * (eps0 - eps2)
    obj = np.where(ok, elec + mem, np.inf)
    best = np.unravel_index(int(np.argmin(obj)), obj.shape)
    controls = np.array([T1[best], I1[best], S1[best], T2[best], I2[best], S2[best]])
    return float(obj[best]), controls, cells
