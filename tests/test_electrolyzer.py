import math
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import euler_consistent_point, hourly
from h2mpc import electrolyzer as el
from h2mpc import ocp
from h2mpc.params import ControlAction, ParamError, PlantParams, PlantState, validate_params


def horner_rate(t, j):
    """Independent oracle: Horner evaluation of the thinning polynomial."""
    a4 = -0.008255 * t + 2.906615
    a3 = 0.021855 * t - 7.740815
    a2 = -0.01798 * t + 6.44534
    a1 = 0.00415 * t - 1.53825
    a0 = -0.00005 * t + 0.01715
    return (((a4 * j + a3) * j + a2) * j + a1) * j + a0


# the closed loop's setpoint tolerance for constant operation [kmol/hr]:
# 1e-3 of the 500 kmol/hr setpoint
SETPOINT_TOL = 0.5


def oracle_generation_kmolhr(current):
    """Independent oracle: the paper's n*I*eta/(2F) [mol/s], in kmol/hr."""
    return 800 * current * 0.95 / (2 * 96485) * 3.6


class TestGenerationRates:
    # the simulator and the controller both generate h2_kmol_hr_per_amp * I
    def test_slope_oracle(self, params):
        assert params.h2_kmol_hr_per_amp == pytest.approx(oracle_generation_kmolhr(1.0), rel=1e-14)

    def test_max_current_oracle(self, params):
        got = params.h2_kmol_hr_per_amp * 65000.0
        assert got == pytest.approx(oracle_generation_kmolhr(65000.0), rel=1e-14)
        assert got == pytest.approx(921.594, abs=1e-2)

    def test_co_current_hits_setpoint(self, params):
        # the constant-operation current reproduces the 500 kmol/hr setpoint
        rate = params.h2_kmol_hr_per_amp * 3.526e4
        assert rate == pytest.approx(500.0, rel=1e-3)
        assert rate == pytest.approx(oracle_generation_kmolhr(35260.0), rel=1e-14)


class TestVoltages:
    def test_reversible_potential(self):
        assert el.reversible_potential(298.0) == 1.299
        assert el.reversible_potential(343.15) == pytest.approx(1.258365, abs=1e-12)
        assert el.reversible_potential(353.15) == pytest.approx(1.249365, abs=1e-12)

    def test_activation_voltage_at_exchange_current(self, params):
        # I equal to rho_I * A (consistent units) makes the log vanish
        i0 = params.exchange_current_density * params.membrane_area_cm2
        assert i0 == pytest.approx(0.5)
        assert el.stack_point(343.15, i0, 178.0, params).v_act == pytest.approx(0.0, abs=1e-15)

    def test_activation_voltage_regression_anchor(self, params):
        # standalone arithmetic: (R*T)/(2*F*C) * ln(I / 0.5)
        expected = (8.314 * 343.15) / (2 * 96485 * 0.5) * math.log(35260.0 / 0.5)
        got = el.stack_point(343.15, 35260.0, 178.0, params).v_act
        assert got == pytest.approx(expected, rel=1e-12)

    def test_activation_voltage_monotone_in_current(self, params):
        currents = np.linspace(8000.0, 65000.0, 40)
        vals = el.stack_point(343.15, currents, 178.0, params).v_act
        assert np.all(np.diff(vals) > 0)

    def test_activation_voltage_rejects_nonpositive_current(self, params, state):
        # the logarithm's domain is guarded where an action enters the plant:
        # the admissible current box starts well above zero
        assert params.current_bounds()[0] > 0.0
        act = ControlAction(10.0, 0.0, 343.15, 0.0, 0.0, 0.0, 500.0)
        with pytest.raises(ValueError, match="current"):
            el.step(state, act, params, SETPOINT_TOL)

    def test_membrane_conductivity_oracle(self, params):
        # exponential term is exactly 1 at 303 K
        assert el.membrane_conductivity(303.0, params) == pytest.approx(0.0687, abs=1e-5)
        expected = 0.0687 * math.exp(1268.0 * (1.0 / 303.0 - 1.0 / 353.15))
        assert el.membrane_conductivity(353.15, params) == pytest.approx(expected, rel=1e-12)

    def test_conductivity_zero_prefactor(self):
        p = replace(PlantParams(), water_content=0.00326 / 0.00514)
        assert el.membrane_conductivity(313.0, p) == pytest.approx(0.0, abs=1e-15)
        assert el.membrane_conductivity(353.0, p) == pytest.approx(0.0, abs=1e-15)

    def test_open_circuit_at_unit_pressures(self, params):
        assert params.chamber_pressure_h2 == params.chamber_pressure_o2 == 1.0
        v_oc = el.stack_point(350.0, 35260.0, 178.0, params).v_oc
        assert v_oc == el.reversible_potential(350.0)

    def test_open_circuit_nernst_term(self, params):
        expected = el.reversible_potential(353.15) + (8.314 * 353.15) / (2 * 96485) * math.log(2.0)
        p2 = replace(params, chamber_pressure_h2=2.0)
        got = el.stack_point(353.15, 35260.0, 178.0, p2).v_oc
        assert got == pytest.approx(expected, rel=1e-12)
        p3 = replace(p2, chamber_pressure_o2=1.5)
        assert el.stack_point(353.15, 35260.0, 178.0, p3).v_oc > got

    def test_open_circuit_rejects_bad_pressure(self, params):
        # the Nernst logarithm's domain is guarded by parameter validation
        with pytest.raises(ParamError, match="chamber_pressure_h2"):
            validate_params(replace(params, chamber_pressure_h2=0.0))

    def test_ohmic_voltage(self, params):
        def v_ohm(current, eps):
            return el.stack_point(343.15, current, eps, params).v_ohm

        # standalone arithmetic: I * eps_cm / (A_cm2 * beta)
        beta = 0.0687 * math.exp(1268.0 * (1.0 / 303.0 - 1.0 / 343.15))
        expected = 35260.0 * 0.0178 / (50000.0 * beta)
        assert v_ohm(35260.0, 178.0) == pytest.approx(expected, rel=1e-12)
        # linear in current and thickness
        assert v_ohm(2 * 35260.0, 178.0) == pytest.approx(2 * expected, rel=1e-12)
        assert v_ohm(35260.0, 89.0) == pytest.approx(expected / 2, rel=1e-12)

    @given(
        st.floats(min_value=343.0, max_value=353.0),
        st.floats(min_value=8000.0, max_value=65000.0),
        st.floats(min_value=50.0, max_value=178.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_total_voltage_sum_identity(self, t, current, eps):
        p = PlantParams()
        sp = el.stack_point(t, current, eps, p)
        assert sp.v_tot == sp.v_act + sp.v_oc + sp.v_ohm

    def test_total_voltage_in_bounds_at_nominal(self, params):
        # nominal point: j = 7052 A/m2 -> I = 35260 A
        v_tot = el.stack_point(343.15, 35260.0, 178.0, params).v_tot
        assert params.voltage_min < v_tot < params.voltage_max

    def test_total_voltage_flags_low_current(self, params):
        # at the raw current-density floor the stack still sits inside the
        # voltage box; it leaves the box only at genuinely small currents
        low_i = params.current_density_min * params.membrane_area
        v_low = el.stack_point(343.15, low_i, 178.0, params).v_tot
        assert v_low == pytest.approx(1.5466, abs=1e-3)
        assert params.voltage_min <= v_low <= params.voltage_max
        assert el.stack_point(343.15, 50.0, 178.0, params).v_tot < params.voltage_min


def operating_box_points(params, n=64, seed=41):
    """Seeded (T, I, eps) points across the controller's operating box."""
    rng = np.random.default_rng(seed)
    lo, hi = params.current_bounds()
    return [
        rng.uniform(params.temperature_min, params.temperature_max, n),
        rng.uniform(lo, hi, n),
        rng.uniform(1.0, params.membrane_thickness_initial, n),
    ]


def dense(entries):
    """The symmetric (n, 3, 3) stack in (T, I, eps) of a StackPoint's five
    second-partial entries, zero at eps-eps."""
    h = np.zeros(np.shape(entries[1]) + (3, 3))
    for (a, b), entry in zip(el.SECOND_PARTIALS, entries):
        h[:, a, b] = h[:, b, a] = entry
    return h


class TestPartials:
    VALUES = ("v_act", "v_oc", "v_ohm", "v_tot", "p_kw", "rate")
    FIRST = ("dv", "dp", "drate")
    SECOND = ("d2v", "d2p", "d2rate")

    def test_orders_share_values_bit_for_bit(self, params):
        pts = operating_box_points(params)
        full = el.stack_point(*pts, params)
        sp = el.stack_point(*pts, params, partials=False)
        for name in self.VALUES + self.FIRST + self.SECOND:
            if name in self.VALUES:
                assert np.array_equal(getattr(sp, name), getattr(full, name)), name
            else:
                assert getattr(sp, name) is None, name
        # first partials in (T, I, eps); the rate has no eps partial
        assert [len(getattr(full, name)) for name in self.FIRST] == [3, 3, 2]
        for name in self.SECOND:
            assert len(getattr(full, name)) == len(el.SECOND_PARTIALS), name

    def test_rate_partials_equal_the_expanded_polynomial(self, params):
        # the reference: each partial of the thinning polynomial written out
        # term by term, in descending powers of j
        T, I, eps = operating_box_points(params, n=5000)
        sp = el.stack_point(T, I, eps, params)
        A = params.membrane_area_cm2
        j = I / A
        (s4, c4), (s3, c3), (s2, c2), (s1, c1), (s0, _) = el.DEG_COEFFS
        a4, a3, a2, a1 = s4 * T + c4, s3 * T + c3, s2 * T + c2, s1 * T + c1
        r_T, r_I = sp.drate
        assert np.array_equal(r_T, s4 * j**4 + s3 * j**3 + s2 * j**2 + s1 * j + s0)
        assert np.array_equal(r_I, (4.0 * a4 * j**3 + 3.0 * a3 * j**2 + 2.0 * a2 * j + a1) / A)
        r_TT, r_TI, r_Te, r_II, r_Ie = sp.d2rate
        assert np.array_equal(r_TI, (4.0 * s4 * j**3 + 3.0 * s3 * j**2 + 2.0 * s2 * j + s1) / A)
        assert np.array_equal(r_II, (12.0 * a4 * j**2 + 6.0 * a3 * j + 2.0 * a2) / A**2)
        # the rate is affine in T and independent of eps
        assert r_TT == r_Te == r_Ie == 0.0

    def test_second_partials_match_differences_of_first(self, params):
        def gradients(T, I, eps):
            sp = el.stack_point(T, I, eps, params)
            return {
                "d2v": np.stack(sp.dv, axis=-1),
                "d2p": np.stack(sp.dp, axis=-1),
                "d2rate": np.stack([*sp.drate, np.zeros_like(sp.rate)], axis=-1),
            }

        pts = operating_box_points(params)
        sp = el.stack_point(*pts, params)
        hessians = {name: dense(getattr(sp, name)) for name in self.SECOND}
        for k in range(3):
            up = [x * (1.0 + 1e-6) if i == k else x for i, x in enumerate(pts)]
            down = [x * (1.0 - 1e-6) if i == k else x for i, x in enumerate(pts)]
            g_up, g_down = gradients(*up), gradients(*down)
            for name in self.SECOND:
                fd = (g_up[name] - g_down[name]) / (up[k] - down[k])[:, None]
                exact = hessians[name][:, :, k]
                # entries relative to themselves, or to their column's scale where near zero
                scale = np.maximum(np.abs(exact), 1e-3 * np.max(np.abs(exact), axis=0))
                worst = np.max(np.abs(exact - fd) / np.maximum(scale, 1e-300))
                assert worst < 1e-6, (name, k, worst)
        assert not np.any(hessians["d2rate"][:, 2, :]) and not np.any(hessians["d2v"][:, 2, 2])


def plant_power(current, params):
    return el.stack_point(343.15, current, 178.0, params).p_kw


class TestPlantPower:
    def test_electrochemical_term_scale(self, params):
        # at 65 kA and a representative 2.0 V the stack term alone is 104 MW,
        # consistent with the 110 MW plant cap
        assert 2.0 * 65000.0 * 800 / 1e6 == pytest.approx(104.0)
        assert 90000.0 < plant_power(65000.0, params) < 120000.0

    def test_auxiliary_power_oracle(self, params):
        # 10 kWh/kg at 500 kmol/hr (= 1008 kg/hr) is 10080 kW
        current = 500.0 / params.h2_kmol_hr_per_amp
        sp = el.stack_point(343.15, current, 178.0, params)
        p_extra = sp.p_kw - sp.v_tot * current * 800 / 1000.0
        assert p_extra == pytest.approx(10080.0, rel=1e-9)


class TestDegradationRate:
    def test_oracle_values(self):
        # frozen from the independent Horner oracle evaluated in-test
        for t, j in [(343.15, 1.0), (343.15, 1.3), (353.15, 1.0), (343.0, 1.0)]:
            assert el.degradation_rate(t, j) == pytest.approx(horner_rate(t, j), abs=1e-12)
        assert el.degradation_rate(343.15, 1.0) == pytest.approx(-0.006042, abs=1e-7)
        assert el.degradation_rate(343.15, 1.3) == pytest.approx(-0.0018128656, abs=1e-7)
        assert el.degradation_rate(353.15, 1.0) == pytest.approx(-0.008842, abs=1e-7)

    def test_temperature_affine_coefficients_at_353(self):
        # the five temperature-affine coefficients at 353.15 K
        assert -0.008255 * 353.15 + 2.906615 == pytest.approx(-0.008638, abs=1e-6)
        assert 0.021855 * 353.15 - 7.740815 == pytest.approx(-0.022722, abs=1e-6)
        assert -0.01798 * 353.15 + 6.44534 == pytest.approx(0.095703, abs=2e-6)
        assert 0.00415 * 353.15 - 1.53825 == pytest.approx(-0.072678, abs=1e-6)
        assert -0.00005 * 353.15 + 0.01715 == pytest.approx(-0.0005075, abs=1e-12)

    def test_direct_vs_horner_on_grid(self):
        t = np.linspace(343.0, 353.0, 100)[:, None]
        j = np.linspace(0.1, 1.3, 100)[None, :]
        direct = el.degradation_rate(t, j)
        horner = horner_rate(t, j)
        assert np.max(np.abs(direct - horner)) < 1e-12

    def test_negative_throughout_admissible_box(self, params):
        t = np.linspace(343.0, 353.0, 60)[:, None]
        j = np.linspace(0.1, 1.3, 60)[None, :]
        assert np.all(el.degradation_rate(t, j) < 0.0)


def co_action(params, p_rtm=0.0, p_dam=None) -> ControlAction:
    gen = params.h2_kmol_hr_per_amp * 3.526e4
    power_kw = plant_power(3.526e4, params)
    dam = power_kw / 1000.0 - p_rtm if p_dam is None else p_dam
    return ControlAction(
        p_dam_mw=dam,
        p_rtm_mw=p_rtm,
        temperature_k=343.15,
        current_a=3.526e4,
        h2_el_to_plant_kmolhr=gen,
        h2_to_storage_kmolhr=0.0,
        h2_from_storage_kmolhr=0.0,
    )


class TestStep:
    def test_co_action_holds_storage_and_setpoint(self, params, state):
        res = el.step(state, co_action(params), params, SETPOINT_TOL)
        assert res.state.storage_kmol == state.storage_kmol
        supplied = co_action(params).h2_el_to_plant_kmolhr
        assert supplied == pytest.approx(500.0, rel=1e-3)
        assert res.state.clock == state.clock + timedelta(minutes=15)

    def test_balanced_storage_flows_cancel(self, params, state):
        # stor_in = stor_out = x > 0 with the setpoint met leaves storage put
        current = 500.0 / params.h2_kmol_hr_per_amp
        x = 80.0
        act = ControlAction(
            p_dam_mw=plant_power(current, params) / 1000.0,
            p_rtm_mw=0.0,
            temperature_k=343.15,
            current_a=current,
            h2_el_to_plant_kmolhr=500.0 - x,
            h2_to_storage_kmolhr=x,
            h2_from_storage_kmolhr=x,
        )
        res = el.step(state, act, params, SETPOINT_TOL)
        assert res.state.storage_kmol == state.storage_kmol

    def test_membrane_thinning_matches_rate(self, params, state):
        i_at_jmax = 1.3 * params.membrane_area_cm2  # 65 kA
        gen = params.h2_kmol_hr_per_amp * i_at_jmax
        act = ControlAction(
            p_dam_mw=plant_power(i_at_jmax, params) / 1000.0,
            p_rtm_mw=0.0,
            temperature_k=343.15,
            current_a=i_at_jmax,
            h2_el_to_plant_kmolhr=500.0,
            h2_to_storage_kmolhr=gen - 500.0,
            h2_from_storage_kmolhr=0.0,
        )
        res = el.step(state, act, params, SETPOINT_TOL)
        expected_loss = -el.degradation_rate(343.15, 1.3) * 15.0
        assert state.membrane_um - res.state.membrane_um == pytest.approx(expected_loss, rel=1e-9)
        assert res.membrane_cost_usd == pytest.approx(
            params.n_stacks * params.membrane_cost_coeff * expected_loss, rel=1e-9
        )
        # ton accounting: the paper's generation for a quarter hour
        assert gen == pytest.approx(oracle_generation_kmolhr(i_at_jmax), rel=1e-14)
        assert res.h2_produced_ton == pytest.approx(gen * 0.25 * 2.016 / 1000.0, rel=1e-12)

    def test_mass_closure_property(self, params, state):
        rng = np.random.default_rng(3)
        s = state
        for _ in range(25):
            gen_target = rng.uniform(300.0, 900.0)
            current = gen_target / params.h2_kmol_hr_per_amp
            gen = params.h2_kmol_hr_per_amp * current
            stor_in = max(gen - 500.0, 0.0)
            el_plant = gen - stor_in
            stor_out = 500.0 - el_plant
            act = ControlAction(50.0, 0.0, 343.15, current, el_plant, stor_in, stor_out)
            res = el.step(s, act, params, SETPOINT_TOL)
            delta = res.state.storage_kmol - s.storage_kmol
            assert abs(delta - 0.25 * (stor_in - stor_out)) < 1e-9
            s = res.state

    def test_step_is_deterministic(self, params, state):
        a = el.step(state, co_action(params), params, SETPOINT_TOL)
        b = el.step(state, co_action(params), params, SETPOINT_TOL)
        assert a == b

    def test_step_rejects_current_outside_admissible_box(self, params, state):
        # below the box the generation floor of 100 kmol/hr cannot be met
        act = ControlAction(10.0, 0.0, 343.15, 6000.0, 85.0, 0.0, 415.0)
        with pytest.raises(ValueError, match="current"):
            el.step(state, act, params, SETPOINT_TOL)

    def test_step_rejects_setpoint_miss(self, params, state):
        act = replace(co_action(params), h2_from_storage_kmolhr=100.0)
        with pytest.raises(el.StepViolation, match="setpoint"):
            el.step(state, act, params, SETPOINT_TOL)
        # the pinned current misses the setpoint by 0.014%: within the
        # constant-operation tolerance, beyond the optimizing strategies' one
        with pytest.raises(el.StepViolation, match="beyond tolerance 0.0001"):
            el.step(state, co_action(params), params, 1e-4)

    def test_step_rejects_storage_overflow(self, params):
        full = PlantState(178.0, params.storage_max, datetime(2022, 1, 3))
        gen = params.h2_kmol_hr_per_amp * 65000.0
        act = ControlAction(
            plant_power(65000.0, params) / 1000.0,
            0.0, 343.15, 65000.0, 500.0, gen - 500.0, 0.0,
        )
        with pytest.raises(el.StepViolation, match="storage"):
            el.step(full, act, params, SETPOINT_TOL)

    def test_storage_within_tolerance_lands_in_the_box(self, params):
        # charging 100 kmol/hr ends 5e-10 kmol over the cap, inside the
        # simulator's tolerance; the controller builds from the state
        near = PlantState(178.0, params.storage_max - 25.0 + 5e-10, datetime(2022, 1, 3))
        current = 600.0 / params.h2_kmol_hr_per_amp
        gen = params.h2_kmol_hr_per_amp * current
        act = ControlAction(plant_power(current, params) / 1000.0, 0.0, 343.15, current, 500.0, gen - 500.0, 0.0)
        assert near.storage_kmol + 0.25 * (gen - 500.0) > params.storage_max
        res = el.step(near, act, params, SETPOINT_TOL)
        assert res.state.storage_kmol == params.storage_max
        ocp.build(ocp.StrategyKind.HF_MS, res.state, hourly(res.state, 4, 55.0), [30.0] * 4, [30.0] * 4, params)


class TestOneModel:
    def test_simulator_thinning_equals_controller_thinning(self, params, state):
        # the simulator and the high-fidelity controller evaluate one model,
        # so the applied step thins the membrane by the controller's
        # thickness_dyn share, STEP_MINUTES x rate, to the bit
        rng = np.random.default_rng(7)
        prob = ocp.build(
            ocp.StrategyKind.HF_MS, state, [55.0], [30.0] * 4, [30.0] * 4, params
        )
        row, eps = prob._rows["thickness_dyn"].start, prob.idx["eps"]
        for _ in range(200):
            x = euler_consistent_point(prob, rng)
            res = el.step(state, prob.first_action(x), params, SETPOINT_TOL)
            # with the step's exit thickness equal to its entry, the row holds -share
            x[eps[1]] = x[eps[0]]
            share = -prob.constraints_residual(x)[row]
            assert share < 0.0
            assert res.state.membrane_um == state.membrane_um + share
