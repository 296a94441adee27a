import dataclasses
from datetime import date, datetime

import pytest

from h2mpc.params import (
    ControlAction,
    DamCommitment,
    ParamError,
    PlantParams,
    PlantState,
    PriceSeries,
    load_params,
    validate_params,
)


def test_defaults_accepted(params):
    assert validate_params(params) is params


def test_validate_idempotent(params):
    assert validate_params(validate_params(params)) is params


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("voltage_min", 2.8, "min < max"),
        ("voltage_max", 1.4, "min < max"),
        ("storage_frac_min", 1.2, "min < max"),
        ("storage_frac_max", 1.3, "<= 1"),
        ("membrane_area", -5.0, "positive"),
        ("h2_setpoint", 5000.0, "h2_setpoint"),
        ("n_stacks", 0, "positive"),
        ("storage_frac_min", -0.5, "storage_frac_min: must be >= 0"),
        ("faraday_efficiency", 1.5, "faraday_efficiency: must be <= 1"),
        # 1,400 A/m2 over 5 m2 is 7,000 A, below the 7,052 A the generation floor needs
        ("current_density_max", 1400.0, "current box empty"),
    ],
)
def test_invariant_violations_name_the_field(field, value, fragment):
    p = dataclasses.replace(PlantParams(), **{field: value})
    with pytest.raises(ParamError) as err:
        validate_params(p)
    assert fragment in str(err.value)


def test_degenerate_equal_bounds_rejected():
    p = dataclasses.replace(PlantParams(), voltage_min=2.0, voltage_max=2.0)
    with pytest.raises(ParamError, match="min < max"):
        validate_params(p)


def test_current_bounds_intersect_generation_limits(params):
    lo, hi = params.current_bounds()
    # generation floor of 100 kmol/hr binds harder than 1000 A/m2
    assert lo == pytest.approx(100.0 / params.h2_kmol_hr_per_amp)
    assert hi == 65000.0


def test_config_file_round_trip(tmp_path, params):
    cfg = tmp_path / "plant.cfg"
    cfg.write_text(
        "# overrides\n"
        "n_stacks = 400\n"
        "h2_setpoint = 300  # kmol/hr\n"
        "\n"
        "storage_capacity = 5000\n"
    )
    p = load_params(cfg)
    assert p.n_stacks == 400
    assert p.h2_setpoint == 300.0
    assert p.storage_capacity == 5000.0
    assert p.membrane_area == params.membrane_area  # untouched default


def test_config_file_errors_carry_line_numbers(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_stacks = 800\nnot_a_field = 3\n")
    with pytest.raises(ParamError, match="bad.cfg:2"):
        load_params(cfg)
    cfg.write_text("n_stacks eight hundred\n")
    with pytest.raises(ParamError, match="key = value"):
        load_params(cfg)
    cfg.write_text("membrane_area = 5\nn_stacks = 800.5\n")
    with pytest.raises(ParamError, match="bad.cfg:2: bad value for n_stacks"):
        load_params(cfg)


def test_plant_state_validation(params):
    good = PlantState(178.0, 4200.0, datetime(2022, 1, 3, 10, 45))
    good.validate(params)
    with pytest.raises(ParamError, match="membrane"):
        PlantState(0.0, 4200.0, datetime(2022, 1, 3)).validate(params)
    with pytest.raises(ParamError, match="storage"):
        PlantState(178.0, 100.0, datetime(2022, 1, 3)).validate(params)
    with pytest.raises(ParamError, match="15-minute"):
        PlantState(178.0, 4200.0, datetime(2022, 1, 3, 0, 7)).validate(params)


def test_control_action_validation(params):
    act = ControlAction(50.0, -10.0, 343.15, 35260.0, 499.93, 0.0, 0.0)
    act.validate(params)
    with pytest.raises(ParamError, match="p_dam"):
        ControlAction(-1.0, 0.0, 343.15, 35260.0, 500.0, 0.0, 0.0).validate(params)
    with pytest.raises(ParamError, match="flows"):
        ControlAction(50.0, 0.0, 343.15, 35260.0, 500.0, -2.0, 0.0).validate(params)
    with pytest.raises(ParamError, match="temperature"):
        ControlAction(50.0, 0.0, 300.0, 35260.0, 500.0, 0.0, 0.0).validate(params)
    with pytest.raises(ParamError, match="current"):
        ControlAction(50.0, 0.0, 343.15, 1000.0, 500.0, 0.0, 0.0).validate(params)


def test_price_series_indexing():
    s = PriceSeries(datetime(2022, 1, 3), tuple(float(i) for i in range(96)))
    assert s.index_of(datetime(2022, 1, 3, 9, 0)) == 36
    assert s.window(datetime(2022, 1, 3, 23, 45), 1) == (95.0,)
    with pytest.raises(ValueError, match="off the 15-minute grid"):
        s.index_of(datetime(2022, 1, 3, 9, 7))
    with pytest.raises(ValueError, match="outside"):
        s.index_of(datetime(2022, 1, 4, 0, 0))
    with pytest.raises(ValueError, match="past the series end"):
        s.window(datetime(2022, 1, 3, 23, 45), 2)


def test_dam_commitment_invariants():
    com = DamCommitment(date(2022, 1, 4), tuple([40.0] * 24))
    assert com.mw_at_step(0) == 40.0
    assert com.mw_at_step(95) == 40.0
    with pytest.raises(ParamError, match="24 hours"):
        DamCommitment(date(2022, 1, 4), (40.0,) * 23)
    with pytest.raises(ParamError, match="negative"):
        DamCommitment(date(2022, 1, 4), (-1.0,) + (40.0,) * 23)


@pytest.mark.parametrize("key", ["chamber_volume", "energy_per_kmol"])
def test_config_rejects_removed_fields(tmp_path, key):
    cfg = tmp_path / "plant.cfg"
    cfg.write_text(f"{key} = 1.0\n")
    with pytest.raises(ParamError, match=f"unknown parameter '{key}'"):
        load_params(cfg)
