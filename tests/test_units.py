from h2mpc import units


def test_molar_rate_round_trip():
    assert units.mol_s_to_kmol_hr(1000.0 / 3600.0) == 1.0
    assert units.mol_s_to_kmol_hr(1.0) == 3.6


def test_mass_conversions():
    assert units.MOLAR_MASS_H2 == 2.016
    assert units.kmol_to_ton_h2(1000.0) == 2.016


def test_power_and_geometry():
    assert units.kw_to_mw(110000.0) == 110.0
    assert units.um_to_cm(178.0) == 0.0178
    assert units.m2_to_cm2(5.0) == 50000.0


def test_grid_constants():
    assert units.STEPS_PER_DAY == 96
    assert units.STEPS_PER_HOUR == 4
    assert units.COMMITMENT_STEP == 36  # 09:00
    assert units.STEP_HOURS == 0.25
