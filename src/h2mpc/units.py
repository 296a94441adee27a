"""Unit conversions shared across the package.

Internal convention: SI (A, V, W, s, mol, m, K) for physics, with three
interface-level exceptions that follow plant/market practice:

  * membrane thickness in micrometres
  * hydrogen flows in kmol/hr
  * market power in MW, energy in MWh, prices in $/MWh

Every conversion between the two worlds lives here so that no factor is
duplicated (or silently wrong) elsewhere.
"""

# time grid: the real-time market clears every 15 minutes
STEP_MINUTES = 15
STEP_HOURS = 0.25
STEPS_PER_HOUR = 4
STEPS_PER_DAY = 96
COMMITMENT_STEP = 36  # 09:00, the day-ahead gate closure for the next day

MOLAR_MASS_H2 = 2.016  # kg/kmol


def mol_s_to_kmol_hr(rate_mol_s: float) -> float:
    """mol/s -> kmol/hr."""
    return rate_mol_s * 3600.0 / 1000.0


def kmol_to_ton_h2(n_kmol: float) -> float:
    """kmol of H2 -> metric tons of H2."""
    return n_kmol * MOLAR_MASS_H2 / 1000.0


def kw_to_mw(p_kw: float) -> float:
    return p_kw / 1000.0


def um_to_cm(thickness_um: float) -> float:
    return thickness_um * 1.0e-4


def m2_to_cm2(area_m2: float) -> float:
    return area_m2 * 1.0e4
