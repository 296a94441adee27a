"""Core domain types: plant parameters, state, actions, prices, commitments.

All types are immutable value records, safe to share across workers.
Parameter defaults are the plant's published data sheet values; the one
constant the sheet omits (the charge coefficient) carries a documented
default and is configurable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path

from . import units

FARADAY = 96485.0  # C/mol
GAS_CONSTANT = 8.314  # J/(mol K)


class ParamError(ValueError):
    """Raised when a parameter set violates an invariant; names the field."""


@dataclass(frozen=True)
class PlantParams:
    """Physical and economic constants of the PEM plant.

    Units are part of each field name's contract:
      areas m2, thickness um, currents A, current density bounds A/m2,
      flows kmol/hr, storage kmol, power kW, temperatures K.
    """

    n_stacks: int = 800
    faraday_efficiency: float = 0.95
    membrane_area: float = 5.0  # m2
    membrane_thickness_initial: float = 178.0  # um
    exchange_current_density: float = 1.0e-5  # A/cm2
    water_content: float = 14.0
    charge_coefficient: float = 0.5  # absent from the data sheet; symmetry-factor default
    voltage_min: float = 1.4  # V per stack
    voltage_max: float = 2.8
    storage_capacity: float = 7000.0  # kmol
    storage_frac_min: float = 0.21
    storage_frac_max: float = 1.0
    h2_setpoint: float = 500.0  # kmol/hr
    h2_gen_min: float = 100.0  # kmol/hr
    h2_gen_max: float = 1000.0  # kmol/hr
    current_density_min: float = 1000.0  # A/m2
    current_density_max: float = 13000.0  # A/m2
    temperature_min: float = 343.0  # K
    temperature_max: float = 353.0  # K
    membrane_cost_coeff: float = 203142.0  # $/um
    lf_membrane_coeff: float = 1.388  # $ per kmol H2 produced
    extra_energy_coeff: float = 10.0  # kWh per kg H2
    plant_power_max: float = 110000.0  # kW
    chamber_pressure_h2: float = 1.0  # bar, quasi-steady default
    chamber_pressure_o2: float = 1.0  # bar

    # derived conveniences -------------------------------------------------

    @property
    def membrane_area_cm2(self) -> float:
        return units.m2_to_cm2(self.membrane_area)

    @property
    def h2_kmol_hr_per_amp(self) -> float:
        """Generation slope: kmol/hr of H2 per ampere of stack current."""
        return units.mol_s_to_kmol_hr(
            self.n_stacks * self.faraday_efficiency / (2.0 * FARADAY)
        )

    @property
    def membrane_cost_per_um(self) -> float:
        """Membrane cost [$] per um of thinning: every stack's membrane thins."""
        return self.n_stacks * self.membrane_cost_coeff

    def current_bounds(self) -> tuple[float, float]:
        """Stack current box [A] implied by current-density and generation limits."""
        k = self.h2_kmol_hr_per_amp
        lo = max(self.current_density_min * self.membrane_area, self.h2_gen_min / k)
        hi = min(self.current_density_max * self.membrane_area, self.h2_gen_max / k)
        return lo, hi

    @property
    def storage_min(self) -> float:
        return self.storage_frac_min * self.storage_capacity

    @property
    def storage_max(self) -> float:
        return self.storage_frac_max * self.storage_capacity


_POSITIVE_FIELDS = (
    "n_stacks",
    "faraday_efficiency",
    "membrane_area",
    "membrane_thickness_initial",
    "exchange_current_density",
    "water_content",
    "charge_coefficient",
    "storage_capacity",
    "h2_setpoint",
    "h2_gen_min",
    "h2_gen_max",
    "current_density_min",
    "current_density_max",
    "temperature_min",
    "temperature_max",
    "membrane_cost_coeff",
    "lf_membrane_coeff",
    "extra_energy_coeff",
    "plant_power_max",
    "chamber_pressure_h2",
    "chamber_pressure_o2",
)

_MIN_MAX_PAIRS = (
    ("voltage_min", "voltage_max"),
    ("h2_gen_min", "h2_gen_max"),
    ("current_density_min", "current_density_max"),
    ("temperature_min", "temperature_max"),
    ("storage_frac_min", "storage_frac_max"),
)


def validate_params(p: PlantParams) -> PlantParams:
    """Return ``p`` unchanged if every invariant holds.

    Raises ParamError naming the first violated field. Idempotent.
    """
    for name in _POSITIVE_FIELDS:
        if not getattr(p, name) > 0.0:
            raise ParamError(f"{name}: must be strictly positive")
    for lo_name, hi_name in _MIN_MAX_PAIRS:
        if not getattr(p, lo_name) < getattr(p, hi_name):
            raise ParamError(f"{lo_name}/{hi_name}: bounds must satisfy min < max")
    if not p.storage_frac_max <= 1.0:
        raise ParamError("storage_frac_max: must be <= 1")
    if not (p.h2_gen_min <= p.h2_setpoint <= p.h2_gen_max):
        raise ParamError("h2_setpoint: must lie within [h2_gen_min, h2_gen_max]")
    lo, hi = p.current_bounds()
    if not lo < hi:
        raise ParamError(
            "current_density_min/current_density_max: current box empty after "
            "intersecting with generation limits"
        )
    return p


def load_params(path: str | Path) -> PlantParams:
    """Read a flat ``key = value`` configuration file into PlantParams.

    Lines starting with ``#`` and blank lines are ignored. Keys must name
    PlantParams fields exactly; values are parsed as int for n_stacks and
    float otherwise. The result is validated.
    """
    path = Path(path)
    known = {f.name: f.type for f in dataclasses.fields(PlantParams)}
    overrides: dict[str, float | int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ParamError(f"{path}:{lineno}: unknown parameter {key!r}")
        try:
            overrides[key] = int(value) if key == "n_stacks" else float(value)
        except ValueError as exc:
            raise ParamError(f"{path}:{lineno}: bad value for {key}: {value.strip()!r}") from exc
    return validate_params(PlantParams(**overrides))


@dataclass(frozen=True, slots=True)
class PlantState:
    """Physical state fed back from the simulator each step."""

    membrane_um: float
    storage_kmol: float
    clock: datetime

    def validate(self, p: PlantParams) -> "PlantState":
        if not 0.0 < self.membrane_um <= p.membrane_thickness_initial:
            raise ParamError("membrane_um: must lie in (0, membrane_thickness_initial]")
        if not p.storage_min <= self.storage_kmol <= p.storage_max:
            raise ParamError("storage_kmol: outside storage bounds")
        if self.clock.minute % units.STEP_MINUTES or self.clock.second or self.clock.microsecond:
            raise ParamError(f"clock: must sit on the {units.STEP_MINUTES}-minute grid")
        return self


@dataclass(frozen=True, slots=True)
class ControlAction:
    """One step's decision record.

    p_rtm_mw is signed: positive buys from the real-time market, negative
    sells back. p_dam_mw is a purchase and must be nonnegative.
    """

    p_dam_mw: float
    p_rtm_mw: float
    temperature_k: float
    current_a: float
    h2_el_to_plant_kmolhr: float
    h2_to_storage_kmolhr: float
    h2_from_storage_kmolhr: float

    def validate(self, p: PlantParams) -> "ControlAction":
        if self.p_dam_mw < 0.0:
            raise ParamError("p_dam_mw: day-ahead purchases cannot be negative")
        for name in ("h2_el_to_plant_kmolhr", "h2_to_storage_kmolhr", "h2_from_storage_kmolhr"):
            if getattr(self, name) < 0.0:
                raise ParamError(f"{name}: flows must be nonnegative")
        if not p.temperature_min <= self.temperature_k <= p.temperature_max:
            raise ParamError("temperature_k: outside temperature bounds")
        lo, hi = p.current_bounds()
        if not lo <= self.current_a <= hi:
            raise ParamError("current_a: outside admissible current box")
        return self


@dataclass(frozen=True)
class PriceSeries:
    """Contiguous price strip, one price per 15-minute step. Values in $/MWh."""

    start: datetime
    prices: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.prices)

    def index_of(self, ts: datetime) -> int:
        delta = (ts - self.start).total_seconds() / 60.0
        idx = delta / units.STEP_MINUTES
        if idx != int(idx):
            raise ValueError(f"timestamp {ts.isoformat()} is off the {units.STEP_MINUTES}-minute grid")
        i = int(idx)
        if not 0 <= i < len(self.prices):
            raise ValueError(f"timestamp {ts.isoformat()} outside the loaded price range")
        return i

    def window(self, ts: datetime, n: int) -> tuple[float, ...]:
        """``n`` consecutive prices starting at ``ts``."""
        i = self.index_of(ts)
        if i + n > len(self.prices):
            raise ValueError(f"price window of {n} steps from {ts.isoformat()} runs past the series end")
        return self.prices[i : i + n]


@dataclass(frozen=True)
class DamCommitment:
    """Frozen hourly day-ahead purchase schedule for one calendar day."""

    day: date
    hourly_mw: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.hourly_mw) != 24:
            raise ParamError("hourly_mw: a commitment covers exactly 24 hours")
        if any(v < 0.0 for v in self.hourly_mw):
            raise ParamError("hourly_mw: committed purchases cannot be negative")

    def mw_at_step(self, step_in_day: int) -> float:
        return self.hourly_mw[step_in_day // units.STEPS_PER_HOUR]


@dataclass(frozen=True)
class CostLedger:
    """Cumulative cost and production totals."""

    electricity_usd: float = 0.0
    membrane_usd: float = 0.0
    h2_ton: float = 0.0
