"""Post-processing of trajectory logs.

Cumulative cost curves, the levelized-cost-of-hydrogen attribution,
degradation-rate surfaces over the operating box, and kernel density
estimation of the operating current density at a temperature level.
Each operation takes the log columns it reads (``rollout.read_trajectory_csv``
gives them without building per-step objects) and has a CSV emitter; no
plotting happens in-process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import electrolyzer
from .params import CostLedger, PlantParams


def write_cumulative_costs_csv(timestamps, cum_elec, cum_mem, path: str | Path) -> None:
    """Per-step cumulative (electricity, membrane, total) cost CSV from a
    log's running-total columns."""
    ce = np.asarray(cum_elec, dtype=float)
    cm = np.asarray(cum_mem, dtype=float)
    lines = ["timestamp,cum_elec_usd,cum_mem_usd,cum_total_usd"]
    rows = zip(timestamps, ce.tolist(), cm.tolist(), (ce + cm).tolist())
    lines += [f"{t.isoformat()},{e!r},{m!r},{tt!r}" for t, e, m, tt in rows]
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class LcohBreakdown:
    total_kusd_per_ton: float
    elec_share: float
    mem_share: float


def lcoh_breakdown(ledger: CostLedger) -> LcohBreakdown:
    """Levelized cost of hydrogen [k$/ton] split into its two components."""
    if ledger.h2_ton <= 0.0:
        raise ValueError("no hydrogen produced; levelized cost undefined")
    total = ledger.electricity_usd + ledger.membrane_usd
    if total == 0.0:
        return LcohBreakdown(0.0, 0.0, 0.0)
    return LcohBreakdown(
        total_kusd_per_ton=total / ledger.h2_ton / 1000.0,
        elec_share=ledger.electricity_usd / total,
        mem_share=ledger.membrane_usd / total,
    )


def write_lcoh_csv(strategy: str, ledger: CostLedger, path: str | Path) -> None:
    b = lcoh_breakdown(ledger)
    Path(path).write_text(
        "strategy,lcoh_kusd_per_ton,elec_share,mem_share\n"
        f"{strategy},{b.total_kusd_per_ton!r},{b.elec_share!r},{b.mem_share!r}\n"
    )


def degradation_surface(t_grid, j_grid) -> np.ndarray:
    """Thinning-rate matrix [um/min], rows follow t_grid, columns j_grid."""
    t = np.asarray(t_grid, dtype=float)[:, None]
    j = np.asarray(j_grid, dtype=float)[None, :]
    return electrolyzer.degradation_rate(t, j)


def write_degradation_surface_csv(t_grid, j_grid, path: str | Path) -> None:
    surf = degradation_surface(t_grid, j_grid)
    lines = ["temperature_k,current_density_a_cm2,rate_um_min"]
    for t, row in zip(np.asarray(t_grid, dtype=float).tolist(), surf.tolist()):
        for j, rate in zip(np.asarray(j_grid, dtype=float).tolist(), row):
            lines.append(f"{t!r},{j!r},{rate!r}")
    Path(path).write_text("\n".join(lines) + "\n")


# temperature matching tolerance [K]: optimizers return values like 343.0001
TEMP_MATCH_TOL_K = 0.5
# fallback bandwidth [A/cm2] when all samples coincide (Silverman degenerates)
_DEGENERATE_BANDWIDTH = 0.05
# samples whose kernels one KDE pass evaluates together (1 MB of float64)
_KDE_BLOCK = 128


def most_visited_temperature(temperature_k) -> float:
    """Logged temperature [K] whose TEMP_MATCH_TOL_K window holds the most steps.

    The lowest such temperature wins a tie.
    """
    temps = np.sort(np.asarray(temperature_k, dtype=float))
    if len(temps) == 0:
        raise ValueError("empty log has no temperature level")
    inside = np.searchsorted(temps, temps + TEMP_MATCH_TOL_K, side="left") - np.searchsorted(
        temps, temps - TEMP_MATCH_TOL_K, side="right"
    )
    return float(temps[np.argmax(inside)])


def kde_current_density(temperature_k, current_a, temperature_level: float):
    """Gaussian-kernel density of operating current density [A/cm2].

    Takes a log's temperature [K] and current [A] columns and selects steps
    whose temperature sits within TEMP_MATCH_TOL_K of the requested level.
    The bandwidth is Silverman's rule 1.06 * sigma * m^(-1/5); the
    density integrates to one over the line. Kernels are added in sample
    order, one sample at a time per grid point, whatever the block size.
    Returns (grid, density, samples).
    """
    temps = np.asarray(temperature_k, dtype=float)
    j = np.asarray(current_a, dtype=float) / PlantParams().membrane_area_cm2
    samples = j[np.abs(temps - temperature_level) < TEMP_MATCH_TOL_K]
    if len(samples) < 2:
        raise ValueError(
            f"need at least 2 steps within {TEMP_MATCH_TOL_K} K of "
            f"{temperature_level} K, found {len(samples)}"
        )
    sigma = float(np.std(samples, ddof=1))
    bandwidth = 1.06 * sigma * len(samples) ** (-0.2)
    if bandwidth <= 0.0:
        bandwidth = _DEGENERATE_BANDWIDTH
    lo = float(np.min(samples)) - 6.0 * bandwidth
    hi = float(np.max(samples)) + 6.0 * bandwidth
    grid = np.linspace(lo, hi, 1024)
    dens = np.zeros_like(grid)
    norm = 1.0 / (len(samples) * bandwidth * math.sqrt(2.0 * math.pi))
    for first in range(0, len(samples), _KDE_BLOCK):
        blk = np.exp(-0.5 * ((grid - samples[first : first + _KDE_BLOCK, None]) / bandwidth) ** 2)
        # reducing over rows adds them in order, as a per-sample loop would
        blk[0] += dens
        dens = np.add.reduce(blk, axis=0)
    dens *= norm
    return grid, dens, samples


def write_kde_csv(temperature_k, current_a, temperature_level: float, path: str | Path) -> None:
    grid, dens, _ = kde_current_density(temperature_k, current_a, temperature_level)
    lines = ["current_density_a_cm2,density"]
    lines += [f"{g!r},{d!r}" for g, d in zip(grid.tolist(), dens.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")
