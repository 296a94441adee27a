"""Seeded benchmark inputs and the set-up they cost.

``setup(workload, seed, work_dir)`` does everything a workload needs before
its timed part: the ``h2mpc`` import, the price strips generated from the
seed with ``tools/make_sample_prices.py`` (imported, not edited), loading
them with ``market.load_price_csv``, parameter validation and, for
``log-analyze``, reading ``reference_hfms.csv`` and the synthetic
season-long trajectory replayed from it. Third-party and package imports
happen inside ``setup`` so that its time includes them.

Run as a script, it performs one set-up in a fresh interpreter and prints
the seconds it took; the benchmark starts it several times and reports
the median as ``setup_s``:

    python3 bench/inputs.py --workload compare-day --seed 7 --work .bench_out/probe
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20220101  # the seed that generated data/houston_jan2022_*.csv
SEASON_DAYS = 90  # synthetic log length for log-analyze: 8,640 rows
REFERENCE_LOG = Path(__file__).resolve().parent / "reference_hfms.csv"


@dataclass
class Inputs:
    workload: str
    seed: int
    params: object
    dam: object = None
    rtm: object = None
    strip_start: date | None = None
    strips_match_data: bool | None = None  # None when the seed is not the default
    season_log: object = None


def _load_price_tool():
    spec = importlib.util.spec_from_file_location(
        "make_sample_prices", ROOT / "tools" / "make_sample_prices.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def setup(workload: str, seed: int, work_dir: Path) -> Inputs:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from h2mpc import analysis, cli, market, ocp, rollout  # noqa: F401  (import cost is set-up)
    from h2mpc.params import PlantParams, validate_params

    work_dir.mkdir(parents=True, exist_ok=True)
    inp = Inputs(workload=workload, seed=seed, params=validate_params(PlantParams()))
    prices = _load_price_tool()
    if workload == "log-analyze":
        reference = rollout.TrajectoryLog.from_csv(REFERENCE_LOG)
        inp.season_log = synthetic_log(seed, SEASON_DAYS, inp.params, prices.diurnal_shape, reference)
        return inp

    rng = np.random.default_rng(seed)
    dam = prices.make_dam(rng)
    rtm = prices.make_rtm(rng, dam)
    dam_path, rtm_path = work_dir / "dam.csv", work_dir / "rtm.csv"
    prices.write_csv(dam_path, prices.START, 60, dam)
    prices.write_csv(rtm_path, prices.START, 15, rtm)
    if seed == DEFAULT_SEED:
        inp.strips_match_data = all(
            (ROOT / "data" / f"houston_jan2022_{kind}.csv").read_bytes() == path.read_bytes()
            for kind, path in (("dam", dam_path), ("rtm", rtm_path)))
    inp.dam = market.load_price_csv(dam_path, resolution_minutes=60)
    inp.rtm = market.load_price_csv(rtm_path, resolution_minutes=15)
    inp.strip_start = prices.START.date()
    return inp


def synthetic_log(seed: int, days: int, p, diurnal_shape, reference):
    """A seeded season-long hf-ms trajectory that replays a real one.

    Each synthetic day replays the actions, membrane cost, hydrogen output
    and storage of one day of ``reference`` (a logged hf-ms run, see
    ``make_reference.py``), the day drawn with the seed, so the operating
    temperatures and currents are those hf-ms chooses. Prices are seeded,
    and electricity cost is the settlement of the replayed powers at those
    prices, so the ledger re-settles with ``market.settle``.
    """
    import numpy as np

    from h2mpc import units
    from h2mpc.params import PlantState
    from h2mpc.rollout import TrajectoryLog

    rng = np.random.default_rng(seed)
    per_day = units.STEPS_PER_DAY
    n = days * per_day
    picks = rng.integers(len(reference) // per_day, size=days)
    rows = (picks[:, None] * per_day + np.arange(per_day)).ravel().tolist()
    hours = np.arange(days * 24) % 24
    dam = np.repeat(np.maximum(24.0 * diurnal_shape(hours) + rng.normal(0.0, 1.4, len(hours)), 5.0), 4)
    rtm = dam + rng.normal(0.0, 6.0, n)
    mem_cost = [reference.mem_cost[r] for r in rows]
    membrane = p.membrane_thickness_initial - np.cumsum(mem_cost) / p.membrane_cost_coeff

    log = TrajectoryLog(strategy="hf-ms")
    t0 = datetime(2022, 1, 1)
    for k, (r, cd, cr, mem) in enumerate(zip(rows, dam.tolist(), rtm.tolist(), membrane.tolist())):
        stamp = t0 + timedelta(minutes=k * units.STEP_MINUTES)
        action = reference.actions[r]
        log.timestamps.append(stamp)
        log.actions.append(action)
        log.states.append(PlantState(mem, reference.states[r].storage_kmol,
                                     stamp + timedelta(minutes=units.STEP_MINUTES)))
        log.dam_price.append(cd)
        log.rtm_price.append(cr)
        log.elec_cost.append(units.STEP_HOURS * (cd * action.p_dam_mw + cr * action.p_rtm_mw))
        log.mem_cost.append(mem_cost[k])
        log.h2_ton.append(reference.h2_ton[r])
    return log


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    t0 = time.perf_counter()
    setup(args.workload, args.seed, args.work)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
