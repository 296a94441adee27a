"""Price ingestion, the position of a step in its day, and settlement.

Price files are pre-shaped CSV: header ``timestamp,price_usd_per_mwh``,
ISO-8601 local timestamps, one row per interval, no gaps. Day-ahead files
are hourly and get expanded to the 15-minute grid by repeating each hourly
price four times; real-time files are already 15-minute.
"""

from __future__ import annotations

import csv
import math
from datetime import datetime, timedelta
from pathlib import Path
from typing import Sequence

from . import units
from .params import ControlAction, PriceSeries


class PriceFileError(ValueError):
    """Malformed price file; message carries the offending line or timestamp."""


def load_price_csv(path: str | Path, resolution_minutes: int) -> PriceSeries:
    """Load a price CSV at its native resolution onto the 15-minute grid.

    ``resolution_minutes`` is 60 for day-ahead files and 15 for real-time
    files. The returned series is always 15-minute; hourly prices repeat 4x.
    """
    if resolution_minutes not in (15, 60):
        raise ValueError("resolution must be 15 or 60 minutes")
    path = Path(path)
    rows: list[tuple[datetime, float]] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["timestamp", "price_usd_per_mwh"]:
            raise PriceFileError(
                f"{path}:1: expected header 'timestamp,price_usd_per_mwh', got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise PriceFileError(f"{path}:{lineno}: expected two columns, got {len(row)}")
            try:
                ts = datetime.fromisoformat(row[0])
            except ValueError as exc:
                raise PriceFileError(f"{path}:{lineno}: unparseable timestamp {row[0]!r}") from exc
            if ts.tzinfo is not None:
                raise PriceFileError(f"{path}:{lineno}: offset timestamp {row[0]!r}; price files use local market time")
            try:
                price = float(row[1])
            except ValueError as exc:
                raise PriceFileError(f"{path}:{lineno}: unparseable price {row[1]!r}") from exc
            if not math.isfinite(price):
                raise PriceFileError(f"{path}:{lineno}: non-finite price {row[1]!r}")
            rows.append((ts, price))

    if not rows:
        raise PriceFileError(f"{path}: no price rows")

    stride = timedelta(minutes=resolution_minutes)
    start = rows[0][0]
    for i, (ts, _) in enumerate(rows):
        expected = start + i * stride
        if ts == expected:
            continue
        if ts < expected:
            raise PriceFileError(f"{path}: duplicate or out-of-order timestamp {ts.isoformat()}")
        raise PriceFileError(f"{path}: gap at {expected.isoformat()}")

    prices = [price for _, price in rows]
    if resolution_minutes == 60:
        prices = [p for p in prices for _ in range(units.STEPS_PER_HOUR)]
    return PriceSeries(start=start, prices=tuple(prices))


def settle(
    actions: Sequence[ControlAction],
    dam_prices: Sequence[float],
    rtm_prices: Sequence[float],
) -> float:
    """Total electricity cost [$] of an applied action sequence.

    Each step transacts P * 0.25 MWh at the step's clearing price in each
    market; negative real-time energy at a positive price is revenue.
    """
    if not len(actions) == len(dam_prices) == len(rtm_prices):
        raise ValueError(
            f"misaligned series: {len(actions)} actions, {len(dam_prices)} DAM prices, "
            f"{len(rtm_prices)} RTM prices"
        )
    terms = []
    for act, c_dam, c_rtm in zip(actions, dam_prices, rtm_prices):
        terms.append(c_dam * act.p_dam_mw * units.STEP_HOURS)
        terms.append(c_rtm * act.p_rtm_mw * units.STEP_HOURS)
    return math.fsum(terms)


def step_in_day(ts: datetime) -> int:
    """Index of the 15-minute step ``ts`` opens within its day (00:00 is 0)."""
    return ts.hour * units.STEPS_PER_HOUR + ts.minute // units.STEP_MINUTES
