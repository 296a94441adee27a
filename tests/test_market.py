import csv
import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2mpc import market, units
from h2mpc.market import PriceFileError, load_price_csv, settle, step_in_day
from h2mpc.params import ControlAction


def write_prices(path, rows):
    path.write_text("timestamp,price_usd_per_mwh\n" + "\n".join(rows) + "\n")


def hourly_rows(day="2022-01-03", prices=None):
    prices = prices if prices is not None else [20.0 + h for h in range(24)]
    return [f"{day}T{h:02d}:00:00,{p}" for h, p in enumerate(prices)]


class TestLoadPriceCsv:
    def test_hourly_expansion(self, tmp_path):
        path = tmp_path / "dam.csv"
        write_prices(path, hourly_rows())
        series = load_price_csv(path, resolution_minutes=60)
        assert len(series) == 96
        assert series.index_of(series.start + timedelta(minutes=15)) == 1  # a 15-minute series
        # each hourly price repeated 4x
        assert series.prices[0:4] == (20.0,) * 4
        assert series.prices[92:96] == (43.0,) * 4

    def test_expansion_preserves_hourly_totals(self, tmp_path):
        path = tmp_path / "dam.csv"
        write_prices(path, hourly_rows())
        series = load_price_csv(path, resolution_minutes=60)
        for h in range(24):
            quarter_energy = sum(series.prices[4 * h + i] * 0.25 for i in range(4))
            assert quarter_energy == pytest.approx((20.0 + h) * 1.0, rel=1e-12)

    def test_gap_error_names_timestamp(self, tmp_path):
        path = tmp_path / "dam.csv"
        rows = hourly_rows()
        del rows[13]  # drop the 13:00 row
        write_prices(path, rows)
        with pytest.raises(PriceFileError, match="gap at 2022-01-03T13:00:00"):
            load_price_csv(path, resolution_minutes=60)

    def test_duplicate_timestamp(self, tmp_path):
        path = tmp_path / "dam.csv"
        rows = hourly_rows()
        rows.insert(5, rows[4])
        write_prices(path, rows)
        with pytest.raises(PriceFileError, match="duplicate"):
            load_price_csv(path, resolution_minutes=60)

    def test_unparseable_rows_report_line_numbers(self, tmp_path):
        path = tmp_path / "dam.csv"
        write_prices(path, ["2022-01-03T00:00:00,20.0", "not-a-time,21.0"])
        with pytest.raises(PriceFileError, match=r"dam.csv:3.*timestamp"):
            load_price_csv(path, resolution_minutes=60)
        write_prices(path, ["2022-01-03T00:00:00,20.0", "2022-01-03T01:00:00,cheap"])
        with pytest.raises(PriceFileError, match=r"dam.csv:3.*price"):
            load_price_csv(path, resolution_minutes=60)

    def test_offset_timestamps_rejected(self, tmp_path):
        # price files are in local market time; an offset stamp cannot be
        # compared with the run's naive clock
        path = tmp_path / "dam.csv"
        write_prices(path, [f"{row[:19]}+00:00{row[19:]}" for row in hourly_rows()])
        with pytest.raises(PriceFileError, match=r"dam.csv:2: offset timestamp .*local market time"):
            load_price_csv(path, resolution_minutes=60)
        write_prices(path, hourly_rows()[:2] + ["2022-01-03T02:00:00-06:00,22.0"])
        with pytest.raises(PriceFileError, match=r"dam.csv:4: offset timestamp"):
            load_price_csv(path, resolution_minutes=60)

    @pytest.mark.parametrize("rows, resolution, error, message", [
        (hourly_rows(), 30, ValueError, "resolution must be 15 or 60"),
        (["2022-01-03T00:00:00,20.0,21.0"], 60, PriceFileError, "dam.csv:2: expected two columns, got 3"),
        (["2022-01-03T00:00:00,20.0", "2022-01-03T01:00:00,nan"], 60, PriceFileError,
         "dam.csv:3: non-finite price 'nan'"),
        ([], 60, PriceFileError, "dam.csv: no price rows"),
    ])
    def test_malformed_file_is_rejected(self, tmp_path, rows, resolution, error, message):
        path = tmp_path / "dam.csv"
        write_prices(path, rows)
        with pytest.raises(error, match=message):
            load_price_csv(path, resolution_minutes=resolution)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "dam.csv"
        path.write_text("time,price\n2022-01-03T00:00:00,20.0\n")
        with pytest.raises(PriceFileError, match="header"):
            load_price_csv(path, resolution_minutes=60)

    def test_negative_prices_permitted(self, tmp_path):
        path = tmp_path / "rtm.csv"
        write_prices(path, ["2022-01-03T00:00:00,-12.5", "2022-01-03T00:15:00,4.0"])
        series = load_price_csv(path, resolution_minutes=15)
        assert series.prices == (-12.5, 4.0)

    def test_bundled_week_matches_independent_scan(self, rtm_csv_path):
        """One week of the bundled strip vs a direct csv-module scan."""
        series = load_price_csv(rtm_csv_path, resolution_minutes=15)
        with open(rtm_csv_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        week = [float(r[1]) for r in rows if r[0].startswith("2022-01-0") and "2022-01-01" not in r[0] and "2022-01-09" not in r[0]]
        assert len(week) == 672  # seven days of 15-minute rows
        start = series.index_of(datetime(2022, 1, 2))
        loaded_week = series.prices[start : start + 672]
        assert min(loaded_week) == min(week)
        assert max(loaded_week) == max(week)
        assert math.fsum(loaded_week) == pytest.approx(math.fsum(week), abs=1e-9)


def action(p_dam, p_rtm):
    return ControlAction(p_dam, p_rtm, 343.15, 35260.0, 499.93, 0.0, 0.0)


class TestSettle:
    def test_zero_prices(self):
        acts = [action(40.0, 10.0)] * 4
        assert settle(acts, [0.0] * 4, [0.0] * 4) == 0.0

    def test_arbitrage_step(self):
        # buy 40 MW day-ahead at $20, sell 20 MW real-time at $100
        cost = settle([action(40.0, -20.0)], [20.0], [100.0])
        assert cost == pytest.approx(40 * 0.25 * 20 - 20 * 0.25 * 100)
        assert cost == pytest.approx(-300.0)

    def test_constant_day(self):
        acts = [action(44.0, 0.0)] * 96
        assert settle(acts, [25.0] * 96, [0.0] * 96) == pytest.approx(44 * 24 * 25)

    def test_misaligned_series_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            settle([action(1.0, 0.0)], [1.0, 2.0], [1.0])

    @given(
        st.lists(st.floats(-50, 150), min_size=3, max_size=3),
        st.lists(st.floats(-50, 150), min_size=3, max_size=3),
        st.floats(0.1, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_in_prices(self, dam, rtm, scale):
        acts = [action(30.0, -5.0), action(10.0, 12.0), action(0.0, 44.0)]
        base = settle(acts, dam, rtm)
        scaled = settle(acts, [scale * c for c in dam], [scale * c for c in rtm])
        assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-9)

    def test_superposition_in_actions(self):
        dam, rtm = [22.0, 31.0], [19.0, 250.0]
        a = [action(10.0, -4.0), action(0.0, 8.0)]
        b = [action(5.0, 2.0), action(7.0, -1.0)]
        ab = [action(15.0, -2.0), action(7.0, 7.0)]
        assert settle(ab, dam, rtm) == pytest.approx(
            settle(a, dam, rtm) + settle(b, dam, rtm), rel=1e-12
        )


@pytest.mark.parametrize(
    "hour,minute,step,to_midnight",
    [(0, 0, 0, 96), (0, 15, 1, 95), (9, 0, units.COMMITMENT_STEP, 60), (9, 15, 37, 59),
     (23, 45, 95, 1)],
    ids=["00:00", "00:15", "09:00", "09:15", "23:45"],
)
def test_step_in_day(hour, minute, step, to_midnight):
    sid = step_in_day(datetime(2022, 1, 3, hour, minute))
    assert sid == step and type(sid) is int
    # the steps left in the day, counting this one, size a same-day horizon
    assert units.STEPS_PER_DAY - sid == to_midnight
