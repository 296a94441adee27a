import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from h2mpc import analysis, cli, units
from h2mpc import electrolyzer as el
from h2mpc.params import ControlAction, CostLedger, PlantParams, PlantState
from h2mpc.rollout import TrajectoryLog

START = datetime(2022, 1, 3)


def synthetic_log(rows):
    """Hand-assembled log columns from rows of (temperature, current, elec,
    mem, h2): the temperature and current columns, and the cost ledger."""
    temperature_k, current_a, elec, mem, h2 = np.array(rows, dtype=float).reshape(-1, 5).T
    ledger = CostLedger(math.fsum(elec), math.fsum(mem), math.fsum(h2))
    return temperature_k, current_a, ledger


def analyze_cumcost(rows, tmp_path):
    """The rows written as a trajectory CSV, then `h2mpc analyze cumcost`:
    (timestamps, cum_elec, cum_mem, cum_total) read back from its output."""
    log = TrajectoryLog(strategy="hf-ms")
    for i, (t, current, elec, mem, h2) in enumerate(rows):
        log.timestamps.append(START + timedelta(minutes=15 * i))
        log.actions.append(ControlAction(50.0, 0.0, t, current, 499.93, 0.0, 0.0))
        log.states.append(PlantState(178.0, 4200.0, START + timedelta(minutes=15 * (i + 1))))
        log.dam_price.append(25.0)
        log.rtm_price.append(25.0)
        log.elec_cost.append(elec)
        log.mem_cost.append(mem)
        log.h2_ton.append(h2)
    log.to_csv(tmp_path / "log.csv")
    code = cli.main(["analyze", "--log", str(tmp_path / "log.csv"), "cumcost", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "cumcost.csv").read_text().splitlines()
    assert lines[0] == "timestamp,cum_elec_usd,cum_mem_usd,cum_total_usd"
    cells = [line.split(",") for line in lines[1:]]
    ts = [datetime.fromisoformat(c[0]) for c in cells]
    ce, cm, ct = np.array([[float(x) for x in c[1:]] for c in cells]).T
    return ts, ce, cm, ct


class TestCumulativeCosts:
    def test_empty_log(self, tmp_path, capsys):
        path = tmp_path / "cum.csv"
        analysis.write_cumulative_costs_csv([], [], [], path)
        assert path.read_text() == "timestamp,cum_elec_usd,cum_mem_usd,cum_total_usd\n"
        # a log with no steps is an input error, not an empty table
        TrajectoryLog(strategy="co").to_csv(tmp_path / "empty.csv")
        code = cli.main(["analyze", "--log", str(tmp_path / "empty.csv"), "cumcost", "--out", str(tmp_path)])
        assert code == 2
        assert "empty trajectory" in capsys.readouterr().err

    def test_single_step_hand_sum(self, tmp_path):
        # one constant-operation step: 58 MW at $25 for a quarter hour
        ts, ce, cm, ct = analyze_cumcost([(343.15, 3.526e4, 58.0 * 0.25 * 25.0, 120.0, 0.252)], tmp_path)
        assert ts == [START]
        assert ce[0] == pytest.approx(362.5)
        assert cm[0] == 120.0
        assert ct[0] == pytest.approx(482.5)

    def test_total_matches_ledger_and_mem_monotone(self, tmp_path):
        rows = [(343.15, 3.526e4, 100.0 - 3 * i, 10.0 * i, 0.25) for i in range(8)]
        _, ce, cm, ct = analyze_cumcost(rows, tmp_path)
        _, _, led = synthetic_log(rows)
        assert ct[-1] == pytest.approx(led.electricity_usd + led.membrane_usd)
        assert np.all(np.diff(cm) >= 0.0)

    def test_csv_writer(self, tmp_path):
        path = tmp_path / "cum.csv"
        stamps = [START + timedelta(minutes=15 * i) for i in range(3)]
        analysis.write_cumulative_costs_csv(stamps, [10.0, 20.0, 30.0], [1.0, 2.0, 3.0], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "timestamp,cum_elec_usd,cum_mem_usd,cum_total_usd"
        assert len(lines) == 4
        for line in lines[1:]:
            [float(cell) for cell in line.split(",")[1:]]
        assert lines[3] == "2022-01-03T00:30:00,30.0,3.0,33.0"


class TestLcoh:
    def test_shares_sum_to_one(self):
        _, _, ledger = synthetic_log([(343.15, 3.526e4, 400.0, 100.0, 0.25)] * 10)
        b = analysis.lcoh_breakdown(ledger)
        assert b.elec_share + b.mem_share == pytest.approx(1.0, abs=1e-12)
        assert b.total_kusd_per_ton == pytest.approx(5000.0 / 2.5 / 1000.0)

    def test_zero_membrane_share(self):
        _, _, ledger = synthetic_log([(343.15, 3.526e4, 400.0, 0.0, 0.25)] * 4)
        assert analysis.lcoh_breakdown(ledger).mem_share == 0.0

    def test_invariant_under_currency_rescaling(self):
        rows = [(343.15, 3.526e4, 321.0, 77.0, 0.3)] * 6
        a = analysis.lcoh_breakdown(synthetic_log(rows)[2])
        scaled = [(t, i, 3.7 * e, 3.7 * m, h) for t, i, e, m, h in rows]
        b = analysis.lcoh_breakdown(synthetic_log(scaled)[2])
        assert a.elec_share == pytest.approx(b.elec_share, rel=1e-12)
        assert b.total_kusd_per_ton == pytest.approx(3.7 * a.total_kusd_per_ton, rel=1e-12)

    def test_zero_production_rejected(self):
        _, _, ledger = synthetic_log([(343.15, 3.526e4, 1.0, 1.0, 0.0)])
        with pytest.raises(ValueError, match="no hydrogen"):
            analysis.lcoh_breakdown(ledger)


class TestDegradationSurface:
    def test_matches_scalar_operation_pointwise(self):
        t = np.linspace(343.0, 353.0, 7)
        j = np.linspace(0.1, 1.3, 9)
        surf = analysis.degradation_surface(t, j)
        assert surf.shape == (7, 9)
        for ti in range(7):
            for ji in range(9):
                assert surf[ti, ji] == el.degradation_rate(t[ti], j[ji])

    def test_known_value_and_row_major_order(self):
        surf = analysis.degradation_surface([343.15, 353.15], [1.0, 1.3])
        assert surf[0, 0] == pytest.approx(-0.006042, abs=1e-7)
        assert surf.ravel()[1] == surf[0, 1]  # row-major: j varies fastest
        assert surf.ravel().shape == (4,)

    def test_csv_cells_are_plain_numbers(self, tmp_path):
        path = tmp_path / "surface.csv"
        analysis.write_degradation_surface_csv([343.0, 353.0], [0.5, 1.0, 1.3], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 7
        for line in lines[1:]:
            [float(cell) for cell in line.split(",")]

    def test_linear_in_temperature_at_fixed_j(self):
        t = np.linspace(343.0, 353.0, 11)
        surf = analysis.degradation_surface(t, [0.9])
        diffs = np.diff(surf[:, 0])
        assert np.max(np.abs(diffs - diffs[0])) < 1e-12


class TestKde:
    def test_single_atom(self):
        temps, currents, _ = synthetic_log([(343.15, 3.526e4, 1.0, 1.0, 0.1)] * 8)
        grid, dens, samples = analysis.kde_current_density(temps, currents, 343.15)
        assert len(samples) == 8
        j = 3.526e4 / 50000.0
        assert grid[np.argmax(dens)] == pytest.approx(j, abs=0.01)
        integral = np.trapezoid(dens, grid)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_two_clusters_symmetric_bimodal(self):
        rows = [(343.15, 30000.0, 1, 1, 0.1)] * 12 + [(343.15, 50000.0, 1, 1, 0.1)] * 12
        temps, currents, _ = synthetic_log(rows)
        grid, dens, _ = analysis.kde_current_density(temps, currents, 343.15)
        integral = np.trapezoid(dens, grid)
        assert integral == pytest.approx(1.0, abs=1e-6)
        center = 0.5 * (30000.0 + 50000.0) / 50000.0
        left = dens[grid < center]
        right = dens[grid > center][::-1]
        m = min(len(left), len(right))
        assert np.allclose(left[-m:], right[-m:], atol=1e-6)
        # bimodal: a local dip at the center
        i_center = int(np.argmin(np.abs(grid - center)))
        assert dens[i_center] < np.max(dens) * 0.9

    def test_silverman_default_bandwidth(self):
        rng = np.random.default_rng(0)
        js = rng.uniform(30000.0, 60000.0, 40)
        rows = [(343.15, j, 1, 1, 0.1) for j in js]
        temps, currents, _ = synthetic_log(rows)
        grid, dens, samples = analysis.kde_current_density(temps, currents, 343.15)
        sigma = np.std(samples, ddof=1)
        bw = 1.06 * sigma * len(samples) ** (-0.2)
        # reproduce the density independently at a probe point
        probe = grid[len(grid) // 2]
        expected = np.mean(
            np.exp(-0.5 * ((probe - samples) / bw) ** 2)
        ) / (bw * math.sqrt(2 * math.pi))
        assert dens[len(grid) // 2] == pytest.approx(expected, rel=1e-9)

    def test_blocks_add_kernels_as_the_per_sample_loop(self):
        # more samples than one block holds, and a partial last block
        n = 2 * analysis._KDE_BLOCK + 37
        currents = np.random.default_rng(3).uniform(30000.0, 60000.0, n)
        temps = np.full(n, 343.15)
        grid, dens, samples = analysis.kde_current_density(temps, currents, 343.15)
        bw = 1.06 * float(np.std(samples, ddof=1)) * n ** (-0.2)  # Silverman's rule
        loop = np.zeros_like(grid)
        for s in samples:
            loop += np.exp(-0.5 * ((grid - s) / bw) ** 2)
        loop *= 1.0 / (n * bw * math.sqrt(2.0 * math.pi))
        assert np.array_equal(dens, loop)

    def test_temperature_matching_tolerance(self):
        rows = [(343.0001, 40000.0, 1, 1, 0.1)] * 5 + [(353.15, 60000.0, 1, 1, 0.1)] * 5
        temps, currents, _ = synthetic_log(rows)
        _, _, samples = analysis.kde_current_density(temps, currents, 343.15)
        assert len(samples) == 5  # only the near-343 steps selected

    def test_csv_cells_are_plain_numbers(self, tmp_path):
        rows = [(343.0, 30000.0 + 500.0 * i, 1, 1, 0.1) for i in range(6)]
        path = tmp_path / "kde.csv"
        temps, currents, _ = synthetic_log(rows)
        analysis.write_kde_csv(temps, currents, 343.0, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "current_density_a_cm2,density"
        for line in lines[1:]:
            [float(cell) for cell in line.split(",")]

    def test_most_visited_level(self):
        rows = (
            [(343.0001, 40000.0, 1, 1, 0.1)] * 3
            + [(352.99, 40000.0, 1, 1, 0.1)] * 4
            + [(343.2, 40000.0, 1, 1, 0.1)] * 2
        )
        # 343.0001 and 343.2 share one window of 5 steps
        assert analysis.most_visited_temperature(synthetic_log(rows)[0]) == 343.0001

    def test_most_visited_level_tie_takes_the_lowest(self):
        rows = [(352.99, 40000.0, 1, 1, 0.1)] * 3 + [(343.0, 40000.0, 1, 1, 0.1)] * 3
        assert analysis.most_visited_temperature(synthetic_log(rows)[0]) == 343.0

    def test_insufficient_samples(self):
        temps, currents, _ = synthetic_log([(353.15, 40000.0, 1, 1, 0.1)] * 5)
        with pytest.raises(ValueError, match="at least 2"):
            analysis.kde_current_density(temps, currents, 343.15)
