import dataclasses
import os
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from h2mpc import cli, rollout
from h2mpc.params import ControlAction, PlantState

DAY = "2022-01-03"


def write_price_files(tmp_path, rtm_spike=False):
    """Two days of flat prices starting Jan 3 (run day plus lookahead)."""
    start = datetime(2022, 1, 3)
    dam_lines = ["timestamp,price_usd_per_mwh"]
    for h in range(48):
        dam_lines.append(f"{(start + timedelta(hours=h)).isoformat()},25.0")
    rtm_lines = ["timestamp,price_usd_per_mwh"]
    for k in range(192):
        price = 500.0 if rtm_spike and 40 <= k < 44 else 25.0
        rtm_lines.append(f"{(start + timedelta(minutes=15 * k)).isoformat()},{price}")
    dam = tmp_path / "dam.csv"
    rtm = tmp_path / "rtm.csv"
    dam.write_text("\n".join(dam_lines) + "\n")
    rtm.write_text("\n".join(rtm_lines) + "\n")
    return dam, rtm


@pytest.fixture(scope="module")
def co_run(tmp_path_factory):
    """One CO day via the CLI, reused by several tests."""
    tmp_path = tmp_path_factory.mktemp("cli_co")
    dam, rtm = write_price_files(tmp_path)
    out = tmp_path / "out"
    code = cli.main([
        "run", "--strategy", "co", "--dam", str(dam), "--rtm", str(rtm),
        "--start", DAY, "--end", DAY, "--out", str(out),
    ])
    return code, out, dam, rtm, tmp_path


class TestRun:
    def test_writes_log_and_summary(self, co_run):
        code, out, *_ = co_run
        assert code == 0
        log = out / "trajectory_co.csv"
        summary = out / "summary_co.txt"
        assert log.exists() and summary.exists()
        text = summary.read_text()
        assert "lcoh" in text and "flagged steps       0" in text
        assert len(log.read_text().splitlines()) == 97

    def test_rerun_byte_identical(self, co_run):
        code, out, dam, rtm, tmp_path = co_run
        out2 = tmp_path / "out2"
        code2 = cli.main([
            "run", "--strategy", "co", "--dam", str(dam), "--rtm", str(rtm),
            "--start", DAY, "--end", DAY, "--out", str(out2),
        ])
        assert code2 == 0
        assert (out / "trajectory_co.csv").read_bytes() == (out2 / "trajectory_co.csv").read_bytes()

    def test_missing_rtm_file_is_input_error(self, tmp_path, capsys):
        dam, _ = write_price_files(tmp_path)
        code = cli.main([
            "run", "--strategy", "hf-ms", "--dam", str(dam),
            "--rtm", str(tmp_path / "nope.csv"),
            "--start", DAY, "--end", DAY, "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_missing_rtm_flag_names_the_flag(self, tmp_path, capsys):
        dam, _ = write_price_files(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "run", "--strategy", "hf-ms", "--dam", str(dam),
                "--start", DAY, "--end", DAY, "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2
        assert "--rtm" in capsys.readouterr().err

    def test_unknown_strategy(self, tmp_path, capsys):
        dam, rtm = write_price_files(tmp_path)
        code = cli.main([
            "run", "--strategy", "warp", "--dam", str(dam), "--rtm", str(rtm),
            "--start", DAY, "--end", DAY, "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "warp" in capsys.readouterr().err

    def test_bad_date(self, tmp_path, capsys):
        dam, rtm = write_price_files(tmp_path)
        code = cli.main([
            "run", "--strategy", "co", "--dam", str(dam), "--rtm", str(rtm),
            "--start", "yesterday", "--end", DAY, "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_window_the_prices_do_not_cover_is_input_error(self, tmp_path, capsys):
        # the files cover Jan 3 and its lookahead day only
        dam, rtm = write_price_files(tmp_path)
        code = cli.main([
            "run", "--strategy", "co", "--dam", str(dam), "--rtm", str(rtm),
            "--start", "2022-01-04", "--end", "2022-01-04", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: DAM prices do not cover the run plus one lookahead day" in err
        assert "solver abort" not in err

    def test_offset_price_timestamps_are_input_error(self, tmp_path, capsys):
        dam, rtm = write_price_files(tmp_path)
        lines = dam.read_text().splitlines()
        dam.write_text("\n".join(lines[:1] + [line.replace(",", "+00:00,") for line in lines[1:]]) + "\n")
        code = cli.main([
            "run", "--strategy", "co", "--dam", str(dam), "--rtm", str(rtm),
            "--start", DAY, "--end", DAY, "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "dam.csv:2: offset timestamp" in capsys.readouterr().err

    def test_failed_bootstrap_solve_is_solver_abort(self, tmp_path, monkeypatch, capsys):
        real_solve = rollout.solve

        def failing_solve(prob, init, cfg):
            return dataclasses.replace(real_solve(prob, init, cfg), status="line_search_failed")

        monkeypatch.setattr(rollout, "solve", failing_solve)
        dam, rtm = write_price_files(tmp_path)
        code = cli.main([
            "run", "--strategy", "co", "--dam", str(dam), "--rtm", str(rtm),
            "--start", DAY, "--end", DAY, "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "no commitment is frozen" in capsys.readouterr().err

    def test_config_file_flows_through(self, tmp_path):
        dam, rtm = write_price_files(tmp_path)
        cfg = tmp_path / "plant.cfg"
        cfg.write_text("storage_capacity = 7000\nstorage_frac_min = 0.21\n")
        out = tmp_path / "ocfg"
        code = cli.main([
            "run", "--config", str(cfg), "--strategy", "co", "--dam", str(dam),
            "--rtm", str(rtm), "--start", DAY, "--end", DAY, "--out", str(out),
        ])
        assert code == 0

    def test_bad_config_is_input_error(self, tmp_path, capsys):
        dam, rtm = write_price_files(tmp_path)
        cfg = tmp_path / "plant.cfg"
        cfg.write_text("storage_frac_min = 1.2\n")
        code = cli.main([
            "run", "--config", str(cfg), "--strategy", "co", "--dam", str(dam),
            "--rtm", str(rtm), "--start", DAY, "--end", DAY, "--out", str(tmp_path / "o"),
        ])
        assert code == 2


class TestAnalyze:
    def test_all_selectors(self, co_run, tmp_path):
        _, out, *_ = co_run
        log = out / "trajectory_co.csv"
        for kind, artifact in [
            ("lcoh", "lcoh.csv"),
            ("cumcost", "cumcost.csv"),
            ("surface", "surface.csv"),
            ("kde", "kde.csv"),
        ]:
            dest = tmp_path / f"an_{kind}"
            code = cli.main(["analyze", "--log", str(log), kind, "--out", str(dest)])
            assert code == 0, kind
            assert (dest / artifact).exists()

    def test_explicit_kde_level_is_kept(self, co_run, tmp_path):
        # the CO day runs near 353 K: an explicit 343.15 K level selects
        # no steps instead of falling back to the log's own level
        _, out, *_ = co_run
        log = out / "trajectory_co.csv"
        code = cli.main([
            "analyze", "--log", str(log), "kde", "--temperature", "343.15",
            "--out", str(tmp_path / "an_kde"),
        ])
        assert code == 2

    def test_unknown_selector_exits_2(self, co_run, tmp_path):
        _, out, *_ = co_run
        log = out / "trajectory_co.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--log", str(log), "fourier", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_log_is_input_error(self, tmp_path, capsys):
        code = cli.main([
            "analyze", "--log", str(tmp_path / "ghost.csv"), "lcoh",
            "--out", str(tmp_path),
        ])
        assert code == 2

    @pytest.mark.parametrize("edit", [
        "too few fields", "extra field", "another strategy", "no number", "bad timestamp", "comment mark",
    ])
    def test_malformed_row_is_input_error_naming_its_line(self, co_run, tmp_path, capsys, edit):
        _, out, *_ = co_run
        lines = (out / "trajectory_co.csv").read_text().splitlines()
        cells = lines[5].split(",")
        lines[5] = ",".join({
            "too few fields": cells[:-1],
            "extra field": cells + ["0.0"],
            "another strategy": [cells[0], "hf-ms", *cells[2:]],
            "no number": [*cells[:4], "hot", *cells[5:]],
            "bad timestamp": ["2022-01-03T25:00:00", *cells[1:]],
            # numpy's default comment handling would read this cell as 4.0
            "comment mark": [*cells[:4], "4#5", *cells[5:]],
        }[edit])
        log = tmp_path / "bad.csv"
        log.write_text("\n".join(lines) + "\n")
        code = cli.main(["analyze", "--log", str(log), "lcoh", "--out", str(tmp_path / "an")])
        assert code == 2
        assert f"{log}:6:" in capsys.readouterr().err

    def test_analyze_builds_no_per_step_objects(self, co_run, tmp_path, monkeypatch):
        _, out, *_ = co_run

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"analyze built a {type(self).__name__}")

        monkeypatch.setattr(ControlAction, "__init__", refuse)
        monkeypatch.setattr(PlantState, "__init__", refuse)
        for kind in ("lcoh", "kde", "cumcost"):
            code = cli.main(["analyze", "--log", str(out / "trajectory_co.csv"), kind,
                             "--out", str(tmp_path / kind)])
            assert code == 0, kind

    def test_cumcost_emits_the_stored_running_totals(self, co_run, tmp_path):
        _, out, *_ = co_run
        log = rollout.TrajectoryLog.from_csv(out / "trajectory_co.csv")
        code = cli.main(["analyze", "--log", str(out / "trajectory_co.csv"), "cumcost",
                         "--out", str(tmp_path)])
        assert code == 0
        rows = [line.split(",") for line in (tmp_path / "cumcost.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == [ts.isoformat() for ts in log.timestamps]
        assert [r[1] for r in rows] == [repr(x) for x in log.cum_elec()]
        assert [r[2] for r in rows] == [repr(x) for x in log.cum_mem()]

    def test_analysis_imports_no_scipy(self, co_run, tmp_path):
        # the solver imports scipy at its first factorization; analysis never
        # factorizes, so a stray top-level import shows up here
        _, out, *_ = co_run
        script = (
            "import sys\n"
            "from h2mpc import analysis, cli, rollout\n"
            f"code = cli.main(['analyze', '--log', {str(out / 'trajectory_co.csv')!r}, 'lcoh',"
            f" '--out', {str(tmp_path / 'an')!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        assert done.stdout.splitlines()[-1] == "0 []"


class TestCompare:
    def test_two_strategy_compare(self, tmp_path):
        dam, rtm = write_price_files(tmp_path, rtm_spike=True)
        out = tmp_path / "cmp"
        code = cli.main([
            "compare", "--strategies", "hf-ms,hf-ss", "--dam", str(dam),
            "--rtm", str(rtm), "--start", DAY, "--end", DAY, "--out", str(out),
        ])
        assert code == 0
        assert (out / "trajectory_hf-ms.csv").exists()
        assert (out / "trajectory_hf-ss.csv").exists()
        comparison = (out / "cost_comparison.csv").read_text().splitlines()
        assert comparison[0] == "timestamp,cum_total_usd_hf-ms,cum_total_usd_hf-ss"
        assert len(comparison) == 97

    def test_empty_strategy_list(self, tmp_path, capsys):
        dam, rtm = write_price_files(tmp_path)
        code = cli.main([
            "compare", "--strategies", " , ", "--dam", str(dam), "--rtm", str(rtm),
            "--start", DAY, "--end", DAY, "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_repeated_strategy_is_input_error(self, tmp_path, capsys):
        # one log and one cost column per strategy: a repeat would run twice for nothing
        dam, rtm = write_price_files(tmp_path)
        code = cli.main([
            "compare", "--strategies", "co,lf-ms,CO", "--dam", str(dam), "--rtm", str(rtm),
            "--start", DAY, "--end", DAY, "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "repeats a strategy" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
