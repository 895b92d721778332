import csv
import ctypes
import errno
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from macdlab import backtest, cli, forks
from macdlab.cli import main
from macdlab.errors import DataError

from conftest import no_child_left, random_walk_closes


def write_csv(path, rows):
    path.write_text("code,date,close\n" + "".join(rows), encoding="utf-8")
    return path


def synthetic_rows(code, closes, start_month=1):
    from datetime import date, timedelta

    start = date(2014, 1, 2)
    return [f"{code},{(start + timedelta(days=i)).isoformat()},{float(c)!r}\n"
            for i, c in enumerate(closes)]


@pytest.fixture
def data_file(tmp_path):
    rng = np.random.default_rng(99)
    closes = random_walk_closes(rng, 220)
    return write_csv(tmp_path / "prices.csv", synthetic_rows("AAA.X", closes))


@pytest.fixture
def two_instrument_file(tmp_path):
    rng = np.random.default_rng(7)
    rows = synthetic_rows("AAA.X", random_walk_closes(rng, 160))
    rows += synthetic_rows("BBB.Y", random_walk_closes(rng, 160))
    return write_csv(tmp_path / "two.csv", rows)


@pytest.fixture
def good_bad_file(tmp_path):
    rows = synthetic_rows("GOOD", random_walk_closes(np.random.default_rng(13), 120))
    rows += synthetic_rows("BAD", [0.0] * 100)
    return write_csv(tmp_path / "good_bad.csv", rows)


BAD_REASON = "instrument 'BAD' unusable: 100 of 100 rows dropped by cleaning"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestExitCodes:
    def test_missing_data_flag_is_usage_error(self, capsys):
        assert main(["backtest"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_short_series_is_data_error(self, tmp_path, capsys):
        data = write_csv(tmp_path / "short.csv", synthetic_rows("A", [100.0] * 5))
        assert main(["backtest", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        assert "too short" in capsys.readouterr().err

    def test_optimize_on_short_series_is_data_error(self, tmp_path, capsys):
        closes = random_walk_closes(np.random.default_rng(30), 30)
        data = write_csv(tmp_path / "short.csv", synthetic_rows("A", closes))
        assert main(["optimize", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        assert "too short" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["ingest", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("data, message", [
        (b"code,date,close\nA\xe9,2014-01-01,1\n", "2: byte 0xe9 is not UTF-8"),
        (b"code,date,close\nA,2014-01-01," + b"1" * 200_000 + b"\n",
         "2: field larger than field limit (131072)"),
    ], ids=["not UTF-8", "over-long field"])
    def test_unreadable_file_is_data_error(self, tmp_path, capsys, data, message):
        path = tmp_path / "prices.csv"
        path.write_bytes(data)
        assert main(["ingest", "--data", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"macdlab: data error: {path}:{message}\n"

    def test_bad_population_is_config_error(self, data_file, tmp_path):
        assert main(["optimize", "--data", str(data_file), "--out", str(tmp_path / "o"),
                     "--pop", "1", "--max-gen", "1"]) == 1

    def test_bad_params_is_usage_error(self, data_file, tmp_path, capsys):
        assert main(["backtest", "--data", str(data_file), "--out", str(tmp_path / "o"),
                     "--params", "26,12,9"]) == 1

    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf", "abc"])
    @pytest.mark.parametrize("command", ["backtest", "compare", "optimize"])
    def test_bad_capital_is_usage_error(self, data_file, tmp_path, capsys, command, value):
        out = tmp_path / "o"
        assert main([command, "--data", str(data_file), "--out", str(out),
                     f"--capital={value}"]) == 1
        assert f"argument --capital: bad --capital {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["compare", "--risk-free", "nan"],
        ["optimize", "--risk-free", "nan"],
        ["optimize", "--pop", "1"],
        ["optimize", "--workers", "0"],
    ], ids=" ".join)
    def test_config_error_leaves_no_out(self, data_file, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--data", str(data_file), "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_date_is_data_error(self, tmp_path):
        data = write_csv(tmp_path / "bad.csv", ["A,2014-13-40,100\n"])
        assert main(["ingest", "--data", str(data), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["ingest", "denoise", "analyze", "backtest", "compare",
                                         "optimize"])
    def test_unreadable_data_leaves_no_out(self, tmp_path, command):
        data = write_csv(tmp_path / "bad.csv", ["A,2014-13-40,100\n"])
        out = tmp_path / "o"
        assert main([command, "--data", str(data), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "denoise", "analyze", "backtest", "compare",
                                         "optimize"])
    def test_directory_data_leaves_no_out(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert main([command, "--data", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"macdlab: data error: cannot read data file {tmp_path}: Is a directory\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "denoise", "analyze", "backtest", "compare",
                                         "optimize"])
    @pytest.mark.parametrize("out", ["taken", "taken/o"], ids=["a file", "under a file"])
    def test_out_that_cannot_be_a_directory_is_config_error(self, tmp_path, capsys, command,
                                                            out):
        """Checked before --data is read (here missing, else exit 2), and
        nothing is left behind."""
        (tmp_path / "taken").write_text("a file\n")
        before = tree(tmp_path)
        out = tmp_path / out
        assert main([command, "--data", str(tmp_path / "missing.csv"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"macdlab: config error: --out {out}: {tmp_path / 'taken'} is not a directory\n"
        assert tree(tmp_path) == before


class TestIngest:
    def test_summary_and_cleaned(self, tmp_path):
        rows = synthetic_rows("GOOD", [100.0, 101.0, 102.0, 103.0])
        rows += synthetic_rows("BAD", [0.0, 0.0, 0.0, 10.0])
        data = write_csv(tmp_path / "mix.csv", rows)
        out = tmp_path / "out"
        assert main(["ingest", "--data", str(data), "--out", str(out)]) == 0
        table = read_csv(out / "instruments.csv")
        assert table[0] == ["code", "rows", "rows_kept", "rows_dropped", "status"]
        by_code = {r[0]: r for r in table[1:]}
        assert by_code["GOOD"][4] == "ok"
        assert by_code["BAD"][4] == "unusable"
        cleaned = read_csv(out / "cleaned.csv")
        assert all(r[0] == "GOOD" for r in cleaned[1:])
        assert (out / "manifest.json").exists()


class TestBacktest:
    def test_happy_path_artifacts(self, data_file, tmp_path):
        out = tmp_path / "out"
        assert main(["backtest", "--data", str(data_file), "--out", str(out),
                     "--mode", "raw", "--params", "12,26,9"]) == 0
        assert (out / "metrics_AAA.X.json").exists()
        assert (out / "trades_AAA.X.json").exists()
        assert (out / "equity_AAA.X.csv").exists()
        assert (out / "chart_AAA.X.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "backtest"
        assert set(manifest["artifacts"]) >= {
            "metrics_AAA.X.json", "trades_AAA.X.json", "equity_AAA.X.csv", "chart_AAA.X.csv",
        }
        metrics = json.loads((out / "metrics_AAA.X.json").read_text())
        assert set(metrics) == {"win_rate", "odds_ratio", "trade_frequency", "total_return",
                                "annual_return", "sharpe_ratio", "max_drawdown"}

    def test_chart_rows_align_with_series(self, data_file, tmp_path):
        out = tmp_path / "out"
        main(["backtest", "--data", str(data_file), "--out", str(out), "--mode", "denoised"])
        chart = read_csv(out / "chart_AAA.X.csv")
        assert chart[0] == ["date", "close", "dif", "dif_denoised", "dea", "signal"]
        assert len(chart) - 1 == 220
        equity = read_csv(out / "equity_AAA.X.csv")
        assert len(equity) - 1 == 220

    def test_short_instrument_skipped_and_recorded(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        rows = synthetic_rows("LONG", random_walk_closes(rng, 400))
        rows += synthetic_rows("SHORT", random_walk_closes(rng, 20))
        data = write_csv(tmp_path / "mixed.csv", rows)
        out = tmp_path / "out"
        assert main(["backtest", "--data", str(data), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["skipped"] == {"SHORT": "series too short: 20 rows < slow period 26"}
        assert sorted(p.name for p in out.iterdir()) == sorted(
            manifest["artifacts"] + ["manifest.json"])
        assert all("LONG" in name for name in manifest["artifacts"])
        assert "skipped SHORT" in capsys.readouterr().err

    def test_manifest_without_skips_has_no_skipped_key(self, data_file, tmp_path):
        out = tmp_path / "out"
        assert main(["backtest", "--data", str(data_file), "--out", str(out)]) == 0
        assert "skipped" not in json.loads((out / "manifest.json").read_text())

    def test_total_loss_is_reported(self, tmp_path):
        # The one trade holds a 1e20 price down to 1.0: the final equity
        # rounds below zero, annual_return is a total loss, not complex.
        closes = np.concatenate([1e20 * np.linspace(1.0, 0.9, 40),
                                 1e20 * np.linspace(0.9, 1.0, 20), np.ones(60)])
        data = write_csv(tmp_path / "ruin.csv", synthetic_rows("RUIN", closes))
        assert main(["backtest", "--data", str(data), "--out", str(tmp_path / "b")]) == 0
        metrics = json.loads((tmp_path / "b" / "metrics_RUIN.json").read_text())
        assert metrics["annual_return"] == -100.0 and metrics["max_drawdown"] == 100.0
        assert main(["compare", "--data", str(data), "--out", str(tmp_path / "c")]) == 0
        table = read_csv(tmp_path / "c" / "comparison.csv")
        column = table[0].index("annual_return")
        assert [(r[1], r[column], r[-1]) for r in table[1:]][0] == ("raw", "-100.0", "ok")

    def test_gain_past_float_range_is_reported(self, tmp_path):
        # The one raw trade rides a rise to 1e200: the annual return is
        # past the float range, so it is inf, not an OverflowError.
        closes = np.concatenate([np.ones(30), np.geomspace(1.0, 1e200, 30),
                                 1e200 * np.linspace(1.0, 0.95, 10)])
        data = write_csv(tmp_path / "up.csv", synthetic_rows("UP", closes))
        assert main(["backtest", "--data", str(data), "--out", str(tmp_path / "b")]) == 0
        text = (tmp_path / "b" / "metrics_UP.json").read_text()
        assert '"annual_return": Infinity,' in text
        assert json.loads(text)["annual_return"] == float("inf")
        assert main(["compare", "--data", str(data), "--out", str(tmp_path / "c")]) == 0
        table = read_csv(tmp_path / "c" / "comparison.csv")
        column = table[0].index("annual_return")
        assert [(r[1], r[column], r[-1]) for r in table[1:]] == [
            (mode, "inf", "ok") for mode in ("raw", "denoised", "divergence")]

    @pytest.mark.parametrize("mode", ["raw", "denoised", "divergence"])
    def test_all_modes_run(self, data_file, tmp_path, mode):
        assert main(["backtest", "--data", str(data_file),
                     "--out", str(tmp_path / mode), "--mode", mode]) == 0


class TestCompare:
    def test_two_instruments_six_rows(self, two_instrument_file, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", "--data", str(two_instrument_file), "--out", str(out)]) == 0
        table = read_csv(out / "comparison.csv")
        assert table[0][0:2] == ["name", "mode"]
        assert len(table) - 1 == 6
        assert all(row[-1] == "ok" for row in table[1:])

    def test_unusable_instrument_isolated(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = synthetic_rows("GOOD", random_walk_closes(rng, 120))
        rows += synthetic_rows("BAD", [0.0] * 100)
        data = write_csv(tmp_path / "mix.csv", rows)
        out = tmp_path / "out"
        assert main(["compare", "--data", str(data), "--out", str(out)]) == 0
        table = read_csv(out / "comparison.csv")
        statuses = {(r[0], r[-1]) for r in table[1:]}
        assert ("BAD", "unusable") in statuses
        assert ("GOOD", "ok") in statuses
        assert len(table) - 1 == 6

    def test_rerun_is_byte_identical(self, two_instrument_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["compare", "--data", str(two_instrument_file), "--out", str(out1)])
        main(["compare", "--data", str(two_instrument_file), "--out", str(out2)])
        a = (out1 / "comparison.csv").read_bytes()
        b = (out2 / "comparison.csv").read_bytes()
        assert a == b


@pytest.fixture
def series_work(monkeypatch):
    """Counts of the work macdlab.backtest does per series: divergence_pairs
    calls, rows analysed by denoise_analysis (one per (fast, slow) pair),
    and EMAs of the closes (one-dimensional input) by period."""
    work = {"pairs": 0, "analysed": 0, "emas": Counter()}
    pairs, analysis, ema = backtest.divergence_pairs, backtest.denoise_analysis, backtest.ema

    def count_pairs(closes):
        work["pairs"] += 1
        return pairs(closes)

    def count_analysis(dif):
        work["analysed"] += len(dif)
        return analysis(dif)

    def count_ema(x, period):
        if np.ndim(x) == 1:
            work["emas"][period] += 1
        return ema(x, period)

    monkeypatch.setattr(backtest, "divergence_pairs", count_pairs)
    monkeypatch.setattr(backtest, "denoise_analysis", count_analysis)
    monkeypatch.setattr(backtest, "ema", count_ema)
    return work


def test_compare_does_each_series_work_once(two_instrument_file, tmp_path, series_work):
    """The three modes of an instrument share one cache: its divergence
    pairs, its (fast, slow) pair's wavelet analysis and each EMA period
    of its closes are computed once."""
    assert main(["compare", "--data", str(two_instrument_file), "--out", str(tmp_path)]) == 0
    assert series_work == {"pairs": 2, "analysed": 2, "emas": {12: 2, 26: 2}}


def test_optimize_does_each_series_work_once(data_file, tmp_path, series_work):
    """The GA and both comparison rows share one cache."""
    assert main(["optimize", "--data", str(data_file), "--out", str(tmp_path), "--pop", "24",
                 "--max-gen", "4", "--mode", "divergence"]) == 0
    assert series_work["pairs"] == 1
    assert set(series_work["emas"].values()) == {1}


def test_split_optimize_does_each_series_work_once(data_file, tmp_path, capsys, cpus,
                                                    monkeypatch):
    """With each generation's batch split over two processes, optimize
    writes what one process writes, computes the divergence pairs once,
    in this process before forking, and analyses each (fast, slow) pair
    once. Every process's calls are counted in one file."""
    calls = tmp_path / "calls"
    pairs, analysis = backtest.divergence_pairs, backtest.denoise_analysis

    def count_pairs(closes):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"pairs {os.getpid()}\n")
        return pairs(closes)

    def count_analysis(dif):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"analysed {len(dif)}\n")
        return analysis(dif)

    monkeypatch.setattr(backtest, "divergence_pairs", count_pairs)
    monkeypatch.setattr(backtest, "denoise_analysis", count_analysis)
    argv = ["optimize", "--pop", "24", "--max-gen", "4", "--mode", "divergence"]
    runs = []
    for count in (1, 2):
        forked = cpus(count)
        runs.append(outcome(argv, data_file, tmp_path / str(count), capsys))
        lines = calls.read_text(encoding="utf-8").split("\n")
        calls.unlink()
        assert [line for line in lines if line.startswith("pairs")] == [f"pairs {os.getpid()}"]
        assert bool(forked) == (count > 1)
        runs[-1] += (sum(int(line.split()[1]) for line in lines if line.startswith("analysed")),)
    assert runs[0] == runs[1]


class TestOptimize:
    def args(self, data, out, **kw):
        base = ["optimize", "--data", str(data), "--out", str(out),
                "--pop", "24", "--max-gen", "4", "--seed", "11"]
        for key, value in kw.items():
            base += [f"--{key}", str(value)]
        return base

    def test_artifacts(self, data_file, tmp_path):
        out = tmp_path / "out"
        assert main(self.args(data_file, out)) == 0
        best = json.loads((out / "best.json").read_text())
        assert set(best) == {"code", "mode", "fast", "slow", "signal", "fitness",
                             "generations", "converged"}
        assert 5 <= best["fast"] <= 20 and 20 <= best["slow"] <= 50
        history = read_csv(out / "history.csv")
        assert history[0] == ["generation", "best_fitness", "mean_fitness",
                              "best_fast", "best_slow", "best_signal"]
        comparison = read_csv(out / "comparison.csv")
        assert [r[0] for r in comparison[1:]] == ["default", "optimized"]
        assert comparison[1][1] == "12,26,9"

    def test_best_fitness_column_never_decreases(self, data_file, tmp_path):
        out = tmp_path / "out"
        main(self.args(data_file, out))
        history = read_csv(out / "history.csv")
        best = [float(r[1]) for r in history[1:]]
        assert all(b >= a for a, b in zip(best, best[1:]))

    def test_multi_instrument_needs_code(self, two_instrument_file, tmp_path):
        assert main(self.args(two_instrument_file, tmp_path / "o")) == 1
        assert main(self.args(two_instrument_file, tmp_path / "o2", code="BBB.Y")) == 0

    def test_unknown_code_is_data_error(self, data_file, tmp_path):
        assert main(self.args(data_file, tmp_path / "o", code="NOPE")) == 2

    def test_loads_no_orjson(self, data_file, tmp_path):
        """Only the CSV float writer imports orjson, and optimize and
        compare write no float column; denoise, which does, loads it."""
        probe = (
            "import sys\n"
            "from macdlab.cli import main\n"
            "loaded = []\n"
            "for command in ('optimize', 'compare', 'denoise'):\n"
            "    assert main([command, '--data', sys.argv[1], '--out', sys.argv[2] + '/' + command,\n"
            "                 *(['--pop', '24', '--max-gen', '2'] if command == 'optimize' else [])]) == 0\n"
            "    loaded.append('orjson' in sys.modules)\n"
            "print(loaded)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", probe, str(data_file), str(tmp_path)],
                             env=env, capture_output=True, text=True, check=True)
        assert run.stdout.splitlines()[-1] == "[False, False, True]"

    def test_unusable_instrument_skipped_and_recorded(self, good_bad_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(self.args(good_bad_file, out, code="GOOD")) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["skipped"] == {"BAD": BAD_REASON}
        assert f"skipped BAD: {BAD_REASON}" in capsys.readouterr().err


class TestAnalyzeAndDenoise:
    def test_analyze_artifacts(self, data_file, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--data", str(data_file), "--out", str(out)]) == 0
        table = read_csv(out / "oscillation_AAA.X.csv")
        assert table[0] == ["date", "close", "mean10", "inband", "pairflag", "mask"]
        assert len(table) - 1 == 220
        events = json.loads((out / "divergences_AAA.X.json").read_text())
        for event in events:
            assert event["kind"] in ("top", "bottom")
            assert event["previous_extreme_index"] < event["current_extreme_index"]

    def test_analyze_skips_what_it_cannot_analyze(self, tmp_path, capsys):
        # SHORT fails the oscillation mask's 10 days, MID the divergence
        # pass's 17 days: neither may leave a file behind.
        rng = np.random.default_rng(14)
        rows = synthetic_rows("LONG", random_walk_closes(rng, 400))
        rows += synthetic_rows("MID", random_walk_closes(rng, 12))
        rows += synthetic_rows("SHORT", random_walk_closes(rng, 6))
        rows += synthetic_rows("BAD", [0.0] * 30)
        data = write_csv(tmp_path / "mixed.csv", rows)
        out = tmp_path / "out"
        assert main(["analyze", "--data", str(data), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == ["divergences_LONG.json", "oscillation_LONG.csv"]
        assert manifest["skipped"] == {
            "BAD": "instrument 'BAD' unusable: 30 of 30 rows dropped by cleaning",
            "MID": "need at least 17 days, got 12",
            "SHORT": "need at least 10 days, got 6",
        }
        assert sorted(p.name for p in out.iterdir()) == sorted(
            manifest["artifacts"] + ["manifest.json"])
        err = capsys.readouterr().err
        assert all(f"skipped {code}: " in err for code in ("BAD", "MID", "SHORT"))

    def test_analyze_exits_2_when_nothing_analyzed(self, tmp_path, capsys):
        data = write_csv(tmp_path / "short.csv", synthetic_rows("A", [100.0] * 6))
        out = tmp_path / "out"
        assert main(["analyze", "--data", str(data), "--out", str(out)]) == 2
        assert "could be analyzed: A: need at least 10 days, got 6" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_analyze_manifest_without_skips_has_no_skipped_key(self, data_file, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--data", str(data_file), "--out", str(out)]) == 0
        assert "skipped" not in json.loads((out / "manifest.json").read_text())

    def test_denoise_skips_unusable_instrument(self, good_bad_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["denoise", "--data", str(good_bad_file), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == ["denoise_GOOD.csv"]
        assert manifest["skipped"] == {"BAD": BAD_REASON}
        assert f"skipped BAD: {BAD_REASON}" in capsys.readouterr().err

    def test_denoise_exits_2_when_nothing_usable(self, tmp_path, capsys):
        data = write_csv(tmp_path / "bad.csv", synthetic_rows("BAD", [0.0] * 30))
        out = tmp_path / "out"
        assert main(["denoise", "--data", str(data), "--out", str(out)]) == 2
        assert "no usable instrument" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_denoise_columns_aligned(self, data_file, tmp_path):
        out = tmp_path / "out"
        assert main(["denoise", "--data", str(data_file), "--out", str(out)]) == 0
        table = read_csv(out / "denoise_AAA.X.csv")
        assert table[0] == ["date", "dif", "dif_denoised"]
        assert len(table) - 1 == 220


# The per-instrument commands: the artifacts each writes for instrument {0},
# and its reason for skipping an 8-day instrument (None: it processes one).
PER_INSTRUMENT = {
    "denoise": (["denoise_{0}.csv"], None),
    "analyze": (["divergences_{0}.json", "oscillation_{0}.csv"], "need at least 10 days, got 8"),
    "backtest": (["chart_{0}.csv", "equity_{0}.csv", "metrics_{0}.json", "trades_{0}.json"],
                 "series too short: 8 rows < slow period 26"),
}
DONE = {"denoise": "denoised", "analyze": "analyzed", "backtest": "backtested"}


def artifacts_of(command, *codes):
    return sorted(name.format(code) for code in codes for name in PER_INSTRUMENT[command][0])


def listing(out):
    return sorted(p.name for p in out.iterdir())


@pytest.mark.parametrize("command", PER_INSTRUMENT)
def test_skip_rule(command, good_bad_file, tmp_path, capsys):
    """denoise, analyze and backtest skip an instrument they cannot
    process, with its reason in the manifest and on stderr, and write no
    file for it; they exit 2, with no --out, when none was processed."""
    short_reason = PER_INSTRUMENT[command][1]
    short_rows = synthetic_rows("SHORT", random_walk_closes(np.random.default_rng(8), 8))
    with open(good_bad_file, "a", encoding="utf-8") as fh:
        fh.write("".join(short_rows))
    out = tmp_path / "out"
    assert main([command, "--data", str(good_bad_file), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    reasons = {"BAD": BAD_REASON} | ({"SHORT": short_reason} if short_reason else {})
    assert manifest["skipped"] == reasons
    processed = ["GOOD"] + ([] if short_reason else ["SHORT"])
    assert manifest["artifacts"] == artifacts_of(command, *processed)
    assert listing(out) == sorted(manifest["artifacts"] + ["manifest.json"])
    err = capsys.readouterr().err
    assert all(f"skipped {code}: {why}\n" in err for code, why in reasons.items())

    bad = write_csv(tmp_path / "bad.csv", synthetic_rows("BAD", [0.0] * 100)
                    + (short_rows if short_reason else []))
    out = tmp_path / "nothing"
    assert main([command, "--data", str(bad), "--out", str(out)]) == 2
    if short_reason:
        why = f"could be {DONE[command]}: BAD: {BAD_REASON}; SHORT: {short_reason}\n"
    else:
        why = f"no usable instrument in {bad}\n"
    assert capsys.readouterr().err.endswith(why)
    assert not out.exists()


def test_compare_skip_rule(good_bad_file, tmp_path, capsys):
    """compare keeps a row per instrument and mode, and records each
    instrument it cannot compare once, in the manifest and on stderr; it
    exits 2, with no --out, when no row could be compared."""
    short_reason = "series too short: 8 rows < slow period 26"
    short_rows = synthetic_rows("SHORT", random_walk_closes(np.random.default_rng(8), 8))
    with open(good_bad_file, "a", encoding="utf-8") as fh:
        fh.write("".join(short_rows))
    out = tmp_path / "out"
    assert main(["compare", "--data", str(good_bad_file), "--out", str(out)]) == 0
    statuses = [(row[0], row[1], row[-1]) for row in read_csv(out / "comparison.csv")[1:]]
    assert statuses == [(code, mode, status) for code, status in (
        ("BAD", "unusable"), ("GOOD", "ok"), ("SHORT", "error"))
                        for mode in ("raw", "denoised", "divergence")]
    manifest = json.loads((out / "manifest.json").read_text())
    reasons = {"BAD": BAD_REASON, "SHORT": short_reason}
    assert manifest["skipped"] == reasons
    assert manifest["artifacts"] == ["comparison.csv"]
    err = capsys.readouterr().err
    assert all(err.count(f"skipped {code}: {why}\n") == 1 for code, why in reasons.items())

    for rows, why in (
        (synthetic_rows("BAD", [0.0] * 100), "no usable instrument in {}\n"),
        (short_rows, "no instrument in {} could be compared: SHORT: " + short_reason + "\n"),
        (synthetic_rows("BAD", [0.0] * 100) + short_rows,
         "no instrument in {} could be compared: BAD: " + BAD_REASON
         + "; SHORT: " + short_reason + "\n"),
    ):
        bad = write_csv(tmp_path / "bad.csv", rows)
        out = tmp_path / "nothing"
        assert main(["compare", "--data", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(why.format(bad))
        assert not out.exists()


# Codes that cannot name an artifact, each with the end of its skip reason.
UNNAMEABLE = {"A/B": "is not a plain file name", "L" * 300: "is too long for a file name"}


@pytest.mark.parametrize("command", PER_INSTRUMENT)
def test_code_that_cannot_name_a_file_is_skipped(command, tmp_path, capsys):
    """An instrument code holding a `/`, or too long for a file name,
    cannot name an artifact: the instrument is skipped with that reason
    and nothing is written for it, inside --out or out of it; alone in
    the file, it makes a data error that leaves no --out."""
    good = synthetic_rows("GOOD", random_walk_closes(np.random.default_rng(13), 120))
    for case, (code, why) in enumerate(UNNAMEABLE.items()):
        root = tmp_path / str(case)
        root.mkdir()
        bad = synthetic_rows(code, random_walk_closes(np.random.default_rng(8), 120))
        data = write_csv(root / "bad.csv", bad + good)
        out = root / "out"
        assert main([command, "--data", str(data), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == artifacts_of(command, "GOOD")
        [(skipped, reason)] = manifest["skipped"].items()
        assert skipped == code
        assert re.fullmatch(rf"artifact name '[a-z]+_{re.escape(code)}\.(csv|json)' {why}", reason)
        assert f"skipped {code}: {reason}\n" in capsys.readouterr().err
        assert listing(out) == sorted(manifest["artifacts"] + ["manifest.json"])
        assert listing(root) == ["bad.csv", "out"]

        only = write_csv(root / "only.csv", bad)
        out = root / "nothing"
        assert main([command, "--data", str(only), "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(f"could be {DONE[command]}: {code}: {reason}\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["backtest", "compare", "optimize"])
def test_run_options_have_help(command, capsys):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--capital CAPITAL initial capital, finite and positive (default: 500000)" in text
    assert "--risk-free RISK_FREE annual risk-free rate in percent (default: 2.653)" in text


# Each command with options, and the options its manifest records: every
# one it was given except --data and --out, optimize's --code resolved.
GA_DEFAULTS = {"pc": 0.8, "pm": 0.1, "patience": 8, "workers": 1, "capital": 500000.0,
               "risk_free": 2.653}
MANIFEST_OPTIONS = {
    "ingest": ([], {}),
    "denoise": (["--params", "10,30,7"], {"params": [10, 30, 7]}),
    "analyze": (["--params", "10,30,7"], {"params": [10, 30, 7]}),
    "backtest": (["--mode", "denoised", "--params", "10,30,7", "--capital", "1000",
                  "--risk-free", "1.5"],
                 {"mode": "denoised", "params": [10, 30, 7], "capital": 1000.0, "risk_free": 1.5}),
    "compare": (["--capital", "1000"],
                {"params": [12, 26, 9], "capital": 1000.0, "risk_free": 2.653}),
    "optimize": (["--mode", "divergence", "--pop", "24", "--max-gen", "2", "--seed", "11"],
                 {"mode": "divergence", "code": "AAA.X", "pop": 24, "max_gen": 2, "seed": 11,
                  **GA_DEFAULTS}),
}


@pytest.mark.parametrize("command", MANIFEST_OPTIONS)
def test_manifest_records_options(command, data_file, tmp_path):
    argv, options = MANIFEST_OPTIONS[command]
    out = tmp_path / "out"
    assert main([command, "--data", str(data_file), "--out", str(out), *argv]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["data"] == str(data_file)
    assert manifest["options"] == options


# The library call each per-instrument command makes first for an instrument.
FIRST_CALL = {"denoise": "compute_indicators", "analyze": "detect_oscillation",
              "backtest": "run_backtest"}


@pytest.mark.parametrize("error", [DataError, ValueError])
@pytest.mark.parametrize("command", PER_INSTRUMENT)
def test_instrument_that_fails_is_skipped(command, error, two_instrument_file, tmp_path,
                                          capsys, monkeypatch):
    """Whatever data error a command's work raises on one instrument,
    that instrument alone is skipped."""
    call = getattr(cli, FIRST_CALL[command])

    def failing(series, *args, **kwargs):
        if series.code == "AAA.X":
            raise error("cannot process")
        return call(series, *args, **kwargs)

    monkeypatch.setattr(cli, FIRST_CALL[command], failing)
    out = tmp_path / "out"
    assert main([command, "--data", str(two_instrument_file), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["skipped"] == {"AAA.X": "cannot process"}
    assert manifest["artifacts"] == artifacts_of(command, "BBB.Y")
    assert listing(out) == sorted(manifest["artifacts"] + ["manifest.json"])
    assert "skipped AAA.X: cannot process\n" in capsys.readouterr().err


@pytest.mark.parametrize("command", PER_INSTRUMENT)
def test_rerun_deletes_stale_artifacts(command, two_instrument_file, tmp_path):
    one = write_csv(tmp_path / "one.csv", [line for line in two_instrument_file.read_text()
                                           .splitlines(keepends=True) if line.startswith("AAA.X,")])
    out = tmp_path / "out"
    assert main([command, "--data", str(two_instrument_file), "--out", str(out)]) == 0
    assert main([command, "--data", str(one), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == artifacts_of(command, "AAA.X")
    assert listing(out) == sorted(manifest["artifacts"] + ["manifest.json"])


def test_stale_artifacts_are_only_plain_names_inside_out(data_file, tmp_path):
    """Only files the previous manifest listed by a plain name directly
    inside --out are deleted; nothing else is touched."""
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    (out / "dir").mkdir()
    for path in (tmp_path / "outside.txt", out / "sub" / "inner.txt", out / "old.csv",
                 out / "mine.txt"):
        path.write_text("x")
    listed = ["../outside.txt", str(tmp_path / "outside.txt"), "sub/inner.txt", "sub", "dir",
              "old.csv", "gone.csv"]
    (out / "manifest.json").write_text(json.dumps({"artifacts": listed}))
    assert main(["denoise", "--data", str(data_file), "--out", str(out)]) == 0
    assert (tmp_path / "outside.txt").exists() and (out / "sub" / "inner.txt").exists()
    assert listing(out) == ["denoise_AAA.X.csv", "dir", "manifest.json", "mine.txt", "sub"]

    # Only a JSON list names files: a string's characters, or an
    # object's keys, name none.
    for listed in ("ab", {"a": 1, "b": 2}):
        for name in ("a", "b"):
            (out / name).write_text("x")
        (out / "manifest.json").write_text(json.dumps({"artifacts": listed}))
        assert main(["denoise", "--data", str(data_file), "--out", str(out)]) == 0
        assert listing(out) == ["a", "b", "denoise_AAA.X.csv", "dir", "manifest.json",
                                "mine.txt", "sub"]


# What ingest, compare and optimize write into --out besides manifest.json.
WHOLE_FILE = {
    "ingest": (["cleaned.csv", "instruments.csv"], []),
    "compare": (["comparison.csv"], []),
    "optimize": (["best.json", "comparison.csv", "history.csv"], ["--pop", "24", "--max-gen", "2"]),
}


@pytest.mark.parametrize("command", WHOLE_FILE)
def test_manifest_names_every_artifact(command, data_file, tmp_path):
    artifacts, argv = WHOLE_FILE[command]
    out = tmp_path / "out"
    assert main([command, "--data", str(data_file), "--out", str(out), *argv]) == 0
    assert json.loads((out / "manifest.json").read_text())["artifacts"] == artifacts
    assert listing(out) == sorted(artifacts + ["manifest.json"])


def test_rerun_of_another_command_deletes_stale_artifacts(data_file, tmp_path):
    """compare into the --out of an optimize run leaves only its own files."""
    out = tmp_path / "out"
    assert main(["optimize", "--data", str(data_file), "--out", str(out),
                 *WHOLE_FILE["optimize"][1]]) == 0
    assert main(["compare", "--data", str(data_file), "--out", str(out)]) == 0
    assert listing(out) == ["comparison.csv", "manifest.json"]


def test_write_that_raises_lists_nothing(two_instrument_file, tmp_path, capsys, monkeypatch):
    """An artifact write that raises skips its instrument: the files
    already written for it never reach --out and are unlisted, so only
    the other instrument's artifacts are there and the manifest names
    exactly what --out holds, and stdout's `wrote` lines."""
    write_csv = cli._write_csv

    def failing(path, header, columns):
        if path.name == "chart_AAA.X.csv":
            raise ValueError("cannot write")
        write_csv(path, header, columns)

    monkeypatch.setattr(cli, "_write_csv", failing)
    out = tmp_path / "out"
    assert main(["backtest", "--data", str(two_instrument_file), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["skipped"] == {"AAA.X": "cannot write"}
    assert manifest["artifacts"] == sorted(artifacts_of("backtest", "BBB.Y"))
    assert listing(out) == sorted(manifest["artifacts"] + ["manifest.json"])
    wrote = [line.removeprefix(f"wrote {out}/") for line in capsys.readouterr().out.splitlines()]
    assert sorted(wrote) == listing(out) and wrote[-1] == "manifest.json"


def test_json_that_cannot_be_encoded_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        cli._write_json(tmp_path / "x.json", {"annual_return": 1j})
    assert listing(tmp_path) == []


def tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestFreedHeap:
    """optimize asks, before its GA, glibc's mallopt, once per process, to
    keep chunk-sized arrays on the heap and freed heap mapped; where the C
    library cannot be reached or has no mallopt, the command runs and
    writes the same artifacts."""

    @pytest.fixture(autouse=True)
    def fresh_process(self):
        cli._keep_freed_heap.cache_clear()
        yield
        cli._keep_freed_heap.cache_clear()

    @staticmethod
    def optimize(data, out, capsys):
        rc = main(["optimize", "--mode", "divergence", "--data", str(data), "--out", str(out),
                   "--pop", "24", "--max-gen", "4", "--seed", "11"])
        printed = capsys.readouterr()
        return rc, printed.out.replace(str(out), "OUT"), printed.err, tree(out)

    @pytest.mark.parametrize("no_mallopt", ["no_library", "no_symbol"])
    def test_without_mallopt_outputs_are_identical(self, data_file, tmp_path, capsys,
                                                   monkeypatch, no_mallopt):
        normal = self.optimize(data_file, tmp_path / "normal", capsys)
        cli._keep_freed_heap.cache_clear()
        opened = []

        def cdll(name, *args, **kwargs):
            opened.append(name)
            if no_mallopt == "no_library":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert self.optimize(data_file, tmp_path / "bare", capsys) == normal
        assert normal[0] == 0 and opened == [None]

    def test_set_once_per_process(self, data_file, tmp_path, capsys, monkeypatch):
        calls = []

        class Libc:
            def __init__(self, name, *args, **kwargs):
                def mallopt(param, value):
                    calls.append((param, value))
                    return 1

                self.mallopt = mallopt

        monkeypatch.setattr(ctypes, "CDLL", Libc)
        first = self.optimize(data_file, tmp_path / "a", capsys)
        second = self.optimize(data_file, tmp_path / "b", capsys)
        assert first == second and first[0] == 0
        assert calls == [(-1, 32 << 20), (-3, 4 << 20)]

    def test_only_optimize_sets_it(self, data_file, tmp_path, capsys, monkeypatch):
        """The other commands run on glibc's own thresholds: none of them
        calls mallopt; optimize calls it once per process."""
        calls = []

        class Libc:
            def __init__(self, name, *args, **kwargs):
                self.mallopt = lambda param, value: calls.append((param, value)) or 1

        monkeypatch.setattr(ctypes, "CDLL", Libc)
        others = [["ingest"], ["denoise"], ["analyze"], ["compare"]]
        others += [["backtest", "--mode", mode] for mode in cli.MODE_CHOICES]
        for k, argv in enumerate(others):
            assert main([*argv, "--data", str(data_file), "--out", str(tmp_path / f"o{k}")]) == 0
        assert calls == []
        for k in range(2):
            assert self.optimize(data_file, tmp_path / f"ga{k}", capsys)[0] == 0
            assert calls == [(-1, 32 << 20), (-3, 4 << 20)]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_chunk_sized_arrays_reuse_the_heap(self):
        """After the setting, 100 rounds of allocating and freeing two
        256 KiB arrays (the GA's chunk size) fault their pages in about
        once; without it, most rounds fault them in anew (thousands of
        faults, as with the trim threshold alone). Run in a fresh
        interpreter, whose malloc state no earlier test has touched. Both
        runs import macdlab, then fill the free heap the import left with
        64 blocks of 120 KiB (under either mmap threshold), so no hole
        fits a 256 KiB array: the holes vary with the size of the code
        and of the environment, and one that fits both arrays would spare
        the default run its faults."""
        probe = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from macdlab import cli\n"
            "if sys.argv[1] == 'set':\n"
            "    cli._keep_freed_heap()\n"
            "filler = [bytearray(120 << 10) for _ in range(64)]\n"
            "start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(100):\n"
            "    a = np.ones(32768)\n"
            "    b = a * 2\n"
            "    del a, b\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

        def faults(setting):
            run = subprocess.run([sys.executable, "-c", probe, setting], env=env,
                                 capture_output=True, text=True, check=True)
            return int(run.stdout)

        assert faults("set") < 1000 < faults("default")


# ------------------------------------------------------- one process per CPU


@pytest.fixture
def panel_file(tmp_path):
    """Instruments sorting as 600000, 600001, A/B, BAD, SHORT, ZZZ. Cut
    in two by days, the first block is 600000 and 600001, and the second
    holds the bad code and the too-short instrument; BAD is screened out
    before the cut."""
    rng = np.random.default_rng(21)
    rows = []
    for code, days in (("600000", 150), ("600001", 150), ("A/B", 120), ("SHORT", 8),
                       ("ZZZ", 150)):
        rows += synthetic_rows(code, random_walk_closes(rng, days))
    return write_csv(tmp_path / "panel.csv", rows + synthetic_rows("BAD", [0.0] * 100))


# Label -> CPUs this process may run on; every usable day is enough for
# one process of its own.
CPUS = {"one process": 1, "two processes": 2, "more CPUs than instruments": 16}


def outcome(argv, data, out, capsys):
    """What a command leaves: its exit code, stdout (--out as OUT),
    stderr and --out's files (None when there is no --out)."""
    rc = main([*argv, "--data", str(data), "--out", str(out)])
    printed = capsys.readouterr()
    assert no_child_left()
    return rc, printed.out.replace(str(out), "OUT"), printed.err, tree(out) if out.exists() else None


@pytest.mark.parametrize("argv", [["denoise"], ["analyze"],
                                  *(["backtest", "--mode", mode] for mode in cli.MODE_CHOICES),
                                  ["compare"]],
                         ids=" ".join)
def test_processes_change_no_output(argv, panel_file, tmp_path, capsys, cpus):
    """Run in one process, in two, or with more CPUs than instruments, a
    command leaves the same --out, manifest, stdout, stderr and exit
    code; the skips of the child's block keep their place."""
    runs = {}
    for label, count in CPUS.items():
        forked = cpus(count)
        runs[label] = outcome(argv, panel_file, tmp_path / label, capsys)
        runs[label] += (len(forked),)
    assert [run[-1] for run in runs.values()] == [0, 1, 4]
    reference = runs["one process"][:-1]
    assert all(run[:-1] == reference for run in runs.values())
    rc, _, err, files = reference
    manifest = json.loads(files["manifest.json"])
    if argv[0] == "compare":
        skipped = ["BAD", "SHORT"]
        assert manifest["artifacts"] == ["comparison.csv"]
        statuses = [line.rsplit(b",", 1)[1] for line in files["comparison.csv"].splitlines()[1:]]
        assert statuses == [b"ok"] * 9 + [b"unusable"] * 3 + [b"error"] * 3 + [b"ok"] * 3
    else:
        short = PER_INSTRUMENT[argv[0]][1]
        skipped = ["BAD", "A/B"] + (["SHORT"] if short else [])
        done = ["600000", "600001", "ZZZ"] + ([] if short else ["SHORT"])
        assert manifest["artifacts"] == artifacts_of(argv[0], *done)
    assert rc == 0 and sorted(manifest["skipped"]) == sorted(skipped)
    assert [line.split(":")[0] for line in err.splitlines()] == [f"skipped {code}"
                                                                 for code in skipped]


@pytest.mark.parametrize("command", PER_INSTRUMENT)
def test_nothing_done_in_any_process_leaves_no_out(command, tmp_path, capsys, cpus):
    """No usable instrument, or none that any process could do: the same
    data error in one process as in several, and no --out."""
    bad = synthetic_rows("BAD", [0.0] * 100)
    rng = np.random.default_rng(8)
    slashes = synthetic_rows("A/B", random_walk_closes(rng, 120))
    slashes += synthetic_rows("C/D", random_walk_closes(rng, 120))
    for rows, forks in ((bad, [0, 0, 0]), (bad + slashes, [0, 1, 1])):
        data = write_csv(tmp_path / "nothing.csv", rows)
        runs = []
        for count in CPUS.values():
            forked = cpus(count)
            runs.append(outcome([command], data, tmp_path / "out", capsys) + (len(forked),))
        assert [run[-1] for run in runs] == forks
        assert all(run[:-1] == runs[0][:-1] for run in runs)
        assert runs[0][0] == 2 and runs[0][3] is None


@pytest.mark.parametrize("failing", ["600001", "ZZZ"],
                         ids=["a middle instrument", "the last instrument"])
def test_write_error_ends_the_command(failing, panel_file, tmp_path, capsys, cpus, monkeypatch):
    """A write that raises something other than a data error (a full
    disk) ends the command with that exception, no manifest and no
    `wrote` line, in whichever process it ran: --out, stdout and stderr
    are those of one process."""
    write_csv = cli._write_csv

    def full_disk(path, header, columns):
        if path.name == f"chart_{failing}.csv":
            raise OSError(errno.ENOSPC, "No space left on device")
        write_csv(path, header, columns)

    monkeypatch.setattr(cli, "_write_csv", full_disk)
    runs = []
    for label, count in CPUS.items():
        forked, out = cpus(count), tmp_path / label
        with pytest.raises(OSError) as raised:
            main(["backtest", "--data", str(panel_file), "--out", str(out)])
        printed = capsys.readouterr()
        assert no_child_left() and raised.value.errno == errno.ENOSPC
        runs.append((str(raised.value), printed.out.replace(str(out), "OUT"), printed.err,
                     out.exists(), len(forked)))
    assert [run[-1] for run in runs] == [0, 1, 4]
    assert all(run[:-1] == runs[0][:-1] for run in runs)
    assert not any(line.startswith("wrote") for line in runs[0][1].splitlines())
    assert runs[0][3] is False  # --out unchanged: it was absent and stays so


@pytest.mark.parametrize("code", ["600000", "ZZZ"],
                         ids=["the first instrument", "the last instrument"])
def test_interrupt_ends_the_command(code, panel_file, tmp_path, cpus, monkeypatch):
    """An interrupt is no instrument's failure: it ends the command, from
    whichever process, with no manifest and no child left."""
    call = cli.run_backtest

    def interrupted(series, *args, **kwargs):
        if series.code == code:
            raise KeyboardInterrupt
        return call(series, *args, **kwargs)

    monkeypatch.setattr(cli, "run_backtest", interrupted)
    forked = cpus(2)
    with pytest.raises(KeyboardInterrupt):
        main(["backtest", "--data", str(panel_file), "--out", str(tmp_path / "out")])
    assert len(forked) == 1 and no_child_left()
    assert "manifest.json" not in tree(tmp_path / "out")


# ------------------------------------------------ --out changes only on success


@pytest.fixture
def four_file(tmp_path):
    """Four instruments of 150 days, I1 to I4."""
    rng = np.random.default_rng(34)
    rows = []
    for k in range(1, 5):
        rows += synthetic_rows(f"I{k}", random_walk_closes(rng, 150))
    return write_csv(tmp_path / "four.csv", rows)


def snapshot(root):
    """Every entry under root by relative path: a file's bytes, None for
    a directory; None when root is absent."""
    if not root.exists():
        return None
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def runs_leave_out_unchanged(root, earlier, fail, run, capsys):
    """Make root holding `kept`, the --out of the command `earlier` (an
    argv less --out) plus a file no manifest lists; call `fail()`, then
    `run(out)` for `kept` and for an absent --out. Each run leaves every
    entry and byte under root as it was (so no staging directory and an
    absent --out still absent), no child, and no `wrote` line."""
    kept = root / "kept"
    assert main([*earlier, "--out", str(kept)]) == 0
    (kept / "notes.txt").write_text("no manifest lists this\n")
    before = snapshot(root)
    capsys.readouterr()
    fail()
    for out in (kept, root / "absent"):
        run(out)
        assert no_child_left() and snapshot(root) == before
        assert "wrote" not in capsys.readouterr().out


# Label -> processes of a failure test.
COUNTS = {"one process": 1, "two processes": 2}


@pytest.mark.parametrize("count", COUNTS.values(), ids=COUNTS)
@pytest.mark.parametrize("failing", ["I1", "I2", "I4"],
                         ids=["the first instrument", "a middle instrument", "the last instrument"])
def test_write_error_leaves_out_unchanged(failing, count, four_file, tmp_path, capsys, cpus,
                                          monkeypatch):
    """A write that fails with a full disk, at any instrument and in any
    process, ends the command with that error and --out as it was."""
    write_csv = cli._write_csv

    def full_disk(path, header, columns):
        if path.name == f"chart_{failing}.csv":
            raise OSError(errno.ENOSPC, "No space left on device")
        write_csv(path, header, columns)

    def run(out):
        forked = cpus(count)
        with pytest.raises(OSError) as raised:
            main(["backtest", "--data", str(four_file), "--out", str(out)])
        assert raised.value.errno == errno.ENOSPC and len(forked) == count - 1

    runs_leave_out_unchanged(tmp_path / "runs",
                             ["backtest", "--data", str(four_file), "--capital", "50000"],
                             lambda: monkeypatch.setattr(cli, "_write_csv", full_disk), run, capsys)


def test_write_error_stops_at_the_failing_instrument(four_file, tmp_path, cpus, monkeypatch):
    """In one process, a write that fails with a full disk at the first
    of four instruments leaves the other three unbacktested."""
    write_csv, call, backtested = cli._write_csv, cli.run_backtest, []

    def full_disk(path, header, columns):
        if path.name == "chart_I1.csv":
            raise OSError(errno.ENOSPC, "No space left on device")
        write_csv(path, header, columns)

    def counted(series, *args, **kwargs):
        backtested.append(series.code)
        return call(series, *args, **kwargs)

    monkeypatch.setattr(cli, "_write_csv", full_disk)
    monkeypatch.setattr(cli, "run_backtest", counted)
    cpus(1)
    with pytest.raises(OSError):
        main(["backtest", "--data", str(four_file), "--out", str(tmp_path / "out")])
    assert backtested == ["I1"]


# Label -> (processes, whether a child is interrupted).
INTERRUPTS = {"this process, in one process": (1, False),
              "this process, in two processes": (2, False),
              "a child": (2, True)}


@pytest.mark.parametrize("where", INTERRUPTS)
def test_interrupt_leaves_out_unchanged(where, four_file, tmp_path, capsys, cpus, monkeypatch):
    """An interrupt in one process's second instrument, or in one of two
    processes' instrument once the other has written one, ends the
    command with --out as it was: no file that any process wrote stays."""
    count, in_child = INTERRUPTS[where]
    marks, write_csv = tmp_path / "marks", cli._write_csv

    def interrupted(path, header, columns):
        """Write, and mark each chart written with its process. Once
        another instrument's chart is marked (in two processes, one of
        the other process's, waited for up to 10 s, so that both have
        written one), the chosen process is interrupted."""
        write_csv(path, header, columns)
        if not path.name.startswith("chart_"):
            return
        here = forks._forked
        (marks / f"{here}-{path.name}").touch()
        other = f"{here if count == 1 else not here}-"
        deadline = time.monotonic() + 10
        while not any(m.name.startswith(other) and not m.name.endswith(path.name)
                      for m in marks.iterdir()):
            if count == 1 or time.monotonic() > deadline:
                return
            time.sleep(0.005)
        if here == in_child:
            raise KeyboardInterrupt

    def run(out):
        shutil.rmtree(marks, ignore_errors=True)
        marks.mkdir()
        forked = cpus(count)
        with pytest.raises(KeyboardInterrupt):
            main(["backtest", "--data", str(four_file), "--out", str(out)])
        assert len(forked) == count - 1

    runs_leave_out_unchanged(tmp_path / "runs",
                             ["backtest", "--data", str(four_file), "--capital", "50000"],
                             lambda: monkeypatch.setattr(cli, "_write_csv", interrupted), run,
                             capsys)


@pytest.mark.parametrize("count", COUNTS.values(), ids=COUNTS)
def test_data_write_error_in_every_instrument_leaves_out_unchanged(count, four_file, tmp_path,
                                                                    capsys, cpus, monkeypatch):
    """A data error from one write of every instrument skips them all:
    the command exits 2 with --out as it was."""
    write_csv = cli._write_csv

    def failing(path, header, columns):
        if path.name.startswith("chart_"):
            raise ValueError("cannot write")
        write_csv(path, header, columns)

    def run(out):
        forked = cpus(count)
        assert main(["backtest", "--data", str(four_file), "--out", str(out)]) == 2
        assert len(forked) == count - 1

    runs_leave_out_unchanged(tmp_path / "runs",
                             ["backtest", "--data", str(four_file), "--capital", "50000"],
                             lambda: monkeypatch.setattr(cli, "_write_csv", failing), run, capsys)


# Command -> (the argv of an earlier run, the argv of the failing run,
# the artifact whose write fails).
WHOLE_FILE_FAILURES = {
    "ingest": (["--data", "{two}"], ["--data", "{one}"], "cleaned.csv"),
    "optimize": (["--data", "{one}", "--pop", "24", "--max-gen", "2", "--seed", "1"],
                 ["--data", "{one}", "--pop", "24", "--max-gen", "2"], "history.csv"),
}


@pytest.mark.parametrize("command", WHOLE_FILE_FAILURES)
def test_whole_file_write_error_leaves_out_unchanged(command, data_file, two_instrument_file,
                                                     tmp_path, capsys, monkeypatch):
    """ingest and optimize, whose artifacts each cover every instrument:
    a later artifact's write that fails leaves the earlier ones out of
    --out too."""
    earlier, argv, failing = WHOLE_FILE_FAILURES[command]
    paths = {"one": data_file, "two": two_instrument_file}
    write_csv = cli._write_csv

    def full_disk(path, header, columns):
        if path.name == failing:
            raise OSError(errno.ENOSPC, "No space left on device")
        write_csv(path, header, columns)

    def run(out):
        with pytest.raises(OSError):
            main([command, *(arg.format(**paths) for arg in argv), "--out", str(out)])

    runs_leave_out_unchanged(tmp_path / "runs", [command, *(arg.format(**paths) for arg in earlier)],
                             lambda: monkeypatch.setattr(cli, "_write_csv", full_disk), run, capsys)


def test_stale_staging_directory_is_left_alone(four_file, tmp_path):
    """A staging directory in --out that a killed run left (or that a
    command still running writes into) does not stop a run, which writes
    the bytes of a clean run and leaves that directory as it was."""
    clean, out = tmp_path / "clean", tmp_path / "out"
    assert main(["backtest", "--data", str(four_file), "--out", str(clean)]) == 0
    stale = out / ".macdlab-k1ll3d00"
    stale.mkdir(parents=True)
    (stale / "chart_I1.csv").write_text("date,close\n")
    assert main(["backtest", "--data", str(four_file), "--out", str(out)]) == 0
    assert snapshot(out) == {**snapshot(clean), stale.name: None,
                             f"{stale.name}/chart_I1.csv": b"date,close\n"}


def test_directory_where_an_artifact_goes_is_config_error(two_instrument_file, tmp_path, capsys):
    """A directory in --out named as an artifact of the run is a config
    error that leaves --out as it was; a symlink to a directory is
    replaced like a file."""
    out = tmp_path / "out"
    assert main(["backtest", "--data", str(two_instrument_file), "--out", str(out)]) == 0
    blocked, linked = out / "trades_BBB.Y.json", out / "chart_AAA.X.csv"
    blocked.unlink()
    blocked.mkdir()
    linked.unlink()
    linked.symlink_to(blocked)
    before = snapshot(tmp_path)
    capsys.readouterr()
    argv = ["backtest", "--mode", "denoised", "--data", str(two_instrument_file), "--out", str(out)]
    assert main(argv) == 1
    error = f"macdlab: config error: --out {out}: {blocked} is a directory\n"
    assert capsys.readouterr() == ("", error)
    assert snapshot(tmp_path) == before

    blocked.rmdir()
    assert main(argv) == 0
    assert linked.is_file() and not linked.is_symlink()


def test_staging_directory_that_cannot_be_made_is_config_error(tmp_path, capsys, monkeypatch):
    """One cause: a read-only directory where --out would be made. The
    run fails before --data is read (here a missing file, a data error)."""
    def read_only(*args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", str(tmp_path))

    monkeypatch.setattr(tempfile, "mkdtemp", read_only)
    out = tmp_path / "out"
    assert main(["denoise", "--data", str(tmp_path / "missing.csv"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"macdlab: config error: --out {out}: ") and "Permission denied" in err
    assert listing(tmp_path) == []
