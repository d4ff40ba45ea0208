import json
from datetime import date, timedelta

import numpy as np
import pytest

from volmixer import cli
from volmixer.market_data import parse_ohlcv_csv


def synth_chart_json(seed, n=420, start=date(2020, 1, 2)):
    rng = np.random.default_rng(seed)
    days, d = [], start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    close = 50 * np.exp(np.cumsum(rng.normal(0.0003, 0.015, n)))
    ts = [int((day - date(1970, 1, 1)).days) * 86400 + 60000 for day in days]
    return {
        "chart": {"result": [{
            "timestamp": ts,
            "indicators": {"quote": [{
                "open": (close * 0.999).tolist(),
                "high": (close * 1.01).tolist(),
                "low": (close * 0.99).tolist(),
                "close": close.tolist(),
                "volume": [int(v) for v in
                           1e6 * np.exp(rng.normal(0, 0.3, n))],
            }]},
        }], "error": None},
    }, days


@pytest.fixture
def workspace(tmp_path):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    entries = []
    for i, ticker in enumerate(["ALPHA", "BETA"]):
        payload, days = synth_chart_json(seed=100 + i)
        (fixtures / f"{ticker}.json").write_text(json.dumps(payload))
        entries.append({"ticker": ticker, "start": days[0].isoformat(),
                        "end": days[-1].isoformat(),
                        "display_name": ticker, "asset_class": "stock"})
    roster = tmp_path / "roster.json"
    roster.write_text(json.dumps(entries))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "roster": str(roster),
        "data_dir": str(tmp_path / "data"),
        "out_dir": str(tmp_path / "out"),
        "lookback": 32,
        "horizons": [4],
        "d_model": 4,
        "num_blocks": 1,
        "num_scales": 2,
        "decomp_kernel": 9,
        "ff_hidden": 4,
        "max_epochs": 2,
        "patience": 2,
    }))
    return tmp_path, config, fixtures


def run_cli(config, command, *extra):
    return cli.main(["--config", str(config), *extra, command])


class TestFetch:
    def test_fetch_writes_one_csv_per_ticker(self, workspace, capsys):
        tmp, config, fixtures = workspace
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 0
        csvs = sorted((tmp / "data").glob("*.csv"))
        assert len(csvs) == 2
        series = parse_ohlcv_csv(csvs[0].read_text(), "ALPHA")
        assert len(series) == 420
        out = capsys.readouterr().out
        assert "ALPHA" in out and "420 rows" in out

    def test_partial_failure_exit_code(self, workspace, tmp_path):
        tmp, config, fixtures = workspace
        (fixtures / "BETA.json").unlink()
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 3
        assert len(list((tmp / "data").glob("*.csv"))) == 1

    def test_empty_roster_is_validation_error(self, workspace):
        tmp, config, fixtures = workspace
        (tmp / "roster.json").write_text("[]")
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 1


class TestConfig:
    def test_lookback_scale_gate_before_any_work(self, workspace):
        tmp, config, _ = workspace
        code = run_cli(config, "run", "--set", "lookback=8",
                       "--set", "num_scales=3")
        assert code == 1
        assert not (tmp / "out").exists()

    def test_unknown_key_rejected(self, workspace):
        _, config, _ = workspace
        assert run_cli(config, "run", "--set", "nonsense=1") == 1

    def test_set_overrides_config_file(self, workspace):
        _, config, _ = workspace
        loaded = cli.load_run_config(config, ["d_model=16", "horizons=[4,8]"])
        assert loaded.d_model == 16
        assert loaded.horizons == [4, 8]

    def test_missing_roster(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"roster": str(tmp_path / "nope.json")}))
        assert run_cli(config, "run") == 1


class TestPipeline:
    def test_run_produces_report_and_manifest(self, workspace):
        tmp, config, fixtures = workspace
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 0
        assert run_cli(config, "run") == 0
        out = tmp / "out"
        csv = (out / "metrics.csv").read_text()
        lines = csv.strip().split("\n")
        assert lines[0] == "ticker,horizon,mae,mse,rmse,n_samples"
        # 2 tickers x 1 horizon x (model + 2 baselines)
        assert len(lines) == 1 + 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == []
        assert manifest["config"]["lookback"] == 32
        assert (out / "ALPHA_F4.ckpt").exists()
        assert (out / "ALPHA_F4.svg").exists()
        assert (out / "report.md").exists()

    def test_run_is_byte_deterministic(self, workspace):
        tmp, config, fixtures = workspace
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 0
        assert run_cli(config, "run", "--seed", "42") == 0
        first = (tmp / "out" / "metrics.csv").read_bytes()
        assert run_cli(config, "run", "--seed", "42") == 0
        assert (tmp / "out" / "metrics.csv").read_bytes() == first

    def test_prepare_train_eval_chain(self, workspace, capsys):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        assert run_cli(config, "prepare") == 0
        assert "windows" in capsys.readouterr().out
        assert run_cli(config, "train") == 0
        assert run_cli(config, "eval") == 0
        assert (tmp / "out" / "metrics.csv").exists()

    def test_eval_without_checkpoints_fails(self, workspace):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        assert run_cli(config, "eval") == 2

    def test_run_isolates_per_pair_failures(self, workspace):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        # truncate one cached series so its windows cannot be built
        beta = next((tmp / "data").glob("BETA_*.csv"))
        lines = beta.read_text().strip().split("\n")
        beta.write_text("\n".join(lines[:60]) + "\n")
        assert run_cli(config, "run") == 3
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0]["ticker"] == "BETA"
        csv = (tmp / "out" / "metrics.csv").read_text()
        assert "ALPHA" in csv and "BETA," not in csv

    def test_run_records_divergence_per_pair(self, workspace):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        with np.errstate(over="ignore"):
            code = run_cli(config, "run", "--set", "learning_rate=1e150")
        assert code == 3
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
        assert [(f["ticker"], f["horizon"]) for f in manifest["failures"]] \
            == [("ALPHA", 4), ("BETA", 4)]
        assert all("diverged" in f["error"] for f in manifest["failures"])

    def test_run_isolates_corrupt_cache(self, workspace):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        # a nonpositive close price fails CSV validation for BETA only
        beta = next((tmp / "data").glob("BETA_*.csv"))
        lines = beta.read_text().strip().split("\n")
        fields = lines[5].split(",")
        fields[4] = "-1.0"
        lines[5] = ",".join(fields)
        beta.write_text("\n".join(lines) + "\n")
        assert run_cli(config, "run") == 3
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
        assert [f["ticker"] for f in manifest["failures"]] == ["BETA"]
        csv = (tmp / "out" / "metrics.csv").read_text()
        assert "ALPHA," in csv and "BETA" not in csv

    def test_report_regenerates_markdown(self, workspace, capsys):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        run_cli(config, "run")
        (tmp / "out" / "report.md").unlink()
        assert run_cli(config, "report") == 0
        assert (tmp / "out" / "report.md").exists()

    def test_run_without_cached_data(self, workspace):
        tmp, config, _ = workspace
        assert run_cli(config, "run") == 3
