import dataclasses
import json
import struct
from datetime import date, timedelta

import numpy as np
import pytest

from volmixer import cli
from volmixer.market_data import (feature_matrix, parse_chart_json,
                                  parse_ohlcv_csv)
from volmixer.model import ModelConfig, TimeMixerModel
from volmixer.training import TrainConfig


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
                        "end": days[-1].isoformat()})
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

    def test_invalid_ticker_does_not_abort_fetch(self, workspace, capsys):
        tmp, config, fixtures = workspace
        # a duplicate day fails series validation for ALPHA only
        alpha = json.loads((fixtures / "ALPHA.json").read_text())
        ts = alpha["chart"]["result"][0]["timestamp"]
        ts[1] = ts[0]
        (fixtures / "ALPHA.json").write_text(json.dumps(alpha))
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 3
        assert [p.name.split("_")[0] for p in (tmp / "data").glob("*.csv")] \
            == ["BETA"]
        assert "ALPHA: FAILED" in capsys.readouterr().err

    def test_non_finite_close_does_not_abort_fetch(self, workspace, capsys):
        tmp, config, fixtures = workspace
        alpha = json.loads((fixtures / "ALPHA.json").read_text())
        alpha["chart"]["result"][0]["indicators"]["quote"][0]["close"][7] = \
            float("nan")
        (fixtures / "ALPHA.json").write_text(json.dumps(alpha))
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 3
        assert [p.name.split("_")[0] for p in (tmp / "data").glob("*.csv")] \
            == ["BETA"]
        assert "ALPHA: FAILED" in capsys.readouterr().err

    def test_unreadable_fixture_does_not_abort_fetch(self, workspace,
                                                     capsys):
        tmp, config, fixtures = workspace
        (fixtures / "ALPHA.json").unlink()
        (fixtures / "ALPHA.json").mkdir()
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 3
        assert [p.name.split("_")[0] for p in (tmp / "data").glob("*.csv")] \
            == ["BETA"]
        assert "ALPHA: FAILED (ALPHA: cannot read" in capsys.readouterr().err

    def test_cache_path_that_is_a_directory_fails_only_its_ticker(
            self, workspace, capsys):
        tmp, config, fixtures = workspace
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 0
        (alpha,) = (tmp / "data").glob("ALPHA_*.csv")
        alpha.unlink()
        alpha.mkdir()
        capsys.readouterr()
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 3
        assert "ALPHA: FAILED ([Errno 21] Is a directory" \
            in capsys.readouterr().err
        assert [p.name.split("_")[0] for p in (tmp / "data").glob("*.csv")
                if p.is_file()] == ["BETA"]
        assert not list((tmp / "data").glob(".*.tmp"))

    def test_empty_roster_is_validation_error(self, workspace):
        tmp, config, fixtures = workspace
        (tmp / "roster.json").write_text("[]")
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 1


class TestConfig:
    def test_run_defaults_are_the_model_and_training_defaults(self):
        assert cli.RunConfig().model_config(12) == ModelConfig(horizon=12)
        assert cli.RunConfig().train_config() == TrainConfig()
        # every setting shared by name, each away from its default, reaches
        # both configs
        run = cli.RunConfig(covariates=True)
        shared = {f.name for f in dataclasses.fields(run)} & {
            f.name for cls in (ModelConfig, TrainConfig)
            for f in dataclasses.fields(cls)}
        assert shared >= {"lookback", "d_model", "ff_hidden", "batch_size",
                          "learning_rate", "seed"}
        for name in shared:
            setattr(run, name, getattr(run, name) * 2 + 1)
        model, training = run.model_config(5), run.train_config()
        assert (model.horizon, model.channels) == (5, 3)
        for name in shared:
            assert getattr(run, name) != getattr(cli.RunConfig(), name)
            for config in (model, training):
                if hasattr(config, name):
                    assert getattr(config, name) == getattr(run, name), name

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

    @pytest.mark.parametrize("key, text, want", [
        ("lookback", "abc", "an integer"),
        ("lookback", "true", "an integer"),
        ("batch_size", "2.5", "an integer"),
        ("horizons", "12", "a list of integers"),
        ("horizons", '[12,"x"]', "a list of integers"),
        ("learning_rate", "abc", "a number"),
        ("covariates", "1", "true or false"),
    ])
    @pytest.mark.parametrize("source", ["set", "file"])
    def test_wrongly_typed_value_is_validation_error(
            self, workspace, capsys, key, text, want, source):
        tmp, config, _ = workspace
        extra = ["--set", f"{key}={text}"]
        if source == "file":
            raw = json.loads(config.read_text())
            raw[key] = text if text == "abc" else json.loads(text)
            config.write_text(json.dumps(raw))
            extra = []
        capsys.readouterr()
        assert run_cli(config, "prepare", *extra) == 1
        assert f"config key '{key}' must be {want}" in capsys.readouterr().err
        assert not (tmp / "data").exists()

    def test_int_taken_for_float_and_text_for_path(self, workspace):
        _, config, _ = workspace
        loaded = cli.load_run_config(config, ["learning_rate=1",
                                              "out_dir=2024"])
        assert loaded.learning_rate == 1 and loaded.out_dir == "2024"

    @pytest.mark.parametrize("covariates", [False, True])
    def test_channels_follow_feature_matrix(self, workspace, covariates):
        _, config, _ = workspace
        loaded = cli.load_run_config(config, [])
        loaded.covariates = covariates
        payload, _ = synth_chart_json(seed=3)
        series = parse_chart_json(json.dumps(payload), "X").series
        values, _ = feature_matrix(series, covariates=covariates)
        assert loaded.model_config(4).channels == values.shape[1]

    def test_channels_is_not_a_setting(self, workspace, capsys):
        # nor are the volatility window, annualization and test share
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        for override in ("channels=2", "vol_window=10",
                         "periods_per_year=365", "test_fraction=0.3"):
            capsys.readouterr()
            assert run_cli(config, "run", "--set", override) == 1
            key = override.split("=")[0]
            assert f"unknown config key '{key}'" in capsys.readouterr().err
            assert not (tmp / "out").exists()

    @pytest.mark.parametrize("roster, problem", [
        ('[{"ticker": "A", "start": "2020-01-02"', "not JSON"),
        ('{"ticker": "A"}', "not a JSON list"),
        ('["A"]', "entry 0: not an object"),
        ('[{"ticker": "A", "start": "2020-01-02", "end": "2021-01-04"}, '
         '{"ticker": "B", "start": "2020-01-02"}]', "entry 1 lacks 'end'"),
        ('[{"start": "2020-01-02", "end": "2021-01-04"}]',
         "entry 0 lacks 'ticker'"),
        ('[{"ticker": "A", "start": "2020-13-02", "end": "2021-01-04"}]',
         "entry 0: month must be in 1..12"),
        ('[{"ticker": "A", "start": "2020-01-02", "end": "01/04/2021"}]',
         "entry 0: Invalid isoformat string"),
        ('[{"ticker": "../A", "start": "2020-01-02", "end": "2021-01-04"}]',
         "entry 0: ticker '../A'"),
        ('[{"ticker": ["A"], "start": "2020-01-02", "end": "2021-01-04"}]',
         "entry 0: ticker ['A']"),
    ], ids=["invalid_json", "not_a_list", "entry_not_object", "missing_end",
            "missing_ticker", "bad_month", "not_iso", "path_in_ticker",
            "ticker_not_string"])
    def test_malformed_roster_is_validation_error(self, workspace, capsys,
                                                   roster, problem):
        tmp, config, fixtures = workspace
        (tmp / "roster.json").write_text(roster)
        capsys.readouterr()
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 1
        assert problem in capsys.readouterr().err

    def test_non_utf8_roster_is_validation_error(self, workspace, capsys):
        tmp, config, fixtures = workspace
        (tmp / "roster.json").write_bytes(b"\xff[]")
        capsys.readouterr()
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 1
        err = capsys.readouterr().err
        assert f"{tmp / 'roster.json'}: roster is not JSON text" in err

    def test_non_utf8_config_is_validation_error(self, workspace, capsys):
        tmp, config, _ = workspace
        config.write_bytes(b"\xff" + config.read_bytes())
        capsys.readouterr()
        assert run_cli(config, "prepare") == 1
        assert f"cannot read config {config}" in capsys.readouterr().err
        assert not (tmp / "data").exists()

    @pytest.mark.parametrize("extra, key", [
        (["--set", "num_scales=-1"], "num_scales"),
        (["--seed", "-1"], "seed"),
        (["--set", "learning_rate=NaN"], "learning_rate"),
        (["--set", "learning_rate=Infinity"], "learning_rate"),
    ], ids=["negative_scales", "negative_seed", "nan_rate", "infinite_rate"])
    def test_value_that_would_fail_every_pair_is_validation_error(
            self, workspace, capsys, extra, key):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        capsys.readouterr()
        assert run_cli(config, "run", *extra) == 1
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not (tmp / "out").exists()

    def test_repeated_horizon_is_validation_error(self, workspace, capsys):
        # one checkpoint and one set of metrics rows per (ticker, horizon)
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        capsys.readouterr()
        assert run_cli(config, "run", "--set", "horizons=[8,4,8]") == 1
        assert ("error: horizons must be distinct; repeated: [8]"
                in capsys.readouterr().err)
        assert not (tmp / "out").exists()

    def test_missing_roster(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"roster": str(tmp_path / "nope.json")}))
        assert run_cli(config, "run") == 1

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_empty_roster_fails_every_command_before_any_write(
            self, workspace, capsys, command):
        tmp, config, fixtures = workspace
        (tmp / "roster.json").write_text("[]")
        capsys.readouterr()
        assert run_cli(config, command, "--fixtures", str(fixtures)) == 1
        assert "roster is empty" in capsys.readouterr().err
        assert not (tmp / "data").exists() and not (tmp / "out").exists()

    def test_roster_that_is_a_directory_is_validation_error(self, workspace,
                                                             capsys):
        tmp, config, _ = workspace
        (tmp / "rosterdir").mkdir()
        capsys.readouterr()
        assert run_cli(config, "prepare", "--set",
                       f"roster={tmp / 'rosterdir'}") == 1
        assert (f"error: cannot read roster {tmp / 'rosterdir'}"
                in capsys.readouterr().err)


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

    def test_unreadable_cache_fails_only_its_ticker(self, workspace):
        tmp, config, fixtures = workspace
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 0
        (alpha,) = (tmp / "data").glob("ALPHA_*.csv")
        alpha.unlink()
        alpha.mkdir()
        assert run_cli(config, "run") == 3
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
        assert [f["ticker"] for f in manifest["failures"]] == ["ALPHA"]
        assert "cannot read" in manifest["failures"][0]["error"]
        csv = (tmp / "out" / "metrics.csv").read_text()
        assert "BETA," in csv and "ALPHA" not in csv

    def test_report_names_the_line_of_a_truncated_metrics_csv(
            self, workspace, capsys):
        tmp, config, fixtures = workspace
        (tmp / "out").mkdir()
        (tmp / "out" / "metrics.csv").write_text(
            "ticker,horizon,mae,mse,rmse,n_samples\n"
            "ALPHA,4,0.1,0.01,0.1,7\n"
            "BETA,4,0.1\n")
        assert run_cli(config, "report") == 2
        assert "error: line 3: not enough values to unpack" \
            in capsys.readouterr().err
        assert not (tmp / "out" / "report.md").exists()

    def test_report_rejects_a_repeated_pair(self, workspace, capsys):
        tmp, config, fixtures = workspace
        (tmp / "out").mkdir()
        (tmp / "out" / "metrics.csv").write_text(
            "ticker,horizon,mae,mse,rmse,n_samples\n"
            "A,12,0.1,0.01,0.1,7\n"
            "A,12,0.2,0.04,0.2,7\n")
        assert run_cli(config, "report") == 2
        assert "error: repeated record for ticker 'A' at horizon 12" \
            in capsys.readouterr().err
        assert not (tmp / "out" / "report.md").exists()

    def test_git_timeout_falls_back_to_package_version(self, workspace,
                                                       monkeypatch):
        tmp, config, fixtures = workspace
        assert run_cli(config, "fetch", "--fixtures", str(fixtures)) == 0

        def hang(cmd, **kwargs):
            raise cli.subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

        monkeypatch.setattr(cli.subprocess, "run", hang)
        assert run_cli(config, "run") == 0
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
        assert manifest["code_version"] == f"volmixer-{cli.__version__}"
        assert manifest["failures"] == []

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
        assert run_cli(config, "eval") == 3
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
        assert [(f["ticker"], f["horizon"]) for f in manifest["failures"]] \
            == [("ALPHA", 4), ("BETA", 4)]

    def test_eval_missing_one_checkpoint_fails_only_its_pair(self, workspace):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        assert run_cli(config, "train") == 0
        (tmp / "out" / "ALPHA_F4.ckpt").unlink()
        assert run_cli(config, "eval") == 3
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
        assert [(f["ticker"], f["horizon"]) for f in manifest["failures"]] \
            == [("ALPHA", 4)]
        assert "missing checkpoint" in manifest["failures"][0]["error"]
        csv = (tmp / "out" / "metrics.csv").read_text()
        assert "BETA," in csv and "ALPHA" not in csv

    @pytest.mark.parametrize("command, suffix", [
        ("run", ".ckpt"), ("eval", ".ckpt"), ("run", ".svg")],
        ids=["run", "eval", "run-svg"])
    def test_checkpoint_path_that_is_a_directory_fails_only_its_pair(
            self, workspace, command, suffix):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        artifact = tmp / "out" / f"ALPHA_F4{suffix}"
        if command == "eval":
            assert run_cli(config, "train") == 0
            artifact.unlink()
        artifact.mkdir(parents=True)
        assert run_cli(config, command) == 3
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
        assert [(f["ticker"], f["horizon"]) for f in manifest["failures"]] \
            == [("ALPHA", 4)]
        assert "Is a directory" in manifest["failures"][0]["error"]
        csv = (tmp / "out" / "metrics.csv").read_text()
        assert "BETA," in csv and "ALPHA" not in csv
        assert (tmp / "out" / "BETA_F4.ckpt").is_file()
        assert (tmp / "out" / "BETA_F4.svg").is_file()
        assert not list((tmp / "out").glob(".*.tmp"))

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

    def test_features_are_built_once_per_ticker(self, workspace, capsys,
                                                monkeypatch):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        calls = []

        def counted(series, covariates=False):
            calls.append(series.ticker)
            return feature_matrix(series, covariates=covariates)

        monkeypatch.setattr(cli.market_data, "feature_matrix", counted)
        capsys.readouterr()
        assert run_cli(config, "prepare", "--set", "horizons=[4,8,12]") == 0
        assert calls == ["ALPHA", "BETA"]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"{t} F={f}" for t in ("ALPHA", "BETA") for f in (4, 8, 12)]

    def test_ticker_too_short_for_features_fails_each_horizon(self, workspace,
                                                              capsys):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        beta = next((tmp / "data").glob("BETA_*.csv"))
        beta.write_text("\n".join(beta.read_text().split("\n")[:12]) + "\n")
        capsys.readouterr()
        assert run_cli(config, "run", "--set", "horizons=[4,8]") == 3
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
        error = "need >= 21 returns, got 10"
        assert manifest["failures"] == [
            {"ticker": "BETA", "horizon": f, "error": error} for f in (4, 8)]
        assert capsys.readouterr().err.count("need >= 21 returns") == 2

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

    def test_every_command_isolates_corrupt_cache(self, workspace, capsys):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        # a nonpositive close price fails CSV validation for ALPHA, the
        # first ticker; BETA must still be prepared, trained and scored
        alpha = next((tmp / "data").glob("ALPHA_*.csv"))
        lines = alpha.read_text().strip().split("\n")
        fields = lines[5].split(",")
        fields[4] = "-1.0"
        lines[5] = ",".join(fields)
        alpha.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(config, "prepare") == 3
        out, err = capsys.readouterr()
        assert "BETA F=4:" in out and "ALPHA: FAILED" in err
        assert run_cli(config, "train") == 3
        assert [p.name for p in (tmp / "out").glob("*.ckpt")] \
            == ["BETA_F4.ckpt"]
        assert run_cli(config, "eval") == 3
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
        assert [f["ticker"] for f in manifest["failures"]] == ["ALPHA"]
        assert manifest["records"] == 3
        csv = (tmp / "out" / "metrics.csv").read_text()
        assert "BETA," in csv and "ALPHA" not in csv

    def test_undecodable_cache_fails_only_its_ticker(self, workspace, capsys):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        alpha = next((tmp / "data").glob("ALPHA_*.csv"))
        blob = bytearray(alpha.read_bytes())
        blob[100] = 0xFF
        alpha.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run_cli(config, "prepare") == 3
        out, err = capsys.readouterr()
        assert "BETA F=4:" in out
        assert "ALPHA: FAILED" in err and "byte offset 100" in err

    def test_corrupt_checkpoint_fails_only_its_pair(self, workspace):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        assert run_cli(config, "train") == 0
        ckpt = tmp / "out" / "ALPHA_F4.ckpt"
        blob = ckpt.read_bytes()
        nan = struct.pack("<d", float("nan"))
        # a truncated payload, then NaN in the last parameter, out.b
        for corrupt, error in [(blob[:-8], "payload"),
                               (blob[:-8] + nan, "out.b")]:
            ckpt.write_bytes(corrupt)
            assert run_cli(config, "eval") == 3
            manifest = json.loads((tmp / "out" / "manifest.json").read_text())
            assert [(f["ticker"], f["horizon"])
                    for f in manifest["failures"]] == [("ALPHA", 4)]
            assert error in manifest["failures"][0]["error"]
            csv = (tmp / "out" / "metrics.csv").read_text()
            assert "BETA," in csv and "ALPHA" not in csv

    def test_overflowing_forward_fails_only_its_pair(self, workspace, capsys):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        assert run_cli(config, "train") == 0
        ckpt = tmp / "out" / "ALPHA_F4.ckpt"
        model = TimeMixerModel.load(ckpt)
        for name in ("embed.W", "block0.ff0.W1"):
            model.params[name].values[...] = 1e200
        model.save(ckpt)    # finite, so it loads; scoring overflows
        capsys.readouterr()
        with np.errstate(over="ignore"):
            assert run_cli(config, "eval") == 3
        assert "non-finite" in capsys.readouterr().err
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
        assert [(f["ticker"], f["horizon"]) for f in manifest["failures"]] \
            == [("ALPHA", 4)]
        assert manifest["records"] == 3
        csv = (tmp / "out" / "metrics.csv").read_text()
        assert "BETA," in csv and "ALPHA" not in csv

    @pytest.mark.parametrize("override, key, found, want", [
        ("covariates=true", "channels", 1, 3),
        ("lookback=48", "lookback", 32, 48),
        ("d_model=8", "d_model", 4, 8),
        ("num_blocks=3", "num_blocks", 1, 3),
        ("decomp_kernel=5", "decomp_kernel", 9, 5),
        ("seed=3", "seed", 0, 3),
    ])
    def test_checkpoint_config_mismatch_fails_its_pair(
            self, workspace, capsys, override, key, found, want):
        tmp, config, fixtures = workspace
        run_cli(config, "fetch", "--fixtures", str(fixtures))
        assert run_cli(config, "train") == 0
        # BETA's checkpoint agrees with the overridden config, ALPHA's not
        changed = cli.load_run_config(config, [override])
        TimeMixerModel(changed.model_config(4)).save(tmp / "out" / "BETA_F4.ckpt")
        capsys.readouterr()
        assert run_cli(config, "eval", "--set", override) == 3
        manifest = json.loads((tmp / "out" / "manifest.json").read_text())
        assert [(f["ticker"], f["horizon"]) for f in manifest["failures"]] \
            == [("ALPHA", 4)]
        assert f"has {key} {found}, the run config {want}" \
            in manifest["failures"][0]["error"]
        assert manifest["records"] == 3

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


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_main_looks_each_command_up_when_called(workspace, monkeypatch,
                                                command):
    # perfbench traces a command by replacing cli.cmd_<name> in place
    _, config, _ = workspace
    calls = []
    monkeypatch.setattr(cli, f"cmd_{command}",
                        lambda *args, **kwargs: calls.append(args) or 0)
    assert run_cli(config, command) == 0
    assert len(calls) == 1
