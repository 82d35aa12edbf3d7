"""Config ingestion, presets, commands, CLI contract."""

import json

import pytest

from semitick.harness import (
    COMMANDS,
    ConfigError,
    PRESETS,
    load_config,
    main,
    preset_config,
    run_command,
)


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestLoadConfig:
    def test_presets_load(self):
        for name in PRESETS:
            cfg = load_config(name)
            assert cfg.horizon > 0
            assert cfg.kernel.total_intensity(0.0) > 0
            assert cfg.config_hash

    def test_minimal_file_with_defaults(self, tmp_path):
        data = preset_config("symmetric-martingale")
        del data["grid"]
        cfg = load_config(write_config(tmp_path, data))
        assert cfg.grid.n_t == 200
        assert cfg.grid.s_max == pytest.approx(cfg.horizon + cfg.initial_market.age)

    def test_unknown_source(self):
        with pytest.raises(ConfigError, match="neither a file nor a preset"):
            load_config("no-such-preset")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_vanishing_hazard_rejected(self, tmp_path):
        data = preset_config("symmetric-martingale")
        data["kernel"]["continuation"]["level"] = 0.0
        data["kernel"]["reversal"]["level"] = 0.0
        with pytest.raises(ConfigError, match="A4"):
            load_config(write_config(tmp_path, data))

    def test_unnormalised_sizes_rejected(self, tmp_path):
        data = preset_config("symmetric-martingale")
        data["layout"]["ask_sizes"] = [0.4, 0.5]
        with pytest.raises(ConfigError, match="sum to 1"):
            load_config(write_config(tmp_path, data))

    def test_tick_size_range(self, tmp_path):
        data = preset_config("symmetric-martingale")
        data["kernel"]["delta"] = 1.2
        with pytest.raises(ConfigError, match="delta"):
            load_config(write_config(tmp_path, data))

    def test_errors_aggregate(self, tmp_path):
        data = preset_config("symmetric-martingale")
        data["kernel"]["delta"] = -1.0
        data["horizon"] = -2.0
        data["layout"]["ask_sizes"] = [2.0]
        try:
            load_config(write_config(tmp_path, data))
            raise AssertionError("expected ConfigError")
        except ConfigError as err:
            assert len(err.errors) >= 2

    def test_unknown_family(self, tmp_path):
        data = preset_config("symmetric-martingale")
        data["kernel"]["continuation"] = {"family": "weibull", "shape": 2}
        with pytest.raises(ConfigError, match="constant.*saturating"):
            load_config(write_config(tmp_path, data))

    def test_big_size_must_match_layout(self, tmp_path):
        data = preset_config("symmetric-martingale")
        data["agent"]["big_size"] = 7
        with pytest.raises(ConfigError, match="big_size"):
            load_config(write_config(tmp_path, data))


class TestCommands:
    def test_unknown_command(self):
        cfg = load_config("symmetric-martingale")
        with pytest.raises(ValueError, match="unknown command"):
            run_command("frobnicate", cfg)

    def test_simulate_is_byte_deterministic(self, tmp_path):
        rc = main(
            ["simulate", "--config", "symmetric-martingale", "--out", str(tmp_path / "a"),
             "--paths", "40", "--seed", "42", "--quiet"]
        )
        assert rc == 0
        rc = main(
            ["simulate", "--config", "symmetric-martingale", "--out", str(tmp_path / "b"),
             "--paths", "40", "--seed", "42", "--quiet"]
        )
        assert rc == 0
        a = (tmp_path / "a" / "paths.csv").read_bytes()
        b = (tmp_path / "b" / "paths.csv").read_bytes()
        assert a == b

    def test_outputs_embed_hash_and_seed(self, tmp_path):
        cfg = load_config("symmetric-martingale")
        rc = run_command("simulate", cfg, out_dir=str(tmp_path), quiet=True)
        assert rc == 0
        header = (tmp_path / "paths.csv").read_text().splitlines()[0]
        meta = json.loads(header[1:])
        assert meta["config_sha256"] == cfg.config_hash
        assert meta["master_seed"] == cfg.seed

    def test_solve_u_requires_solve_pi(self, tmp_path, capsys):
        cfg = load_config("symmetric-martingale")
        rc = run_command("solve-u", cfg, out_dir=str(tmp_path), quiet=True)
        assert rc == 2
        assert "solve-pi first" in capsys.readouterr().err

    def test_pipeline_artifacts(self, tmp_path):
        quick = preset_config("symmetric-martingale")
        quick["grid"]["n_t"] = 60
        quick["run"]["n_paths"] = 30
        cfg = load_config(write_config(tmp_path, quick))
        out = str(tmp_path / "out")
        assert run_command("solve-pi", cfg, out_dir=out, quiet=True) == 0
        assert run_command("solve-u", cfg, out_dir=out, quiet=True) == 0
        assert run_command("policy", cfg, out_dir=out, quiet=True) == 0
        assert run_command("backtest", cfg, out_dir=out, quiet=True) == 0
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert {
            "expected_price.csv",
            "expected_price_report.json",
            "quote_value.csv",
            "quote_value_report.json",
            "policy.csv",
            "backtest.csv",
            "backtest.json",
        } <= names

    def test_risk_aversion_rejected_at_solves(self, tmp_path, capsys):
        data = preset_config("symmetric-martingale")
        data["agent"]["risk_aversion"] = 1.0
        cfg = load_config(write_config(tmp_path, data))
        rc = run_command("policy", cfg, out_dir=str(tmp_path), quiet=True)
        assert rc == 2
        assert "risk aversion" in capsys.readouterr().err


class TestCli:
    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"kernel": {"delta": 0.5}}))
        rc = main(["simulate", "--config", str(path), "--quiet", "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("kernel", "delta", "abc"),
            ("run", "n_paths", "x"),
            ("grid", "n_max", "5"),
            (None, None, None),  # a top-level list instead of an object
            (None, "horizon", float("nan")),
            ("initial", "age", float("nan")),
            ("grid", "max_iter", 0),
            ("grid", "n_max", 0),
            ("grid", "s_max", -1.0),
            ("grid", "tail_tol", 2.0),
            (None, "horizon", 40.0),  # needs more jumps than the lattice cap
        ],
        ids=[
            "delta_str", "n_paths_str", "n_max_str", "top_level_list", "nan_horizon",
            "nan_age", "max_iter_0", "n_max_0", "s_max_negative", "tail_tol_2",
            "horizon_40",
        ],
    )
    def test_malformed_field_exits_2(self, tmp_path, capsys, section, key, value):
        data = preset_config("symmetric-martingale")
        if key is None:
            data = [data]
        else:
            (data if section is None else data[section])[key] = value
        path = write_config(tmp_path, data)
        rc = main(["solve-pi", "--config", path, "--quiet", "--out", str(tmp_path)])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err

    def test_commands_listed(self):
        assert set(COMMANDS) == {
            "simulate", "solve-pi", "solve-u", "policy", "backtest", "validate"
        }

    def test_validate_passes_on_quick_preset(self, tmp_path):
        # reduced path counts keep this an integration smoke, not a benchmark
        rc = main(
            ["validate", "--config", "symmetric-martingale", "--out", str(tmp_path),
             "--paths", "700", "--quiet"]
        )
        assert rc == 0
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert report["passed"] is True
        assert len(report["checks"]) >= 15
