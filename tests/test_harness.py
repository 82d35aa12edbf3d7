"""Config ingestion, presets, commands, CLI contract."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitick.harness import (
    COMMANDS,
    ConfigError,
    ExperimentConfig,
    PRESETS,
    _build_config,
    load_config,
    main,
    preset_config,
    run_command,
)


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _leaves(node, path=()):
    """Key paths of every scalar leaf of a nested config (dict keys, list indices)."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]
    return [path]


LEAVES = [(name, path) for name in sorted(PRESETS) for path in _leaves(PRESETS[name])]
WILD_VALUES = st.one_of(
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0, 0.0, -0.0]),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-300, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, 1.7976931348623157e308, 10**30, 10**400]),
)


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

    @settings(max_examples=1500, deadline=None)
    @given(leaf=st.sampled_from(LEAVES), value=WILD_VALUES)
    def test_any_leaf_value_is_accepted_or_refused(self, leaf, value):
        # one leaf of a preset replaced by any JSON-ish value: the config is
        # built or refused with ConfigError, never anything else
        name, path = leaf
        data = preset_config(name)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        try:
            assert isinstance(_build_config(data), ExperimentConfig)
        except ConfigError:
            pass


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

    def test_non_finite_backtest_exits_2(self, tmp_path, capsys):
        data = preset_config("asymmetric-constant")
        data["initial"]["cash"] = 1e308  # the summed path values overflow
        data["run"]["n_paths"] = 20
        data["grid"]["n_t"] = 40
        out = tmp_path / "out"
        rc = main(["backtest", "--config", write_config(tmp_path, data), "--out", str(out),
                   "--quiet"])
        assert rc == 2
        assert "policy 'hold' has a non-finite mean" in capsys.readouterr().err
        assert not (out / "backtest.json").exists()

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
        for check in report["checks"]:
            assert math.isfinite(check["elapsed_s"]) and check["elapsed_s"] >= 0, check
