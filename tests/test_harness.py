"""Config ingestion, presets, commands, CLI contract."""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitick import harness
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
from semitick.simulate import path_rng
from semitick.solver import GridSpec


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
        assert cfg.grid == GridSpec(n_t=200, n_max=None, tol_fp=1e-8, tail_tol=1e-10, max_iter=400)

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

    def test_paths_summary_records_stream_pairs(self, reference_paths, tmp_path):
        rc = main(["simulate", "--config", "saturating-hazard", "--out", str(tmp_path),
                   "--paths", "30", "--seed", "5", "--quiet"])
        assert rc == 0
        paths = json.loads((tmp_path / "paths_summary.json").read_text())["paths"]
        pairs = [tuple(p["seed"]) for p in paths]
        assert pairs == [(5, idx) for idx in range(30)]
        cfg = load_config("saturating-hazard")
        for idx in (0, 17, 29):
            # the recorded pair seeds the stream the path was drawn from
            again = reference_paths.renewal(cfg.kernel, cfg.initial_market, cfg.horizon,
                                            path_rng(*pairs[idx])).summary()
            assert {**again, "seed": list(pairs[idx])} == paths[idx]

    def test_outputs_embed_hash_and_seed(self, tmp_path):
        cfg = load_config("symmetric-martingale")
        rc = run_command("simulate", cfg, out_dir=str(tmp_path), quiet=True)
        assert rc == 0
        header = (tmp_path / "paths.csv").read_text().splitlines()[0]
        meta = json.loads(header[1:])
        assert meta["config_sha256"] == cfg.config_hash
        assert meta["master_seed"] == cfg.seed

    def test_simulate_at_a_large_age(self, tmp_path):
        # saturated from the start, so no jump before the horizon has
        # probability exp(-2 * horizon); a holding gap formed as a difference of
        # integrated intensities cancels at this age and leaves every path jump-free
        data = preset_config("saturating-hazard")
        data["initial"]["age"] = 1e17
        data["run"]["n_paths"] = 2000
        rc = main(["simulate", "--config", write_config(tmp_path, data), "--out",
                   str(tmp_path / "out"), "--quiet"])
        assert rc == 0
        paths = json.loads((tmp_path / "out" / "paths_summary.json").read_text())["paths"]
        no_jump = sum(p["n_big_jumps"] == 0 for p in paths) / len(paths)
        p0 = math.exp(-2.0)
        assert abs(no_jump - p0) <= 4.0 * math.sqrt(p0 * (1.0 - p0) / len(paths))

    def test_solve_u_needs_no_solve_pi(self, tmp_path):
        # solve-u solves the expected price itself and never reads
        # expected_price.csv, so it runs in an empty directory
        cfg = load_config("symmetric-martingale")
        alone, after = tmp_path / "alone", tmp_path / "after"
        assert run_command("solve-u", cfg, out_dir=str(alone), quiet=True) == 0
        assert not (alone / "expected_price.csv").exists()
        assert run_command("solve-pi", cfg, out_dir=str(after), quiet=True) == 0
        assert run_command("solve-u", cfg, out_dir=str(after), quiet=True) == 0
        assert (alone / "quote_value.csv").read_bytes() == (after / "quote_value.csv").read_bytes()

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

    @pytest.mark.parametrize("cmd", ["solve-pi", "policy", "backtest"])
    def test_no_convergence_exits_2(self, tmp_path, capsys, cmd):
        data = preset_config("saturating-hazard")
        data["grid"]["max_iter"] = 1
        data["run"]["n_paths"] = 20
        rc = main([cmd, "--config", write_config(tmp_path, data), "--out",
                   str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        assert "no convergence" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cmd, price, delta, flow",
        [
            # the lattice prices overflow, which the lattice build refuses
            pytest.param("solve-pi", 1e306, 0.5, None, id="solve-pi-1e+306-0.5"),
            pytest.param("policy", 1e306, 0.5, None, id="policy-1e+306-0.5"),
            pytest.param("backtest", 1e306, 0.5, None, id="backtest-1e+306-0.5"),
            pytest.param("backtest", 1e308, 0.9, None, id="backtest-1e+308-0.9"),
            # the first up move of a path overflows
            pytest.param("simulate", 1e308, 0.9, None, id="simulate-1e+308-0.9"),
            # the a-priori value bound overflows, before any path is simulated
            pytest.param("backtest", 1.0, 0.5, 1e4, id="backtest-bound-flow-1e4"),
        ],
    )
    def test_numeric_failure_exits_2(self, tmp_path, capsys, cmd, price, delta, flow):
        data = preset_config("asymmetric-constant")
        data["initial"]["price"] = price
        data["kernel"]["delta"] = delta
        data["run"]["n_paths"] = 20
        if flow is not None:
            data["layout"]["ask_flow"]["level"] = flow
        rc = main([cmd, "--config", write_config(tmp_path, data), "--out",
                   str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        if flow is not None:
            expect = "the a-priori value bound overflows"
        elif cmd == "simulate":
            expect = "the price overflows"
        else:
            expect = "the price lattice overflows"
        err = capsys.readouterr().err
        assert err.startswith(f"{cmd}: ") and expect in err
        # the message names the price and the tick that overflow
        assert repr(price) in err and repr(delta) in err
        if flow is not None:
            # and the flow bound, big size and horizon of the bound
            big, horizon = data["agent"]["big_size"], data["horizon"]
            assert f"bound {flow!r}" in err and f"big size {big}" in err
            assert f"horizon {float(horizon)!r}" in err

    def test_quote_solve_honours_max_iter(self, tmp_path, capsys):
        # the expected price converges in 5 sweeps, the quote value needs 9
        data = preset_config("saturating-hazard")
        data["grid"]["max_iter"] = 6
        argv = ["--config", write_config(tmp_path, data), "--out", str(tmp_path / "out"),
                "--quiet"]
        assert main(["solve-pi"] + argv) == 0
        assert main(["solve-u"] + argv) == 2
        assert "solve-u: no convergence to 1e-08 within 6 sweeps" in capsys.readouterr().err

    def test_quote_solve_takes_the_price_lattice(self, tmp_path):
        # n_max sets the reported truncation; the guard rings make the lattice larger
        data = preset_config("saturating-hazard")
        data["grid"]["n_max"] = 10
        argv = ["--config", write_config(tmp_path, data), "--out", str(tmp_path / "out"),
                "--quiet"]
        assert main(["solve-pi"] + argv) == 0
        assert main(["solve-u"] + argv) == 0

    def test_every_command_releases_the_free_heap(self, tmp_path, monkeypatch):
        # after a command that succeeds, one that is refused and one that raises
        calls = []
        monkeypatch.setattr(harness, "_release_free_heap", lambda: calls.append(1))
        cfg = load_config("symmetric-martingale")
        assert run_command("simulate", cfg, out_dir=str(tmp_path), quiet=True) == 0
        data = preset_config("symmetric-martingale")
        data["agent"]["risk_aversion"] = 1.0
        averse = load_config(write_config(tmp_path, data))
        assert run_command("policy", averse, out_dir=str(tmp_path), quiet=True) == 2
        monkeypatch.setattr(harness, "_cmd_simulate", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run_command("simulate", cfg, out_dir=str(tmp_path), quiet=True)
        assert calls == [1, 1, 1]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
    def test_free_heap_release_binds_malloc_trim(self):
        assert harness._malloc_trim() is not None
        harness._release_free_heap()

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
            ("grid", "n_s", 8),  # the knobs of the deleted age band
            ("grid", "s_max", 1.25),
            ("grid", "typo_key", 1),
            ("grid", "tail_tol", 2.0),
            (None, "horizon", 40.0),  # needs more jumps than the lattice cap
            ("kernel.continuation", "level", 1e300),  # a Poisson mean far past the cap
        ],
        ids=[
            "delta_str", "n_paths_str", "n_max_str", "top_level_list", "nan_horizon",
            "nan_age", "max_iter_0", "n_max_0", "unknown_n_s", "unknown_s_max",
            "unknown_typo", "tail_tol_2",
            "horizon_40", "level_1e300",
        ],
    )
    def test_malformed_field_exits_2(self, tmp_path, capsys, section, key, value):
        data = preset_config("symmetric-martingale")
        if key is None:
            data = [data]
        else:
            node = data
            for name in section.split(".") if section else ():
                node = node[name]
            node[key] = value
        path = write_config(tmp_path, data)
        rc = main(["solve-pi", "--config", path, "--quiet", "--out", str(tmp_path)])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key",
        [(None, "horizn"), ("kernel", "detla"), ("kernel.continuation", "rate"),
         ("layout", "sizes"), ("agent", "size"), ("initial", "prise"), ("grid", "typo_key"),
         ("run", "paths")],
    )
    def test_unknown_key_named(self, tmp_path, capsys, section, key):
        data = preset_config("symmetric-martingale")
        node = data
        for name in section.split(".") if section else ():
            node = node[name]
        node[key] = 1
        rc = main(["solve-pi", "--config", write_config(tmp_path, data), "--quiet", "--out",
                   str(tmp_path)])
        assert rc == 2
        where = f"{section}.{key}" if section else key
        assert capsys.readouterr().err == f"config error: {where}: unknown key\n"

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["directory", "bad_bytes"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "cfg"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        rc = main(["simulate", "--config", str(path), "--quiet", "--out", str(tmp_path)])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(["simulate", "--config", "symmetric-martingale", "--out", str(out),
                   "--paths", "5", "--quiet"])
        assert rc == 2
        assert "simulate: cannot use output directory" in capsys.readouterr().err

    def test_cli_import_path_skips_scipy_stats(self):
        # every command starts a fresh interpreter; scipy.stats alone cost over a
        # second of start-up, so only validate may load it, inside the KS checks
        import semitick

        code = (
            "import sys, semitick.harness, semitick; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(semitick.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_unallocatable_grid_exits_2(self, tmp_path):
        # one quadrature matrix of this grid needs 7.28 TiB; numpy's allocation
        # error is a MemoryError, which exits 2 with one line naming the knobs.
        # The child runs under a 2 GB address-space limit, so a regression
        # that allocates instead of failing cannot exhaust the machine.
        import semitick

        raw = preset_config("asymmetric-constant")
        raw["grid"]["n_t"] = 1_000_000
        config = write_config(tmp_path, raw)
        code = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9)); "
            "from semitick.harness import main; sys.exit(main(sys.argv[1:]))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(semitick.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code, "solve-pi", "--config", config,
             "--out", str(tmp_path / "out"), "--quiet"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 2, out.stderr
        assert "Traceback" not in out.stderr
        lines = out.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("solve-pi: out of memory")
        assert "grid.n_t = 1000000" in lines[0] and "run.n_paths" in lines[0]

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
