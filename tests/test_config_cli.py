import copy
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from slowfast import ConfigurationRejectedError
from slowfast.cli import main
from slowfast.config import config_hash, parse_config, parse_config_dict

BASE = {
    "model": {
        "grid": {"n_modes": 4, "n_quad": 16, "length": 1.0},
        "slow_operator": {"nu": 0.01, "lambda0": 0.01, "decay_exponent": 1.0,
                          "gamma_reg": 0.5},
        "fast_operator": {"nu": 1.0, "lambda0": 0.1, "decay_exponent": 1.0,
                          "gamma_reg": 0.5},
        "reactions": {
            "slow": {"kind": "linear_benchmark"},
            "fast": {"kind": "linear_benchmark", "a_c": 1.0, "b_c": 2.0},
        },
        "epsilon": 0.1,
        "horizon": 0.2,
        "u0": [1.0],
        "v0": [1.0],
        "h_macro": 0.01,
    },
    "experiment": {
        "epsilon_grid": [0.1, 0.02],
        "ensemble_size": 8,
        "master_seed": 11,
        "output_dir": "out",
    },
    "invariant": {"h": 0.01, "t_burn": 1.0, "t_avg": 2.0, "n_replicas": 2},
    "averaging": {"h_fast": 0.01, "t_burn": 1.0, "t_avg": 2.0, "n_replicas": 2},
}


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestParsing:
    def test_round_trip_is_identical(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE))
        serialized = json.dumps(cfg.canonical, indent=2, sort_keys=True)
        path2 = tmp_path / "again.json"
        path2.write_text(serialized)
        cfg2 = parse_config(str(path2))
        assert cfg.canonical == cfg2.canonical
        assert config_hash(cfg) == config_hash(cfg2)

    def test_unknown_top_level_key_rejected(self):
        raw = copy.deepcopy(BASE)
        raw["extra"] = 1
        with pytest.raises(ConfigurationRejectedError, match="unknown key"):
            parse_config_dict(raw)

    def test_unknown_model_key_rejected(self):
        raw = copy.deepcopy(BASE)
        raw["model"]["spice"] = 1
        with pytest.raises(ConfigurationRejectedError, match="spice"):
            parse_config_dict(raw)

    def test_unknown_reaction_parameter_rejected(self):
        raw = copy.deepcopy(BASE)
        raw["model"]["reactions"]["fast"]["c_q"] = 1.0
        with pytest.raises(Exception, match="c_q"):
            parse_config_dict(raw)

    def test_epsilon_grid_must_decrease(self):
        raw = copy.deepcopy(BASE)
        raw["experiment"]["epsilon_grid"] = [0.02, 0.1]
        with pytest.raises(ConfigurationRejectedError, match="decreasing"):
            parse_config_dict(raw)

    def test_epsilon_grid_must_be_in_unit_interval(self):
        raw = copy.deepcopy(BASE)
        raw["experiment"]["epsilon_grid"] = [1.0, 0.1]
        with pytest.raises(ConfigurationRejectedError, match="\\(0,1\\)"):
            parse_config_dict(raw)

    def test_dissipativity_gate_names_hypothesis(self):
        raw = copy.deepcopy(BASE)
        raw["model"]["reactions"]["fast"]["b_c"] = 12.0
        with pytest.raises(ConfigurationRejectedError, match="Hypothesis 2.3"):
            parse_config_dict(raw)

    def test_kappa_gate_names_condition(self):
        raw = copy.deepcopy(BASE)
        raw["model"]["reactions"]["slow"] = {
            "kind": "polynomial", "terms": [[1.0, 0, 1]],
            "m1": 1, "m2": 1, "kappa1": 3, "kappa2": 0,
        }
        with pytest.raises(ConfigurationRejectedError, match="2·m"):
            parse_config_dict(raw)

    def test_noise_regularity_gate_names_hypothesis(self):
        raw = copy.deepcopy(BASE)
        raw["model"]["fast_operator"] = {"nu": 1.0, "lambda0": 1.0,
                                          "decay_exponent": 0.0,
                                          "gamma_reg": 0.5}
        with pytest.raises(ConfigurationRejectedError,
                           match="Hypothesis 2.1\\(3\\)"):
            parse_config_dict(raw)

    def test_unreadable_path_rejected(self):
        with pytest.raises(ConfigurationRejectedError, match="cannot read"):
            parse_config("/nonexistent/nowhere.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationRejectedError, match="valid JSON"):
            parse_config(str(path))

    def test_worker_count_not_in_canonical(self):
        raw = copy.deepcopy(BASE)
        raw["experiment"]["worker_count"] = 8
        cfg = parse_config_dict(raw)
        assert "worker_count" not in cfg.canonical["experiment"]
        assert "output_dir" not in cfg.canonical["experiment"]

    def test_shipped_configs_parse(self):
        for name in ("linear_benchmark", "cubic_rough", "decoupled_control"):
            cfg = parse_config(os.path.join("configs", f"{name}.json"))
            assert cfg.model.omega > 0


class TestCli:
    @pytest.mark.parametrize("key", ["theta", "cache_quantum", "x_norm_bound"])
    def test_removed_averaging_keys_rejected(self, tmp_path, capsys, key):
        # theta comes from model.theta alone, nothing is cached, and
        # model.explosion_bound is the one explosion guard
        raw = copy.deepcopy(BASE)
        raw["averaging"][key] = 0.01
        path = write_config(tmp_path, raw)
        code = main(["average", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "averaging" in err

    @pytest.mark.parametrize("key", ["reference_epsilon_divisor"])
    def test_removed_experiment_keys_rejected(self, tmp_path, capsys, key):
        # converge's reference is the averaged equation, not the coupled
        # system at a smaller epsilon
        raw = copy.deepcopy(BASE)
        raw["experiment"][key] = 5.0
        path = write_config(tmp_path, raw)
        code = main(["converge", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "experiment" in err

    @pytest.mark.parametrize("section,key,value", [
        (section, key, value)
        for section, step in (("invariant", "h"), ("averaging", "h_fast"))
        for key, value in ((step, 0.0), (step, -0.01), ("t_burn", -1.0),
                           ("t_avg", 0.0), ("n_replicas", 0))])
    def test_frozen_fast_range_rejected_at_load(self, tmp_path, capsys,
                                                section, key, value):
        # Both sections are one parameter set, checked when the config
        # loads, whichever subcommand reads them.
        raw = copy.deepcopy(BASE)
        raw[section][key] = value
        path = write_config(tmp_path, raw)
        out = tmp_path / "o"
        command = "invariant" if section == "invariant" else "average"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{section}.{key}:" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("command,where,value,named", [
        ("simulate", ("model", "h_macro"), -0.01, "model.h_macro"),
        ("invariant", ("experiment", "observables"), [{"kind": "mode", "k": 0}],
         "observables[0].k"),
        ("invariant", ("experiment", "observables"),
         [{"kind": "mode", "k": 1}, {"kind": "mode", "k": 5}],
         "observables[1].k"),
        ("converge", ("experiment", "test_functions"),
         [{"modes": [1.0, 0.0, 0.0, 0.0, 1.0]}], "test_functions[0].modes"),
        ("audit", ("experiment", "theta_sequence"), [0.1, 1.5],
         "theta_sequence"),
        ("audit", ("experiment", "theta_sequence"), [0.1, -0.01],
         "theta_sequence"),
        ("audit", ("experiment", "theta_sequence"), [0.1], "theta_sequence"),
        ("audit", ("experiment", "c_const"), 0.0, "c_const"),
        ("simulate", ("experiment", "dump_modes"), -1, "dump_modes"),
        ("converge", ("experiment", "ensemble_size"), 0, "ensemble_size"),
        ("simulate", ("experiment", "master_seed"), -1, "master_seed"),
        ("converge", ("experiment", "test_functions"),
         [{"modes": [1.0], "time_power": -1}], "test_functions[0].time_power"),
    ], ids=["h_macro", "mode_0", "mode_past_n_modes", "test_function_modes",
            "theta_above_1", "theta_below_0", "one_theta_level", "c_const_0",
            "dump_modes_negative", "ensemble_size_0", "master_seed_negative",
            "time_power_negative"])
    def test_out_of_range_value_rejected_at_load(self, tmp_path, capsys,
                                                 command, where, value, named):
        # Each of these used to end in a traceback, or in a silently wrong
        # or empty result.
        raw = copy.deepcopy(BASE)
        section, key = where
        raw[section][key] = value
        path = write_config(tmp_path, raw)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0], err
        assert not out.exists()

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--seed", "-1", "--out",
                     str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--seed" in err[0], err
        assert not out.exists()

    def test_rejection_exit_code(self, tmp_path, capsys):
        raw = copy.deepcopy(BASE)
        raw["model"]["reactions"]["fast"]["b_c"] = 12.0
        path = write_config(tmp_path, raw)
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "Hypothesis 2.3" in capsys.readouterr().err

    @pytest.mark.parametrize("slow,message", [
        ({"terms": [[1.0, 3, 0]]},
         "Hypothesis 2.2 (one-sided growth): b(σ+ρ,λ)σ ≤ c₂(a₂ + σ² + "
         "|λ|^κ₁ + |ρ|^κ₂) violated in model.reactions.slow: worst sampled "
         "ratio 146.4 > c₂=1"),
        ({"c1": 0.01, "c2": 0.01},
         "Hypothesis 2.2 (uniform growth): |b(σ,λ)| ≤ c₁(a₁ + |σ|^m₁ + "
         "|λ|^m₂) violated in model.reactions.slow: worst sampled ratio "
         "1 > c₁=0.01"),
    ], ids=["plus_sigma_cubed", "understated_constants"])
    def test_growth_gate_names_inequality(self, tmp_path, capsys, slow,
                                          message):
        # b = +sigma^3 used to load, and then every path exploded (exit 3).
        with open(os.path.join("configs", "decoupled_control.json")) as fh:
            raw = json.load(fh)
        raw["model"]["reactions"]["slow"].update(slow)
        path = write_config(tmp_path, raw)
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_outputs(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        summary = (out / "summary.csv").read_bytes().decode()
        assert summary.startswith("trajectory_id,censored,t_explosion,"
                                  "v_integral,sup_norm_u,sup_norm_v")
        assert summary.count("\r\n") >= 9  # header + 8 trajectories
        assert (out / "trajectory_00000.csv").exists()
        meta = json.loads((out / "summary.meta.json").read_text())
        assert meta["seed"] == 11
        assert "config_sha256" in meta and "version" in meta

    def test_trajectory_cells_are_plain_floats(self, tmp_path):
        # Every cell must parse as a float; numpy 2 scalars used to be
        # written as "np.float64(...)".
        path = write_config(tmp_path, BASE)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        files = sorted(out.glob("trajectory_*.csv"))
        assert files
        for traj in files:
            rows = traj.read_text().splitlines()[1:]
            assert rows
            for row in rows:
                for cell in row.split(","):
                    float(cell)

    def test_invariant_csv_columns(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "inv"
        assert main(["invariant", "--config", path, "--out", str(out)]) == 0
        header = (out / "invariant.csv").read_text().splitlines()[0]
        assert header == ("observable_id,mean,std_error,t_burn,t_avg,"
                          "n_replicas,seed")

    def test_average_csv_columns(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "avg"
        assert main(["average", "--config", path, "--out", str(out)]) == 0
        lines = (out / "average.csv").read_text().splitlines()
        assert lines[0] == "mode_k,Fbar_estimate,std_error,analytic_value_or_blank"
        assert len(lines) == 5  # header + 4 modes

    def test_converge_and_audit_run(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "c"
        assert main(["converge", "--config", path, "--out", str(out)]) == 0
        header = (out / "converge.csv").read_text().splitlines()[0]
        assert header == ("experiment_id,epsilon,statistic_id,value,"
                          "std_error,n,censored_count")
        out2 = tmp_path / "a"
        assert main(["audit", "--config", path, "--out", str(out2)]) == 0
        assert (out2 / "audit.csv").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "seeded"
        assert main(["invariant", "--config", path, "--out", str(out),
                     "--seed", "99"]) == 0
        meta = json.loads((out / "invariant.meta.json").read_text())
        assert meta["seed"] == 99

    def test_workers_env_and_flag(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, BASE)
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        monkeypatch.setenv("MULTISCALE_WORKERS", "2")
        assert main(["invariant", "--config", path, "--out", str(out1)]) == 0
        # flag wins over the environment
        assert main(["invariant", "--config", path, "--out", str(out2),
                     "--workers", "1"]) == 0
        assert (out1 / "invariant.csv").read_bytes() == \
            (out2 / "invariant.csv").read_bytes()

    def test_non_integer_workers_env_rejected(self, tmp_path, monkeypatch,
                                              capsys):
        path = write_config(tmp_path, BASE)
        monkeypatch.setenv("MULTISCALE_WORKERS", "2.5")
        code = main(["invariant", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "MULTISCALE_WORKERS" in capsys.readouterr().err

    def test_audit_simulates_each_path_once(self, tmp_path, monkeypatch):
        # 3 eps x 3 theta with (model.epsilon, model.theta) on both grids:
        # 5 distinct coupled paths per trajectory id.
        import slowfast.harness as harness
        raw = copy.deepcopy(BASE)
        raw["model"]["reactions"]["slow"] = {"kind": "cubic_rough",
                                              "c_u": 0.5, "c_v": 0.5}
        raw["model"].update(theta=0.01, horizon=0.1)
        raw["experiment"].update(ensemble_size=2,
                                 epsilon_grid=[0.1, 0.05, 0.02],
                                 theta_sequence=[0.1, 0.01, 0.001])
        path = write_config(tmp_path, raw)
        calls = []
        simulate = harness.simulate_slowfast

        def counting(model, master_seed, trajectory_id, **kwargs):
            calls.append((trajectory_id, model.epsilon, model.theta))
            return simulate(model, master_seed, trajectory_id, **kwargs)
        monkeypatch.setattr(harness, "simulate_slowfast", counting)
        assert main(["audit", "--config", path, "--out", str(tmp_path / "a"),
                     "--workers", "1"]) == 0
        assert len(set(calls)) == 2 * 5
        assert len(calls) == len(set(calls))

    def test_v_integral_only_where_read(self, tmp_path, monkeypatch):
        # audit reads the V integral of each of its 5 distinct paths per id
        # (once, though the moment and theta studies share one); converge
        # never reads it, so never computes it.
        import slowfast.harness as harness
        raw = copy.deepcopy(BASE)
        raw["model"]["reactions"]["slow"] = {"kind": "cubic_rough",
                                              "c_u": 0.5, "c_v": 0.5}
        raw["model"].update(theta=0.01, horizon=0.1)
        raw["experiment"].update(ensemble_size=2,
                                 epsilon_grid=[0.1, 0.05, 0.02],
                                 theta_sequence=[0.1, 0.01, 0.001])
        path = write_config(tmp_path, raw)
        calls = []
        path_functionals = harness.path_functionals

        def counting(traj, model):
            calls.append((traj.trajectory_id, model.epsilon, model.theta))
            return path_functionals(traj, model)
        monkeypatch.setattr(harness, "path_functionals", counting)
        assert main(["audit", "--config", path, "--out", str(tmp_path / "a"),
                     "--workers", "1"]) == 0
        assert len(calls) == len(set(calls)) == 2 * 5
        calls.clear()
        linear = write_config(tmp_path, BASE, name="linear.json")
        assert main(["converge", "--config", linear,
                     "--out", str(tmp_path / "c"), "--workers", "1"]) == 0
        assert calls == []

    def test_worker_counts_give_identical_bytes(self, tmp_path):
        path = write_config(tmp_path, BASE)
        outs = []
        for w in (1, 3):
            out = tmp_path / f"det{w}"
            assert main(["converge", "--config", path, "--out", str(out),
                         "--workers", str(w)]) == 0
            outs.append(out)
        assert (outs[0] / "converge.csv").read_bytes() == \
            (outs[1] / "converge.csv").read_bytes()
        assert (outs[0] / "converge.meta.json").read_bytes() == \
            (outs[1] / "converge.meta.json").read_bytes()

    def test_explosion_exit_code(self, tmp_path):
        # |u| starts above the guard, so every path trips it on its first
        # step.  (An anti-dissipative b such as 5 sigma^3 is now rejected
        # at load by the growth gate.)
        raw = copy.deepcopy(BASE)
        raw["model"]["u0"] = [3.0]
        raw["model"]["explosion_bound"] = 2.0
        path = write_config(tmp_path, raw)
        # Every path explodes: the studies write n = 0 rows, not a traceback.
        for command in ("simulate", "converge", "audit"):
            out = tmp_path / command
            code = main([command, "--config", path, "--out", str(out)])
            assert code == 3, command
        rows = (out / "audit.csv").read_text().splitlines()
        snapped = [r for r in rows if ",delta_snapped," in r]
        assert len(snapped) == 2
        assert all(r.endswith(",0,8") for r in snapped)

    def test_t_explosion_is_a_macro_node(self, tmp_path):
        # A running sum t += h drifts off the node grid i*h (0.06 came out
        # as 0.060000000000000005); censored rows must report grid times.
        with open(os.path.join(os.path.dirname(__file__), "..", "configs",
                               "linear_benchmark.json")) as fh:
            raw = json.load(fh)
        raw["model"]["explosion_bound"] = 1.1
        raw["model"]["v0"] = [0.0]
        raw["experiment"]["ensemble_size"] = 6
        path = write_config(tmp_path, raw)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 3
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        censored = [row for row in rows if row["censored"] == "1"]
        assert censored
        h = raw["model"]["h_macro"]
        grid = set((np.arange(round(raw["model"]["horizon"] / h) + 1)
                    * h).tolist())
        assert all(float(row["t_explosion"]) in grid for row in censored)

    def test_averaged_reference_explosion_exit_code(self, tmp_path, capsys):
        # model.explosion_bound is the one guard.  Below |u0| = 1 it
        # censors every coupled path, then ends the first averaged
        # reference path: an explosion outside any censored path, so exit
        # 3 with one stderr line and no CSV, not a traceback.
        with open(os.path.join("configs", "cubic_rough.json")) as fh:
            raw = json.load(fh)
        raw["model"]["horizon"] = 0.05
        raw["model"]["explosion_bound"] = 0.5
        raw["experiment"]["ensemble_size"] = 2
        path = write_config(tmp_path, raw)
        out = tmp_path / "c"
        assert main(["converge", "--config", path, "--out", str(out),
                     "--workers", "1"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "state explosion in the averaged equation at t=0.01" in err[0]
        assert not (out / "converge.csv").exists()

    def test_overflowing_norm_gives_one_stderr_line(self, tmp_path):
        # u0 = 1e160 is finite, but its squared norm overflows in the
        # explosion guards of the coupled paths and of the averaged
        # reference path: exit 3 with the one-line report, and no numpy
        # overflow warning beside it.  A fresh interpreter, because pytest
        # captures warnings in process.
        raw = copy.deepcopy(BASE)
        raw["model"]["u0"] = [1e160]
        raw["experiment"].update(ensemble_size=2, observables=[
            {"kind": "mode", "k": 1}, {"kind": "norm_sq"}])
        path = write_config(tmp_path, raw)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "slowfast.cli", "converge", "--config",
             path, "--out", str(tmp_path / "c"), "--workers", "1"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 3
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1, proc.stderr
        assert "state explosion in the averaged equation at t=0.01" in err[0]
        assert "is non-finite" in err[0]

    @pytest.mark.parametrize("command", ["average", "invariant"])
    def test_non_finite_replica_exit_code(self, tmp_path, monkeypatch, capsys,
                                          command):
        import slowfast.fast_dynamics as fast_dynamics

        def nan_noise(self, xi):
            return np.full(np.shape(xi), np.nan)
        monkeypatch.setattr(fast_dynamics.FastStepper, "noise", nan_noise)
        path = write_config(tmp_path, BASE)
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "frozen-fast replica" in err[0]
        assert not (out / f"{command}.csv").exists()

    def test_rfc4180_line_endings(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "crlf"
        main(["invariant", "--config", path, "--out", str(out)])
        data = (out / "invariant.csv").read_bytes()
        assert b"\r\n" in data
