import copy
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from slowfast import ConfigurationRejectedError, FrozenFastParams
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

# The nested averaged-drift estimator at a tiny budget: b reads the fast
# variable and the fast step has a sine term.
CUBIC_NESTED = copy.deepcopy(BASE)
CUBIC_NESTED["model"]["reactions"] = {
    "slow": {"kind": "cubic_rough", "c_u": 0.5, "c_v": 0.5},
    "fast": {"kind": "lipschitz_saturating", "a_c": 1.0, "b_c": 2.0,
             "c_s": 0.2}}
CUBIC_NESTED["model"].update(theta=0.01, horizon=0.05)
CUBIC_NESTED["experiment"].update(
    ensemble_size=4, observables=[{"kind": "mode", "k": 1},
                                  {"kind": "norm_sq"}])
CUBIC_NESTED["averaging"] = {"h_fast": 0.05, "t_burn": 0.2, "t_avg": 0.5,
                             "n_replicas": 2}


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

    @pytest.mark.parametrize("path,spelling,other", [
        (("grid", "n_modes"), 4, 4.0),
        (("horizon",), 1, 1.0),
        (("u0",), [1.0], [1.0, 0.0]),
        (("reactions", "slow"), {"kind": "cubic_rough", "c_u": 0, "c_v": 1},
         {"kind": "cubic_rough"}),
        (("reactions", "slow"),
         {"kind": "polynomial", "terms": [[-1, 3, 0]], "m1": 3, "m2": 1.0,
          "kappa1": 0, "kappa2": 4, "c1": 1, "a2": 1},
         {"kind": "polynomial", "terms": [[-1.0, 3, 0]], "m1": 3.0,
          "kappa1": 0.0, "kappa2": 4.0}),
        (("reactions", "fast"), {"kind": "linear_benchmark", "a_c": 1,
                                 "b_c": 1}, {"kind": "linear_benchmark"}),
    ], ids=["n_modes", "horizon", "u0", "cubic_rough_defaults",
            "polynomial_defaults", "linear_benchmark_defaults"])
    def test_hash_ignores_how_a_value_is_spelled(self, path, spelling, other):
        # Two spellings of one model, a default written out or omitted
        # among them, give one canonical form and one hash.
        def parsed(value):
            raw = copy.deepcopy(BASE)
            section = raw["model"]
            for key in path[:-1]:
                section = section[key]
            section[path[-1]] = value
            return parse_config_dict(raw)
        cfg, cfg2 = parsed(spelling), parsed(other)
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

    @pytest.mark.parametrize("changes,path,value", [
        (lambda cfg: {"master_seed": 5}, ("experiment", "master_seed"), 5),
        (lambda cfg: {"model": cfg.model.with_epsilon(0.05)},
         ("model", "epsilon"), 0.05),
        (lambda cfg: {"averaging": FrozenFastParams(
            h=0.02, t_burn=0.5, t_avg=3.0, n_replicas=4)}, ("averaging",),
         {"h_fast": 0.02, "t_burn": 0.5, "t_avg": 3.0, "n_replicas": 4}),
    ], ids=["master_seed", "epsilon", "averaging"])
    def test_replaced_config_hashes_as_parsed(self, changes, path, value):
        # The canonical form is read from the fields, so a config changed
        # with dataclasses.replace hashes as the config parsed with the
        # changed value, not as the one it was made from.
        cfg = parse_config_dict(copy.deepcopy(BASE))
        changed = dataclasses.replace(cfg, **changes(cfg))
        raw = copy.deepcopy(BASE)
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        parsed = parse_config_dict(raw)
        assert changed.canonical == parsed.canonical
        assert config_hash(changed) == config_hash(parsed) != config_hash(cfg)

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
        ("invariant", ("invariant", "t_burn"), 1e300, "invariant.t_burn"),
        ("simulate", ("model", "horizon"), 1e300, "model.horizon"),
        ("converge", ("experiment", "worker_count"), 0,
         "experiment.worker_count"),
        ("audit", ("model", "horizon"), 0.004, "model.horizon"),
        ("audit", ("model", "horizon"), 0.01, "model.horizon"),
        ("audit", ("experiment", "epsilon_grid"), [],
         "experiment.epsilon_grid"),
        ("converge", ("experiment", "epsilon_grid"), [],
         "experiment.epsilon_grid"),
        ("converge", ("experiment", "test_functions"), [1],
         "experiment.test_functions[0]"),
        ("invariant", ("experiment", "observables"), [1],
         "experiment.observables[0]"),
    ], ids=["h_macro", "mode_0", "mode_past_n_modes", "test_function_modes",
            "theta_above_1", "theta_below_0", "one_theta_level", "c_const_0",
            "dump_modes_negative", "ensemble_size_0", "master_seed_negative",
            "time_power_negative", "t_burn_unfinishable",
            "horizon_unfinishable", "worker_count_0", "horizon_no_step",
            "horizon_one_step", "epsilon_grid_empty_audit",
            "epsilon_grid_empty_converge", "test_function_not_object",
            "observable_not_object"])
    def test_out_of_range_value_rejected_at_load(self, tmp_path, capsys,
                                                 command, where, value, named):
        # Each of these used to end in a traceback, in a silently wrong or
        # empty result, or in a run that would not finish.
        raw = copy.deepcopy(BASE)
        section, key = where
        raw[section][key] = value
        path = write_config(tmp_path, raw)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("command,key,value,named", [
        ("audit", "theta_sequence", [0.1, 0.1], "theta_sequence[1]"),
        ("audit", "theta_sequence", [0.01, 0.1, 0.10000001],
         "theta_sequence[2]"),
        ("converge", "observables",
         [{"kind": "mode", "k": 1}, {"kind": "mode", "k": 1}],
         "observables[1]"),
        ("converge", "observables",
         [{"kind": "norm_sq"}, {"kind": "mode", "k": 2},
          {"kind": "norm_sq", "k": 2}], "observables[2]"),
        ("converge", "test_functions", [{"modes": [1.0]}, {"modes": [1.0]}],
         "test_functions[1]"),
        ("converge", "test_functions",
         [{"modes": [1.0]}, {"modes": [1.0000001]}], "test_functions[1]"),
    ], ids=["theta_repeated", "theta_prints_alike", "observable_repeated",
            "norm_sq_prints_alike", "test_function_repeated",
            "test_function_prints_alike"])
    def test_entries_sharing_a_statistic_id_rejected(self, tmp_path, capsys,
                                                     command, key, value,
                                                     named):
        # Each used to write two rows under one (experiment_id, epsilon,
        # statistic_id) key, and ResultTable.value read the first.
        raw = copy.deepcopy(BASE)
        raw["experiment"][key] = value
        path = write_config(tmp_path, raw)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"experiment.{named} repeats" in err[0], err
        assert not out.exists()

    def test_short_horizon_rejected_before_the_estimator(self, tmp_path,
                                                         capsys):
        # With no macro step, converge's averaged reference in estimator
        # mode used to stack an empty list of estimates.
        raw = copy.deepcopy(BASE)
        raw["model"]["reactions"]["slow"] = {"kind": "cubic_rough",
                                              "c_u": 0.5, "c_v": 0.5}
        raw["model"]["horizon"] = 0.004
        path = write_config(tmp_path, raw)
        out = tmp_path / "o"
        assert main(["converge", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "model.horizon" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("command,where,value", [
        ("invariant", ("invariant", "n_replicas"), "abc"),
        ("simulate", ("model", "epsilon"), "x"),
        ("converge", ("experiment", "ensemble_size"), None),
        ("average", ("averaging", "t_avg"), [1]),
        ("simulate", ("model", "grid", "n_quad"), None),
        ("simulate", ("model", "reactions", "slow", "c_u"), "a"),
        ("simulate", ("experiment",), 5),
        ("invariant", ("invariant",), [1]),
        ("simulate", ("model",), 5),
        ("simulate", ("model", "grid"), 5),
        ("simulate", ("model", "slow_operator"), 5),
        ("simulate", ("model", "reactions"), 5),
        ("simulate", ("model", "epsilon"), "0.1"),
        ("converge", ("experiment", "ensemble_size"), "3"),
        ("simulate", ("model", "epsilon"), True),
        ("simulate", ("model", "grid", "n_modes"), True),
        ("converge", ("experiment", "ensemble_size"), 2.5),
        ("average", ("averaging", "n_replicas"), 7.9),
        ("simulate", ("model", "grid", "n_modes"), 8.7),
        ("simulate", ("model", "u0"), "12"),
        ("audit", ("experiment", "theta_sequence"), "01"),
    ], ids=["n_replicas_string", "epsilon_string", "ensemble_size_null",
            "t_avg_list", "n_quad_null", "c_u_string", "experiment_number",
            "invariant_list", "model_number", "grid_number",
            "slow_operator_number", "reactions_number",
            "epsilon_numeric_string", "ensemble_size_numeric_string",
            "epsilon_bool", "n_modes_bool", "ensemble_size_fractional",
            "n_replicas_fractional", "n_modes_fractional", "u0_string",
            "theta_sequence_string"])
    def test_wrong_json_type_rejected_at_load(self, tmp_path, capsys,
                                              command, where, value):
        # Each of these used to end in the traceback of int() or float().
        raw = copy.deepcopy(BASE)
        raw["model"]["reactions"]["slow"] = {"kind": "cubic_rough",
                                              "c_u": 0.5, "c_v": 0.5}
        section = raw
        for key in where[:-1]:
            section = section[key]
        section[where[-1]] = value
        path = write_config(tmp_path, raw)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and ".".join(where) + " must be" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf],
                             ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("where,as_list", [
        (("model", "fast_operator", "nu"), False),
        (("model", "slow_operator", "nu"), False),
        (("model", "grid", "length"), False),
        (("model", "explosion_bound"), False),
        (("averaging", "t_avg"), False),
        (("model", "reactions", "fast", "c_s"), False),
        (("model", "u0"), True),
        (("experiment", "epsilon_grid"), True),
    ], ids=["fast_nu", "slow_nu", "length", "explosion_bound", "t_avg",
            "c_s", "u0", "epsilon_grid"])
    def test_non_finite_number_rejected_at_load(self, tmp_path, capsys,
                                                where, as_list, number):
        # Python's json reads NaN and Infinity.  An infinite fast nu used
        # to run with numpy's RuntimeWarning, an infinite slow nu to write
        # a mean of 0.0, and a NaN nu or length to censor every path.
        raw = copy.deepcopy(BASE)
        raw["model"]["reactions"]["fast"] = {
            "kind": "lipschitz_saturating", "a_c": 1.0, "b_c": 2.0,
            "c_s": 0.2}
        section = raw
        for key in where[:-1]:
            section = section[key]
        section[where[-1]] = [0.1, number] if as_list else number
        path = write_config(tmp_path, raw)
        out = tmp_path / "o"
        assert main(["converge", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and ".".join(where) + " must be" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("where,value,named", [
        (("experiment", "epsilon_grid"), [0.1, 1e-300],
         "experiment.epsilon_grid"),
        (("experiment", "epsilon_grid"), [0.1, 5e-324],
         "experiment.epsilon_grid"),
        (("model", "epsilon"), 1e-300, "model.epsilon"),
        (("model", "epsilon"), 5e-324, "model.epsilon"),
        (("model", "reactions", "slow", "terms"), [["a", 3, 0]],
         "model.reactions.slow.terms"),
        (("model", "reactions", "slow", "terms"), [[-1.0, 3]],
         "model.reactions.slow.terms"),
        (("model", "reactions", "slow", "terms"), 5,
         "model.reactions.slow.terms"),
        (("model", "reactions", "slow", "terms"), [[-1.0, 3.7, 0]],
         "model.reactions.slow.terms"),
        (("model", "reactions", "slow", "terms"), [[math.nan, 3, 0]],
         "model.reactions.slow.terms"),
        (("model", "reactions", "slow", "terms"),
         [[-1.0, 3, 0], [math.inf, 0, 0]], "model.reactions.slow.terms"),
        (("model", "reactions", "slow", "terms"), [[10 ** 400, 3, 0]],
         "model.reactions.slow.terms"),
    ], ids=["grid_too_many_substeps", "grid_ratio_underflows",
            "epsilon_too_many_substeps", "epsilon_ratio_underflows",
            "terms_string_coefficient", "terms_two_entries", "terms_number",
            "terms_fractional_power", "terms_nan_coefficient",
            "terms_infinite_coefficient", "terms_overflowing_coefficient"])
    @pytest.mark.parametrize("command", ["simulate", "converge"])
    def test_unrunnable_path_rejected_at_load(self, tmp_path, capsys,
                                              command, where, value, named):
        # The epsilon cases ended in numpy's size error or a
        # ZeroDivisionError (a bad model.epsilon passed converge, whose
        # grid is set, and crashed simulate); the terms cases in the
        # traceback of float() or int(), a power of 3.7 ran as 3, and a
        # NaN or infinite coefficient was rejected as a growth violation.
        with open(os.path.join("configs", "decoupled_control.json")) as fh:
            raw = json.load(fh)
        raw["experiment"]["ensemble_size"] = 2
        section = raw
        for key in where[:-1]:
            section = section[key]
        section[where[-1]] = value
        path = write_config(tmp_path, raw)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["2", "nan", "0", "-0.5", "1e-300"])
    def test_eps_flag_out_of_range_rejected(self, tmp_path, capsys, eps):
        # Each used to end in the traceback of InvalidParameterError, or
        # of numpy's size error for 1e-300.
        path = write_config(tmp_path, BASE)
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--eps", eps, "--out",
                     str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--eps" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("command",
                             ["invariant", "average", "converge", "audit"])
    def test_eps_flag_only_for_simulate(self, tmp_path, capsys, command):
        # A usage error, before the config is read.
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as info:
            main([command, "--config", str(tmp_path / "missing.json"),
                  "--eps", "0.05", "--out", str(out)])
        assert info.value.code == 2
        assert "--eps" in capsys.readouterr().err.strip().splitlines()[-1]
        assert not out.exists()

    def test_eps_flag_runs_and_hashes_its_epsilon(self, tmp_path):
        # simulate --eps writes what a config with that epsilon writes,
        # sidecar hash included.
        path = write_config(tmp_path, BASE)
        flagged = tmp_path / "flag"
        assert main(["simulate", "--config", path, "--eps", "0.05", "--out",
                     str(flagged)]) == 0
        raw = copy.deepcopy(BASE)
        raw["model"]["epsilon"] = 0.05
        direct = tmp_path / "direct"
        assert main(["simulate", "--config",
                     write_config(tmp_path, raw, "eps.json"), "--out",
                     str(direct)]) == 0
        names = sorted(os.listdir(direct))
        assert names == sorted(os.listdir(flagged))
        for name in names:
            assert ((flagged / name).read_bytes()
                    == (direct / name).read_bytes()), name

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

    @pytest.mark.parametrize("terms", [
        [[-1.0, 3, 0], [1.0, 1, -1]],
        [[-1.0, 3, 0], [0.1, 0, -1]],
    ], ids=["nan_at_lambda_0", "inf_at_lambda_0"])
    def test_singular_reaction_rejected_in_one_line(self, tmp_path, capsys,
                                                    terms):
        # A negative lambda power is singular at lambda = 0.  A NaN sampled
        # ratio (0 * inf) used to pass the gate, after which every path was
        # censored (exit 3); an inf one was rejected behind numpy's
        # warnings.  Warnings are errors here, as pytest would otherwise
        # capture them away from stderr.
        with open(os.path.join("configs", "decoupled_control.json")) as fh:
            raw = json.load(fh)
        raw["model"]["reactions"]["slow"].update(terms=terms, a1=1.0)
        path = write_config(tmp_path, raw)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", path, "--out",
                         str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert "Hypothesis 2.2 (uniform growth)" in err[0]
        assert "worst sampled ratio inf" in err[0]
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

    @pytest.mark.parametrize("flag,env", [("0", None), ("-3", None),
                                          (None, "0")],
                             ids=["flag_0", "flag_negative", "env_0"])
    def test_worker_count_below_one_rejected(self, tmp_path, monkeypatch,
                                             capsys, flag, env):
        # Each used to run serially and exit 0.
        path = write_config(tmp_path, BASE)
        out = tmp_path / "o"
        argv = ["converge", "--config", path, "--out", str(out)]
        if flag is not None:
            argv += ["--workers", flag]
        monkeypatch.setenv("MULTISCALE_WORKERS", env or "")
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        source = "--workers" if flag is not None else "MULTISCALE_WORKERS"
        assert len(err) == 1 and f"{source} must be" in err[0], err
        assert not out.exists()

    def test_average_of_a_decoupled_slow_reaction_is_exact(self, tmp_path,
                                                           monkeypatch):
        # b = -sigma^3 ignores the fast variable, so the averaged drift at
        # u0 is analyze(-u0^3), with standard errors of exactly 0 and no
        # frozen-fast replica stepped.
        import slowfast.fast_dynamics as fast_dynamics
        from slowfast.spectral import analyze, synthesize

        def no_replicas(*args, **kwargs):
            raise AssertionError("a frozen-fast replica was stepped")
        monkeypatch.setattr(fast_dynamics, "_run_replicas", no_replicas)
        config = os.path.join("configs", "decoupled_control.json")
        out = tmp_path / "out"
        assert main(["average", "--config", config, "--out", str(out),
                     "--seed", "7"]) == 0
        with open(out / "average.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        model = parse_config(config).model
        u_phys = synthesize(model.u0, model.grid)
        exact = analyze(-u_phys ** 3, model.grid)
        assert len(rows) == model.n_modes
        assert all(row["std_error"] == "0.0" for row in rows)
        assert all(row["analytic_value_or_blank"] == "" for row in rows)
        np.testing.assert_allclose(
            [float(row["Fbar_estimate"]) for row in rows], exact,
            rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("command", ["simulate", "converge", "average"])
    def test_out_that_is_a_file_rejected(self, tmp_path, monkeypatch, capsys,
                                         command):
        # average used to run the whole estimate and then end in the
        # traceback of FileExistsError.
        import slowfast.cli as cli
        path = write_config(tmp_path, BASE)
        out = tmp_path / "taken"
        out.write_text("kept")

        def no_run(*args):
            raise AssertionError("a path ran before the rejection")
        for name in ("simulate_ensemble", "run_convergence_study",
                     "pooled_fbar_estimate"):
            monkeypatch.setattr(cli, name, no_run)
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--out" in err[0], err
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_output_dir_that_is_a_file_rejected(self, tmp_path, capsys,
                                                under):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        raw = copy.deepcopy(BASE)
        raw["experiment"]["output_dir"] = str(taken / "sub" if under
                                              else taken)
        path = write_config(tmp_path, raw)
        assert main(["average", "--config", path]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "experiment.output_dir" in err[0], err
        assert taken.read_text() == "kept"

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

    def test_one_nested_estimate_per_path_and_averaged_step(
            self, tmp_path, monkeypatch):
        # Each coupled path's discrepancy takes the averaged drift at all
        # of its nodes as one replica block; each averaged path takes one
        # block per step.
        import slowfast.fast_dynamics as fast_dynamics
        raw = copy.deepcopy(CUBIC_NESTED)
        raw["experiment"].update(ensemble_size=2,
                                 observables=[{"kind": "norm_sq"}])
        path = write_config(tmp_path, raw)
        calls = []
        run_replicas = fast_dynamics._run_replicas

        def counting(model, x, *args):
            calls.append(x.shape)
            return run_replicas(model, x, *args)
        monkeypatch.setattr(fast_dynamics, "_run_replicas", counting)
        assert main(["converge", "--config", path, "--out",
                     str(tmp_path / "c"), "--workers", "1"]) == 0
        model = parse_config(path).model
        n_paths = 2 * len(raw["experiment"]["epsilon_grid"])
        assert len(calls) == n_paths + 2 * model.n_steps
        assert calls.count((model.n_steps, model.n_modes)) == n_paths

    def test_worker_counts_give_identical_bytes(self, tmp_path):
        # The linear benchmark's closed-form drift, and the nested
        # estimator's replica blocks.
        for name, raw in (("linear", BASE), ("cubic_nested", CUBIC_NESTED)):
            path = write_config(tmp_path, raw, name=f"{name}.json")
            outs = []
            for w in (1, 3):
                out = tmp_path / f"{name}{w}"
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

    @staticmethod
    def averaged_row(out) -> dict:
        """The epsilon-blank row that counts converge's averaged paths."""
        with open(out / "converge.csv", newline="") as fh:
            rows = [row for row in csv.DictReader(fh)
                    if row["statistic_id"] == "censored_fraction[averaged]"]
        assert len(rows) == 1 and rows[0]["epsilon"] == ""
        return rows[0]

    def test_averaged_reference_explosion_exit_code(self, tmp_path, capsys):
        # model.explosion_bound is the one guard.  Below |u0| = 1 it
        # censors every coupled path and every averaged reference path.
        # The averaged paths are censored as the coupled ones are: the CSV
        # is written, its epsilon-blank row counts them, and the censored
        # fraction gives exit 3, with nothing on stderr.
        with open(os.path.join("configs", "cubic_rough.json")) as fh:
            raw = json.load(fh)
        raw["model"]["horizon"] = 0.05
        raw["model"]["explosion_bound"] = 0.5
        raw["experiment"]["ensemble_size"] = 2
        path = write_config(tmp_path, raw)
        out = tmp_path / "c"
        assert main(["converge", "--config", path, "--out", str(out),
                     "--workers", "1"]) == 3
        assert capsys.readouterr().err == ""
        row = self.averaged_row(out)
        assert (row["value"], row["n"], row["censored_count"]) == \
            ("1.0", "0", "2")

    def test_averaged_path_explosion_writes_the_csv(self, tmp_path, capsys):
        # A reduced linear benchmark whose guard sits just below |u0| = 1:
        # one exploding averaged path used to end converge with exit 3 and
        # no CSV.  Now every path is censored and counted.
        with open(os.path.join("configs", "linear_benchmark.json")) as fh:
            raw = json.load(fh)
        raw["model"].update(explosion_bound=0.999, v0=[0.0], horizon=0.1)
        raw["experiment"].update(ensemble_size=3,
                                 observables=[{"kind": "norm_sq"}])
        path = write_config(tmp_path, raw)
        out = tmp_path / "c"
        assert main(["converge", "--config", path, "--out", str(out),
                     "--workers", "1"]) == 3
        assert capsys.readouterr().err == ""
        row = self.averaged_row(out)
        assert int(row["n"]) + int(row["censored_count"]) == 3
        assert int(row["censored_count"]) >= 1

    def test_overflowing_norm_gives_no_warning(self, tmp_path):
        # u0 = 1e160 is finite, but its squared norm overflows in the
        # explosion guards of the coupled paths and of the averaged
        # reference paths: every path is censored, exit 3, and no numpy
        # overflow warning on stderr.  A fresh interpreter, because pytest
        # captures warnings in process.
        raw = copy.deepcopy(BASE)
        raw["model"]["u0"] = [1e160]
        raw["experiment"].update(ensemble_size=2, observables=[
            {"kind": "mode", "k": 1}, {"kind": "norm_sq"}])
        path = write_config(tmp_path, raw)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = tmp_path / "c"
        proc = subprocess.run(
            [sys.executable, "-m", "slowfast.cli", "converge", "--config",
             path, "--out", str(out), "--workers", "1"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 3
        assert proc.stderr == ""
        row = self.averaged_row(out)
        assert (row["n"], row["censored_count"]) == ("0", "2")

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
