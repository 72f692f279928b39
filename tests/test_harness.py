import copy
import dataclasses
import math
import os

import numpy as np
import pytest

import slowfast.harness as harness
from slowfast.averaging import (averaged_mean_rates, make_drift_fn,
                                simulate_averaged)
from slowfast.config import TestFunctionSpec as XiSpec
from slowfast.config import parse_config, parse_config_dict
from slowfast.coupled import simulate_slowfast
from slowfast.fast_dynamics import FrozenFastParams
from slowfast.harness import (ResultRow, ResultTable, _coupled_paths,
                              _discrepancy_stat, _holder_pairs,
                              kahan_mean_vectors,
                              run_convergence_study,
                              run_holder_stats, run_khasminskii_study,
                              run_moment_audit, run_parallel,
                              run_theta_stability)
from slowfast.noise import derive_stream
from slowfast.spectral import kahan_add, mean_se

from conftest import linear_model
from test_config_cli import BASE


def small_config(**model_overrides):
    raw = copy.deepcopy(BASE)
    raw["model"].update(model_overrides)
    return raw


class TestReductions:
    def test_mean_se_matches_numpy(self, rng):
        vals = rng.normal(size=100)
        mean, se = mean_se(vals)
        assert mean == pytest.approx(vals.mean(), rel=1e-12)
        assert se == pytest.approx(vals.std(ddof=1) / 10.0, rel=1e-12)

    def test_mean_se_degenerate_sizes(self):
        assert mean_se([3.0]) == (3.0, 0.0)
        assert math.isnan(mean_se([])[0])

    def test_kahan_mean_vectors(self, rng):
        arrays = [rng.normal(size=5) for _ in range(50)]
        out = kahan_mean_vectors(arrays)
        assert np.allclose(out, np.mean(arrays, axis=0), atol=1e-14)

    def test_run_parallel_preserves_order(self):
        tasks = list(range(20))
        assert run_parallel(_square, tasks, 4) == [t * t for t in tasks]
        assert run_parallel(_square, tasks, 1) == [t * t for t in tasks]


def _square(x):
    return x * x


class TestResultTable:
    def test_lookup_and_censoring(self):
        rows = [ResultRow("e", 0.1, "s", 1.0, 0.1, 90, 10),
                ResultRow("e", 0.02, "s", 2.0, 0.1, 100, 0)]
        table = ResultTable(rows)
        assert table.value("e", 0.1, "s").value == 1.0
        assert table.max_censored_fraction == pytest.approx(0.1)
        with pytest.raises(KeyError):
            table.value("e", 0.5, "s")


class TestHolderPairs:
    def test_pairs_have_positive_start(self):
        pairs = _holder_pairs(1.0, 0.01)
        assert all(a > 0 for a, _ in pairs)
        assert all(b > a for a, b in pairs)

    def test_dyadic_lags_present(self):
        pairs = _holder_pairs(1.0, 0.01)
        lags = {b - a for a, b in pairs}
        assert {50, 25, 12, 6, 3} == lags


class TestConvergenceStudy:
    def test_discrepancy_nonnegative_and_counts(self):
        cfg = parse_config_dict(small_config())
        table = run_convergence_study(cfg)
        for eps in cfg.epsilon_grid:
            row = table.value("converge", eps, "D[xi[1]t^0]")
            assert row.value >= 0.0
            assert row.n + row.censored_count == cfg.ensemble_size

    def test_decoupled_model_sits_at_noise_floor(self):
        raw = small_config()
        raw["model"]["reactions"] = {
            "slow": {"kind": "polynomial", "terms": [[-1.0, 3, 0]],
                      "m1": 3, "m2": 1, "kappa1": 0, "kappa2": 4},
            "fast": {"kind": "linear_benchmark", "a_c": 0.0, "b_c": 2.0},
        }
        cfg = parse_config_dict(raw)
        table = run_convergence_study(cfg)
        for eps in cfg.epsilon_grid:
            assert table.value("converge", eps, "D[xi[1]t^0]").value <= 1e-12

    def test_norm_sq_observable_uses_mc_reference(self):
        raw = small_config()
        raw["experiment"]["observables"] = [{"kind": "norm_sq"}]
        cfg = parse_config_dict(raw)
        table = run_convergence_study(cfg)
        row = table.value("converge", 0.1, "weak_error[norm_sq]")
        assert row.std_error > 0.0

    @pytest.mark.parametrize("name", ["linear_benchmark",
                                      "decoupled_control", "cubic_rough"])
    def test_reference_is_the_averaged_equation(self, name, monkeypatch):
        # One coupled path per (id, epsilon) and no other.  A linear
        # benchmark mode is referenced by its exact mean; every other
        # observable, bit for bit, by the mean of one simulate_averaged
        # terminal per id on its auxiliary stream.
        cfg = parse_config(os.path.join("configs", f"{name}.json"))
        cfg = dataclasses.replace(
            cfg, ensemble_size=3, worker_count=1,
            model=dataclasses.replace(cfg.model, horizon=0.05),
            averaging=FrozenFastParams(h=0.01, t_burn=1.0, t_avg=0.4,
                                       n_replicas=2))
        model = cfg.model
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return simulate_slowfast(*args, **kwargs)
        monkeypatch.setattr(harness, "simulate_slowfast", counting)
        table = run_convergence_study(cfg)
        assert len(calls) == cfg.ensemble_size * len(cfg.epsilon_grid)

        terminals = [simulate_averaged(
            model, cfg.averaging, model.u0, model.horizon, model.h_macro,
            derive_stream(cfg.master_seed, i, "auxiliary"),
            master_seed=cfg.master_seed, trajectory_id=i).path[-1]
            for i in range(cfg.ensemble_size)]
        for ob in cfg.observables:
            if model.is_linear_benchmark and ob.kind == "mode":
                rate = averaged_mean_rates(model)[ob.k - 1]
                ref = (float(np.exp(rate * model.horizon)
                             * model.u0[ob.k - 1]), 0.0)
            else:
                ref = mean_se([ob(u) for u in terminals])
            for eps in cfg.epsilon_grid:
                mean = table.value("converge", eps, f"mean[{ob.label}]")
                row = table.value("converge", eps, f"weak_error[{ob.label}]")
                assert row.value == abs(mean.value - ref[0])
                assert row.std_error == math.sqrt(mean.std_error ** 2
                                                  + ref[1] ** 2)


def _per_node_discrepancy(traj, model, test_functions, averaging,
                          master_seed):
    """The drift-discrepancy functional one macro node at a time: F-bar,
    np.dot and the Kahan sum per node, as the path statistic once was."""
    fbar = make_drift_fn(model, averaging, master_seed,
                         trajectory_id=traj.trajectory_id)
    h = float(traj.times[1] - traj.times[0])
    n = model.n_modes
    sums = [0.0] * len(test_functions)
    comps = [0.0] * len(test_functions)
    sups = [0.0] * len(test_functions)
    for i in range(traj.times.size - 1):
        t = float(traj.times[i])
        delta_f = traj.slow_drift[i] - fbar(t, traj.u[i])[0]
        for j, tf in enumerate(test_functions):
            sums[j], comps[j] = kahan_add(
                sums[j], comps[j], h * float(np.dot(delta_f, tf.values(t, n))))
            sups[j] = max(sups[j], abs(sums[j]))
    return {"sups": sups}


class TestDiscrepancyStat:
    # Over whole paths: F-bar on all nodes at once (exact modes) or one
    # estimate per node (estimator), stacked dot products, sums in node
    # order; every sup bit-equal to the per-node loop.
    TEST_FUNCTIONS = (XiSpec(modes=(1.0,)),
                      XiSpec(modes=(0.5, -1.0, 0.25), time_power=1))

    def _check(self, model, averaging, n_paths):
        for trajectory_id in range(n_paths):
            traj = simulate_slowfast(model, 61, trajectory_id,
                                     record_drift=True)
            expected = _per_node_discrepancy(traj, model, self.TEST_FUNCTIONS,
                                             averaging, 61)
            assert expected["sups"][0] > 0.0
            assert _discrepancy_stat(traj, model, self.TEST_FUNCTIONS,
                                     averaging, 61) == expected

    @pytest.mark.parametrize("eps", [0.1, 0.004])
    def test_linear_oracle(self, eps):
        cfg = parse_config("configs/linear_benchmark.json")
        self._check(cfg.model.with_epsilon(eps), cfg.averaging, 3)

    def test_slow_only(self):
        cfg = parse_config("configs/decoupled_control.json")
        self._check(cfg.model.with_epsilon(0.02), cfg.averaging, 3)

    def test_estimator(self):
        cfg = parse_config("configs/cubic_rough.json")
        model = dataclasses.replace(cfg.model, horizon=0.03)
        averaging = FrozenFastParams(h=0.01, t_burn=1.5, t_avg=0.2,
                                     n_replicas=2)
        self._check(model, averaging, 1)


class TestMomentAudit:
    def test_ratios_reported(self):
        cfg = parse_config_dict(small_config())
        table = run_moment_audit(cfg)
        for stat in ("v_integral_ratio", "sup_u_L4m1", "sup_v_Lqbar",
                     "vbar_proxy_integral"):
            row = table.value("audit_moment", None, f"maxmin[{stat}]")
            assert row.value >= 1.0

    def test_deterministic_decay_ratio_near_one(self):
        raw = small_config()
        raw["model"]["slow_operator"]["lambda0"] = 0.0
        raw["model"]["fast_operator"]["lambda0"] = 0.0
        raw["model"]["reactions"] = {
            "slow": {"kind": "polynomial", "terms": []},
            "fast": {"kind": "linear_benchmark", "a_c": 0.0, "b_c": 0.0},
        }
        cfg = parse_config_dict(raw)
        table = run_moment_audit(cfg)
        # noise off and no reactions: statistics depend on eps only through
        # the fast decay clock; the V integral is eps-stable within 5%
        row = table.value("audit_moment", None, "maxmin[v_integral_ratio]")
        assert row.value <= 1.05


class TestHolderStats:
    def test_calibration_bounds_smaller_eps(self):
        cfg = parse_config_dict(small_config())
        table = run_holder_stats(cfg)
        cal = table.value("audit_holder", cfg.epsilon_grid[0], "calibration")
        assert cal.value > 0
        for eps in cfg.epsilon_grid[1:]:
            headroom = table.value("audit_holder", eps, "headroom")
            assert headroom.value <= 1.5

    def test_deterministic_increments_match_semigroup_difference(self):
        # noise off, no reactions: |u(t) - u(s)|^2 is a semigroup difference
        raw = small_config()
        raw["model"]["slow_operator"]["lambda0"] = 0.0
        raw["model"]["fast_operator"]["lambda0"] = 0.0
        raw["model"]["reactions"] = {
            "slow": {"kind": "polynomial", "terms": []},
            "fast": {"kind": "linear_benchmark", "a_c": 0.0, "b_c": 0.0},
        }
        raw["experiment"]["ensemble_size"] = 2
        cfg = parse_config_dict(raw)
        table = run_holder_stats(cfg)
        model = cfg.model
        h = model.h_macro
        alpha1 = model.op1.alphas[0]
        for a, b in _holder_pairs(model.horizon, h)[:3]:
            row = table.value("audit_holder", 0.1,
                              f"msq_increment[s={a * h:g},t={b * h:g}]")
            exact = (math.exp(-alpha1 * b * h) - math.exp(-alpha1 * a * h)) ** 2
            assert row.value == pytest.approx(exact, rel=1e-8)


class TestThetaStability:
    def test_equal_theta_distance_is_exactly_zero(self):
        cfg = parse_config_dict(small_config(theta=0.01))
        table = run_theta_stability(cfg, theta_sequence=(0.01, 0.01))
        row = table.value("audit_theta", 0.1, "distance[theta=0.01->0.01]")
        assert row.value == 0.0
        assert row.std_error == 0.0

    def test_distances_decrease_down_the_ladder(self):
        raw = small_config()
        raw["model"]["reactions"]["slow"] = {"kind": "cubic_rough",
                                              "c_u": 0.5, "c_v": 0.5}
        raw["experiment"]["ensemble_size"] = 16
        cfg = parse_config_dict(raw)
        table = run_theta_stability(cfg, theta_sequence=(0.1, 0.01, 0.001))
        d1 = table.value("audit_theta", 0.1, "distance[theta=0.1->0.01]")
        d2 = table.value("audit_theta", 0.1, "distance[theta=0.01->0.001]")
        assert d1.value > d2.value
        row = table.value("audit_theta", None, "maxmin[v_integral]")
        assert row.value <= 2.0

    def test_requires_two_levels(self):
        cfg = parse_config_dict(small_config())
        with pytest.raises(Exception):
            run_theta_stability(cfg, theta_sequence=(0.1,))


class TestKhasminskiiStudy:
    def test_schedule_and_decrease(self):
        raw = small_config(h_macro=0.005)
        raw["experiment"]["ensemble_size"] = 12
        raw["experiment"]["epsilon_grid"] = [0.1, 0.02]
        cfg = parse_config_dict(raw)
        table = run_khasminskii_study(cfg)
        deltas = [table.value("khasminskii", e, "delta").value
                  for e in cfg.epsilon_grid]
        assert deltas[0] > deltas[1]
        fast = [table.value("khasminskii", e, "fast_deviation_msq")
                for e in cfg.epsilon_grid]
        gap_se = math.hypot(fast[0].std_error, fast[1].std_error)
        assert fast[1].value < fast[0].value - gap_se


class TestCensoringCause:
    """A censored record says whether the path crossed the explosion bound
    or turned non-finite."""

    def _records(self, model):
        key = (model.epsilon, model.theta)
        return _coupled_paths(3, ((key, model, ()),), (), 0)["paths"][key]

    def test_bound_crossing(self):
        model = dataclasses.replace(linear_model(horizon=0.5),
                                    explosion_bound=0.5)
        record = self._records(model)
        assert record["censored"] and record["cause"] == "bound"
        assert record["t_explosion"] > 0

    def test_non_finite_field(self, monkeypatch):
        import slowfast.fast_dynamics as fast_dynamics

        def nan_noise(self, xi):
            return np.full(np.shape(xi), np.nan)
        monkeypatch.setattr(fast_dynamics.FastStepper, "noise", nan_noise)
        record = self._records(linear_model(horizon=0.05))
        assert record["censored"] and record["cause"] == "non-finite"
        assert record["t_explosion"] == pytest.approx(0.01)
