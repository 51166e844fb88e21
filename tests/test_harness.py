import math
from types import SimpleNamespace

import numpy as np
import pytest

from temperhmc.errors import BudgetError, InsufficientSamples
from temperhmc.harness import (UNINFORMED_PER_EXAMPLE, anneal_stop,
                               baseline_optimize, sweep_table, write_sweep_csv)
from temperhmc.network import NetworkArch, dataset_energy_fns


@pytest.fixture(scope="module")
def toy_problem():
    """Three well-separated 2D clusters; zero training energy is reachable."""
    rng = np.random.default_rng(0)
    centers = np.array([[2.0, 0.0], [-1.0, 1.8], [-1.0, -1.8]])
    x = np.concatenate([c + 0.2 * rng.normal(size=(6, 2)) for c in centers])
    y = np.repeat(np.arange(3), 6)
    ds = SimpleNamespace(inputs=x, labels=y)
    return NetworkArch((2, 8, 3)), ds, ds


class TestBaseline:
    def test_zero_energy_mode_selection_rule(self, toy_problem):
        arch, train, test = toy_problem
        res = baseline_optimize(arch, train, test, seed=1, n_solutions=5,
                                mode="zero-energy", restart_cap=100)
        assert len(res.solutions) == 5
        assert np.all(res.train_energies < 1e-10)
        assert res.mode == "zero-energy"

    def test_budget_error_when_unattainable(self, toy_problem):
        arch, train, test = toy_problem
        from temperhmc.minimize import RMinConfig
        # 3 minimisation steps cannot reach zero energy
        with pytest.raises(BudgetError):
            baseline_optimize(arch, train, test, seed=1, n_solutions=5,
                              mode="zero-energy", restart_cap=10,
                              rmin_cfg=RMinConfig(n_steps=3))

    def test_default_restart_cap_is_40_per_solution(self, toy_problem):
        arch, train, test = toy_problem
        from temperhmc.minimize import RMinConfig
        with pytest.raises(BudgetError, match="^40 restarts produced only 0"):
            baseline_optimize(arch, train, test, seed=1, n_solutions=1,
                              rmin_cfg=RMinConfig(n_steps=3))

    def test_best_of_keeps_exact_count(self, toy_problem):
        arch, train, test = toy_problem
        from temperhmc.minimize import RMinConfig
        res = baseline_optimize(arch, train, test, seed=2, n_solutions=4,
                                mode="best-of", n_restarts=12,
                                rmin_cfg=RMinConfig(n_steps=50))
        assert len(res.solutions) == 4
        assert res.n_restarts == 12
        # kept energies are the lowest of the pool: sorted ascending
        assert np.all(np.diff(res.train_energies) >= 0)

    def test_mean_matches_recomputation(self, toy_problem):
        arch, train, test = toy_problem
        res = baseline_optimize(arch, train, test, seed=3, n_solutions=3,
                                mode="zero-energy", restart_cap=100)
        test_fn, _ = dataset_energy_fns(arch, test.inputs, test.labels)
        recomputed = np.mean([test_fn(w) for w in res.solutions])
        assert res.mean_test_energy == pytest.approx(recomputed, rel=1e-12)

    def test_deterministic_in_seed(self, toy_problem):
        arch, train, test = toy_problem
        a = baseline_optimize(arch, train, test, seed=7, n_solutions=2,
                              mode="zero-energy", restart_cap=100)
        b = baseline_optimize(arch, train, test, seed=7, n_solutions=2,
                              mode="zero-energy", restart_cap=100)
        np.testing.assert_array_equal(a.test_energies, b.test_energies)


class TestSweepTable:
    def summary(self):
        return {
            "temperatures": np.array([0.1, 1.0, 10.0]),
            "e_train_mean": np.array([1.0, 5.0, 40.0]),
            "e_train_se": np.array([0.1, 0.2, 0.5]),
            "e_test_mean": np.array([30.0, 12.0, 45.0]),
            "e_test_se": np.array([0.3, 0.2, 0.6]),
        }

    def test_references(self):
        rows, refs = sweep_table(self.summary(), n_train=50,
                                 baseline_test_mean=20.0)
        assert refs["uninformed_train_energy"] == pytest.approx(50 * math.log(10))
        assert refs["argmin_test_temperature"] == 1.0
        assert refs["baseline_test_mean"] == 20.0
        assert len(rows) == 3
        assert rows[1][0] == 1.0 and rows[1][3] == 12.0

    def test_uninformed_constant(self):
        assert UNINFORMED_PER_EXAMPLE == pytest.approx(2.302585, abs=1e-6)

    def test_csv_output(self, tmp_path):
        rows, refs = sweep_table(self.summary(), n_train=50)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows, refs)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("temperature,")
        assert len([ln for ln in lines if not ln.startswith("#")]) == 4
        assert any("argmin_test_temperature" in ln for ln in lines)


class TestAnnealStop:
    def test_strictly_decreasing_returns_coldest(self):
        temps = [10.0, 1.0, 0.1]
        res = anneal_stop(temps, [3.0, 2.0, 1.0])
        assert res.temperature == 0.1
        assert res.monotone

    def test_v_shape_returns_middle(self):
        temps = [100.0, 10.0, 1.0, 0.1, 0.01]
        res = anneal_stop(temps, [3.0, 2.0, 1.0, 2.0, 3.0])
        assert res.temperature == 1.0
        assert not res.monotone
        assert res.value == 1.0

    def test_input_order_irrelevant(self):
        # the scan is over the cooling order, not the array order
        res = anneal_stop([0.1, 100.0, 1.0], [5.0, 9.0, 2.0])
        assert res.temperature == 1.0

    def test_noisy_v_with_smoothing(self):
        temps = [10.0 / 2**i for i in range(9)]
        vals = [5.0, 4.2, 4.4, 2.9, 1.0, 3.1, 3.6, 4.5, 5.0]
        # raw argmin is index 4; a spike makes the raw scan fragile
        vals_spiky = list(vals)
        vals_spiky[7] = 0.9
        raw = anneal_stop(temps, vals_spiky)
        assert raw.index == 7
        smoothed = anneal_stop(temps, vals_spiky, smoothing_window=3)
        # brute-force oracle of the same renormalised moving average
        arr = np.array(vals_spiky)
        sm = np.array([arr[max(0, i - 1): i + 2].mean() for i in range(len(arr))])
        assert smoothed.index == int(np.argmin(sm))
        assert smoothed.index == 4

    def test_payload_travels_with_choice(self):
        res = anneal_stop([3.0, 2.0, 1.0], [2.0, 1.0, 3.0],
                          payloads=["a", "b", "c"])
        assert res.payload == "b"

    def test_empty_raises(self):
        with pytest.raises(InsufficientSamples):
            anneal_stop([], [])
