import numpy as np
import pytest

from temperhmc.errors import NonFiniteEnergy
from temperhmc.minimize import (DT_FACTOR, STALL_REL_TOL, ZERO_TOL, RMinConfig,
                                RMinResult, rmin)
from temperhmc.network import (NetworkArch, PriorBox, dataset_energy_fns,
                               init_standard, prior_box)


def quad1d():
    return lambda w: (0.5 * float(w[0] ** 2), w.copy())


class TestConvergence:
    def test_1d_quadratic_from_3(self):
        value_grad = quad1d()
        res = rmin(np.array([3.0]), value_grad,
                   RMinConfig(n_steps=500, energy_tol=0.5e-6))
        assert abs(res.w[0]) < 1e-3
        assert res.n_steps < 500

    def test_anisotropic_quadratic(self):
        h = np.array([0.3, 1.0, 9.0])

        def energy(w):
            return 0.5 * float(np.dot(h * w, w))

        res = rmin(np.array([2.0, -1.0, 0.5]), lambda w: (energy(w), h * w),
                   RMinConfig(n_steps=2000, energy_tol=1e-12))
        assert res.energy < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_separable_toy_net_reaches_zero_energy(self, seed):
        # A softmax net on separable data has no finite minimum: E and its
        # gradient shrink exponentially as the weights grow along a valley,
        # which a dt grown by a fixed increment only crawls along.
        arch = NetworkArch((8, 6, 3))
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(30, 8))
        labels = np.argmax(x[:, :3] @ rng.normal(size=(3, 3)), axis=1)
        w0 = init_standard(arch, rng)
        _, value_grad = dataset_energy_fns(arch, x, labels)
        res = rmin(w0, value_grad, RMinConfig())
        assert res.energy < ZERO_TOL
        assert res.n_steps <= 500

    def test_stationary_start_never_moves(self):
        value_grad = quad1d()
        res = rmin(np.array([0.0]), value_grad, RMinConfig(n_steps=50))
        np.testing.assert_array_equal(res.w, 0.0)
        assert res.energy == 0.0


class TestStepSizeSchedule:
    def test_down_down_up_sequence(self):
        # engineered outcomes: two downhill steps then an uphill one
        outcomes = iter([True, True, False])
        state = {"e": 10.0}

        def energy(w):
            return state["e"]

        def grad(w):
            return np.ones_like(w)

        calls = {"n": 0}
        orig_energy = energy

        def scripted_energy(w):
            # first call: starting energy; later calls follow the script
            if calls["n"] == 0:
                calls["n"] += 1
                return 10.0
            calls["n"] += 1
            down = next(outcomes, False)
            state["e"] = state["e"] - 1.0 if down else state["e"] + 1.0
            return state["e"]

        res = rmin(np.array([1.0]), lambda w: (scripted_energy(w), grad(w)),
                   RMinConfig(n_steps=3, dt0=0.1, energy_tol=-np.inf))
        dts = [t[2] for t in res.trace]
        np.testing.assert_allclose(dts, [0.15, 0.20, 0.10], atol=1e-12)

    def test_down_down_up_sequence_above_half(self):
        # above dt = 0.5 a downhill step grows dt by 10%, not by 0.05
        outcomes = iter([True, True, False])
        state = {"e": 10.0, "started": False}

        def scripted_energy(w):
            if not state["started"]:
                state["started"] = True
                return state["e"]
            state["e"] += -1.0 if next(outcomes, False) else 1.0
            return state["e"]

        res = rmin(np.array([1.0]), lambda w: (scripted_energy(w), np.ones_like(w)),
                   RMinConfig(n_steps=3, dt0=1.0, energy_tol=-np.inf))
        dts = [t[2] for t in res.trace]
        np.testing.assert_allclose(dts, [1.1, 1.21, 0.605], atol=1e-12)

    def test_never_keeps_a_nonfinite_gradient(self):
        # E = w^2 falls all the way to 0, but its gradient is NaN below w = 1
        def value_grad(w):
            g = 2 * w if w[0] >= 1.0 else np.full_like(w, np.nan)
            return float(w[0] ** 2), g

        res = rmin(np.array([3.0]), value_grad, RMinConfig(n_steps=300))
        assert res.w[0] >= 1.0
        assert np.all(np.isfinite(value_grad(res.w)[1]))

    def test_uphill_reverts_to_best(self):
        # energy that improves once, then only worsens
        seen = []

        def energy(w):
            seen.append(w.copy())
            return float(w[0] ** 2)

        res = rmin(np.array([1.0]), lambda w: (energy(w), 2 * w),
                   RMinConfig(n_steps=40, energy_tol=-np.inf, stall_window=1000))
        best = min(float(w[0] ** 2) for w in seen)
        assert res.energy == pytest.approx(best, rel=1e-12)


class TestBookkeeping:
    def test_best_energy_monotone(self):
        rng = np.random.default_rng(1)
        h = rng.uniform(0.2, 5.0, size=8)

        def energy(w):
            return 0.5 * float(np.dot(h * w, w))

        res = rmin(rng.normal(size=8), lambda w: (energy(w), h * w),
                   RMinConfig(n_steps=300, energy_tol=-np.inf, stall_window=1000))
        energies = [t[1] for t in res.trace]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))

    def test_deterministic(self):
        value_grad = quad1d()
        a = rmin(np.array([2.5]), value_grad, RMinConfig(n_steps=100))
        b = rmin(np.array([2.5]), value_grad, RMinConfig(n_steps=100))
        assert a.energy == b.energy
        assert a.trace == b.trace

    def test_nonfinite_start_raises(self):
        with pytest.raises(NonFiniteEnergy):
            rmin(np.array([1.0]), lambda w: (np.nan, w), RMinConfig())

    def test_result_type(self):
        value_grad = quad1d()
        res = rmin(np.array([1.0]), value_grad, RMinConfig(n_steps=10))
        assert isinstance(res, RMinResult)
        assert len(res.trace) == res.n_steps


def recording(value_grad):
    """value_grad that keeps a copy of each point it is called at."""
    seen = []

    def recorded(w):
        seen.append(w.copy())
        return value_grad(w)

    return recorded, seen


class TestPriorBox:
    BOX = PriorBox(np.array([2.0]))     # |w| < 1

    @staticmethod
    def pulled_out(w):
        # E = (w - 3)^2 / 2: its minimum lies outside the box
        return 0.5 * float((w[0] - 3.0) ** 2), w - 3.0

    def test_ends_inside_the_box(self):
        res = rmin(np.array([0.0]), self.pulled_out, RMinConfig(), box=self.BOX)
        assert 0.99 < res.w[0] < 1.0
        assert res.energy == self.pulled_out(res.w)[0]

    def test_never_calls_the_potential_on_or_past_a_wall(self):
        value_grad, seen = recording(self.pulled_out)
        rmin(np.array([0.0]), value_grad, RMinConfig(), box=self.BOX)
        assert len(seen) > 10
        assert all(np.all(np.abs(w) < self.BOX.half_width) for w in seen)

    def test_a_refused_step_halves_dt_zeroes_p_and_calls_nothing(self):
        # E = -w falls all the way to the wall, so every step inside the box
        # is downhill and every refused one is a step through the wall
        value_grad, seen = recording(lambda w: (-float(w[0]), -np.ones_like(w)))
        cfg = RMinConfig(n_steps=40, energy_tol=-np.inf)
        res = rmin(np.array([0.0]), value_grad, cfg, box=self.BOX)
        energies = [-w[0] for w in seen]
        assert all(b < a for a, b in zip(energies, energies[1:]))
        calls, w, dt, refused, p_zero = iter(seen[1:]), seen[0], cfg.dt0, 0, True
        for _, e, dt_next in res.trace:
            if dt_next == dt * DT_FACTOR:
                refused += 1
                p_zero = True
            else:
                w_new = next(calls)
                if p_zero:      # a step from rest: p = dt g / 2, one drift of dt p
                    assert w_new == w + dt * (0.5 * dt)
                w, p_zero = w_new, False
                assert e == -w[0]
            dt = dt_next
        assert next(calls, None) is None
        assert refused >= 10
        assert len(seen) == 1 + len(res.trace) - refused

    def test_stall_window_ends_the_run(self):
        cfg = RMinConfig(n_steps=5000, energy_tol=-np.inf, stall_window=30)
        res = rmin(np.array([0.0]), self.pulled_out, cfg, box=self.BOX)
        assert res.n_steps < cfg.n_steps
        energies = [e for _, e, _ in res.trace]
        # the window's last improvement stays below the stall tolerance
        window = energies[-cfg.stall_window - 1:]
        assert window[-1] >= window[0] * (1.0 - STALL_REL_TOL)

    @pytest.mark.parametrize("case", ["quadratic", "toy net"])
    def test_a_path_inside_the_box_is_bit_identical(self, case):
        cfg = RMinConfig()
        if case == "quadratic":
            w0, value_grad = np.array([3.0]), quad1d()
            box = PriorBox(np.array([8.0]))
        else:
            # a start-up at T = 1 as a REMD rung makes it; it reaches 0.87
            # of a half-width (minimised to zero energy it leaves the box)
            cfg = RMinConfig(energy_tol=1e-3)
            arch = NetworkArch((8, 6, 3))
            rng = np.random.default_rng(2)
            x = rng.normal(size=(30, 8))
            labels = np.argmax(x[:, :3] @ rng.normal(size=(3, 3)), axis=1)
            w0, box = init_standard(arch, rng), prior_box(arch)
            _, value_grad = dataset_energy_fns(arch, x, labels)
        value_grad, seen = recording(value_grad)
        free = rmin(w0, value_grad, cfg)
        assert all(np.all(np.abs(w) < box.half_width) for w in seen)
        boxed = rmin(w0, value_grad, cfg, box=box)
        assert boxed.trace == free.trace
        np.testing.assert_array_equal(boxed.w, free.w)
