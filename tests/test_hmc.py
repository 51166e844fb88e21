import dataclasses

import numpy as np
import pytest

import temperhmc.hmc
from temperhmc.errors import FailedToTune
from temperhmc.hmc import (HmcConfig, StepSizeController, hmc_trajectory,
                           measure_acceptance, tune_step_size, velocity_verlet)
from temperhmc.network import PriorBox


def quad_fns(h):
    """Separable quadratic target E = sum h_i w_i^2 / 2: (energy, value_grad)."""
    h = np.asarray(h, dtype=float)

    def energy(w):
        return 0.5 * float(np.dot(h * w, w))

    return energy, lambda w: (energy(w), h * w)


def flat(w):
    return 0.0, np.zeros_like(w)


def scripted_walk(monkeypatch, rate_of, dt0):
    """(tuned dt, dt of every round) when round k at dt reports rate_of(dt, k)."""
    dts = []

    def scripted(w, value_grad, cfg, *args):
        dts.append(cfg.dt)
        return rate_of(cfg.dt, len(dts) - 1)

    monkeypatch.setattr(temperhmc.hmc, "measure_acceptance", scripted)
    dt = tune_step_size(StepSizeController(), np.zeros(1), flat,
                        HmcConfig(1.0, dt0, 5), np.random.default_rng(0))
    return dt, dts


class TestVerlet:
    def test_free_flight(self):
        w0 = np.array([1.0, -2.0])
        p0 = np.array([0.5, 0.25])
        w, p, _, _, ok = velocity_verlet(w0, p0, flat(w0)[1], flat,
                                         dt=0.2, n_steps=30)
        assert ok
        np.testing.assert_allclose(w, w0 + 30 * 0.2 * p0, atol=1e-12)
        np.testing.assert_allclose(p, p0, atol=1e-15)

    @pytest.mark.parametrize("dt,stable", [(0.5, True), (1.9, True), (2.1, False)])
    def test_harmonic_stability_boundary(self, dt, stable):
        # unit harmonic oscillator: Verlet is stable iff dt < 2
        _, value_grad = quad_fns([1.0])
        w, p = np.array([1.0]), np.array([0.0])
        g = value_grad(w)[1]
        peak = 0.0
        for _ in range(200):
            w, p, _, g, _ = velocity_verlet(w, p, g, value_grad, dt, 1)
            peak = max(peak, abs(w[0]))
        assert (peak < 10.0) == stable

    def test_harmonic_energy_drift_bounded(self):
        energy, value_grad = quad_fns([1.0])
        w, p = np.array([1.3]), np.array([-0.4])
        g = value_grad(w)[1]
        e0 = energy(w) + 0.5 * p[0] ** 2
        errs = []
        for _ in range(500):
            w, p, _, g, _ = velocity_verlet(w, p, g, value_grad, 0.3, 1)
            errs.append(energy(w) + 0.5 * p[0] ** 2 - e0)
        errs = np.asarray(errs)
        # oscillatory, not secular: bounded and sign-changing
        assert np.max(np.abs(errs)) < 0.05 * e0
        assert np.min(errs) < 0 < np.max(errs) or np.max(np.abs(errs)) < 1e-12

    def test_reversibility(self, rng):
        h = rng.uniform(0.5, 2.0, size=6)
        _, value_grad = quad_fns(h)
        w0 = rng.normal(size=6)
        p0 = rng.normal(size=6)
        w, p, _, g, _ = velocity_verlet(w0, p0, value_grad(w0)[1], value_grad,
                                        0.05, 100)
        w, p, _, _, _ = velocity_verlet(w, -p, g, value_grad, 0.05, 100)
        np.testing.assert_allclose(w, w0, atol=1e-10)
        np.testing.assert_allclose(-p, p0, atol=1e-10)

    def test_nonfinite_gradient_flagged(self):
        def value_grad(w):
            return 0.0, np.full_like(w, np.nan)
        w0 = np.ones(2)
        _, _, _, _, ok = velocity_verlet(w0, np.zeros(2), value_grad(w0)[1],
                                         value_grad, 0.1, 3)
        assert not ok


class TestTrajectory:
    def test_flat_energy_always_accepted(self, rng):
        cfg = HmcConfig(temperature=1.0, dt=0.3, n_steps=10)
        outcomes = [hmc_trajectory(np.zeros(3), flat, cfg, rng)
                    for _ in range(50)]
        assert all(o.accepted for o in outcomes)
        assert all(o.log_accept == pytest.approx(0.0, abs=1e-12) for o in outcomes)

    def test_out_of_box_rejected(self, rng):
        # tiny box around the origin: a free-flight proposal almost surely exits
        box = PriorBox(np.full(3, 1e-6))
        cfg = HmcConfig(temperature=1.0, dt=0.5, n_steps=20)
        out = hmc_trajectory(np.zeros(3), flat, cfg, rng, box)
        assert not out.accepted
        np.testing.assert_array_equal(out.w, 0.0)

    def test_gaussian_stationarity_1d(self):
        _, value_grad = quad_fns([1.0])
        cfg = HmcConfig(temperature=1.0, dt=0.1, n_steps=20)
        rng = np.random.default_rng(7)
        w = np.array([0.0])
        current = value_grad(w)
        n = 100_000
        samples = np.empty(n)
        for t in range(n):
            out = hmc_trajectory(w, value_grad, cfg, rng, None, current)
            w, current = out.w, (out.energy, out.grad)
            samples[t] = w[0]
        # target N(0, 1); trajectories are nearly independent at L=20
        se_mean = 1.0 / np.sqrt(n)
        se_var = np.sqrt(2.0 / n)
        assert abs(samples.mean()) < 3 * se_mean * 3   # allow residual correlation
        assert abs(samples.var() - 1.0) < 3 * se_var * 3

    def test_temperature_scales_variance(self):
        _, value_grad = quad_fns([1.0])
        rng = np.random.default_rng(8)
        T = 4.0
        cfg = HmcConfig(temperature=T, dt=0.2, n_steps=20)
        w = np.array([0.0])
        current = value_grad(w)
        samples = np.empty(20_000)
        for t in range(len(samples)):
            out = hmc_trajectory(w, value_grad, cfg, rng, None, current)
            w, current = out.w, (out.energy, out.grad)
            samples[t] = w[0]
        assert samples.var() == pytest.approx(T, rel=0.1)

    def test_rejection_keeps_state_and_energy(self, rng):
        _, value_grad = quad_fns([1.0])
        cfg = HmcConfig(temperature=1e-6, dt=1.5, n_steps=5)  # cold + coarse: rejects
        w = np.array([2.0])
        e, g = value_grad(w)
        rejected = False
        for _ in range(50):
            out = hmc_trajectory(w, value_grad, cfg, rng, None, (e, g))
            if not out.accepted:
                np.testing.assert_array_equal(out.w, w)
                assert out.energy == e
                rejected = True
            w, e, g = out.w, out.energy, out.grad
        assert rejected


class TestTuning:
    def test_starts_from_cfg_dt(self, rng, monkeypatch):
        dts = []
        original = temperhmc.hmc.measure_acceptance

        def spy(w, value_grad, cfg, *args):
            dts.append(cfg.dt)
            return original(w, value_grad, cfg, *args)

        monkeypatch.setattr(temperhmc.hmc, "measure_acceptance", spy)
        _, value_grad = quad_fns([1.0])
        cfg = HmcConfig(1.0, 0.37, 5)
        dt = tune_step_size(StepSizeController(max_rounds=50), np.zeros(1),
                            value_grad, cfg, rng)
        assert dts[0] == 0.37
        assert dt == dts[-1]
        assert cfg.dt == 0.37

    def test_controller_is_frozen(self):
        ctl = StepSizeController()
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctl.band = (0.1, 0.2)
        assert not hasattr(ctl, "dt")

    def test_in_band_unchanged(self, rng):
        # flat target accepts everything... so use a band that contains 1.0
        ctl = StepSizeController(band=(0.9, 1.0))
        cfg = HmcConfig(1.0, 0.25, 5)
        dt = tune_step_size(ctl, np.zeros(2), flat, cfg, rng)
        assert dt == 0.25

    def test_grows_under_full_acceptance(self, rng):
        _, value_grad = quad_fns([1.0])
        ctl = StepSizeController(max_rounds=200)
        cfg = HmcConfig(1.0, 0.001, 20)
        dt = tune_step_size(ctl, np.zeros(1), value_grad, cfg, rng)
        assert dt > 0.001
        rate = measure_acceptance(np.zeros(1), value_grad,
                                  HmcConfig(1.0, dt, 20), rng, None, 200)
        assert 0.45 <= rate <= 0.85

    def test_shrinks_when_too_coarse(self, rng):
        _, value_grad = quad_fns([1.0])
        ctl = StepSizeController(max_rounds=200)
        cfg = HmcConfig(1.0, 1.9, 20)
        dt = tune_step_size(ctl, np.zeros(1), value_grad, cfg, rng)
        assert dt < 1.9

    def test_tuned_acceptance_near_optimum_10d(self):
        rng = np.random.default_rng(12)
        h = rng.uniform(0.5, 4.0, size=10)
        _, value_grad = quad_fns(h)
        ctl = StepSizeController(max_rounds=300)
        cfg = HmcConfig(1.0, 0.05, 30)
        dt = tune_step_size(ctl, np.zeros(10), value_grad, cfg, rng)
        rate = measure_acceptance(np.zeros(10), value_grad,
                                  HmcConfig(1.0, dt, 30), rng, None, 400)
        assert 0.5 < rate < 0.85

    def test_failure_raises(self, rng):
        # an always-rejecting target (energy jumps to +inf off the start)
        def energy(w):
            return 0.0 if np.all(w == 0) else np.inf

        def value_grad(w):
            return energy(w), np.zeros_like(w)

        ctl = StepSizeController(max_rounds=5)
        cfg = HmcConfig(1.0, 0.1, 5)
        with pytest.raises(FailedToTune):
            tune_step_size(ctl, np.zeros(2), value_grad, cfg, rng)


class TestCompoundedShrink:
    """Consecutive stalls (rate 0.0) compound the shrink; other rounds do not."""

    def test_stalls_reach_a_far_smaller_dt_in_few_rounds(self, monkeypatch):
        dt, dts = scripted_walk(monkeypatch,
                                lambda dt, k: 0.0 if dt > 1e-3 else 0.65, 0.1)
        assert dt == dts[-1] <= 1e-3
        assert len(dts) <= 9
        for j in range(1, len(dts) - 1):        # the j-th stall in a row
            assert dts[j] / dts[j - 1] == pytest.approx(0.9 ** 2 ** (j - 1))
        # one x0.9 step a round would take 45 rounds
        plain, rounds = 0.1, 1
        while plain > 1e-3:
            plain, rounds = plain * 0.9, rounds + 1
        assert rounds == 45

    def test_lone_stalls_step_as_plain_rounds(self, monkeypatch):
        rates = [0.0, 0.3, 0.0, 0.9, 0.0, 0.3, 0.0, 0.65]
        dt, dts = scripted_walk(monkeypatch, lambda dt, k: rates[k], 0.1)
        want = [0.1]
        for rate in rates[:-1]:
            want.append(want[-1] * (1.1 if rate > 0.7 else 0.9))
        assert dts == want and dt == want[-1]

    def test_compounded_step_never_crosses_a_dt_measured_above_band(
            self, monkeypatch):
        # noisy rounds: four above the band, then stalls at larger dt
        rates = [0.9] * 4 + [0.0] * 6 + [0.65]
        dt, dts = scripted_walk(monkeypatch, lambda dt, k: rates[k], 1.0)
        above = dts[:4]
        assert dts[5] * 0.81 < max(above)       # the step would cross 1.21
        for prev, nxt in zip(dts[5:-1], dts[6:]):
            floor = max(d for d in above if d < prev)
            assert floor < nxt < prev
            assert nxt == np.sqrt(prev * floor)
