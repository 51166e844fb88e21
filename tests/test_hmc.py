import dataclasses

import numpy as np
import pytest

import temperhmc.hmc
from temperhmc.errors import FailedToTune
from temperhmc.hmc import (HmcConfig, StepSizeController, adapt_step_size,
                           hmc_trajectory, measure_acceptance, run_chain,
                           tune_step_size, velocity_verlet)
from temperhmc.network import PriorBox


def quad_fns(h):
    """Separable quadratic target E = sum h_i w_i^2 / 2: (energy, value_grad)."""
    h = np.asarray(h, dtype=float)

    def energy(w):
        return 0.5 * float(np.dot(h * w, w))

    return energy, lambda w: (energy(w), h * w)


def flat(w):
    return 0.0, np.zeros_like(w)


def reject_off_start(w):
    """Energy +inf anywhere but the origin: every move is rejected."""
    return (0.0 if np.all(w == 0) else np.inf), np.zeros_like(w)


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

    def test_out_of_box_rejected(self):
        # tiny box around the origin: a free-flight proposal almost surely exits
        box = PriorBox(np.full(3, 1e-6))
        cfg = HmcConfig(temperature=1.0, dt=0.5, n_steps=20)
        rng, free = np.random.default_rng(3), np.random.default_rng(3)
        out = hmc_trajectory(np.zeros(3), flat, cfg, rng, box)
        assert not out.accepted
        assert out.log_accept == -np.inf        # acceptance probability 0
        np.testing.assert_array_equal(out.w, 0.0)
        # the same random draws as the accepted move without the box
        assert hmc_trajectory(np.zeros(3), flat, cfg, free).accepted
        assert rng.bit_generator.state == free.bit_generator.state

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


class TestAdaptStepSize:
    """Dual averaging of dt during burn-in."""

    def test_long_run_acceptance_near_target_10d(self):
        # acceptance is concave in log dt near the stability edge, so the
        # rate at the averaged dt runs a few hundredths above the target
        # (0.64-0.73 over seeds 0-7 of this set-up)
        rng = np.random.default_rng(0)
        h = rng.uniform(0.5, 2.0, size=10)
        _, value_grad = quad_fns(h)
        w = np.zeros(10)
        w, current, dt = adapt_step_size(w, value_grad(w), value_grad,
                                         HmcConfig(1.0, 0.05, 20), rng, None, 1000)
        n = 3000
        n_acc = run_chain(w, current, value_grad, HmcConfig(1.0, dt, 20), rng,
                          None, n)[2]
        assert abs(n_acc / n - 0.65) < 0.1

    @pytest.mark.parametrize("dt0,bound", [(1.5, 1.0), (0.9, 1.5)],
                             ids=["dt0-too-large", "dt0-near-adapted"])
    def test_short_burn_in_stays_near_dt0(self, dt0, bound):
        # the first iterates sit near 10 dt0, and an average over a handful of
        # them would return several dt0 (18.9 dt0 after one accepted
        # trajectory).  Here 1.5 is past the Verlet stability limit of the
        # stiffest mode (1.45), and 1000 adapting trajectories settle at 0.92
        h = np.random.default_rng(0).uniform(0.5, 2.0, size=10)
        _, value_grad = quad_fns(h)
        for seed in range(20):
            for n_traj in range(1, 6):
                rng = np.random.default_rng(seed)
                w = rng.normal(size=10) / np.sqrt(h)
                dt = adapt_step_size(w, value_grad(w), value_grad,
                                     HmcConfig(1.0, dt0, 20), rng, None, n_traj)[2]
                assert dt <= bound * dt0, (seed, n_traj, dt)

    @pytest.mark.parametrize("value_grad,dt0,bad", [
        (flat, 1e300, np.inf),              # every move accepted: dt overflows
        (reject_off_start, 1e-300, 0.0),    # every move rejected: dt underflows
    ], ids=["overflow", "underflow"])
    def test_dt_leaving_the_floats_raises(self, value_grad, dt0, bad):
        w = np.zeros(2)
        with pytest.raises(FailedToTune) as info, np.errstate(over="ignore"):
            adapt_step_size(w, value_grad(w), value_grad, HmcConfig(1.0, dt0, 2),
                            np.random.default_rng(0), None, 200)
        assert info.value.dt == bad

    def test_accepting_nothing_does_not_raise(self):
        w = np.zeros(2)
        _, _, dt = adapt_step_size(w, reject_off_start(w), reject_off_start,
                                   HmcConfig(1.0, 0.1, 3),
                                   np.random.default_rng(0), None, 100)
        assert 0.0 < dt < 0.1
