import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr

from temperhmc import ti
from temperhmc.errors import DatasetMismatch, GridMismatch
from temperhmc.hmc import HmcConfig, hmc_trajectory
from temperhmc.network import PriorBox, get_arch, prior_box
from temperhmc.replica import blocked_mean_se
from temperhmc.ti import (DT_JITTER, VARIANCE_FLOOR, StiffnessDiag, TiConfig,
                          bridge_energy_fns, compare, evidence, fit_stiffness,
                          log_z0, run_ti, simpson_uniform, ti_observable)


def quad_fns(h):
    h = np.asarray(h, dtype=float)
    return (lambda w: 0.5 * float(np.dot(h * w, w)),
            lambda w: h * w)


def fused(energy, grad):
    """The (value, gradient) potential the samplers take."""
    return lambda w: (energy(w), grad(w))


def split(value_grad):
    """Value and gradient of a fused potential as separate functions."""
    return (lambda w: value_grad(w)[0]), (lambda w: value_grad(w)[1])


SMALL_FIT = TiConfig(fit_burn_in_traj=200, fit_sample_traj=2000,
                     n_leapfrog=20, dt0=0.2)


class TestFitStiffness:
    def test_recovers_diagonal_precision(self):
        h = np.array([1.0, 4.0, 0.25])
        energy, grad = quad_fns(h)
        rng = np.random.default_rng(31)
        stiff = fit_stiffness(fused(energy, grad), np.zeros(3), SMALL_FIT, rng)
        se = np.sqrt(2.0 / SMALL_FIT.fit_sample_traj)    # relative SE of <x^2>
        np.testing.assert_allclose(stiff.k, h, rtol=3 * se + 0.1)
        assert stiff.j0 == 0.0
        assert stiff.degenerate.size == 0

    def test_isotropic_h4(self):
        # E = 2 w^2 per coordinate => h = 4
        energy = lambda w: float(2.0 * np.dot(w, w))
        grad = lambda w: 4.0 * w
        rng = np.random.default_rng(32)
        stiff = fit_stiffness(fused(energy, grad), np.zeros(2), SMALL_FIT, rng)
        np.testing.assert_allclose(stiff.k, 4.0, rtol=0.15)

    def test_resonant_dt_still_fits(self):
        # at dt = 1/sqrt(2) each Verlet step turns the h = 4 oscillator by a
        # quarter period, so 20 steps of that exact dt return every start
        # to itself; the jittered dt lets the chain move
        energy = lambda w: float(2.0 * np.dot(w, w))
        grad = lambda w: 4.0 * w
        cfg = replace(SMALL_FIT, fit_burn_in_traj=0, dt0=math.sqrt(0.5))
        stiff = fit_stiffness(fused(energy, grad), np.zeros(2), cfg,
                              np.random.default_rng(0))
        np.testing.assert_allclose(stiff.k, 4.0, rtol=0.15)

    def test_correlated_gaussian_marginal_variance_semantics(self):
        # precision matrix A with strong off-diagonal coupling; the fitted
        # diagonal tracks 1/Sigma_ii (marginal variances), NOT A_ii
        A = np.array([[2.0, 1.2], [1.2, 1.0]])
        Sigma = np.linalg.inv(A)
        energy = lambda w: 0.5 * float(w @ A @ w)
        grad = lambda w: A @ w
        rng = np.random.default_rng(33)
        cfg = TiConfig(fit_burn_in_traj=200, fit_sample_traj=6000,
                       n_leapfrog=40, dt0=0.2)
        stiff = fit_stiffness(fused(energy, grad), np.zeros(2), cfg, rng)
        np.testing.assert_allclose(stiff.k, 1.0 / np.diag(Sigma), rtol=0.2)
        assert not np.allclose(stiff.k, np.diag(A), rtol=0.2)

    def test_outside_box_diagnostic(self):
        energy, grad = quad_fns([1.0])
        rng = np.random.default_rng(34)
        tight = PriorBox(np.array([0.1]))   # sampling at T=1 exits constantly
        stiff = fit_stiffness(fused(energy, grad), np.zeros(1), SMALL_FIT, rng,
                              tight)
        assert stiff.frac_outside_box > 0.5


class TestBridge:
    def test_lambda_zero_is_plain_energy(self, rng):
        energy, grad = quad_fns([2.0, 0.5])
        stiff = StiffnessDiag(np.array([0.3, -0.1]), np.array([1.0, 1.0]),
                              energy(np.array([0.3, -0.1])))
        value, g = split(bridge_energy_fns(fused(energy, grad), stiff, 0.0))
        for _ in range(5):
            w = rng.normal(size=2)
            assert value(w) == pytest.approx(energy(w), rel=1e-14)
            np.testing.assert_allclose(g(w), grad(w), atol=1e-14)

    def test_lambda_one_is_quadratic_plus_offset(self, rng):
        energy, grad = quad_fns([2.0, 0.5])
        w0 = np.array([0.3, -0.1])
        k = np.array([3.0, 7.0])
        stiff = StiffnessDiag(w0, k, energy(w0))
        value, g = split(bridge_energy_fns(fused(energy, grad), stiff, 1.0))
        for _ in range(5):
            w = rng.normal(size=2)
            d = w - w0
            assert value(w) == pytest.approx(0.5 * np.dot(k * d, d) + stiff.j0,
                                             rel=1e-14)
            np.testing.assert_allclose(g(w), k * d, atol=1e-14)

    def test_gradient_matches_finite_differences(self, rng):
        energy = lambda w: float(np.sum(w**4) + 0.3 * w[0] * w[1])
        grad = lambda w: 4.0 * w**3 + 0.3 * w[::-1]
        stiff = StiffnessDiag(np.array([0.2, -0.4]), np.array([2.0, 5.0]),
                              energy(np.array([0.2, -0.4])))
        value, g = split(bridge_energy_fns(fused(energy, grad), stiff, 0.37))
        w = rng.normal(size=2)
        eps = 1e-6
        for i in range(2):
            wp, wm = w.copy(), w.copy()
            wp[i] += eps
            wm[i] -= eps
            fd = (value(wp) - value(wm)) / (2 * eps)
            assert g(w)[i] == pytest.approx(fd, rel=1e-6)

    def test_lambda_outside_unit_interval(self):
        energy, grad = quad_fns([1.0])
        stiff = StiffnessDiag(np.zeros(1), np.ones(1), 0.0)
        with pytest.raises(GridMismatch):
            bridge_energy_fns(fused(energy, grad), stiff, 1.5)

    def test_observable_vanishes_for_matched_quadratic(self, rng):
        h = np.array([2.0, 5.0])
        energy, _ = quad_fns(h)
        stiff = StiffnessDiag(np.zeros(2), h, 0.0)
        for _ in range(10):
            w = rng.normal(size=2)
            assert ti_observable(energy, stiff, w) == pytest.approx(0.0, abs=1e-12)


class TestSimpson:
    def test_constant(self):
        lam = np.linspace(0, 1, 102)
        assert simpson_uniform(lam, np.full(102, 2.5)) == pytest.approx(2.5, abs=1e-14)

    def test_lambda_squared(self):
        lam = np.linspace(0, 1, 102)
        assert simpson_uniform(lam, lam**2) == pytest.approx(1 / 3, abs=1e-14)

    def test_cubic_exact_even_intervals(self):
        lam = np.linspace(0, 1, 103)     # 102 intervals, even
        assert simpson_uniform(lam, lam**3) == pytest.approx(0.25, abs=1e-13)

    def test_sin_pi_lambda(self):
        lam = np.linspace(0, 1, 102)
        assert simpson_uniform(lam, np.sin(np.pi * lam)) == \
            pytest.approx(2 / np.pi, abs=1e-6)

    def test_three_intervals_pure_three_eighths(self):
        lam = np.linspace(0, 1, 4)
        assert simpson_uniform(lam, lam**3) == pytest.approx(0.25, abs=1e-14)

    def test_errors(self):
        with pytest.raises(GridMismatch):
            simpson_uniform([0.0, 1.0], [1.0, 1.0])          # 1 interval
        with pytest.raises(GridMismatch):
            simpson_uniform([0.0, 0.3, 1.0], [1.0, 1.0, 1.0])  # non-uniform
        with pytest.raises(GridMismatch):
            simpson_uniform([0.0, 0.5, 1.0], [1.0, 1.0])     # length mismatch


class TestLogZ0:
    def test_wide_box_full_gaussian(self):
        stiff = StiffnessDiag(np.zeros(1), np.ones(1), 0.0)
        box = PriorBox(np.array([1e6]))
        assert log_z0(stiff, box) == pytest.approx(0.5 * math.log(2 * math.pi),
                                                   abs=1e-12)

    def test_unit_box_truncation(self):
        # d=1, k=1, |w| < 1: Z0 = sqrt(2 pi) (Phi(1) - Phi(-1)) ~ e^0.53875
        stiff = StiffnessDiag(np.zeros(1), np.ones(1), 0.0)
        box = PriorBox(np.array([2.0]))
        oracle = math.log(quad(lambda x: math.exp(-x * x / 2), -1, 1)[0])
        assert log_z0(stiff, box) == pytest.approx(oracle, abs=1e-9)
        assert log_z0(stiff, box) == pytest.approx(0.53722, abs=1e-4)

    def test_separability(self):
        k = np.array([1.0, 4.0, 0.5])
        w0 = np.array([0.1, -0.2, 0.05])
        sigma = np.array([2.0, 1.0, 6.0])
        total = log_z0(StiffnessDiag(w0, k, 0.0), PriorBox(sigma))
        parts = sum(
            log_z0(StiffnessDiag(w0[i:i + 1], k[i:i + 1], 0.0),
                   PriorBox(sigma[i:i + 1]))
            for i in range(3))
        assert total == pytest.approx(parts, abs=1e-10)

    def test_far_offcentre_tail_stays_finite(self):
        # w0 dozens of standard deviations outside the box: log-space path
        stiff = StiffnessDiag(np.array([50.0]), np.ones(1), 0.0)
        box = PriorBox(np.array([2.0]))
        val = log_z0(stiff, box)
        assert np.isfinite(val)
        assert val < -1000.0

    def test_log_ndtr_matches_scipy(self):
        # every branch and both sides of its edges at 0 and -20; the tail
        # series out to -1e9, and the upper side until Phi rounds to 1
        grid = np.concatenate([
            -np.logspace(9, -6, 3001), np.linspace(-40.0, 40.0, 16001),
            np.logspace(-6, math.log10(40.0), 3001),
            np.nextafter([0.0, 0.0, -20.0, -20.0], [1.0, -1.0, 0.0, -21.0]),
            [0.0, -0.0, -20.0, np.inf, -np.inf, np.nan]])
        np.testing.assert_allclose(ti._log_ndtr(grid), log_ndtr(grid),
                                   rtol=1e-13, atol=1e-300)

    def test_matches_scipy_formula_on_m3star_fit(self, monkeypatch):
        # M3star-sized reference with stiffness up to 1/VARIANCE_FLOOR; half
        # the minima lie within -30..40 standard deviations of a box edge, so
        # every branch of log Phi carries weight in the sum
        rng = np.random.default_rng(7)
        box = prior_box(get_arch("M3star"))
        d = box.sigma.size
        k = 10.0 ** rng.uniform(-4.0, -math.log10(VARIANCE_FLOOR), d)
        k[:3] = 1.0 / VARIANCE_FLOOR
        w0 = box.sigma * rng.uniform(-0.45, 0.45, d)
        edge = rng.random(d) < 0.5
        z = rng.uniform(-30.0, 40.0, d)
        w0[edge] = (np.sign(w0) * (0.5 * box.sigma - z / np.sqrt(k)))[edge]
        stiff = StiffnessDiag(w0, k, 0.0)
        ours = log_z0(stiff, box)
        monkeypatch.setattr(ti, "_log_ndtr", log_ndtr)
        assert ours == pytest.approx(log_z0(stiff, box), rel=1e-13, abs=0.0)


SMALL_TI = TiConfig(n_bridge=18, burn_in_traj=20, sample_traj=60,
                    n_leapfrog=15, retune_every_lambdas=5,
                    fit_burn_in_traj=200, fit_sample_traj=1500, dt0=0.3)


class TestRunTi:
    def test_quadratic_null(self):
        # matched quadratic: every per-lambda mean is identically zero and
        # F equals F0 exactly
        h = np.array([1.0, 3.0])
        energy, grad = quad_fns(h)
        stiff = StiffnessDiag(np.zeros(2), h, 0.0)
        box = PriorBox(np.array([20.0, 20.0]))
        rng = np.random.default_rng(41)
        res = run_ti(energy, fused(energy, grad), stiff, box, SMALL_TI, rng)
        np.testing.assert_allclose(res.integrand_mean, 0.0, atol=1e-10)
        assert res.free_energy == pytest.approx(res.f0, abs=1e-10)

    def test_1d_quartic_against_quadrature(self):
        # J = w^4; oracle F = -log int_box e^{-w^4} dw
        energy = lambda w: float(np.sum(w**4))
        grad = lambda w: 4.0 * w**3
        rng = np.random.default_rng(42)
        stiff = fit_stiffness(fused(energy, grad), np.zeros(1), SMALL_FIT, rng)
        box = PriorBox(np.array([6.0]))
        res = run_ti(energy, fused(energy, grad), stiff, box, SMALL_TI, rng)
        oracle = -math.log(quad(lambda x: math.exp(-x**4), -3, 3)[0])
        assert res.free_energy == pytest.approx(oracle, abs=0.05)

    def test_per_lambda_means_match_dense_quadrature(self):
        # 1D quartic: at each lambda the bridge density is known in closed
        # form up to normalisation; integrate the observable directly
        energy = lambda w: float(np.sum(w**4))
        grad = lambda w: 4.0 * w**3
        k = 3.0
        stiff = StiffnessDiag(np.zeros(1), np.array([k]), 0.0)
        box = PriorBox(np.array([6.0]))
        rng = np.random.default_rng(43)
        cfg = TiConfig(n_bridge=4, burn_in_traj=30, sample_traj=400,
                       n_leapfrog=15, retune_every_lambdas=2, dt0=0.3)
        res = run_ti(energy, fused(energy, grad), stiff, box, cfg, rng)

        def oracle_mean(lam):
            j = lambda x: (1 - lam) * x**4 + lam * k * x * x / 2
            z = quad(lambda x: math.exp(-j(x)), -3, 3)[0]
            obs = lambda x: k * x * x / 2 - x**4
            return quad(lambda x: obs(x) * math.exp(-j(x)), -3, 3)[0] / z

        for lam, mean, se in zip(res.lambdas, res.integrand_mean,
                                 res.integrand_se):
            assert abs(mean - oracle_mean(lam)) < 3 * se + 0.05

    def test_lambda_one_equipartition(self):
        # at lambda=1 samples come from the pure Gaussian, so the quadratic
        # half of the observable averages to d/2
        d = 3
        energy = lambda w: float(np.sum(w**4))
        grad = lambda w: 4.0 * w**3
        k = np.full(d, 2.0)
        stiff = StiffnessDiag(np.zeros(d), k, 0.0)
        from temperhmc.ti import bridge_energy_fns as bef
        bridge = bef(fused(energy, grad), stiff, 1.0)
        rng = np.random.default_rng(44)
        from temperhmc.hmc import HmcConfig, hmc_trajectory
        cfg = HmcConfig(1.0, 0.3, 15)
        w = np.zeros(d)
        current = bridge(w)
        quad_terms = []
        for _ in range(2000):
            out = hmc_trajectory(w, bridge, cfg, rng, None, current)
            w, current = out.w, (out.energy, out.grad)
            quad_terms.append(0.5 * float(np.dot(k * w, w)))
        assert np.mean(quad_terms) == pytest.approx(d / 2, rel=0.1)

    def test_energy_offset_shifts_free_energy_exactly(self):
        # adding a constant c to the energy must shift F by exactly c in
        # expectation; with matched quadratics the identity is exact per run
        h = np.array([2.0])
        energy, grad = quad_fns(h)
        c = 7.3
        shifted = lambda w: energy(w) + c
        box = PriorBox(np.array([15.0]))
        stiff0 = StiffnessDiag(np.zeros(1), h, 0.0)
        stiffc = StiffnessDiag(np.zeros(1), h, c)
        res0 = run_ti(energy, fused(energy, grad), stiff0, box, SMALL_TI,
                      np.random.default_rng(45))
        resc = run_ti(shifted, fused(shifted, grad), stiffc, box, SMALL_TI,
                      np.random.default_rng(45))
        assert resc.free_energy - res0.free_energy == pytest.approx(c, abs=1e-9)


def replay_chain(w, value_grad, cfg, rng, box, current, n_traj, jitter=0.0):
    """n_traj trajectories by hand: (w, current, states after each, accepted
    flags).

    With jitter, each trajectory's dt is drawn first, uniform within
    cfg.dt * (1 -+ jitter)."""
    states, accepted = [], []
    for _ in range(n_traj):
        step = cfg
        if jitter:
            step = replace(cfg, dt=cfg.dt * rng.uniform(1.0 - jitter, 1.0 + jitter))
        out = hmc_trajectory(w, value_grad, step, rng, box, current)
        w, current = out.w, (out.energy, out.grad)
        states.append(w)
        accepted.append(out.accepted)
    return w, current, states, accepted


def replay_adapt(w, value_grad, cfg, rng, box, current, n_traj):
    """Dual averaging by hand (Hoffman & Gelman 2014, Alg. 5): target 0.65,
    gamma 0.05, t0 10, kappa 0.75, mu = log(10 dt0); the averaged dt capped
    at the largest of dt0 and the dts that met the target.  Returns
    (w, current, dt)."""
    mu = math.log(10.0 * cfg.dt)
    dt, h, log_dt_bar, cap = cfg.dt, 0.0, 0.0, cfg.dt
    for m in range(1, n_traj + 1):
        out = hmc_trajectory(w, value_grad, replace(cfg, dt=dt), rng, box, current)
        w, current = out.w, (out.energy, out.grad)
        accept = math.exp(min(out.log_accept, 0.0))
        if accept >= 0.65:
            cap = max(cap, dt)
        h = (1.0 - 1.0 / (m + 10.0)) * h + 1.0 / (m + 10.0) * (0.65 - accept)
        log_dt = mu - math.sqrt(m) / 0.05 * h
        log_dt_bar = m ** -0.75 * log_dt + (1.0 - m ** -0.75) * log_dt_bar
        dt = float(np.exp(log_dt))
    return w, current, min(math.exp(log_dt_bar), cap)


def toy_potential():
    """A coupled quartic: not quadratic, so every lambda window differs."""
    def energy(w):
        return float(np.sum(w**4) + 0.5 * np.dot(w, w) + 0.3 * w[0] * w[1])

    def grad(w):
        g = 4.0 * w**3 + w
        g[0] += 0.3 * w[1]
        g[1] += 0.3 * w[0]
        return g

    return energy, fused(energy, grad)


REPLAY_TI = TiConfig(n_bridge=5, burn_in_traj=7, sample_traj=12, n_leapfrog=6,
                     retune_every_lambdas=3, fit_burn_in_traj=15,
                     fit_sample_traj=30, dt0=0.4)


class TestReplay:
    """fit_stiffness and run_ti bit for bit against hand-written loops."""

    def test_fit_stiffness_matches_hand_loops(self):
        _, value_grad = toy_potential()
        w0 = np.array([0.2, -0.1, 0.05])
        box = PriorBox(np.array([1.6, 1.6, 1.6]))
        stiff = fit_stiffness(value_grad, w0, REPLAY_TI,
                              np.random.default_rng(51), box)

        rng = np.random.default_rng(51)
        current = value_grad(w0)
        j0 = current[0]
        cfg = HmcConfig(1.0, REPLAY_TI.dt0, REPLAY_TI.n_leapfrog)
        w, current, dt = replay_adapt(w0.copy(), value_grad, cfg, rng, None,
                                      current, REPLAY_TI.fit_burn_in_traj)
        cfg = HmcConfig(1.0, dt, REPLAY_TI.n_leapfrog)
        _, _, states, _ = replay_chain(w, value_grad, cfg, rng, None, current,
                                       REPLAY_TI.fit_sample_traj, DT_JITTER)
        sq = np.zeros(3)
        for s in states:
            sq += (s - w0) * (s - w0)
        outside = sum(bool(np.any(np.abs(s) >= 0.8)) for s in states)

        np.testing.assert_array_equal(stiff.k, 1.0 / (sq / len(states)))
        assert stiff.j0 == j0
        assert stiff.frac_outside_box == outside / len(states)
        assert 0.0 < stiff.frac_outside_box < 1.0

    def test_run_ti_matches_hand_loops(self):
        energy, value_grad = toy_potential()
        stiff = StiffnessDiag(np.array([0.1, -0.2, 0.0]),
                              np.array([2.0, 3.0, 1.5]), 0.4)
        box = PriorBox(np.array([2.0, 2.0, 2.0]))
        energy_calls = []

        def counted_energy(w):
            energy_calls.append(1)
            return energy(w)

        res = run_ti(counted_energy, value_grad, stiff, box, REPLAY_TI,
                     np.random.default_rng(52))

        # each lambda warm-starts from the previous window's last state
        rng = np.random.default_rng(52)
        lambdas = np.linspace(0.0, 1.0, REPLAY_TI.n_bridge + 2)
        w, dt = stiff.w0.copy(), REPLAY_TI.dt0
        means, ses, observed = [], [], 0
        for idx, lam in enumerate(lambdas):
            bridge = bridge_energy_fns(value_grad, stiff, lam)
            current = bridge(w)
            cfg = HmcConfig(1.0, dt, REPLAY_TI.n_leapfrog)
            if idx % REPLAY_TI.retune_every_lambdas == 0:   # warm-started
                w, current, dt = replay_adapt(w, bridge, cfg, rng, box, current,
                                              REPLAY_TI.burn_in_traj)
                cfg = HmcConfig(1.0, dt, REPLAY_TI.n_leapfrog)
            else:
                w, current, _, _ = replay_chain(w, bridge, cfg, rng, box, current,
                                                REPLAY_TI.burn_in_traj, DT_JITTER)
            w, current, states, accepted = replay_chain(
                w, bridge, cfg, rng, box, current, REPLAY_TI.sample_traj, DT_JITTER)
            # the observable is evaluated on the first sample and after each move
            observed += 1 + sum(accepted[1:])
            mean, se = blocked_mean_se([ti_observable(energy, stiff, s)
                                        for s in states])
            means.append(mean)
            ses.append(se)
        f0 = -log_z0(stiff, box)
        free_energy = f0 + (stiff.j0 - simpson_uniform(lambdas, means))

        np.testing.assert_array_equal(res.lambdas, lambdas)
        np.testing.assert_array_equal(res.integrand_mean, means)
        np.testing.assert_array_equal(res.integrand_se, ses)
        assert res.free_energy == free_energy
        assert len(set(np.round(means, 12))) == len(means)
        assert len(energy_calls) == observed
        assert len(lambdas) < observed < len(lambdas) * REPLAY_TI.sample_traj


class TestEvidenceCompare:
    def test_evidence_subtracts_log_volume(self):
        from temperhmc.ti import TIResult
        res = TIResult(5.0, 4.0, 1.0, np.zeros(3), np.zeros(3), np.zeros(3))
        box = PriorBox(np.array([math.e] * 4))   # log volume 4
        assert evidence(res, box) == pytest.approx(-9.0)
        assert res.log_evidence == pytest.approx(-9.0)

    def test_identical_models_zero_odds(self):
        assert compare(-12.5, -12.5) == 0.0

    def test_published_arithmetic(self):
        # log evidences as (log integral) - (log prior volume) per model
        log_ev_deep = 26475.0 - 28960.0
        log_ev_shallow = 19793.0 - 19946.0
        assert compare(log_ev_deep, log_ev_shallow) == -2332.0

    def test_dataset_mismatch(self):
        with pytest.raises(DatasetMismatch):
            compare(-1.0, -2.0, dataset_1="d500_seed0", dataset_2="d50_seed0")
        with pytest.raises(DatasetMismatch):     # only one dataset given
            compare(-1.0, -2.0, dataset_1="d500_seed0")

    def test_model_prior_ratio(self):
        assert compare(-10.0, -12.0, log_model_prior_ratio=1.5) == pytest.approx(3.5)
