"""End-to-end verification gates, one test per criterion.

Each test prints a single PASS/FAIL line with the measured quantity so a
plain `pytest -v tests/test_acceptance.py` run doubles as a scoreboard.

The two dataset-bound criteria (minimizer speed, temperature-sweep
reproduction) run against real MNIST when TEMPERHMC_MNIST_DIR points at a
directory with the four standard IDX files; otherwise they fall back to
the bundled synthetic stand-in corpus.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import spearmanr

from temperhmc import data
from temperhmc.harness import baseline_optimize
from temperhmc.hmc import (HmcConfig, StepSizeController, hmc_trajectory,
                           measure_acceptance, tune_step_size, velocity_verlet)
from temperhmc.minimize import RMinConfig, rmin
from temperhmc.network import (NetworkArch, dataset_energy_fns, energy,
                               energy_gradient, get_arch, init_standard,
                               prior_box)
from temperhmc.replica import (RemdConfig, Replica, attempt_swap,
                               blocked_mean_se, init_replica, make_ladder,
                               measure_sweep, run_remd, swap_log_prob)
from temperhmc.ti import (StiffnessDiag, TiConfig, fit_stiffness, run_ti,
                          simpson_uniform)


def report(n, label, ok, detail):
    print(f"\ncriterion {n:2d} [{label}]: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n} ({label}): {detail}"


@pytest.fixture(scope="module")
def mnist_splits(full_splits):
    """Real MNIST when available, otherwise the synthetic stand-in."""
    mnist_dir = os.environ.get("TEMPERHMC_MNIST_DIR")
    if mnist_dir:
        raw_train = data.load_idx_split(mnist_dir, "train")
        raw_test = data.load_idx_split(mnist_dir, "test")
        return data.transform(raw_train, raw_test), "mnist"
    return full_splits, "synthetic"


def test_01_gradient_correctness():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        sizes = (int(rng.integers(2, 5)), int(rng.integers(3, 7)),
                 int(rng.integers(2, 5)))
        head = rng.choice(["linear-softmax", "logistic-softmax"])
        arch = NetworkArch(sizes, head=str(head))
        w = rng.normal(scale=0.8, size=arch.n_params)
        n = int(rng.integers(3, 12))
        x = rng.normal(size=(n, sizes[0]))
        labels = rng.integers(0, sizes[-1], n)
        _, g = energy_gradient(arch, w, x, labels)
        step = 1e-5
        fd = np.zeros_like(w)
        for i in range(len(w)):
            wp, wm = w.copy(), w.copy()
            wp[i] += step
            wm[i] -= step
            fd[i] = (energy(arch, wp, x, labels) -
                     energy(arch, wm, x, labels)) / (2 * step)
        rel = np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8))
        worst = max(worst, rel)
    elapsed = time.time() - t0
    report(1, "gradient correctness", worst < 1e-5 and elapsed < 10,
           f"max relative error {worst:.2e} over 20 triples in {elapsed:.1f}s")


def test_02_prior_volume_reproduction():
    deep = prior_box(get_arch("M3")).log_volume
    shallow = prior_box(get_arch("M1")).log_volume
    ok = abs(deep - 28960) < 1 and abs(shallow - 19945) < 1
    report(2, "prior volume", ok,
           f"sum log sigma: deep {deep:.2f} (target 28960±1), "
           f"shallow {shallow:.2f} (target 19945±1)")


def test_03_energy_floors():
    rng = np.random.default_rng(103)
    arch = get_arch("M1")
    n = 25
    x = rng.normal(size=(n, 256))
    labels = rng.integers(0, 10, n)
    uninformed = energy(arch, np.zeros(arch.n_params), x, labels)
    exact = uninformed == pytest.approx(n * math.log(10), rel=1e-13)

    arch_l = get_arch("M3star")
    box = prior_box(arch_l)
    xs = rng.normal(size=(1, 256))
    ls = rng.integers(0, 10, 1)
    t0 = time.time()
    per_example_min = np.inf
    for _ in range(10_000):
        w = rng.uniform(-0.5, 0.5, arch_l.n_params) * box.sigma
        per_example_min = min(per_example_min, energy(arch_l, w, xs, ls))
    elapsed = time.time() - t0
    ok = exact and per_example_min >= 1.4611 and elapsed < 60
    report(3, "energy floors", ok,
           f"uninformed {uninformed:.6f} vs {n * math.log(10):.6f}; "
           f"logistic-head floor {per_example_min:.4f} >= 1.4611 "
           f"over 1e4 draws in {elapsed:.0f}s")


def test_04_verlet_reversibility():
    rng = np.random.default_rng(104)
    h = rng.uniform(0.3, 3.0, size=8)
    value_grad = lambda w: (0.5 * float(np.dot(h * w, w)), h * w)
    w0, p0 = rng.normal(size=8), rng.normal(size=8)
    w, p, _, g, _ = velocity_verlet(w0, p0, h * w0, value_grad, 0.05, 100)
    w, p, _, _, _ = velocity_verlet(w, -p, g, value_grad, 0.05, 100)
    err = max(np.max(np.abs(w - w0)), np.max(np.abs(-p - p0)))
    report(4, "Verlet reversibility", err <= 1e-10,
           f"round-trip error {err:.2e} (limit 1e-10)")


def test_05_hmc_stationarity():
    rng = np.random.default_rng(105)
    h = rng.uniform(0.5, 5.0, size=10)
    energy_fn = lambda w: 0.5 * float(np.dot(h * w, w))
    grad_fn = lambda w: h * w
    value_grad = lambda w: (energy_fn(w), grad_fn(w))
    t0 = time.time()
    failures = []
    rates = []
    for T in (0.5, 1.0, 2.0):
        # a narrow inner band with a large probe batch keeps the long-run
        # acceptance strictly inside (0.6, 0.7)
        ctl = StepSizeController(band=(0.625, 0.675), probe_batch=1000,
                                 max_rounds=300, grow=1.05, shrink=0.95)
        cfg = HmcConfig(T, 0.05, 20)
        dt = tune_step_size(ctl, np.zeros(10), value_grad, cfg, rng)
        cfg = HmcConfig(T, dt, 20)
        w = np.zeros(10)
        current = value_grad(w)
        n = 15_000
        sq = np.empty((n, 10))
        accepted = 0
        for t in range(n):
            out = hmc_trajectory(w, value_grad, cfg, rng, None, current)
            w, current = out.w, (out.energy, out.grad)
            accepted += out.accepted
            sq[t] = w * w
        rate = accepted / n
        rates.append(rate)
        for i in range(10):
            mean, se = blocked_mean_se(sq[:, i], n_blocks=20)
            target = T / h[i]
            if abs(mean - target) > 3 * se:
                failures.append((T, i, mean, target, se))
        if not 0.6 < rate < 0.7:
            failures.append((T, "acceptance", rate))
    elapsed = time.time() - t0
    report(5, "HMC stationarity", not failures and elapsed < 300,
           f"30 coordinate variances at 3 temperatures, acceptance "
           f"{['%.3f' % r for r in rates]}, {len(failures)} violations, "
           f"{elapsed:.0f}s")


def test_06_swap_rule():
    # energies of a d-dimensional Gaussian at temperature T follow
    # Gamma(d/2, T); draw pairs and compare the realised swap frequency
    # with the Monte Carlo mean of min[1, exp(dbeta * dE)]
    rng = np.random.default_rng(106)
    d, t_lo, t_hi = 6, 1.0, 2.5
    n = 50_000
    e_lo = rng.gamma(d / 2, t_lo, size=n)
    e_hi = rng.gamma(d / 2, t_hi, size=n)
    accepted = 0
    for i in range(n):
        a = Replica(0, t_lo, np.zeros(1), e_lo[i], 0.1, rng)
        b = Replica(1, t_hi, np.zeros(1), e_hi[i], 0.1, rng)
        accepted += attempt_swap(a, b, rng)
    empirical = accepted / n
    probs = np.minimum(1.0, np.exp([swap_log_prob(t_lo, t_hi, a, b)
                                    for a, b in zip(e_lo, e_hi)]))
    oracle = probs.mean()
    se = math.sqrt(max(probs.var(), oracle * (1 - oracle)) / n) * 2
    ok = abs(empirical - oracle) < 3 * se
    report(6, "swap rule", ok,
           f"empirical {empirical:.4f} vs oracle {oracle:.4f} "
           f"(3se = {3 * se:.4f})")


def test_07_thermodynamic_monotonicity():
    def energy_fn(w):
        return float(np.sum((w * w - 1.0) ** 2)) / 0.1

    def value_grad(w):
        return energy_fn(w), 4.0 * w * (w * w - 1.0) / 0.1

    temps = make_ladder(0.5, 20.0, 8)
    replicas = [Replica(i, float(T), np.ones(2), energy_fn(np.ones(2)), 0.03,
                        np.random.default_rng(1070 + i))
                for i, T in enumerate(temps)]
    cfg = RemdConfig(n_traj=3, n_leapfrog=15, sweeps=800)
    t0 = time.time()
    trace = run_remd(replicas, value_grad, None, cfg, swap_seed=107)
    summary = measure_sweep(trace, burn_in_sweeps=100)
    elapsed = time.time() - t0
    means = summary["e_train_mean"]
    ses = summary["e_train_se"]
    violations = []
    for i in range(len(temps) - 1):
        combined = math.hypot(ses[i], ses[i + 1])
        if means[i + 1] < means[i] - 3 * combined:
            violations.append(i)
    ok = not violations and elapsed < 600
    report(7, "thermodynamic monotonicity", ok,
           f"<E> across 8-replica ladder: "
           f"{np.array2string(means, precision=2)}, "
           f"{len(violations)} ordering violations, {elapsed:.0f}s")


def test_08_ti_quadratic_null():
    h = np.array([0.5, 1.0, 2.0, 4.0])
    energy_fn = lambda w: 0.5 * float(np.dot(h * w, w))
    value_grad = lambda w: (energy_fn(w), h * w)
    from temperhmc.network import PriorBox
    box = PriorBox(np.full(4, 30.0))
    cfg = TiConfig(n_bridge=10, burn_in_traj=30, sample_traj=150,
                   n_leapfrog=15, retune_every_lambdas=4,
                   fit_burn_in_traj=300, fit_sample_traj=8000, dt0=0.3)
    # F - F0 carries noise from the stiffness fit as well as from the
    # quadrature, so estimate the standard error from independent repeats
    t0 = time.time()
    devs = []
    for r in range(8):
        rng = np.random.default_rng(1080 + r)
        stiff = fit_stiffness(value_grad, np.zeros(4), cfg, rng)
        res = run_ti(energy_fn, value_grad, stiff, box, cfg, rng)
        devs.append(res.free_energy - res.f0)
    elapsed = time.time() - t0
    devs = np.asarray(devs)
    se = devs.std(ddof=1) / math.sqrt(len(devs))
    dev = abs(devs.mean())
    ok = dev < 3 * se and elapsed < 300
    report(8, "TI quadratic null", ok,
           f"mean(F - F0) = {devs.mean():+.4f} over {len(devs)} repeats "
           f"vs 3se = {3 * se:.4f}, {elapsed:.0f}s")


def test_09_ti_oracle_equivalence():
    def energy_fn(w):
        return float(w[0] ** 4 + w[1] ** 4 + (w[0] * w[1]) ** 2)

    def value_grad(w):
        return energy_fn(w), np.array([4 * w[0] ** 3 + 2 * w[0] * w[1] ** 2,
                                       4 * w[1] ** 3 + 2 * w[0] ** 2 * w[1]])

    from temperhmc.network import PriorBox
    box = PriorBox(np.array([5.0, 5.0]))
    rng = np.random.default_rng(109)
    cfg = TiConfig(n_bridge=30, burn_in_traj=50, sample_traj=800,
                   n_leapfrog=15, retune_every_lambdas=8,
                   fit_burn_in_traj=500, fit_sample_traj=4000, dt0=0.3)
    t0 = time.time()
    stiff = fit_stiffness(value_grad, np.zeros(2), cfg, rng, box)
    res = run_ti(energy_fn, value_grad, stiff, box, cfg, rng)
    elapsed = time.time() - t0

    g = np.linspace(-2.5, 2.5, 1201)
    xx, yy = np.meshgrid(g, g)
    dens = np.exp(-(xx**4 + yy**4 + (xx * yy) ** 2))
    integral = float(np.trapezoid(np.trapezoid(dens, g, axis=1), g))
    rel = abs(math.exp(-res.free_energy) - integral) / integral
    ok = rel < 0.01 and elapsed < 600
    report(9, "TI oracle equivalence", ok,
           f"exp(-F) = {math.exp(-res.free_energy):.5f} vs quadrature "
           f"{integral:.5f} (rel err {rel:.3%}), {elapsed:.0f}s")


def test_10_simpson_exactness():
    lam = np.linspace(0.0, 1.0, 102)
    val = simpson_uniform(lam, lam**2)
    err = abs(val - 1.0 / 3.0)
    report(10, "Simpson exactness", err < 1e-14,
           f"integral of lambda^2 on 102 points = {val!r}, error {err:.2e}")


def test_11_minimizer_speed(mnist_splits):
    (train, test), source = mnist_splits
    d500, _ = data.stratified_subset(train, test, 500, seed=0)
    arch = get_arch("M3")
    _, value_grad = dataset_energy_fns(arch, d500.inputs, d500.labels)
    cfg = RMinConfig(n_steps=1000, energy_tol=1e-6, stall_window=1000)
    t0 = time.time()
    steps = []
    successes = 0
    for seed in range(10):
        w0 = init_standard(arch, np.random.default_rng(seed))
        res = rmin(w0, value_grad, cfg)
        steps.append(res.n_steps if res.energy < 1e-6 else -1)
        successes += res.energy < 1e-6
    elapsed = time.time() - t0
    ok = successes >= 9 and elapsed < 900
    report(11, f"minimizer speed ({source} data)", ok,
           f"{successes}/10 restarts reached E<1e-6 within 1000 steps "
           f"(step counts {steps}), {elapsed:.0f}s")


def test_12_temperature_sweep_reproduction(mnist_splits):
    (train, test), source = mnist_splits
    d50, d50_test = data.stratified_subset(train, test, 50, seed=0)
    arch = get_arch("M1")
    box = prior_box(arch)
    _, value_grad = dataset_energy_fns(arch, d50.inputs, d50.labels)

    # fixed stratified evaluation subset shared by sampler and baseline
    rng = np.random.default_rng(112)
    idx = np.sort(np.concatenate(
        [rng.choice(np.flatnonzero(d50_test.labels == c),
                    size=min(100, np.sum(d50_test.labels == c)), replace=False)
         for c in range(10)]))
    eval_fn, _ = dataset_energy_fns(arch, d50_test.inputs[idx],
                                    d50_test.labels[idx])

    t0 = time.time()
    cfg = RemdConfig(n_traj=2, n_leapfrog=25, sweeps=300, burn_in_traj=50)
    ladder = make_ladder(1e-2, 1e2, 16)
    seeds = np.random.SeedSequence(120).spawn(len(ladder) + 1)
    replicas = [init_replica(i, float(T), value_grad, box, seeds[i],
                             arch=arch, cfg=cfg)
                for i, T in enumerate(ladder)]
    trace = run_remd(replicas, value_grad, box, cfg, seeds[-1],
                     test_energy_fn=eval_fn)
    summary = measure_sweep(trace, burn_in_sweeps=60)

    baseline = baseline_optimize(arch, d50,
                                 type("DS", (), {"inputs": d50_test.inputs[idx],
                                                 "labels": d50_test.labels[idx]}),
                                 seed=121, n_solutions=100, mode="zero-energy",
                                 restart_cap=2000)
    elapsed = time.time() - t0

    rho = spearmanr(summary["temperatures"], summary["e_train_mean"]).statistic
    best_test = float(np.min(summary["e_test_mean"]))
    ok = rho > 0.9 and best_test < baseline.mean_test_energy and elapsed < 3600 * 3
    report(12, f"temperature sweep ({source} data)", ok,
           f"Spearman(T, <E_train>) = {rho:.3f} (need >0.9); best <E_test> "
           f"{best_test:.1f} vs baseline mean {baseline.mean_test_energy:.1f}; "
           f"{elapsed:.0f}s")
