import json
import math

import numpy as np
import pytest

import temperhmc.hmc
import temperhmc.replica
from temperhmc.errors import ConfigError, InsufficientSamples
from temperhmc.hmc import HmcConfig, hmc_trajectory
from temperhmc.minimize import rmin
from temperhmc.network import NetworkArch, dataset_energy_fns, get_arch, prior_box
from temperhmc.replica import (START_TOL_PER_T, RemdConfig, Replica, RunTrace,
                               attempt_swap, blocked_mean_se, init_replica,
                               load_checkpoint, make_ladder, measure_sweep,
                               run_remd, save_checkpoint, swap_log_prob)
from temperhmc.ti import TiConfig, fit_stiffness, run_ti


def quad_replicas(temps, seed=0, dt=0.3):
    rng = np.random.SeedSequence(seed).spawn(len(temps))
    return [Replica(i, float(T), np.zeros(1), 0.0, dt,
                    np.random.default_rng(s))
            for i, (T, s) in enumerate(zip(temps, rng))]


def quad_fns(h=1.0):
    """E = h |w|^2 / 2 as (energy, value_grad)."""
    def energy(w):
        return 0.5 * h * float(np.dot(w, w))

    return energy, lambda w: (energy(w), h * w)


class TestLadder:
    def test_published_sweep_ratio(self):
        t = make_ladder(1e-2, 1e2, 112)
        ratio = t[1] / t[0]
        assert ratio == pytest.approx(10 ** (4 / 111), rel=1e-12)
        np.testing.assert_allclose(t[1:] / t[:-1], ratio, rtol=1e-10)

    def test_two_points_are_endpoints(self):
        np.testing.assert_allclose(make_ladder(0.5, 8.0, 2), [0.5, 8.0])

    def test_three_points_geometric_mean(self):
        t = make_ladder(0.1, 10.0, 3)
        assert t[1] == pytest.approx(1.0, rel=1e-12)

    def test_bad_ranges(self):
        with pytest.raises(ConfigError):
            make_ladder(2.0, 1.0, 4)
        with pytest.raises(ConfigError):
            make_ladder(0.0, 1.0, 4)
        with pytest.raises(ConfigError):
            make_ladder(0.1, 1.0, 1)


class TestSwapRule:
    def test_equal_energies_always_accept(self):
        assert swap_log_prob(1.0, 2.0, 5.0, 5.0) == 0.0

    def test_favourable_sign_always_accept(self):
        # colder replica sitting at higher energy: swap helps, exponent > 0
        assert swap_log_prob(1.0, 2.0, 12.0, 10.0) > 0

    def test_published_example(self):
        # (1/1 - 1/2) * (10 - 12) = -1
        assert swap_log_prob(1.0, 2.0, 10.0, 12.0) == pytest.approx(-1.0)

    def test_empirical_rate_matches_formula(self):
        rng = np.random.default_rng(3)
        accepted = 0
        n = 40_000
        for _ in range(n):
            a, b = quad_replicas([1.0, 2.0], seed=0)
            a.energy, b.energy = 10.0, 12.0
            accepted += attempt_swap(a, b, rng)
        p = math.exp(-1.0)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(accepted / n - p) < 3 * se

    def test_swap_exchanges_state_and_identity(self):
        a, b = quad_replicas([1.0, 2.0])
        a.w, b.w = np.array([1.0]), np.array([2.0])
        a.energy, b.energy = 9.0, 3.0       # favourable: always accepted
        assert attempt_swap(a, b, np.random.default_rng(0))
        assert a.w[0] == 2.0 and b.w[0] == 1.0
        assert (a.energy, b.energy) == (3.0, 9.0)
        assert (a.identity, b.identity) == (1, 0)
        assert (a.temperature, b.temperature) == (1.0, 2.0)  # slots stay put


class TestInitReplica:
    def test_deterministic_and_in_support(self):
        arch = NetworkArch((2, 4, 3))
        box = prior_box(arch)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 2))
        labels = rng.integers(0, 3, 20)
        from temperhmc.network import dataset_energy_fns
        _, value_grad = dataset_energy_fns(arch, x, labels)
        cfg = RemdConfig(burn_in_traj=10, n_leapfrog=10)
        a = init_replica(0, 1.0, value_grad, box, seed=77, arch=arch, cfg=cfg)
        b = init_replica(0, 1.0, value_grad, box, seed=77, arch=arch, cfg=cfg)
        np.testing.assert_array_equal(a.w, b.w)
        assert a.energy == b.energy
        assert box.inside(a.w).all()

    @pytest.mark.parametrize("temperature", [1e-2, 1e2])
    def test_minimiser_stops_at_the_first_energy_below_tol_per_t(
            self, d50, monkeypatch, temperature):
        arch = get_arch("M1")
        train, _ = d50
        _, value_grad = dataset_energy_fns(arch, train.inputs, train.labels)
        runs = []

        def recording_rmin(w0, potential, cfg, *, box):
            calls = 0

            def counted(w):
                nonlocal calls
                calls += 1
                return potential(w)

            res = rmin(w0, counted, cfg=cfg, box=box)
            runs.append((res, calls))
            return res

        monkeypatch.setattr(temperhmc.replica, "rmin", recording_rmin)
        r = init_replica(0, temperature, value_grad, prior_box(arch), seed=4,
                         arch=arch, cfg=RemdConfig(burn_in_traj=1, n_leapfrog=2))
        (res, calls), = runs
        tol = START_TOL_PER_T * temperature
        energies = [e for _, e, _ in res.trace]
        assert energies[-1] < tol
        assert all(e >= tol for e in energies[:-1])
        assert (r.start_energy, r.start_steps) == (res.energy, len(energies))
        assert calls == r.start_steps + 1       # and one at the start

    def test_start_is_where_the_boxed_minimiser_stopped(self):
        arch = NetworkArch((2, 4, 3))
        box = prior_box(arch)
        rng = np.random.default_rng(6)
        _, net = dataset_energy_fns(arch, rng.normal(size=(20, 2)),
                                    rng.integers(0, 3, 20))
        target = 2.0 * box.half_width[0]

        def value_grad(w):
            # the network's energy plus a pull of w[0] out through its wall
            e, g = net(w)
            g = g.copy()
            g[0] += w[0] - target
            return e + 0.5 * (w[0] - target) ** 2, g

        r = init_replica(0, 1.0, value_grad, box, seed=2, arch=arch,
                         cfg=RemdConfig(burn_in_traj=0))
        assert np.all(np.abs(r.w) < box.half_width)
        # the start stays where rmin stopped, against the wall
        assert r.w[0] > 0.99 * box.half_width[0]
        assert r.start_energy == r.energy == value_grad(r.w)[0]


class TestRunRemd:
    def test_single_replica_matches_plain_hmc(self):
        energy, value_grad = quad_fns()
        cfg = RemdConfig(n_traj=5, n_leapfrog=10, sweeps=20)
        seed = np.random.SeedSequence(9)
        r = Replica(0, 1.0, np.array([0.5]), energy(np.array([0.5])), 0.3,
                    np.random.default_rng(seed.spawn(1)[0]))
        trace = run_remd([r], value_grad, None, cfg, swap_seed=1)

        # replay by hand with an identically seeded generator
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0])
        w = np.array([0.5])
        e = energy(w)
        g = value_grad(w)[1]
        hmc_cfg = HmcConfig(1.0, 0.3, 10)
        for s in range(20):
            for _ in range(5):
                out = hmc_trajectory(w, value_grad, hmc_cfg, rng, None, (e, g))
                w, e, g = out.w, out.energy, out.grad
            assert trace.e_train[s][0] == pytest.approx(e, rel=1e-12)

    def test_equal_temperature_swaps_always_accept(self):
        energy, value_grad = quad_fns()
        replicas = quad_replicas([1.0, 1.0], seed=4)
        for r in replicas:
            r.energy = energy(r.w)
        cfg = RemdConfig(n_traj=2, n_leapfrog=10, sweeps=30)
        trace = run_remd(replicas, value_grad, None, cfg, swap_seed=2)
        attempts = np.sum(trace.swap_attempts)
        accepts = np.sum(trace.swap_accepts)
        assert attempts > 0 and accepts == attempts

    def test_identities_stay_a_permutation(self):
        energy, value_grad = quad_fns()
        replicas = quad_replicas([0.5, 1.0, 2.0, 4.0], seed=6)
        for r in replicas:
            r.energy = energy(r.w)
        cfg = RemdConfig(n_traj=2, n_leapfrog=10, sweeps=40)
        trace = run_remd(replicas, value_grad, None, cfg, swap_seed=3)
        for ids in trace.identities:
            assert sorted(ids) == [0, 1, 2, 3]
        # with this ladder the chains actually migrate
        assert any(not np.array_equal(ids, [0, 1, 2, 3])
                   for ids in trace.identities)

    def test_equipartition_across_ladder(self):
        # quadratic target in d dims: <E>_T = T * d / 2
        d = 3
        energy = lambda w: 0.5 * float(np.dot(w, w))
        value_grad = lambda w: (energy(w), w.copy())
        temps = [0.5, 1.0, 2.0]
        replicas = [Replica(i, T, np.zeros(d), 0.0, 0.25 * math.sqrt(T),
                            np.random.default_rng(100 + i))
                    for i, T in enumerate(temps)]
        cfg = RemdConfig(n_traj=4, n_leapfrog=15, sweeps=400)
        trace = run_remd(replicas, value_grad, None, cfg, swap_seed=5)
        summary = measure_sweep(trace, burn_in_sweeps=50)
        for i, T in enumerate(temps):
            expect = T * d / 2
            tol = 3 * summary["e_train_se"][i] + 0.05 * expect
            assert abs(summary["e_train_mean"][i] - expect) < tol

    def test_double_well_mixing_beats_single_chain(self):
        # E(w) = (w^2 - 1)^2 / 0.05: wells at +-1 behind a barrier of 20.
        # Count sign flips of the coldest chain with and without exchange
        # over a matched per-replica trajectory budget.
        def energy(w):
            return float((w[0] ** 2 - 1.0) ** 2) / 0.05

        def value_grad(w):
            return energy(w), 4.0 * w * (w**2 - 1.0) / 0.05

        def cold_flips(n_temps):
            temps = make_ladder(1.0, 30.0, 8)[:n_temps] if n_temps > 1 else [1.0]
            replicas = [Replica(i, float(T), np.array([1.0]),
                                energy(np.array([1.0])), 0.04,
                                np.random.default_rng(200 + i))
                        for i, T in enumerate(temps)]
            cfg = RemdConfig(n_traj=2, n_leapfrog=20, sweeps=400)
            trace = run_remd(replicas, value_grad, None, cfg, swap_seed=6,
                             test_energy_fn=lambda w: w[0])
            pos = np.array([e[0] for e in trace.e_test])   # coldest-slot position
            signs = np.sign(pos[np.abs(pos) > 0.3])
            return int(np.sum(signs[1:] != signs[:-1]))

        assert cold_flips(8) > cold_flips(1)

    def test_resume_from_checkpoint_is_seamless(self, tmp_path):
        energy, value_grad = quad_fns()
        cfg = RemdConfig(n_traj=2, n_leapfrog=10, sweeps=10)

        replicas = quad_replicas([1.0, 2.0], seed=11)
        for r in replicas:
            r.energy = energy(r.w)
        full = run_remd(replicas, value_grad, None,
                        RemdConfig(n_traj=2, n_leapfrog=10, sweeps=20), swap_seed=7)

        replicas = quad_replicas([1.0, 2.0], seed=11)
        for r in replicas:
            r.energy = energy(r.w)
        trace = run_remd(replicas, value_grad, None, cfg, swap_seed=7)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, replicas, 10)
        restored, sweep = load_checkpoint(path)
        assert sweep == 10
        # swap stream replay: reuse the same generator state by re-running the
        # full swap sequence is not possible here, so compare replica states
        for a, b in zip(replicas, restored):
            np.testing.assert_array_equal(a.w, b.w)
            assert a.energy == b.energy
            assert a.dt == b.dt
            assert a.identity == b.identity
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
        # continuing the restored replicas reproduces the second half exactly,
        # given the same continuation of the swap stream
        swap_rng = np.random.default_rng(7)
        # advance a fresh swap stream by the draws the first half consumed
        for s in range(10):
            for _ in range(2):
                swap_rng.integers(1)
                swap_rng.uniform()
        cont = run_remd(restored, value_grad, None, cfg,
                        swap_seed=swap_rng, trace=RunTrace(trace.temperatures))
        for s in range(10):
            np.testing.assert_allclose(cont.e_train[s], full.e_train[10 + s],
                                       rtol=1e-12)


    def test_trajectory_error_propagates(self):
        # a mis-wired potential must not be swallowed: the RuntimeError
        # comes from the first call of sweep 2's production trajectory
        energy, value_grad = quad_fns()
        calls = {"n": 0}

        def broken(w):
            calls["n"] += 1
            if calls["n"] == 2 * 1 * 2 + 1:     # sweeps 0-1: 1 trajectory of L=2
                raise RuntimeError("potential failed")
            return value_grad(w)

        r = Replica(0, 1.0, np.array([0.5]), energy(np.array([0.5])), 0.3,
                    np.random.default_rng(0), grad=np.array([0.5]))
        trace = RunTrace(np.array([1.0]))
        cfg = RemdConfig(n_traj=1, n_leapfrog=2, sweeps=4)
        with pytest.raises(RuntimeError, match="potential failed"):
            run_remd([r], broken, None, cfg, swap_seed=0, trace=trace)
        assert trace.n_sweeps == 2

    def test_production_never_tunes(self, monkeypatch):
        # dt is adapted during burn-in: init_replica, run_remd, fit_stiffness
        # and run_ti never run a probe round
        def no_probes(*args, **kwargs):
            raise AssertionError("a sampler ran probe trajectories")

        monkeypatch.setattr(temperhmc.hmc, "measure_acceptance", no_probes)
        arch = NetworkArch((2, 3, 2))
        box = prior_box(arch)
        rng = np.random.default_rng(15)
        x, labels = rng.normal(size=(12, 2)), rng.integers(0, 2, 12)
        energy_fn, value_grad = dataset_energy_fns(arch, x, labels)
        cfg = RemdConfig(n_traj=2, n_leapfrog=3, sweeps=4, burn_in_traj=6)
        replicas = [init_replica(i, T, value_grad, box, seed=i, arch=arch, cfg=cfg)
                    for i, T in enumerate([1.0, 2.0])]
        dts = [r.dt for r in replicas]
        trace = run_remd(replicas, value_grad, box, cfg, swap_seed=0)
        assert trace.n_sweeps == 4
        assert [r.dt for r in replicas] == dts      # the production kernel is fixed

        ti_cfg = TiConfig(n_bridge=2, burn_in_traj=3, sample_traj=4,
                          n_leapfrog=3, retune_every_lambdas=2,
                          fit_burn_in_traj=5, fit_sample_traj=6)
        stiff = fit_stiffness(value_grad, replicas[0].w, ti_cfg, rng, box)
        run_ti(energy_fn, value_grad, stiff, box, ti_cfg, rng)


class TestCheckpointWrite:
    def test_failed_write_keeps_earlier_checkpoint(self, tmp_path, fail_writes):
        replicas = quad_replicas([1.0, 2.0], seed=12)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, replicas, 3)
        before = path.read_bytes()
        fail_writes(temperhmc.replica)
        with pytest.raises(OSError):
            save_checkpoint(path, replicas, 4)
        assert path.read_bytes() == before
        assert load_checkpoint(path)[1] == 3

    def test_writes_the_given_path(self, tmp_path):
        replicas = quad_replicas([1.0, 2.0], seed=13)
        path = tmp_path / "checkpoint"
        save_checkpoint(path, replicas, 1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint"]
        assert load_checkpoint(path)[1] == 1

    def test_loads_without_pickle(self, tmp_path):
        replicas = quad_replicas([1.0, 2.0], seed=14)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, replicas, 2)
        with np.load(path, allow_pickle=False) as data:
            states = data["rng_states"]
            assert states.dtype.kind == "U"
            assert json.loads(str(states[1])) == replicas[1].rng.bit_generator.state
        restored, _ = load_checkpoint(path)
        assert [r.rng.random() for r in restored] == [r.rng.random() for r in replicas]


class TestBlockedStats:
    def test_constant_series(self):
        mean, se = blocked_mean_se(np.full(100, 3.25))
        assert mean == 3.25
        assert se == 0.0

    def test_iid_series_matches_naive_se(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=10_000)
        _, se = blocked_mean_se(x, n_blocks=10)
        naive = x.std(ddof=1) / math.sqrt(len(x))
        assert se == pytest.approx(naive, rel=0.8)

    def test_correlated_series_inflates_se(self):
        rng = np.random.default_rng(22)
        # AR(1) with strong persistence
        x = np.empty(20_000)
        x[0] = 0.0
        for t in range(1, len(x)):
            x[t] = 0.99 * x[t - 1] + rng.normal()
        _, se = blocked_mean_se(x, n_blocks=10)
        naive = x.std(ddof=1) / math.sqrt(len(x))
        assert se > 2 * naive

    def test_too_short_raises(self):
        with pytest.raises(InsufficientSamples):
            blocked_mean_se([1.0])


class TestTraceCsv:
    def test_long_format_roundtrip(self, tmp_path):
        trace = RunTrace(np.array([0.5, 2.0]))
        trace.append_sweep([1.0, 2.0], [1.5, 2.5], [0.6, 0.7], [0, 1], [1], [0])
        trace.append_sweep([1.1, 2.1], [1.6, 2.6], [0.7, 0.6], [1, 0], [1], [1])
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "sweep,slot,temperature,e_train,e_test,accept_rate,identity"
        assert len(lines) == 1 + 2 * 2
        row = lines[1].split(",")
        assert row[:3] == ["0", "0", "0.5"]
        assert float(row[3]) == 1.0

    def test_read_csv_roundtrip(self, tmp_path):
        trace = RunTrace(np.array([0.5, 2.0, 8.0]))
        trace.append_sweep([1.0, 2.25, 3.5], [1.5, np.nan, 4.75],
                           [0.6, 0.7, 0.8], [0, 1, 2], [1, 1], [0, 1])
        trace.append_sweep([1.125, 2.5, 3.0], [1.625, 2.5, 4.5],
                           [0.7, 0.6, 0.5], [1, 0, 2], [2, 1], [1, 0])
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        back = RunTrace.read_csv(path)
        np.testing.assert_array_equal(back.temperatures, trace.temperatures)
        assert back.n_sweeps == 2
        for name in ("e_train", "e_test", "accept_rate", "identities"):
            np.testing.assert_array_equal(getattr(back, name), getattr(trace, name))
        assert back.identities[0].dtype.kind == "i"
