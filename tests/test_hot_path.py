"""The fused value+gradient potential on the hot path.

Hardware-independent checks: how many potential calls a trajectory and a
minimiser step make, and that the cheaper network code and the carried
(energy, gradient) pair change no output bit.
"""

import numpy as np
import pytest

import temperhmc.network as network
from temperhmc.hmc import (HmcConfig, StepSizeController, adapt_step_size,
                           hmc_trajectory, run_chain, tune_step_size)
from temperhmc.minimize import RMinConfig, rmin
from temperhmc.network import (LOGISTIC_SOFTMAX, NetworkArch, PriorBox,
                               dataset_energy_fns, energy, energy_gradient,
                               init_standard, prior_box)
from temperhmc.replica import (RemdConfig, Replica, RunTrace, attempt_swap,
                               init_replica, run_remd)


class Counting:
    """Wraps a value_grad potential and counts its calls."""

    def __init__(self, value_grad):
        self.value_grad = value_grad
        self.calls = 0

    def __call__(self, w):
        self.calls += 1
        return self.value_grad(w)


def quad(w):
    return 0.5 * float(np.dot(w, w)), w.copy()


def masked_sigmoid(a):
    """The two-branch form the branch-free _sigmoid replaced."""
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def small_problem(head="linear-softmax", rows=30, seed=3):
    arch = NetworkArch((4, 5, 3), head=head)
    rng = np.random.default_rng(seed)
    return arch, rng.normal(size=(rows, 4)), rng.integers(0, 3, rows)


class TestCallCounts:
    @pytest.mark.parametrize("n_steps", [1, 5, 25])
    def test_trajectory_from_carried_pair_makes_L_calls(self, n_steps):
        potential = Counting(quad)
        rng = np.random.default_rng(0)
        w = np.array([0.3, -0.2])
        current = quad(w)
        cfg = HmcConfig(1.0, 0.1, n_steps)
        for _ in range(10):
            before = potential.calls
            out = hmc_trajectory(w, potential, cfg, rng, None, current)
            assert potential.calls - before == n_steps
            w, current = out.w, (out.energy, out.grad)

    def test_trajectory_without_pair_makes_one_more(self):
        potential = Counting(quad)
        hmc_trajectory(np.ones(2), potential, HmcConfig(1.0, 0.1, 7),
                       np.random.default_rng(0))
        assert potential.calls == 8

    def test_nonfinite_final_energy_returns_the_carried_pair(self):
        def value_grad(w):
            return (0.0 if np.all(w == 0) else np.inf), np.zeros_like(w)

        w = np.zeros(2)
        e, g = value_grad(w)
        out = hmc_trajectory(w, value_grad, HmcConfig(1.0, 0.5, 5),
                             np.random.default_rng(1), None, (e, g))
        assert not out.accepted
        assert out.energy == e and out.grad is g

    def test_nonfinite_gradient_mid_trajectory_rejects(self):
        def value_grad(w):
            bad = np.any(np.abs(w) > 0.5)
            return 0.0, np.full_like(w, np.nan) if bad else np.zeros_like(w)

        w = np.zeros(2)
        current = value_grad(w)
        out = hmc_trajectory(w, value_grad, HmcConfig(1.0, 1.0, 10),
                             np.random.default_rng(2), None, current)
        assert not out.accepted
        np.testing.assert_array_equal(out.w, w)
        assert out.grad is current[1]

    @pytest.mark.parametrize("n_steps", [1, 7])
    def test_rmin_step_makes_one_call(self, n_steps):
        potential = Counting(quad)
        res = rmin(np.array([3.0, -1.0]), potential,
                   cfg=RMinConfig(n_steps=n_steps, energy_tol=-np.inf))
        assert res.n_steps == n_steps
        assert potential.calls == 1 + n_steps

    def test_tuning_round_costs_probe_batch_times_L(self):
        potential = Counting(quad)
        ctl = StepSizeController(band=(0.0, 1.0), probe_batch=6)
        w = np.zeros(2)
        tune_step_size(ctl, w, potential, HmcConfig(1.0, 0.25, 4),
                       np.random.default_rng(3), None, quad(w))
        assert potential.calls == 6 * 4

    @pytest.mark.parametrize("n_traj,n_steps", [(1, 5), (9, 3)])
    def test_adapting_burn_in_costs_n_traj_times_L(self, n_traj, n_steps):
        potential = Counting(quad)
        w = np.array([0.3, -0.2])
        adapt_step_size(w, quad(w), potential, HmcConfig(1.0, 0.1, n_steps),
                        np.random.default_rng(1), None, n_traj)
        assert potential.calls == n_traj * n_steps

    def test_no_adapting_trajectories_return_cfg_dt_and_make_no_call(self):
        potential = Counting(quad)
        w, current = np.array([0.3, -0.2]), quad(np.array([0.3, -0.2]))
        out = adapt_step_size(w, current, potential, HmcConfig(1.0, 0.37, 5),
                              np.random.default_rng(0), None, 0)
        assert out[0] is w and out[1] is current and out[2] == 0.37
        assert potential.calls == 0

    def test_network_rmin_calls_no_value_only_energy(self, monkeypatch):
        arch, x, y = small_problem()
        counts = {"energy": 0, "energy_gradient": 0}

        def counted(name):
            original = getattr(network, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)
            return wrapper

        # the closures look both functions up in the module's globals
        monkeypatch.setattr(network, "energy", counted("energy"))
        monkeypatch.setattr(network, "energy_gradient", counted("energy_gradient"))
        _, value_grad = dataset_energy_fns(arch, x, y)
        w0 = init_standard(arch, np.random.default_rng(0))
        res = rmin(w0, value_grad, cfg=RMinConfig(n_steps=20, energy_tol=-np.inf,
                                                  stall_window=1000))
        assert counts == {"energy": 0, "energy_gradient": 1 + res.n_steps}


class TestRunChain:
    def test_zero_trajectories_return_the_given_state(self):
        potential = Counting(quad)
        w, current = np.array([0.3, -0.2]), quad(np.array([0.3, -0.2]))
        out_w, out_current, n_acc = run_chain(w, current, potential,
                                              HmcConfig(1.0, 0.1, 5),
                                              np.random.default_rng(0), None, 0)
        assert out_w is w and out_current is current and n_acc == 0
        assert potential.calls == 0

    @pytest.mark.parametrize("n_traj,n_steps", [(1, 5), (7, 3)])
    def test_carried_pair_costs_n_traj_times_L(self, n_traj, n_steps):
        potential = Counting(quad)
        w = np.array([0.3, -0.2])
        run_chain(w, quad(w), potential, HmcConfig(1.0, 0.1, n_steps),
                  np.random.default_rng(1), None, n_traj)
        assert potential.calls == n_traj * n_steps

    def test_matches_hand_loop_and_observes_every_state(self):
        # a tight box makes some proposals leave it, so both outcomes occur
        box = PriorBox(np.array([1.2, 1.2]))
        cfg = HmcConfig(1.0, 0.4, 6)
        w0 = np.array([0.3, -0.2])
        seen = []
        w, (e, g), n_acc = run_chain(w0, quad(w0), quad, cfg,
                                     np.random.default_rng(2), box, 40, seen.append)

        rng = np.random.default_rng(2)
        hand_w, current, hand_acc, states = w0, quad(w0), 0, []
        for _ in range(40):
            out = hmc_trajectory(hand_w, quad, cfg, rng, box, current)
            hand_w, current = out.w, (out.energy, out.grad)
            hand_acc += out.accepted
            states.append(hand_w)
        assert 0 < n_acc == hand_acc < 40
        assert len(seen) == 40
        for a, b in zip(seen, states):
            np.testing.assert_array_equal(a.w, b)
        np.testing.assert_array_equal(w, hand_w)
        assert e == current[0]
        np.testing.assert_array_equal(g, current[1])


class TestSigmoid:
    def test_special_values_bit_equal(self):
        a = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0,
                      1e4, -1e4, 709.8, -709.8, 5e-324, -5e-324])
        with np.errstate(all="ignore"):
            old, new = masked_sigmoid(a), network._sigmoid(a)
        nan = np.isnan(old)
        np.testing.assert_array_equal(np.isnan(new), nan)
        np.testing.assert_array_equal(old[~nan].view(np.uint64),
                                      new[~nan].view(np.uint64))

    @pytest.mark.parametrize("scale", [0.1, 3.0, 50.0, 1e3])
    def test_random_blocks_bit_equal(self, scale):
        a = np.random.default_rng(int(scale * 10)).normal(scale=scale, size=(500, 40))
        np.testing.assert_array_equal(masked_sigmoid(a).view(np.uint64),
                                      network._sigmoid(a).view(np.uint64))


class TestFusedClosure:
    @pytest.mark.parametrize("head", ["linear-softmax", LOGISTIC_SOFTMAX])
    def test_bit_equal_to_module_functions(self, head):
        arch, x, y = small_problem(head)
        energy_fn, value_grad = dataset_energy_fns(arch, x, y)
        rng = np.random.default_rng(4)
        for scale in (0.5, 5.0, 50.0):
            w = rng.normal(scale=scale, size=arch.n_params)
            e, g = value_grad(w)
            assert e == energy(arch, w, x, y) == energy_fn(w)
            np.testing.assert_array_equal(g.view(np.uint64),
                                          energy_gradient(arch, w, x, y)[1].view(np.uint64))

    def test_layout_is_built_once_and_keeps_equality(self):
        a, b = NetworkArch((256, 40, 10)), NetworkArch((256, 40, 10))
        assert a.layout() is a.layout()
        assert a == b and hash(a) == hash(b)
        assert a != NetworkArch((256, 40, 10), head=LOGISTIC_SOFTMAX)
        assert a.n_params == 256 * 40 + 40 + 40 * 10 + 10


def replayed_remd(value_grad, box, cfg, slots, swap_seed):
    """run_remd's sweeps by hand, recomputing (E, g) at every trajectory.

    Yields (per-slot acceptance, slots) after each sweep's swaps.
    """
    for r in slots:
        r.grad = None           # the replay never reads a carried gradient
    swap_rng = np.random.default_rng(swap_seed)
    for _ in range(cfg.sweeps):
        accept = []
        for r in slots:
            n_acc = 0
            for _ in range(cfg.n_traj):
                out = hmc_trajectory(r.w, value_grad,
                                     HmcConfig(r.temperature, r.dt, cfg.n_leapfrog),
                                     r.rng, box)
                r.w, r.energy = out.w, out.energy
                n_acc += out.accepted
            accept.append(n_acc / cfg.n_traj)
        for _ in range(len(slots)):
            j = int(swap_rng.integers(len(slots) - 1))
            attempt_swap(slots[j], slots[j + 1], swap_rng)
        yield accept, slots


class TestRemdReplay:
    @pytest.fixture
    def two_rungs(self):
        """(value_grad, test_energy_fn, box, cfg, fresh replicas, swap seed)."""
        arch, x, y = small_problem(rows=40)
        box = prior_box(arch)
        _, value_grad = dataset_energy_fns(arch, x, y)
        test_energy_fn, _ = dataset_energy_fns(arch, *small_problem(rows=20, seed=4)[1:])
        cfg = RemdConfig(n_traj=2, n_leapfrog=5, sweeps=9, burn_in_traj=5)
        seeds = np.random.SeedSequence(8).spawn(3)

        def fresh():
            # equal temperatures: every swap is accepted, so gradients and
            # held-out energies change hands
            return [init_replica(i, T, value_grad, box, seeds[i], arch=arch, cfg=cfg)
                    for i, T in enumerate([1.0, 1.0])]
        return value_grad, test_energy_fn, box, cfg, fresh, seeds[-1]

    def test_carried_gradients_match_recomputed_replay(self, two_rungs):
        # run_remd carries (E, g) across trajectories and swaps; the replay
        # recomputes the pair at the start of every trajectory, as a
        # potential without a cache would
        value_grad, _, box, cfg, fresh, swap_seed = two_rungs
        replicas = fresh()
        trace = run_remd(replicas, value_grad, box, cfg, swap_seed)

        slots = fresh()
        for sweep, (accept, slots) in enumerate(
                replayed_remd(value_grad, box, cfg, slots, swap_seed)):
            np.testing.assert_array_equal(trace.accept_rate[sweep], accept)
            np.testing.assert_array_equal(trace.e_train[sweep],
                                          [r.energy for r in slots])
            np.testing.assert_array_equal(trace.identities[sweep],
                                          [r.identity for r in slots])
        np.testing.assert_array_equal(trace.swap_accepts, trace.swap_attempts)
        for a, b in zip(replicas, slots):
            np.testing.assert_array_equal(a.w, b.w)
            assert a.dt == b.dt
            np.testing.assert_array_equal(a.grad, value_grad(a.w)[1])

    def test_test_energy_evaluated_only_after_a_move(self, two_rungs):
        # a rung whose trajectories were all rejected keeps w, so its cached
        # held-out energy stands; the replay evaluates every slot every sweep
        value_grad, test_energy_fn, box, cfg, fresh, swap_seed = two_rungs
        trace = RunTrace(np.array([1.0, 1.0]))
        call_sweeps = []

        def counted(w):
            call_sweeps.append(trace.n_sweeps)
            return test_energy_fn(w)

        run_remd(fresh(), value_grad, box, cfg, swap_seed,
                 test_energy_fn=counted, trace=trace)
        moved = [int(np.count_nonzero(a)) for a in trace.accept_rate]
        assert [call_sweeps.count(s) for s in range(cfg.sweeps)] == [2] + moved[1:]
        assert 0 < sum(moved[1:]) < 2 * (cfg.sweeps - 1)  # some rungs stood still
        np.testing.assert_array_equal(trace.swap_accepts, trace.swap_attempts)

        for sweep, (_, slots) in enumerate(
                replayed_remd(value_grad, box, cfg, fresh(), swap_seed)):
            np.testing.assert_array_equal(trace.e_test[sweep],
                                          [test_energy_fn(r.w) for r in slots])

    def test_replica_without_gradient_gets_one(self):
        potential = Counting(quad)
        r = Replica(0, 1.0, np.array([0.4]), quad(np.array([0.4]))[0], 0.3,
                    np.random.default_rng(0))
        run_remd([r], potential, None,
                 RemdConfig(n_traj=3, n_leapfrog=4, sweeps=2),
                 swap_seed=0)
        assert potential.calls == 1 + 2 * 3 * 4
        np.testing.assert_array_equal(r.grad, quad(r.w)[1])
