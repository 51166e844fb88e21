"""The fused value+gradient potential on the hot path.

Hardware-independent checks: how many potential calls a trajectory and a
minimiser step make, what one network call allocates, and that the
cheaper network code, the in-place integrator and the carried (energy,
gradient) pair change no output bit.
"""

import tracemalloc

import numpy as np
import pytest

import temperhmc.network as network
from temperhmc.errors import ShapeMismatch
from temperhmc.hmc import (HmcConfig, StepSizeController, adapt_step_size,
                           hmc_trajectory, run_chain, tune_step_size,
                           velocity_verlet)
from temperhmc.minimize import RMinConfig, rmin
from temperhmc.network import (LOGISTIC_SOFTMAX, NetworkArch, PriorBox,
                               dataset_energy_fns, energy, energy_gradient,
                               get_arch, init_standard, prior_box)
from temperhmc.replica import (START_TOL_PER_T, RemdConfig, Replica, RunTrace,
                               attempt_swap, init_replica, run_remd)
from temperhmc.ti import StiffnessDiag, TiConfig, bridge_energy_fns, run_ti


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


def flat(w):
    return 0.0, np.zeros_like(w)


def box_guarded(value_grad, box):
    """value_grad that fails when it is called at a point outside the box."""
    def guarded(w):
        assert np.all(np.abs(w) < box.half_width), "potential called outside the box"
        return value_grad(w)
    return guarded


def tanh_sigmoid(a):
    """The logistic function by the plain expression of _sigmoid's form."""
    return 0.5 * (1.0 + np.tanh(0.5 * a))


def small_problem(head="linear-softmax", rows=30, seed=3, sizes=(4, 5, 3)):
    arch = NetworkArch(sizes, head=head)
    rng = np.random.default_rng(seed)
    return (arch, rng.normal(size=(rows, sizes[0])),
            rng.integers(0, sizes[-1], rows))


def plain_energy_gradient(arch, w, x, labels):
    """Energy and gradient by the plain numpy expressions, a new array each.

    The reference the workspace kernel must match bit for bit, in its
    order: activations lie features-major, (width, rows); layer 1 takes
    the inputs' transpose and adds its bias after the product; every later
    layer carries its bias in the product, as the last column of a packed
    weight block against a row of ones.
    """
    layout = arch.layout()
    rows = np.arange(len(labels))
    ones = np.ones((1, len(labels)))
    packed, hiddens, h = [None], [], x.T
    for i, (w_sl, b_sl, n_in, n_out) in enumerate(layout):
        weights, bias = w[w_sl].reshape(n_out, n_in), w[b_sl]
        if i == 0:
            a = weights @ h + bias[:, None]
        else:
            packed.append(np.hstack([weights, bias[:, None]]))
            h = np.vstack([h, ones])
            hiddens.append(h)
            a = packed[i] @ h
        if i < len(layout) - 1:
            h = tanh_sigmoid(a)
        else:
            scores = tanh_sigmoid(a) if arch.head == LOGISTIC_SOFTMAX else a
    shifted = scores - scores.max(axis=0)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=0))
    value = -float(np.sum(logp[labels, rows]))
    delta = np.exp(logp)
    delta[labels, rows] -= 1.0
    if arch.head == LOGISTIC_SOFTMAX:
        delta = delta * scores * (1.0 - scores)
    grad = np.empty_like(w)
    for i in range(len(layout) - 1, -1, -1):
        w_sl, b_sl, n_in, n_out = layout[i]
        if i == 0:
            grad[w_sl] = (delta @ x).ravel()
            grad[b_sl] = delta.sum(axis=1)
        else:
            g = delta @ hiddens[i - 1].T
            grad[w_sl] = g[:, :-1].ravel()
            grad[b_sl] = g[:, -1]
            h = hiddens[i - 1][:-1]
            delta = packed[i][:, :-1].T @ delta * h * (1.0 - h)
    return value, grad


def rowmajor_energy_gradient(arch, w, x, labels):
    """Energy and gradient by the row-major expressions the kernel once ran.

    A second oracle, in another order: activations lie (rows, width) and
    every bias is added after its product.  The kernel matches it to
    rounding, so a layout error shared by the kernel and
    plain_energy_gradient cannot pass unseen.
    """
    layout = arch.layout()
    hiddens, h = [x], x
    for i, (w_sl, b_sl, n_in, n_out) in enumerate(layout):
        a = h @ w[w_sl].reshape(n_out, n_in).T + w[b_sl]
        if i < len(layout) - 1:
            h = tanh_sigmoid(a)
            hiddens.append(h)
        else:
            scores = tanh_sigmoid(a) if arch.head == LOGISTIC_SOFTMAX else a
    shifted = scores - scores.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    rows = np.arange(len(labels))
    value = -float(np.sum(logp[rows, labels]))
    delta = np.exp(logp)
    delta[rows, labels] -= 1.0
    if arch.head == LOGISTIC_SOFTMAX:
        delta = delta * scores * (1.0 - scores)
    grad = np.empty_like(w)
    for i in range(len(layout) - 1, -1, -1):
        w_sl, b_sl, n_in, n_out = layout[i]
        grad[w_sl] = (delta.T @ hiddens[i]).ravel()
        grad[b_sl] = delta.sum(axis=0)
        if i > 0:
            back = delta @ w[w_sl].reshape(n_out, n_in)
            delta = back * hiddens[i] * (1.0 - hiddens[i])
    return value, grad


def allocating_verlet(w, p, g, value_grad, dt, n_steps):
    """velocity_verlet's arithmetic with a new array for every update.

    The reference the in-place loop must match bit for bit: the inner steps
    take value_grad.kick when the potential has one, the last step
    value_grad.  On a potential without a kick it is the loop as it was
    before kicks: value_grad at every step.
    """
    w = np.array(w, dtype=float)
    p = np.array(p, dtype=float)
    if not np.all(np.isfinite(g)):
        return w, p, np.nan, g, False
    kick = getattr(value_grad, "kick", None)
    for step in range(1, n_steps + 1):
        p -= 0.5 * dt * g
        w += dt * p
        if kick is not None and step < n_steps:
            e, g = np.nan, kick(w)
        else:
            e, g = value_grad(w)
        if not np.all(np.isfinite(g)):
            return w, p, e, g, False
        p -= 0.5 * dt * g
    return w, p, e, g, True


def count_network_calls(monkeypatch, *names):
    """Count the calls of the named network functions; returns the live counts.

    The closures look these functions up in the module's globals.
    """
    counts = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(network, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(network, name, counted(name))
    return counts


def uphill_steps(res, dt0):
    """rmin steps it did not keep: each one shrinks dt, a kept one grows it."""
    dts = [dt0] + [dt for _, _, dt in res.trace]
    return sum(b < a for a, b in zip(dts, dts[1:]))


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def traced_peak(f, *args):
    """Peak bytes that tracemalloc sees allocated during f(*args)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_kth_drift_out_of_the_box_makes_k_minus_1_calls(self, k):
        # free flight from the origin puts drift j at j dt p0, so a half-width
        # of (k - 1/2) dt max|p0| makes drift k the first one outside
        potential = Counting(flat)
        cfg = HmcConfig(1.0, 0.2, 8)
        p0 = np.random.default_rng(5).normal(size=3)
        box = PriorBox(np.full(3, 2 * (k - 0.5) * cfg.dt * np.max(np.abs(p0))))
        w, current = np.zeros(3), flat(np.zeros(3))
        out = hmc_trajectory(w, potential, cfg, np.random.default_rng(5), box, current)
        assert potential.calls == out.n_calls == k - 1
        assert out.at_wall and not out.accepted and out.log_accept == -np.inf
        assert out.w is w and out.energy is current[0] and out.grad is current[1]

    def test_a_box_no_trajectory_leaves_changes_no_bit(self):
        arch, x, y = small_problem(rows=20)
        _, value_grad = dataset_energy_fns(arch, x, y)
        w0 = init_standard(arch, np.random.default_rng(6))
        cfg = HmcConfig(1.0, 0.05, 6)
        runs = []
        for box in (prior_box(arch), None):
            outcomes, rng = [], np.random.default_rng(6)
            w, (e, g), n_acc = run_chain(w0, value_grad(w0), value_grad, cfg, rng,
                                         box, 30, outcomes.append)
            runs.append((w, e, g, n_acc, outcomes, rng.bit_generator.state))
        (w, e, g, n_acc, outcomes, state), free = runs
        assert 0 < n_acc == free[3]
        assert not any(o.at_wall for o in outcomes)
        np.testing.assert_array_equal(bits(w), bits(free[0]))
        np.testing.assert_array_equal(bits(g), bits(free[2]))
        assert e == free[1] and state == free[5]
        for a, b in zip(outcomes, free[4]):
            np.testing.assert_array_equal(bits(a.w), bits(b.w))
            assert a.n_calls == b.n_calls == 6

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
        # one whole call at the start; after it every step is a staged call,
        # a forward pass that keeps its blocks, and only a kept step runs
        # the backward pass
        arch, x, y = small_problem()
        counts = count_network_calls(monkeypatch, "energy", "energy_gradient",
                                     "_forward", "_backward")
        _, value_grad = dataset_energy_fns(arch, x, y)
        w0 = init_standard(arch, np.random.default_rng(0))
        res = rmin(w0, value_grad, cfg=RMinConfig(n_steps=20, energy_tol=-np.inf,
                                                  stall_window=1000))
        kept = res.n_steps - uphill_steps(res, 0.1)
        assert 0 < kept < res.n_steps == 20
        assert counts == {"energy": 0, "energy_gradient": 1,
                          "_forward": 1 + res.n_steps, "_backward": 1 + kept}

    def test_init_replica_starts_burn_in_from_rmin_s_pair(self):
        # rmin hands its gradient on, so the only calls are rmin's start,
        # its steps and the burn-in's trajectories
        arch = NetworkArch((3, 2, 2))
        cfg = RemdConfig(n_leapfrog=4, burn_in_traj=6)
        potential = Counting(quad)
        rep = init_replica(0, 1e-3, potential, None, 7, arch, cfg)
        assert rep.start_steps > 0
        assert potential.calls == 1 + rep.start_steps + 6 * 4
        # and it is the pair value_grad gives there, bit for bit
        start = rmin(init_standard(arch, np.random.default_rng(7)), quad,
                     cfg=RMinConfig(energy_tol=START_TOL_PER_T * 1e-3))
        e, g = quad(start.w)
        assert bits(start.energy) == bits(e)
        np.testing.assert_array_equal(bits(start.grad), bits(g))


class TestStagedStep:
    """rmin's steps take the energy first and finish only the kept ones."""

    @pytest.mark.parametrize("box_scale", [None, 0.1], ids=["unboxed", "boxed"])
    def test_rmin_bits_do_not_depend_on_staged(self, monkeypatch, box_scale):
        # an M3-shaped net from a standard start: about a quarter of its
        # steps go uphill, and in a box a tenth of the prior's width many
        # more stop at a wall
        arch = get_arch("M3")
        _, x, y = small_problem(rows=50, sizes=arch.layer_sizes)
        _, value_grad = dataset_energy_fns(arch, x, y)
        box = None if box_scale is None else PriorBox(box_scale * prior_box(arch).sigma)
        w0 = init_standard(arch, np.random.default_rng(0))
        cfg = RMinConfig(n_steps=120)
        counts = count_network_calls(monkeypatch, "_forward", "_backward")
        staged = rmin(w0, value_grad, cfg, box=box)
        forwards, backwards = counts["_forward"], counts["_backward"]
        whole = rmin(w0, lambda w: value_grad(w), cfg, box=box)

        rejected = uphill_steps(staged, cfg.dt0)
        walls = 1 + staged.n_steps - forwards
        assert staged.n_steps == whole.n_steps == 120
        assert rejected - walls > 0
        assert (walls > 0) == (box is not None)
        assert backwards == 1 + staged.n_steps - rejected
        np.testing.assert_array_equal(bits(staged.w), bits(whole.w))
        np.testing.assert_array_equal(bits(staged.grad), bits(whole.grad))
        assert bits(staged.energy) == bits(whole.energy)
        assert [tuple(map(bits, t)) for t in staged.trace] == \
            [tuple(map(bits, t)) for t in whole.trace]
        # the gradient rmin hands on is value_grad's at its w
        np.testing.assert_array_equal(bits(staged.grad), bits(value_grad(staged.w)[1]))

    @pytest.mark.parametrize("e_end,kept", [(0.5, True), (2.0, False), (np.nan, False)])
    def test_below_finishes_only_a_kept_end_point(self, e_end, kept):
        finished = []

        def potential(w):
            return e_end, np.ones_like(w)

        def staged(w):
            def finish():
                finished.append(w.copy())
                return np.ones_like(w)
            return e_end, finish

        potential.staged = staged
        w, p, g = np.zeros(2), np.ones(2), np.zeros(2)
        out = velocity_verlet(w, p, g, potential, 0.1, 1, below=1.0)
        assert out[4] is kept and len(finished) == kept
        assert bits(out[2]) == bits(e_end)
        np.testing.assert_array_equal(out[0], [0.1, 0.1])
        np.testing.assert_array_equal(out[3], np.ones(2) if kept else g)
        # without below the same potential makes one whole call
        assert velocity_verlet(w, p, g, potential, 0.1, 1)[4]


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
        old, new = tanh_sigmoid(a), network._sigmoid(a.copy())
        nan = np.isnan(old)
        np.testing.assert_array_equal(np.isnan(new), nan)
        np.testing.assert_array_equal(old[~nan].view(np.uint64),
                                      new[~nan].view(np.uint64))

    @pytest.mark.parametrize("scale", [0.1, 3.0, 50.0, 1e3])
    def test_random_blocks_bit_equal(self, scale):
        a = np.random.default_rng(int(scale * 10)).normal(scale=scale, size=(500, 40))
        np.testing.assert_array_equal(tanh_sigmoid(a).view(np.uint64),
                                      network._sigmoid(a.copy()).view(np.uint64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_is_zero_or_normal(self, dtype):
        # 1 + tanh(a/2) is 0 or at least the gap below 1, so no subnormal
        a = np.concatenate([-np.logspace(-3, 4, 2000), np.logspace(-3, 4, 2000)])
        s = network._sigmoid(a.astype(dtype))
        tiny = np.finfo(dtype).tiny
        assert s.dtype == dtype
        assert np.all((s == 0) | (s >= tiny)) and np.all((s >= 0) & (s <= 1))
        assert np.all(s[a < 0] <= 0.5) and np.all(s[a > 0] >= 0.5)


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

    @pytest.mark.parametrize("rows", [1, 7, 500])
    @pytest.mark.parametrize("sizes", [(256, 40, 10), (256, 40, 40, 40, 10)],
                             ids=["M1", "M3"])
    @pytest.mark.parametrize("head", ["linear-softmax", LOGISTIC_SOFTMAX])
    def test_bit_equal_to_plain_expressions(self, head, sizes, rows):
        # the closures' shared workspace, a throwaway one and the plain
        # expressions all give the same bits, whatever ran before
        arch, x, y = small_problem(head, rows, sizes=sizes)
        energy_fn, value_grad = dataset_energy_fns(arch, x, y)
        rng = np.random.default_rng(4)
        for scale in (0.5, 5.0, 50.0):
            w = rng.normal(scale=scale, size=arch.n_params)
            e, g = value_grad(w)
            plain_e, plain_g = plain_energy_gradient(arch, w, x, y)
            assert bits(e) == bits(energy(arch, w, x, y)) == bits(energy_fn(w)) \
                == bits(plain_e)
            np.testing.assert_array_equal(bits(g), bits(energy_gradient(arch, w, x, y)[1]))
            np.testing.assert_array_equal(bits(g), bits(plain_g))

    @pytest.mark.parametrize("rows", [1, 7, 500])
    @pytest.mark.parametrize("sizes", [(256, 40, 10), (256, 40, 40, 40, 10)],
                             ids=["M1", "M3"])
    @pytest.mark.parametrize("head", ["linear-softmax", LOGISTIC_SOFTMAX])
    def test_close_to_rowmajor_expressions(self, head, sizes, rows):
        # the gradient's error is measured against its largest entry.  The
        # scales stop at 5: at 50 a logistic head saturates, and the factor
        # 1 - s of its output delta turns the last-bit differences of the
        # two orders' scores into relative gradient differences of 1e-12
        arch, x, y = small_problem(head, rows, sizes=sizes)
        _, value_grad = dataset_energy_fns(arch, x, y)
        rng = np.random.default_rng(4)
        for scale in (0.5, 5.0):
            w = rng.normal(scale=scale, size=arch.n_params)
            e, g = value_grad(w)
            old_e, old_g = rowmajor_energy_gradient(arch, w, x, y)
            assert abs(e - old_e) <= 1e-13 * abs(old_e)
            assert np.max(np.abs(g - old_g)) <= 1e-13 * np.max(np.abs(old_g))

    def test_returned_gradient_outlives_later_calls(self):
        # chains keep g_old on reject and swaps trade gradients, so no call
        # may write into a gradient an earlier call returned
        arch, x, y = small_problem(rows=50, sizes=(256, 40, 10))
        energy_fn, value_grad = dataset_energy_fns(arch, x, y)
        rng = np.random.default_rng(5)
        w1, w2 = rng.normal(size=(2, arch.n_params))
        e1, g1 = value_grad(w1)
        kept = g1.copy()
        e2, g2 = value_grad(w2)
        energy_fn(w2)
        energy_fn(w1)
        assert not np.shares_memory(g1, g2)
        np.testing.assert_array_equal(bits(g1), bits(kept))
        assert value_grad(w1)[0] == e1

    def test_bad_labels_raise_when_the_closures_are_built(self):
        arch, x, y = small_problem()
        with pytest.raises(ShapeMismatch):
            dataset_energy_fns(arch, x, y[:-1])
        with pytest.raises(ShapeMismatch):
            dataset_energy_fns(arch, x, np.where(y == 0, 3, y))
        with pytest.raises(ShapeMismatch):
            energy(arch, np.zeros(arch.n_params), x, -np.ones_like(y))

    def test_layout_is_built_once_and_keeps_equality(self):
        a, b = NetworkArch((256, 40, 10)), NetworkArch((256, 40, 10))
        assert a.layout() is a.layout()
        assert a == b and hash(a) == hash(b)
        assert a != NetworkArch((256, 40, 10), head=LOGISTIC_SOFTMAX)
        assert a.n_params == 256 * 40 + 40 + 40 * 10 + 10


class TestAllocations:
    """What one warmed network call allocates, counted by tracemalloc."""

    @pytest.fixture(params=["M1", "M3"])
    def closures(self, request):
        arch = get_arch(request.param)
        _, x, y = small_problem(rows=500, sizes=arch.layer_sizes)
        energy_fn, value_grad = dataset_energy_fns(arch, x, y)
        w = init_standard(arch, np.random.default_rng(6))
        value_grad(w)           # the first calls allocate the workspace
        energy_fn(w)
        block = 500 * arch.layer_sizes[-1] * 8     # one rows x classes array
        return energy_fn, value_grad, w, block

    def test_value_grad_allocates_its_gradient_and_at_most_one_block(self, closures):
        _, value_grad, w, block = closures
        assert traced_peak(value_grad, w) <= w.nbytes + block

    def test_energy_fn_allocates_at_most_two_blocks(self, closures):
        energy_fn, _, w, block = closures
        assert traced_peak(energy_fn, w) <= 2 * block

    def test_kick_allocates_its_gradient_alone(self, closures):
        # the first kick builds the kernel's buffers; after that the float64
        # gradient it returns is the one array a kick allocates (the slack
        # covers the Python objects of one call: views, floats)
        _, value_grad, w, _ = closures
        value_grad.kick(w)
        assert traced_peak(value_grad.kick, w) <= w.nbytes + 4096

    def test_an_energy_only_closure_allocates_no_gradient_buffer(self, monkeypatch):
        built = []

        class Recorded(network.Workspace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        # the closures build their workspaces through the module's globals
        monkeypatch.setattr(network, "Workspace", Recorded)
        arch = get_arch("M3")
        _, x, y = small_problem(rows=200, sizes=arch.layer_sizes)
        energy_fn, value_grad = dataset_energy_fns(arch, x, y)
        rng = np.random.default_rng(6)
        for _ in range(3):
            energy_fn(init_standard(arch, rng))
        (work,) = built
        assert work.kept is None and work.grad is None
        value_grad(init_standard(arch, rng))
        assert len(work.kept) == len(arch.layout()) and work.grad is not None


class TestInPlaceUpdates:
    @pytest.mark.parametrize("n_steps", [1, 6])
    @pytest.mark.parametrize("dt", [0.01, 0.3])
    def test_verlet_bit_equal_to_allocating_loop(self, dt, n_steps):
        arch, x, y = small_problem(rows=20)
        _, value_grad = dataset_energy_fns(arch, x, y)
        rng = np.random.default_rng(7)
        w, p = rng.normal(size=(2, arch.n_params))
        g = value_grad(w)[1]
        new = velocity_verlet(w, p, g, value_grad, dt, n_steps)
        old = allocating_verlet(w, p, g, value_grad, dt, n_steps)
        assert new[4] and old[4]
        for a, b in zip(new[:4], old[:4]):
            np.testing.assert_array_equal(bits(a), bits(b))

    @pytest.mark.parametrize("n_steps", [1, 6])
    def test_potential_without_kick_keeps_the_loop_bit_for_bit(
            self, n_steps, monkeypatch):
        # the network closure stripped of its kick: every step calls
        # value_grad, as before kicks, and the float32 kernel never runs
        arch, x, y = small_problem(rows=20)
        _, value_grad = dataset_energy_fns(arch, x, y)
        calls, kicks = [], []
        monkeypatch.setattr(network, "kick", lambda *args: kicks.append(1))

        def plain(w):
            calls.append(1)
            return value_grad(w)

        rng = np.random.default_rng(7)
        w, p = rng.normal(size=(2, arch.n_params))
        g = value_grad(w)[1]
        new = velocity_verlet(w, p, g, plain, 0.3, n_steps)
        assert len(calls) == n_steps
        old = allocating_verlet(w, p, g, plain, 0.3, n_steps)
        assert new[4] and old[4]
        for a, b in zip(new[:4], old[:4]):
            np.testing.assert_array_equal(bits(a), bits(b))
        assert kicks == []

    def test_kicked_steps_make_l_minus_1_kicks_and_one_value_grad_call(self):
        arch, x, y = small_problem(rows=20)
        _, value_grad = dataset_energy_fns(arch, x, y)
        w0 = init_standard(arch, np.random.default_rng(2))
        potential = Counting(value_grad)
        kicks = potential.kick = Counting(value_grad.kick)
        out = hmc_trajectory(w0, potential, HmcConfig(1.0, 0.01, 6),
                             np.random.default_rng(2), prior_box(arch),
                             value_grad(w0))
        assert (potential.calls, kicks.calls) == (1, 5)
        assert (out.n_calls, out.n_kicks) == (6, 5)
        assert out.accepted and out.energy == value_grad(out.w)[0]

    @pytest.mark.parametrize("bad_call", [0, 1, 3])
    def test_verlet_nonfinite_exits_match(self, bad_call):
        # bad_call 0: the starting gradient is already non-finite
        calls = []

        def value_grad(w):
            calls.append(1)
            g = np.sin(w) + w
            if len(calls) == bad_call:
                g[1] = np.inf
            return float(np.dot(w, w)), g

        w, p = np.array([0.3, -1.2, 2.0]), np.array([0.5, 0.1, -0.7])
        g0 = np.array([0.1, np.nan, 0.2]) if bad_call == 0 else value_grad(w)[1]
        outs = []
        for verlet in (velocity_verlet, allocating_verlet):
            calls.clear()
            outs.append(verlet(w, p, g0, value_grad, 0.2, 5))
        new, old = outs
        assert new[4] is old[4] is False
        for a, b in zip(new[:4], old[:4]):
            np.testing.assert_array_equal(bits(a), bits(b))

    @pytest.mark.parametrize("lam", [0.0, 0.37, 1.0])
    def test_bridge_gradient_bit_equal_to_the_formula(self, lam):
        arch, x, y = small_problem(rows=20)
        _, value_grad = dataset_energy_fns(arch, x, y)
        rng = np.random.default_rng(8)
        w0, w = rng.normal(size=(2, arch.n_params))
        stiff = StiffnessDiag(w0, rng.uniform(0.5, 2.0, arch.n_params), 1.5)
        e, g = bridge_energy_fns(value_grad, stiff, lam)(w)
        kd = stiff.k * (w - w0)
        expect = kd if lam == 1.0 else (1.0 - lam) * value_grad(w)[1] + lam * kd
        np.testing.assert_array_equal(bits(g), bits(expect))


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


class TestNoCallOutsideTheBox:
    """No sampler evaluates the potential at a point outside the prior box.

    The box is tight enough that many trajectories drift out of it; each
    must stop at that drift, before the point is evaluated.
    """

    BOX = PriorBox(np.full(3, 2.0))
    CFG = HmcConfig(1.0, 0.4, 10)

    def start(self):
        w = np.array([0.2, -0.1, 0.3])
        return w, quad(w)

    def test_run_chain(self):
        outcomes = []
        run_chain(*self.start(), box_guarded(quad, self.BOX), self.CFG,
                  np.random.default_rng(0), self.BOX, 200, outcomes.append)
        assert 20 < sum(o.at_wall for o in outcomes) < 180

    def test_adapt_step_size(self):
        potential = Counting(box_guarded(quad, self.BOX))
        adapt_step_size(*self.start(), potential, self.CFG,
                        np.random.default_rng(1), self.BOX, 100)
        assert potential.calls < 100 * self.CFG.n_steps    # some stopped early

    def test_run_remd_counts_each_rung_s_calls_and_wall_stops(self):
        potential = Counting(box_guarded(quad, self.BOX))
        w, (e, g) = self.start()
        replicas = [Replica(i, T, w.copy(), e, 0.4, np.random.default_rng(i), grad=g)
                    for i, T in enumerate([0.5, 2.0])]
        cfg = RemdConfig(n_traj=3, n_leapfrog=10, sweeps=20)
        run_remd(replicas, potential, self.BOX, cfg, swap_seed=2)
        assert potential.calls == sum(r.grad_calls for r in replicas)
        n_traj, n_steps = cfg.n_traj * cfg.sweeps, cfg.n_leapfrog
        for r in replicas:
            # a wall stop makes at most L - 1 calls, any other trajectory L
            assert 0 < r.wall_stops < n_traj
            assert ((n_traj - r.wall_stops) * n_steps <= r.grad_calls
                    <= n_traj * n_steps - r.wall_stops)

    def test_run_ti(self):
        stiff = StiffnessDiag(np.zeros(3), np.ones(3), 0.0)
        cfg = TiConfig(n_bridge=4, burn_in_traj=10, sample_traj=20, n_leapfrog=10,
                       retune_every_lambdas=3, dt0=0.4)
        guarded = box_guarded(quad, self.BOX)
        result = run_ti(lambda w: guarded(w)[0], guarded, stiff, self.BOX, cfg,
                        np.random.default_rng(3))
        assert np.all(result.grad_calls <= cfg.sample_traj * cfg.n_leapfrog)
        assert np.sum(result.grad_calls) < 6 * cfg.sample_traj * cfg.n_leapfrog
        assert np.all((0 <= result.accept_rate) & (result.accept_rate <= 1))
