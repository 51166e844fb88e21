import math

import numpy as np
import pytest

from temperhmc.errors import ShapeMismatch
from temperhmc.minimize import rmin
from temperhmc.network import (LINEAR_SOFTMAX, LOGISTIC_SOFTMAX, NetworkArch,
                               Workspace, dataset_energy_fns, energy,
                               energy_gradient, forward, get_arch,
                               init_standard, kick, load_params,
                               prior_box, save_params)


def oracle_forward(arch, w, x):
    """Loop-based reference forward pass, independent of the vectorised path."""
    layout = arch.layout()
    h = list(x)
    for li, (w_sl, b_sl, n_in, n_out) in enumerate(layout):
        wm = w[w_sl].reshape(n_out, n_in)
        a = [sum(wm[j, i] * h[i] for i in range(n_in)) + w[b_sl][j]
             for j in range(n_out)]
        if li < len(layout) - 1:
            h = [1.0 / (1.0 + math.exp(-v)) for v in a]
        else:
            if arch.head == LOGISTIC_SOFTMAX:
                a = [1.0 / (1.0 + math.exp(-v)) for v in a]
            exps = [math.exp(v - max(a)) for v in a]
            return [e / sum(exps) for e in exps]


class TestForward:
    def test_zero_params_linear_head_uniform(self, tiny_arch):
        w = np.zeros(tiny_arch.n_params)
        p = forward(tiny_arch, w, np.ones(2))
        np.testing.assert_allclose(p, 1 / 3, atol=1e-15)

    def test_zero_params_logistic_head_uniform(self):
        arch = NetworkArch((2, 4, 3), head=LOGISTIC_SOFTMAX)
        p = forward(arch, np.zeros(arch.n_params), np.array([0.3, -2.0]))
        np.testing.assert_allclose(p, 1 / 3, atol=1e-15)

    @pytest.mark.parametrize("head", ["linear-softmax", "logistic-softmax"])
    def test_matches_loop_oracle(self, head, rng):
        arch = NetworkArch((2, 4, 3), head=head)
        for _ in range(5):
            w = rng.normal(scale=0.8, size=arch.n_params)
            x = rng.normal(size=2)
            np.testing.assert_allclose(forward(arch, w, x),
                                       oracle_forward(arch, w, x), atol=1e-12)

    def test_probabilities_normalised(self, tiny_arch, rng):
        w = rng.normal(scale=3.0, size=tiny_arch.n_params)
        x = rng.normal(size=(40, 2))
        p = forward(tiny_arch, w, x)
        assert np.all(p > 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_shape_mismatch(self, tiny_arch):
        with pytest.raises(ShapeMismatch):
            forward(tiny_arch, np.zeros(5), np.ones(2))
        with pytest.raises(ShapeMismatch):
            forward(tiny_arch, np.zeros(tiny_arch.n_params), np.ones(3))


class TestEnergy:
    def test_uniform_prediction_is_n_log_k(self, tiny_arch, rng):
        x = rng.normal(size=(17, 2))
        labels = rng.integers(0, 3, 17)
        e = energy(tiny_arch, np.zeros(tiny_arch.n_params), x, labels)
        assert e == pytest.approx(17 * math.log(3), rel=1e-14)

    def test_uninformed_classifier_level(self):
        arch = get_arch("M1")
        rng = np.random.default_rng(0)
        x = rng.normal(size=(25, 256))
        labels = rng.integers(0, 10, 25)
        e = energy(arch, np.zeros(arch.n_params), x, labels)
        assert e == pytest.approx(25 * math.log(10), rel=1e-13)

    def test_logistic_head_per_example_floor(self, rng):
        # logistic pre-softmax values live in (0, 1), capping the best
        # attainable per-example likelihood at e/(e + 9)
        arch = get_arch("M3star")
        floor = math.log(1 + 9 * math.exp(-1))
        x = rng.normal(size=(8, 256))
        labels = rng.integers(0, 10, 8)
        for scale in (0.1, 5.0):
            w = rng.normal(scale=scale, size=arch.n_params)
            e = energy(arch, w, x, labels)
            assert e / 8 >= floor - 1e-12

    def test_additive_over_disjoint_sets(self, tiny_arch, rng):
        w = rng.normal(size=tiny_arch.n_params)
        x = rng.normal(size=(30, 2))
        labels = rng.integers(0, 3, 30)
        e_all = energy(tiny_arch, w, x, labels)
        e_parts = energy(tiny_arch, w, x[:11], labels[:11]) + \
            energy(tiny_arch, w, x[11:], labels[11:])
        assert e_all == pytest.approx(e_parts, rel=1e-12)


def fd_gradient(arch, w, x, labels, step=1e-5):
    g = np.zeros_like(w)
    for i in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[i] += step
        wm[i] -= step
        g[i] = (energy(arch, wp, x, labels) - energy(arch, wm, x, labels)) / (2 * step)
    return g


class TestGradient:
    @pytest.mark.parametrize("head", ["linear-softmax", "logistic-softmax"])
    def test_matches_finite_differences(self, head, rng):
        arch = NetworkArch((2, 4, 3), head=head)
        w = rng.normal(scale=0.7, size=arch.n_params)
        x = rng.normal(size=(10, 2))
        labels = rng.integers(0, 3, 10)
        _, g = energy_gradient(arch, w, x, labels)
        fd = fd_gradient(arch, w, x, labels)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(g - fd) / denom) < 1e-5

    def test_output_bias_gradient_balanced_classes(self):
        # zero params + equal class counts: each output bias gradient is
        # n * (1/10) - n/10 = 0
        arch = get_arch("M1")
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 256))
        labels = np.repeat(np.arange(10), 4)
        _, g = energy_gradient(arch, np.zeros(arch.n_params), x, labels)
        _, b_sl, _, _ = arch.layout()[-1]
        np.testing.assert_allclose(g[b_sl], 0.0, atol=1e-10)

    def test_gradient_additivity(self, tiny_arch, rng):
        w = rng.normal(size=tiny_arch.n_params)
        x = rng.normal(size=(12, 2))
        labels = rng.integers(0, 3, 12)
        _, g_all = energy_gradient(tiny_arch, w, x, labels)
        _, g1 = energy_gradient(tiny_arch, w, x[:5], labels[:5])
        _, g2 = energy_gradient(tiny_arch, w, x[5:], labels[5:])
        np.testing.assert_allclose(g_all, g1 + g2, rtol=1e-12, atol=1e-12)


def relative_error(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def workspace_buffers(work):
    """Every float array a Workspace holds, its lists' entries included."""
    arrays = []
    for value in vars(work).values():
        arrays += value if isinstance(value, list) else [value]
    return [a for a in arrays if isinstance(a, np.ndarray) and a is not work.picks]


@pytest.mark.parametrize("sizes", [(256, 40, 10), (256, 40, 40, 40, 10)],
                         ids=["M1", "M3"])
def test_a_float64_workspace_holds_no_copy_of_the_inputs(d500, sizes):
    # the float64 kernel reads the caller's rows through their transpose:
    # every workspace array as large as a quarter of the inputs is a view
    # of them
    arch = NetworkArch(sizes)
    train, _ = d500
    x, y = train.inputs, train.labels
    work = Workspace(arch, x, y)
    w = init_standard(arch, np.random.default_rng(6))
    energy_gradient(arch, w, x, y, work)
    energy(arch, w, x, y, work)
    arrays = workspace_buffers(work)
    assert sum(np.shares_memory(a, x) for a in arrays) == 2
    for a in arrays:
        assert np.shares_memory(a, x) or a.nbytes < x.nbytes // 4


class TestKick:
    """The float32 gradient of the samplers' inner Verlet steps."""

    SIZES = [(256, 40, 10), (256, 40, 40, 40, 10)]

    @pytest.mark.parametrize("head", [LINEAR_SOFTMAX, LOGISTIC_SOFTMAX])
    @pytest.mark.parametrize("sizes", SIZES, ids=["M1", "M3"])
    def test_relative_error_along_an_rmin_path(self, d50, sizes, head):
        # a linear head's path runs from init_standard down to E < 1e-10,
        # where p_y - 1 would round to 0 in float32 (the labelled column is
        # formed as minus the other classes' sum).  A logistic head's path
        # ends at a stationary point above its energy floor, where the
        # gradient is a cancelling sum that float32 resolves only to about
        # 1e-6 of the starting gradient: there the error is measured
        # against a tenth of that.
        arch = NetworkArch(sizes, head=head)
        train, _ = d50
        _, value_grad = dataset_energy_fns(arch, train.inputs, train.labels)
        path = []

        def recording(w):
            e, g = value_grad(w)
            path.append((e, w.copy(), g))
            return e, g

        rmin(init_standard(arch, np.random.default_rng(0)), recording)
        assert len(path) >= 10
        floor = 0.0
        if head == LINEAR_SOFTMAX:
            assert path[-1][0] < 1e-10
        else:
            floor = 0.1 * np.linalg.norm(path[0][2])
        for _, w, g in path:
            error = np.linalg.norm(value_grad.kick(w) - g)
            assert error <= 1e-4 * max(np.linalg.norm(g), floor)

    @pytest.mark.parametrize("head", [LINEAR_SOFTMAX, LOGISTIC_SOFTMAX])
    @pytest.mark.parametrize("sizes", SIZES, ids=["M1", "M3"])
    def test_relative_error_at_prior_scale(self, d50, sizes, head):
        arch = NetworkArch(sizes, head=head)
        train, _ = d50
        _, value_grad = dataset_energy_fns(arch, train.inputs, train.labels)
        rng = np.random.default_rng(1)
        half = prior_box(arch).half_width
        for w in (rng.uniform(-half, half), rng.normal(scale=5.0, size=arch.n_params)):
            assert relative_error(value_grad.kick(w), value_grad(w)[1]) <= 1e-4

    @pytest.mark.parametrize("head", [LINEAR_SOFTMAX, LOGISTIC_SOFTMAX])
    @pytest.mark.parametrize("sizes", SIZES, ids=["M1", "M3"])
    def test_no_subnormal_left_in_the_workspace(self, d500, sizes, head):
        # at w ~ N(0, 5^2) float32 exponentials and the products of the
        # output delta go subnormal unless floored and flushed, and
        # subnormals slow float32 arithmetic several-fold
        arch = NetworkArch(sizes, head=head)
        train, _ = d500
        work = Workspace(arch, train.inputs, train.labels, np.float32)
        tiny = np.finfo(np.float32).tiny
        for seed in range(5):
            w = np.random.default_rng(seed).normal(scale=5.0, size=arch.n_params)
            assert kick(arch, w, train.inputs, train.labels, work).dtype == np.float64
            blocks = workspace_buffers(work)
            assert len(blocks) >= 2 * len(arch.layer_sizes)
            assert all(b.dtype == np.float32 for b in blocks)
            for b in blocks:
                assert not np.any((b != 0) & (np.abs(b) < tiny))

    @pytest.mark.parametrize("arch,at_prior", [
        *(pytest.param(NetworkArch(sizes, head=head), False, id=f"{name}-{head}")
          for sizes, name in zip(SIZES, ["M1", "M3"])
          for head in [LINEAR_SOFTMAX, LOGISTIC_SOFTMAX]),
        pytest.param(get_arch("M3star"), True, id="M3star-prior")])
    def test_kick_is_a_fixed_function_of_w(self, d50, arch, at_prior):
        # the palindrome argument of hmc.py needs the kick at a point to be
        # the same whatever the closure computed before: no state survives
        # a call, so kick(w1), kick(w2), kick(w1) gives w1's bits twice,
        # and a fresh closure gives them too.  That is all exactness needs:
        # at an M3star prior-box point the kick is 1e-3 to 1e-1 off the
        # float64 gradient, so there it is held to finite, repeatable bits
        train, _ = d50
        _, value_grad = dataset_energy_fns(arch, train.inputs, train.labels)
        rng = np.random.default_rng(4)
        half = prior_box(arch).half_width
        w1, w2 = init_standard(arch, rng), rng.uniform(-half, half)
        if at_prior:
            w1, w2 = w2, w1
        first = value_grad.kick(w1)
        assert np.all(np.isfinite(first))
        value_grad.kick(w2)
        value_grad(w2)
        again = value_grad.kick(w1)
        fresh = dataset_energy_fns(arch, train.inputs, train.labels)[1].kick(w1)
        for g in (again, fresh):
            np.testing.assert_array_equal(g.view(np.uint64), first.view(np.uint64))
        # nor does a kick move the bits of the float64 call that follows it
        e, g = value_grad(w1)
        alone_e, alone_g = energy_gradient(arch, w1, train.inputs, train.labels)
        assert e == alone_e
        np.testing.assert_array_equal(g.view(np.uint64), alone_g.view(np.uint64))
        if not at_prior:
            assert relative_error(first, g) <= 1e-4


@pytest.mark.parametrize("head", [LINEAR_SOFTMAX, LOGISTIC_SOFTMAX])
def test_no_subnormal_in_float64_activations_at_m3star_prior_draws(d500, head):
    # a draw from M3star's 1000x box drives hundreds of activations per
    # layer below -708, where exp-based sigmoids return subnormals, and a
    # product over such a block runs many times slower
    arch = NetworkArch(get_arch("M3star").layer_sizes, head=head,
                       prior_width_factor=1000.0)
    train, _ = d500
    work = Workspace(arch, train.inputs, train.labels)
    half = prior_box(arch).half_width
    rng = np.random.default_rng(8)
    tiny = np.finfo(np.float64).tiny
    for _ in range(3):
        e, g = energy_gradient(arch, rng.uniform(-half, half), train.inputs,
                               train.labels, work)
        assert np.isfinite(e) and np.all(np.isfinite(g))
        assert len(work.kept) == len(arch.layout())
        for block in work.kept:
            assert not np.any((block != 0) & (np.abs(block) < tiny))


class TestPrior:
    def test_param_counts(self):
        assert get_arch("M1").n_params == 10690
        assert get_arch("M3").n_params == 13970
        assert get_arch("M3star").n_params == 13970

    def test_sigma_first_hidden_layer(self):
        box = prior_box(get_arch("M3"))
        assert box.sigma[0] == pytest.approx(100 / math.sqrt(257), rel=1e-14)

    def test_log_volume_published_values(self):
        # closed-form cross-check: 10280 weights at fan-in 257, the other
        # 3690 at fan-in 41 for the deep model
        deep = prior_box(get_arch("M3")).log_volume
        expect = 10280 * math.log(100 / math.sqrt(257)) + \
            3690 * math.log(100 / math.sqrt(41))
        assert deep == pytest.approx(expect, abs=1e-6)
        assert abs(deep - 28960.0) < 0.5
        shallow = prior_box(get_arch("M1")).log_volume
        assert abs(shallow - 19945.2) < 0.6


class TestPriorBox:
    """PriorBox.inside, the one membership rule of the prior box."""

    BOX = prior_box(get_arch("M1"))

    def test_boundary_is_strict(self):
        half = self.BOX.half_width
        w = np.zeros_like(half)
        assert self.BOX.inside(w).all()
        for wall in (half[7], -half[7]):
            w[7] = wall
            assert np.array_equal(np.flatnonzero(~self.BOX.inside(w)), [7])
        for near in (np.nextafter(half[7], 0), -np.nextafter(half[7], 0)):
            w[7] = near
            assert self.BOX.inside(w).all()
        rng = np.random.default_rng(11)
        w = rng.uniform(-1, 1, len(half)) * 0.49 * self.BOX.sigma
        assert self.BOX.inside(w).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_coordinate_is_outside(self, bad):
        w = np.zeros_like(self.BOX.sigma)
        w[11] = bad
        assert np.array_equal(np.flatnonzero(~self.BOX.inside(w)), [11])

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_a_w_of_the_wrong_length_raises(self, delta):
        with pytest.raises(ShapeMismatch):
            self.BOX.inside(np.zeros(len(self.BOX.sigma) + delta))


class TestInit:
    def test_support_and_mean(self):
        arch = NetworkArch((2, 4, 3))
        half = 1.0 / np.sqrt(arch.fan_in())
        draws = np.stack([init_standard(arch, s) for s in range(2000)])
        assert np.all(np.abs(draws) <= half)
        se = half / np.sqrt(3 * len(draws))
        assert np.all(np.abs(draws.mean(axis=0)) < 3 * se + 1e-12)

    def test_deterministic_per_seed(self):
        arch = get_arch("M1")
        np.testing.assert_array_equal(init_standard(arch, 42),
                                      init_standard(arch, 42))
        assert not np.array_equal(init_standard(arch, 42), init_standard(arch, 43))


class TestSerialization:
    def test_roundtrip(self, tmp_path, rng):
        arch = get_arch("M3star")
        w = rng.normal(size=arch.n_params)
        path = tmp_path / "w.params"
        save_params(path, arch, w)
        arch2, w2 = load_params(path)
        assert arch2 == arch
        np.testing.assert_array_equal(w, w2)

    def test_failed_write_keeps_earlier_file(self, tmp_path, rng, fail_writes):
        import temperhmc.network
        arch = NetworkArch((3, 4, 2))
        w = rng.normal(size=arch.n_params)
        path = tmp_path / "w.params"
        save_params(path, arch, w)
        before = path.read_bytes()
        fail_writes(temperhmc.network)
        with pytest.raises(OSError):
            save_params(path, arch, w + 1.0)
        assert path.read_bytes() == before
        np.testing.assert_array_equal(load_params(path)[1], w)
