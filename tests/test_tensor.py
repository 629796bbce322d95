"""Tensor core: elementwise ops, convolutions, normalization, sampling,
backward semantics, Adam, and spectral normalization."""

import math
import tracemalloc

import numpy as np
import pytest

from warpsynth import tensor as T
from warpsynth.tensor import Tensor

from warpsynth import oracles


def traced(fn):
    """Run ``fn`` under tracemalloc; return its result and the (held, peak)
    bytes allocated during the call."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def assert_each_gradient_alone(op, arrays):
    """Backward passes compute only the gradients some input needs: with one
    input requiring grad, it alone gets a gradient, and that gradient is
    exactly what it is when every input requires grad."""

    def grads(needed):
        ts = [Tensor(a, requires_grad=i in needed) for i, a in enumerate(arrays)]
        T.mean(op(*ts)).backward()
        return [t.grad for t in ts]

    every = grads(set(range(len(arrays))))
    for i in range(len(arrays)):
        alone = grads({i})
        assert np.array_equal(alone[i], every[i])
        assert all(g is None for j, g in enumerate(alone) if j != i)


class TestElementwise:
    def test_mean(self):
        assert T.mean(Tensor([1.0, 2.0, 3.0, 6.0])).item() == 3.0

    def test_abs_value_and_gradient(self):
        x = Tensor(np.array(-2.5), requires_grad=True)
        y = T.absolute(x)
        assert y.item() == 2.5
        y.backward()
        assert x.grad == -1.0

    def test_mean_abs_matches_finite_differences(self, rng):
        b = Tensor(rng.normal(size=(4, 4)))
        x = Tensor(rng.normal(size=(4, 4)) + 0.5, requires_grad=True)
        err = T.grad_check(lambda z: T.mean(T.absolute(z - b)), x)
        assert err < 1e-6

    def test_broadcast_limited(self, rng):
        a = Tensor(rng.normal(size=(3, 3)))
        with pytest.raises(ValueError):
            T.add(a, Tensor(rng.normal(size=(3, 2))))
        # scalar broadcasting works
        out = T.add(a, Tensor(2.0))
        assert np.allclose(out.data, a.data + 2)

    def test_scalar_gradient_sums(self):
        s = Tensor(np.array(3.0), requires_grad=True)
        x = Tensor(np.ones((2, 2)))
        loss = T.tsum(T.mul(s, x))
        loss.backward()
        assert s.grad == 4.0

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
    def test_arithmetic_gradient_of_each_side_alone_matches_both(self, rng, op):
        pert = Tensor(rng.normal(size=(3, 4)))
        tensor, other = rng.normal(size=(3, 4)), rng.uniform(0.5, 2.0, size=(3, 4))
        for arrays in ((tensor, other), (tensor, other[0, 0]), (other[0, 0], tensor)):
            assert_each_gradient_alone(lambda a, b: op(a, b) * pert, arrays)

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
    def test_arithmetic_computes_no_gradient_for_a_constant_side(self, op):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        for out in (op(x, Tensor(np.full((2, 2), 2.0))), op(Tensor(2.0), x)):
            assert [p is x for p, _ in out._grad_fn(np.ones((2, 2)))] == [True]


class TestConv:
    def test_constant_image_ones_kernel(self):
        c = 1.7
        x = Tensor(np.full((1, 6, 6), c))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w, Tensor(np.zeros(1)), 1, 1)
        assert out.shape == (1, 6, 6)
        assert np.allclose(out.data[0, 1:-1, 1:-1], 9 * c)

    def test_one_by_one_identity(self, rng):
        x = Tensor(rng.normal(size=(1, 5, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = T.conv2d(x, w, Tensor(np.zeros(1)), 1, 0)
        assert np.array_equal(out.data, x.data)

    def test_gradients_match_finite_differences(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        pert = Tensor(rng.normal(size=(3, 5, 5)))
        assert T.grad_check(lambda z: T.mean(T.conv2d(z, w, b, 1, 1) * pert), x) < 1e-5
        assert T.grad_check(lambda z: T.mean(T.conv2d(x, z, b, 1, 1) * pert), w) < 1e-5
        assert T.grad_check(lambda z: T.mean(T.conv2d(x, w, z, 1, 1) * pert), b) < 1e-5

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_gradient_of_each_input_alone_matches_all(self, rng, stride, padding):
        # the input gradient folds patches back and drops what lands on the
        # padding: check it on strided and padded layouts too
        arrays = (rng.normal(size=(2, 7, 7)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=(3,)))
        ho = (7 + 2 * padding - 3) // stride + 1
        pert = Tensor(rng.normal(size=(3, ho, ho)))
        x, w, b = (Tensor(a) for a in arrays)
        x.requires_grad = True
        assert T.grad_check(lambda z: T.mean(T.conv2d(z, w, b, stride, padding) * pert), x) < 1e-5
        assert_each_gradient_alone(lambda *ts: T.conv2d(*ts, stride, padding) * pert, arrays)

    def test_keeps_no_patch_matrix(self, rng):
        # the weight gradient rebuilds the im2col matrix (9x the input for a
        # 3x3 kernel) in backward instead of holding it from the forward pass
        x = Tensor(rng.normal(size=(8, 64, 64)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8, 3, 3)) * 0.1, requires_grad=True)
        b = Tensor(np.zeros(8), requires_grad=True)
        _, held, _ = traced(lambda: T.conv2d(x, w, b, 1, 1))
        assert held < 3 * x.data.nbytes
        for stride, padding in ((1, 1), (2, 1), (1, 0)):
            xs = Tensor(rng.normal(size=(2, 7, 7)))
            ho = (7 + 2 * padding - 3) // stride + 1
            pert = Tensor(rng.normal(size=(3, ho, ho)))
            ws = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
            bs = Tensor(np.zeros(3))
            err = T.grad_check(lambda z: T.mean(T.conv2d(xs, z, bs, stride, padding) * pert), ws)
            assert err < 1e-6

    def test_non_integral_extent_rejected(self, rng):
        x = Tensor(rng.normal(size=(1, 5, 5)))
        w = Tensor(rng.normal(size=(1, 1, 2, 2)))
        with pytest.raises(ValueError):
            T.conv2d(x, w, Tensor(np.zeros(1)), 2, 0)


class TestConvTranspose:
    def test_adjoint_identity(self, rng):
        for _ in range(5):
            x = rng.normal(size=(2, 6, 6))
            w = rng.normal(size=(4, 2, 2, 2))
            y = rng.normal(size=(4, 3, 3))
            fwd = T.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(4)), 2, 0)
            adj = T.conv_transpose2d(Tensor(y), Tensor(w), Tensor(np.zeros(2)), 2)
            lhs = float((fwd.data * y).sum())
            rhs = float((x * adj.data).sum())
            assert abs(lhs - rhs) < 1e-10

    def test_single_pixel_becomes_kernel_block(self, rng):
        x = np.zeros((1, 2, 2))
        x[0, 0, 0] = 2.0
        w = rng.normal(size=(1, 1, 2, 2))
        out = T.conv_transpose2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)), 2)
        assert out.shape == (1, 4, 4)
        assert np.allclose(out.data[0, :2, :2], 2.0 * w[0, 0])
        assert np.allclose(out.data[0, 2:, 2:], 0.0)

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(3, 3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)), requires_grad=True)
        pert = Tensor(rng.normal(size=(2, 6, 6)))
        assert T.grad_check(lambda z: T.mean(T.conv_transpose2d(z, w, b, 2) * pert), x) < 1e-5
        assert T.grad_check(lambda z: T.mean(T.conv_transpose2d(x, z, b, 2) * pert), w) < 1e-5

    def test_gradient_of_each_input_alone_matches_all(self, rng):
        pert = Tensor(rng.normal(size=(2, 7, 7)))
        arrays = (rng.normal(size=(3, 3, 3)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=(2,)))
        assert_each_gradient_alone(lambda *ts: T.conv_transpose2d(*ts, 2) * pert, arrays)

    def test_is_conv2d_with_roles_swapped(self, rng):
        # bitwise: the forward pass is conv2d's input gradient, and the input
        # gradient is conv2d's forward pass, with the same weight array
        for k in (2, 3):
            w = rng.normal(size=(4, 2, k, k))
            x = Tensor(rng.normal(size=(2, 4 + k, 4 + k)), requires_grad=True)
            y = rng.normal(size=(4, 3, 3))
            T.tsum(T.conv2d(x, w, np.zeros(4), 2, 0) * Tensor(y)).backward()
            yt = Tensor(y, requires_grad=True)
            out = T.conv_transpose2d(yt, w, np.zeros(2), 2)
            assert np.array_equal(out.data, x.grad)
            g = rng.normal(size=out.shape)
            T.tsum(out * Tensor(g)).backward()
            assert np.array_equal(yt.grad, T.conv2d(g, w, np.zeros(4), 2, 0).data)

    def test_unsupported_stride_rejected(self, rng):
        for stride in (1, 3):
            with pytest.raises(ValueError):
                T.conv_transpose2d(Tensor(rng.normal(size=(1, 2, 2))),
                                   Tensor(rng.normal(size=(1, 1, 2, 2))), Tensor(np.zeros(1)), stride)


class TestDense:
    def test_identity(self, rng):
        x = Tensor(rng.normal(size=4))
        out = T.dense(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        assert np.array_equal(out.data, x.data)

    def test_small_example(self):
        out = T.dense(Tensor([1.0, 1.0]), Tensor([[2.0, 3.0]]), Tensor([1.0]))
        assert np.allclose(out.data, [6.0])

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=4), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        pert = Tensor(rng.normal(size=3))
        assert T.grad_check(lambda z: T.mean(T.dense(z, w, b) * pert), x) < 1e-6
        assert T.grad_check(lambda z: T.mean(T.dense(x, z, b) * pert), w) < 1e-6
        assert T.grad_check(lambda z: T.mean(T.dense(x, w, z) * pert), b) < 1e-6

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            T.dense(Tensor(rng.normal(size=3)), Tensor(rng.normal(size=(3, 4))), Tensor(np.zeros(3)))


class TestPoolNormAct:
    def test_gap_constant(self):
        out = T.global_avg_pool(Tensor(np.full((3, 4, 4), 2.5)))
        assert np.allclose(out.data, 2.5)

    def test_gap_example(self):
        x = np.array([[[0.0, 2.0], [4.0, 2.0]]])
        assert T.global_avg_pool(Tensor(x)).data[0] == 2.0

    def test_gap_gradient_is_uniform(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        T.tsum(T.global_avg_pool(x)).backward()
        assert np.allclose(x.grad, 1.0 / 12)

    def test_group_norm_constant_input_gives_beta(self, rng):
        beta = rng.normal(size=4)
        out = T.group_norm(Tensor(np.full((4, 3, 3), 7.0)), 2, Tensor(np.ones(4)), Tensor(beta))
        assert np.allclose(out.data, beta[:, None, None], atol=1e-6)

    def test_group_norm_standardizes(self, rng):
        x = rng.normal(size=(4, 5, 5)) * 3 + 1
        out = T.group_norm(Tensor(x), 2, Tensor(np.ones(4)), Tensor(np.zeros(4))).data
        for g in range(2):
            vals = out[2 * g:2 * g + 2]
            assert abs(vals.mean()) < 1e-7
            assert abs(vals.var() - 1.0) < 1e-4

    def test_group_norm_gradients(self, rng):
        x = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        gamma = Tensor(rng.normal(size=4), requires_grad=True)
        beta = Tensor(rng.normal(size=4), requires_grad=True)
        pert = Tensor(rng.normal(size=(4, 3, 3)))
        assert T.grad_check(lambda z: T.mean(T.group_norm(z, 2, gamma, beta) * pert), x, eps=1e-5) < 1e-4
        assert T.grad_check(lambda z: T.mean(T.group_norm(x, 2, z, beta) * pert), gamma) < 1e-5

    def test_group_norm_indivisible(self, rng):
        with pytest.raises(ValueError):
            T.group_norm(Tensor(rng.normal(size=(3, 2, 2))), 2, Tensor(np.ones(3)), Tensor(np.zeros(3)))

    def test_leaky_relu_values(self):
        assert T.leaky_relu(Tensor(np.array(-2.0)), 0.01).item() == -0.02
        assert T.leaky_relu(Tensor(np.array(3.0)), 0.0).item() == 3.0

    def test_leaky_relu_gradient_away_from_kink(self, rng):
        # piecewise linear: central differences are exact up to roundoff, so
        # a larger step keeps the roundoff term below the 1e-8 target
        x = Tensor(rng.normal(size=(4, 4)) + np.sign(rng.normal(size=(4, 4))) * 0.5, requires_grad=True)
        assert T.grad_check(lambda z: T.mean(T.leaky_relu(z, 0.01)), x, eps=1e-3) < 1e-8

    def test_leaky_relu_zero_uses_negative_branch(self):
        x = Tensor(np.array(0.0), requires_grad=True)
        T.leaky_relu(x, 0.01).backward()
        assert x.grad == 0.01


class TestBilinear:
    def test_integer_grid_is_exact_copy(self, rng):
        img = Tensor(rng.normal(size=(2, 5, 7)))
        grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(7.0), indexing="ij"))
        out = T.bilinear_sample(img, Tensor(grid))
        assert np.array_equal(out.data, img.data)

    def test_center_of_two_by_two(self):
        img = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        out = T.bilinear_sample(img, Tensor(np.full((2, 1, 1), 0.5)))
        assert np.allclose(out.data, 2.5)

    def test_out_of_bounds_reads_zero(self, rng):
        img = Tensor(rng.normal(size=(1, 4, 4)))
        coords = Tensor(np.full((2, 1, 1), -10.0))
        assert T.bilinear_sample(img, coords).data[0, 0, 0] == 0.0

    def test_coordinate_gradients(self, rng):
        # keep every coordinate away from integers (interpolation kinks)
        img = Tensor(rng.normal(size=(2, 6, 6)))
        coords = Tensor(np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0), indexing="ij")) * 0.85 + 0.37,
                        requires_grad=True)
        pert = Tensor(rng.normal(size=(2, 5, 5)))
        err = T.grad_check(lambda z: T.mean(T.bilinear_sample(img, z) * pert), coords, eps=1e-6)
        assert err < 1e-4

    def test_image_gradient_many_reads_per_pixel(self, rng):
        # an 8x8 grid read from a 4x4 image: every pixel's bin collects
        # several reads, and the reads past the edges have corners outside
        img = Tensor(rng.normal(size=(3, 4, 4)))
        coords = Tensor(np.stack(np.meshgrid(np.linspace(-0.7, 3.6, 8), np.linspace(-0.6, 3.7, 8),
                                             indexing="ij")))
        pert = Tensor(rng.normal(size=(3, 8, 8)))
        for border in ("zeros", "clamp"):
            err = T.grad_check(lambda z: T.mean(T.bilinear_sample(z, coords, border) * pert), img)
            assert err < 1e-6

    def test_gradient_of_each_input_alone_matches_both(self, rng):
        img = rng.normal(size=(2, 6, 6))
        coords = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0), indexing="ij")) * 1.3 - 0.6
        pert = Tensor(rng.normal(size=(2, 5, 5)))

        for border in ("zeros", "clamp"):
            assert_each_gradient_alone(lambda *ts: T.bilinear_sample(*ts, border=border) * pert,
                                       (img, coords))


class TestDetachBackward:
    def test_detach_product_rule(self, rng):
        x = Tensor(rng.normal(size=5), requires_grad=True)
        T.mean(T.mul(T.detach(x), x)).backward()
        assert np.allclose(x.grad, x.data / 5)

    def test_detach_of_detached_is_noop(self, rng):
        x = Tensor(rng.normal(size=3))
        d = T.detach(T.detach(x))
        assert d.requires_grad is False and np.array_equal(d.data, x.data)

    def test_all_detached_loss_has_no_gradients(self, rng):
        x = Tensor(rng.normal(size=4), requires_grad=True)
        loss = T.mean(T.mul(T.detach(x), T.detach(x)))
        loss.backward()
        assert x.grad is None

    def test_backward_sum_gives_ones(self, rng):
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        T.tsum(x).backward()
        assert np.array_equal(x.grad, np.ones((3, 2)))

    def test_backward_mean_square(self, rng):
        x = Tensor(rng.normal(size=6), requires_grad=True)
        T.mean(T.mul(x, x)).backward()
        assert np.allclose(x.grad, 2 * x.data / 6)

    def test_backward_accumulates(self, rng):
        x = Tensor(rng.normal(size=3), requires_grad=True)
        loss = T.tsum(x)
        loss.backward()
        loss.backward()
        assert np.allclose(x.grad, 2.0)

    def test_backward_frees_gradients_as_it_goes(self, rng):
        # a spent gradient is dropped at once, so backward's peak is a few
        # arrays above what the graph holds, not one gradient per node
        x = Tensor(rng.normal(size=(256, 256)), requires_grad=True)
        y = x
        for i in range(40):
            y = T.tanh(y) if i % 2 else T.mul(y, 1.5)
        loss = T.mean(y)
        _, _, peak = traced(loss.backward)
        assert peak < 6 * x.data.nbytes
        assert x.grad is not None

    def test_only_leaves_get_grad(self, rng):
        img = rng.normal(size=(2, 8, 8))
        wdata = rng.normal(size=(4, 2, 3, 3)) * 0.5
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        # keep every sample point away from integers (interpolation kinks)
        grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(6.0), indexing="ij")) * 1.1 + 0.33
        pert = Tensor(rng.normal(size=(4, 6, 6)))

        def chain(x, w, coords, g):
            h = T.conv2d(x, w, Tensor(np.zeros(4)), 1, 1)
            n = T.group_norm(h, 2, g, Tensor(beta))
            a = T.leaky_relu(n, 0.2)
            s = T.bilinear_sample(a, coords)
            return T.mean(s * pert), (h, n, a, s)

        leaves = [Tensor(v, requires_grad=True) for v in (img, wdata, grid, gamma)]
        loss, inner = chain(*leaves)
        assert loss.backward() is None
        assert all(t.grad is None for t in inner + (loss,))
        assert all(t.grad is not None for t in leaves)
        # the surviving graph still accumulates, and every leaf gradient is right
        first = [t.grad.copy() for t in leaves]
        loss.backward()
        assert all(np.array_equal(t.grad, 2 * g) for t, g in zip(leaves, first))
        for i, leaf in enumerate(leaves):
            def f(z, i=i):
                args = [Tensor(v) for v in (img, wdata, grid, gamma)]
                args[i] = z
                return chain(*args)[0]
            assert T.grad_check(f, leaf, eps=1e-6) < 1e-5

    def test_backward_requires_scalar(self, rng):
        x = Tensor(rng.normal(size=3), requires_grad=True)
        with pytest.raises(ValueError):
            (x + x).backward()

    def test_backward_deterministic(self, rng):
        data = rng.normal(size=(3, 6, 6))
        wdata = rng.normal(size=(2, 3, 3, 3))
        grads = []
        for _ in range(2):
            x = Tensor(data, requires_grad=True)
            w = Tensor(wdata, requires_grad=True)
            out = T.mean(T.leaky_relu(T.conv2d(x, w, Tensor(np.zeros(2)), 1, 1), 0.01))
            out.backward()
            grads.append((x.grad.copy(), w.grad.copy()))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])


class TestGradCheck:
    def test_mean_square_tight(self, rng):
        x = Tensor(rng.normal(size=8) + 1.0, requires_grad=True)
        assert T.grad_check(lambda z: T.mean(T.mul(z, z)), x) < 1e-8

    def test_composed_network_path(self, rng):
        w = Tensor(rng.normal(size=(2, 2, 3, 3)))
        g = Tensor(np.ones(2))
        b = Tensor(np.zeros(2))
        x = Tensor(rng.normal(size=(2, 6, 6)) + 0.3, requires_grad=True)

        def f(z):
            h = T.conv2d(z, w, Tensor(np.zeros(2)), 1, 1)
            h = T.group_norm(h, 2, g, b)
            return T.mean(T.leaky_relu(h, 0.01))

        assert T.grad_check(f, x, eps=1e-6) < 1e-4

    def test_detached_branch_is_flagged(self, rng):
        x = Tensor(rng.normal(size=4) + 2.0, requires_grad=True)
        err = T.grad_check(lambda z: T.mean(T.mul(T.detach(z), T.detach(z))), x)
        assert err > 0.9  # analytic gradient is zero, numeric is not


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        g = np.array([0.3, -0.001])
        opt = T.Adam([p], lr=0.1)
        p.grad = g
        opt.step()
        delta = p.data - np.array([1.0, -1.0])
        assert np.allclose(delta, -0.1 * np.sign(g), atol=1e-4)
        assert opt.t == 1

    def test_zero_gradient_keeps_parameters(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        opt = T.Adam([p], lr=0.1)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] == 2.0 and opt.t == 1

    def test_square_objective_matches_scalar_oracle(self):
        expected = oracles.adam_scalar(lambda w: 2 * w, 1.0, 0.1, 100)
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = T.Adam([p], 0.1)
        for _ in range(100):
            opt.zero_grad()
            T.tsum(T.mul(p, p)).backward()
            opt.step()
        assert abs(p.data[0]) < 0.2
        assert abs(p.data[0] - expected) < 1e-12

    def test_shape_mismatch(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = T.Adam([p], 0.1)
        p.grad = np.zeros(4)
        with pytest.raises(ValueError):
            opt.step()
        p.grad = np.zeros(3)
        opt.m = opt.v = [np.zeros(3), np.zeros(3)]  # e.g. moments of another parameter list
        with pytest.raises(ValueError):
            opt.step()


class TestSpectralNorm:
    def test_diagonal_matrix(self):
        w = Tensor(np.diag([3.0, 1.0]))
        st = T.PowerIterState()
        for _ in range(25):
            out = T.spectral_normalize(w, st)
        sigma = np.linalg.svd(out.data, compute_uv=False)[0]
        assert abs(sigma - 1.0) < 1e-6
        assert abs(out.data[0, 0] - 1.0) < 1e-6

    def test_unit_rank_one_unchanged(self, rng):
        u = rng.normal(size=4)
        v = rng.normal(size=3)
        w = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        t = Tensor(w)
        st = T.PowerIterState()
        for _ in range(10):
            out = T.spectral_normalize(t, st)
        assert np.abs(out.data - w).max() < 1e-3

    def test_norm_bounded_after_warmup(self, rng):
        w = Tensor(rng.normal(size=(8, 8)))
        st = T.PowerIterState()
        for _ in range(20):
            out = T.spectral_normalize(w, st)
        sigma = np.linalg.svd(out.data, compute_uv=False)[0]
        assert sigma <= 1.0 + 1e-2
