"""Tensor core: forward values, gradients vs finite differences, tape contract."""

import contextlib

import numpy as np
import pytest

from kernelblend import tensor as T

from oracles import (backward_copying, conv2d_plain, conv2d_reference, finite_difference,
                     gradient_mismatch, normalize_rows, sum_all, sum_squares, take, tile_rows)


def grad_of(build_loss, params):
    """Run build_loss under a fresh tape and return the gradient map."""
    tape = T.GradTape()
    with T.recording(tape):
        loss = build_loss()
    return T.backward(loss)


class TestConv2d:
    def test_identity_kernel(self):
        x = T.Tensor(np.arange(9.0).reshape(1, 1, 3, 3))
        k = T.Tensor(np.ones((1, 1, 1, 1)))
        out = T.conv2d(x, k, stride=1, padding=0)
        assert np.array_equal(out.data, x.data)

    def test_all_ones_sum(self):
        x = T.Tensor(np.ones((1, 1, 3, 3)))
        k = T.Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, k, stride=1, padding=0)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 9.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        expected, _ = conv2d_reference(x, k, stride=1, padding=0)
        out = T.conv2d(T.Tensor(x), T.Tensor(k), stride=1, padding=0)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_stride_padding_grid(self, stride, padding):
        rng = np.random.default_rng(stride * 10 + padding)
        x = rng.standard_normal((2, 3, 7, 6))
        k = rng.standard_normal((4, 3, 3, 3))
        expected, _ = conv2d_reference(x, k, stride, padding)
        out = T.conv2d(T.Tensor(x), T.Tensor(k), stride=stride, padding=padding)
        assert out.shape == expected.shape
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        x = T.Tensor(np.zeros((1, 2, 4, 4)))
        k = T.Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(T.ShapeError) as exc:
            T.conv2d(x, k)
        assert "(1, 2, 4, 4)" in str(exc.value) and "(1, 3, 3, 3)" in str(exc.value)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        xv = rng.standard_normal((1, 2, 5, 5))
        kv = rng.standard_normal((2, 2, 3, 3))

        x = T.Tensor(xv.copy(), requires_grad=True)
        k = T.Tensor(kv.copy(), requires_grad=True)
        grads = grad_of(lambda: sum_squares(T.conv2d(x, k, stride=2, padding=1)), (x, k))

        def loss_x(v):
            out, _ = conv2d_reference(v, kv, 2, 1)
            return np.sum(out * out)

        def loss_k(v):
            out, _ = conv2d_reference(xv, v, 2, 1)
            return np.sum(out * out)

        assert gradient_mismatch(grads[x], finite_difference(loss_x, xv.copy())) < 1e-6
        assert gradient_mismatch(grads[k], finite_difference(loss_k, kv.copy())) < 1e-6

    def test_per_sample_kernels_match_naive_loop(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 2, 7, 6))
        k = rng.standard_normal((3, 4, 2, 3, 3))
        out = T.conv2d(T.Tensor(x), T.Tensor(k), stride=2, padding=1)
        for b in range(3):
            expected, _ = conv2d_reference(x[b:b + 1], k[b], 2, 1)
            np.testing.assert_allclose(out.data[b:b + 1], expected, atol=1e-12)
        with pytest.raises(T.ShapeError, match="per-sample"):
            T.conv2d(T.Tensor(x), T.Tensor(k[:2]))

    def test_per_sample_kernel_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        xv = rng.standard_normal((2, 2, 5, 5))
        kv = rng.standard_normal((2, 3, 2, 3, 3))
        x = T.Tensor(xv.copy(), requires_grad=True)
        k = T.Tensor(kv.copy(), requires_grad=True)
        grads = grad_of(lambda: sum_squares(T.conv2d(x, k, stride=2, padding=1)), (x, k))

        def loss(xs, ks):
            return sum(np.sum(conv2d_reference(xs[b:b + 1], ks[b], 2, 1)[0] ** 2) for b in range(2))

        assert gradient_mismatch(grads[x], finite_difference(lambda v: loss(v, kv), xv.copy())) < 1e-6
        assert gradient_mismatch(grads[k], finite_difference(lambda v: loss(xv, v), kv.copy())) < 1e-6

    @pytest.mark.parametrize("fused", [False, True], ids=["plain", "bias-relu"])
    @pytest.mark.parametrize("hw,k,padding", [(5, 1, 0), (2, 3, 1)], ids=["1x1-kernel", "1x1-map"])
    @pytest.mark.parametrize("per_sample", [False, True], ids=["shared", "per-sample"])
    def test_per_sample_batch_equals_serial_bitwise(self, per_sample, hw, k, padding, fused):
        """At stride 2, each sample's forward, input gradient and (for a
        per-sample kernel) kernel gradient in a batch equal its own batch-1
        call, bit for bit, with and without the bias and ReLU."""
        rng = np.random.default_rng(4)
        xv = rng.standard_normal((5, 1, hw, hw))
        kv = rng.standard_normal((5, 4, 1, k, k))
        bias = T.Tensor(rng.standard_normal(4), requires_grad=True) if fused else None

        def run(xs, ks):
            x = T.Tensor(xs, requires_grad=True)
            kern = T.Tensor(ks, requires_grad=True)
            tape = T.GradTape()
            with T.recording(tape):
                out = T.conv2d(x, kern, stride=2, padding=padding, bias=bias, relu=fused)
                grads = T.backward(sum_squares(out))
            return out.data, grads[x], grads[kern]

        out, gx, gk = run(xv, kv if per_sample else kv[0])
        for b in range(5):
            out_b, gx_b, gk_b = run(xv[b:b + 1], kv[b:b + 1] if per_sample else kv[0])
            assert out[b:b + 1].tobytes() == out_b.tobytes()
            assert gx[b:b + 1].tobytes() == gx_b.tobytes()
            if per_sample:
                assert gk[b:b + 1].tobytes() == gk_b.tobytes()

    @pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "bias"])
    @pytest.mark.parametrize("per_sample", [False, True], ids=["shared", "per-sample"])
    def test_input_without_grad_gets_no_gradient(self, per_sample, with_bias):
        """An input that does not require a gradient gets no entry and no
        input-gradient work, and the kernel (and bias) gradient is bitwise
        unchanged."""
        rng = np.random.default_rng(8)
        xv = rng.standard_normal((3, 2, 5, 5))
        kv = rng.standard_normal((3, 4, 2, 3, 3) if per_sample else (4, 2, 3, 3))
        bv = rng.standard_normal(4)

        def run(x_requires_grad):
            x = T.Tensor(xv, requires_grad=x_requires_grad)
            kern = T.Tensor(kv, requires_grad=True)
            bias = T.Tensor(bv, requires_grad=True) if with_bias else None
            params = [kern] if bias is None else [kern, bias]
            tape = T.GradTape()
            with T.recording(tape):
                out = T.conv2d(x, kern, stride=2, padding=1, bias=bias)
                _, _, conv_bwd = tape.records[0]
                contributions = [t for t, _ in conv_bwd(np.ones(out.shape))]
                grads = T.backward(sum_squares(out))
            return x, params, grads, contributions

        x, params, grads, contributions = run(False)
        assert x not in grads and contributions == params
        x_g, params_g, grads_g, contributions_g = run(True)
        assert x_g in grads_g and contributions_g == [x_g, *params_g]
        for p, p_g in zip(params, params_g, strict=True):
            assert grads[p].tobytes() == grads_g[p_g].tobytes()

    def test_shared_kernel_equals_per_sample_kernel_bitwise(self):
        rng = np.random.default_rng(6)
        xv = rng.standard_normal((2, 1, 2, 2))
        kv = rng.standard_normal((4, 1, 3, 3))
        shared = T.conv2d(T.Tensor(xv), T.Tensor(kv), stride=2, padding=1).data
        for b in range(2):
            own = T.conv2d(T.Tensor(xv[b:b + 1]), T.Tensor(kv[None]), stride=2, padding=1).data
            assert shared[b:b + 1].tobytes() == own.tobytes()

    def test_linear_in_kernel(self):
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.standard_normal((1, 2, 6, 6)))
        w1 = rng.standard_normal((3, 2, 3, 3))
        w2 = rng.standard_normal((3, 2, 3, 3))
        a, b = 0.37, -1.4
        combined = T.conv2d(x, T.Tensor(a * w1 + b * w2), stride=1, padding=1)
        separate = a * T.conv2d(x, T.Tensor(w1), stride=1, padding=1).data \
            + b * T.conv2d(x, T.Tensor(w2), stride=1, padding=1).data
        np.testing.assert_allclose(combined.data, separate, atol=1e-10)


class TestFusedConvLayer:
    """conv2d with a per-channel bias and a ReLU: one op and one tape record,
    with the arithmetic of the conv, bias add and ReLU it replaced."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("per_sample", [False, True], ids=["shared", "per-sample"])
    @pytest.mark.parametrize("relu", [False, True], ids=["no-relu", "relu"])
    def test_gradients_match_finite_differences(self, relu, per_sample, stride):
        rng = np.random.default_rng(40 + stride)
        xv = rng.standard_normal((2, 2, 5, 5))
        kv = rng.standard_normal((2, 3, 2, 3, 3) if per_sample else (3, 2, 3, 3))
        bv = rng.standard_normal(3)

        def layer_np(xs, ks, bs, act):
            pre = np.concatenate([conv2d_reference(xs[b:b + 1], ks[b] if per_sample else ks, stride, 1)[0]
                                  for b in range(2)]) + bs[None, :, None, None]
            return np.maximum(pre, 0.0) if act else pre

        pre = layer_np(xv, kv, bv, False)
        # away from the kink, so no finite-difference step crosses it
        assert np.abs(pre).min() > 1e-3 and (pre < 0).any() and (pre > 0).any()
        # a weighted sum: the ReLU mask shows in every gradient
        wv = rng.standard_normal(pre.shape)

        x = T.Tensor(xv.copy(), requires_grad=True)
        k = T.Tensor(kv.copy(), requires_grad=True)
        b = T.Tensor(bv.copy(), requires_grad=True)
        grads = grad_of(lambda: sum_all(T.mul(
            T.conv2d(x, k, stride=stride, padding=1, bias=b, relu=relu), T.Tensor(wv))), (x, k, b))

        numeric = {
            x: finite_difference(lambda v: np.sum(wv * layer_np(v, kv, bv, relu)), xv.copy()),
            k: finite_difference(lambda v: np.sum(wv * layer_np(xv, v, bv, relu)), kv.copy()),
            b: finite_difference(lambda v: np.sum(wv * layer_np(xv, kv, v, relu)), bv.copy()),
        }
        for t, num in numeric.items():
            assert gradient_mismatch(grads[t], num) < 1e-6

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    @pytest.mark.parametrize("per_sample", [False, True], ids=["shared", "per-sample"])
    def test_plain_conv_is_the_pre_fusion_conv_bitwise(self, per_sample, stride, padding):
        # with neither a bias nor a ReLU, the values and both gradients are
        # those of the conv before the fusion, bit for bit
        rng = np.random.default_rng(21)
        xv = rng.standard_normal((3, 2, 6, 5))
        kv = rng.standard_normal((3, 4, 2, 3, 3) if per_sample else (4, 2, 3, 3))
        expected, oracle_bwd = conv2d_plain(xv, kv, stride, padding)
        x = T.Tensor(xv, requires_grad=True)
        k = T.Tensor(kv, requires_grad=True)
        tape = T.GradTape()
        with T.recording(tape):
            out = T.conv2d(x, k, stride=stride, padding=padding)
            grads = T.backward(sum_squares(out))
        gx, gk = oracle_bwd(2.0 * expected)
        assert out.data.tobytes() == expected.tobytes()
        assert grads[x].tobytes() == np.ascontiguousarray(gx).tobytes()
        assert grads[k].tobytes() == gk.tobytes()

    @pytest.mark.parametrize("relu", [False, True], ids=["no-relu", "relu"])
    @pytest.mark.parametrize("per_sample", [False, True], ids=["shared", "per-sample"])
    def test_bias_and_relu_are_the_three_op_arithmetic(self, per_sample, relu):
        # forward: GEMM, + bias, then where(pre > 0, pre, 0); backward: mask,
        # sum the bias gradient, then the conv backward of the masked gradient
        rng = np.random.default_rng(22)
        xv = rng.standard_normal((3, 2, 5, 5))
        kv = rng.standard_normal((3, 4, 2, 3, 3) if per_sample else (4, 2, 3, 3))
        bv = rng.standard_normal(4)
        plain, oracle_bwd = conv2d_plain(xv, kv, 2, 1)
        pre = plain + bv[None, :, None, None]
        expected = np.where(pre > 0, pre, 0.0) if relu else pre
        x, k, b = (T.Tensor(v, requires_grad=True) for v in (xv, kv, bv))
        gv = rng.standard_normal(expected.shape)
        tape = T.GradTape()
        with T.recording(tape):
            out = T.conv2d(x, k, stride=2, padding=1, bias=b, relu=relu)
            grads = T.backward(sum_all(T.mul(out, T.Tensor(gv))))
        g = gv * (pre > 0) if relu else gv
        gx, gk = oracle_bwd(g)
        assert out.data.tobytes() == expected.tobytes()
        assert grads[x].tobytes() == np.ascontiguousarray(gx).tobytes()
        assert grads[k].tobytes() == gk.tobytes()
        assert grads[b].tobytes() == g.sum(axis=(0, 2, 3)).tobytes()

    @pytest.mark.parametrize("per_sample", [False, True], ids=["shared", "per-sample"])
    def test_relu_zero_is_positive_zero(self, per_sample):
        # the ReLU runs in place through np.maximum; a -0.0 input through a
        # bias-free unit 1x1 kernel, and a zero input against a negative kernel,
        # give zeros that are +0.0 by bytes, as np.where(pre > 0, pre, 0.0)
        # gave, whichever sign of zero the GEMM hands the ReLU
        batch = 3
        shape = (batch, 1, 1, 1, 1) if per_sample else (1, 1, 1, 1)
        cases = ((np.full((batch, 1, 4, 5), -0.0), np.ones(shape), 0),
                 (np.zeros((batch, 1, 4, 5)), -np.ones(shape[:-2] + (3, 3)), 1))
        for xv, kv, padding in cases:
            out = T.conv2d(T.Tensor(xv), T.Tensor(kv), padding=padding, relu=True)
            assert out.data.tobytes() == np.zeros(out.shape).tobytes()

    def test_maximum_breaks_a_zero_tie_to_positive_zero(self):
        # what the in-place ReLU relies on should a pre-activation be -0.0:
        # numpy's maximum(-0.0, 0.0) is +0.0 in its vector body and its tail
        # alike (CI also runs this on numpy's baseline SIMD loops)
        for n in (1, 2, 3, 5, 8, 17, 33, 64, 127):
            a = np.full(n, -0.0)
            np.maximum(a, 0.0, out=a)
            assert a.tobytes() == np.zeros(n).tobytes()

    @pytest.mark.parametrize("per_sample", [False, True], ids=["shared", "per-sample"])
    def test_forward_and_backward_leave_the_operands_unchanged(self, per_sample):
        # the bias and the ReLU write into the GEMM output, never into x,
        # the kernel or the bias
        rng = np.random.default_rng(23)
        xv = rng.standard_normal((3, 2, 5, 5))
        kv = rng.standard_normal((3, 4, 2, 3, 3) if per_sample else (4, 2, 3, 3))
        bv = rng.standard_normal(4)
        x, k, b = (T.Tensor(v.copy(), requires_grad=True) for v in (xv, kv, bv))
        tape = T.GradTape()
        with T.recording(tape):
            out = T.conv2d(x, k, stride=1, padding=1, bias=b, relu=True)
            T.backward(sum_squares(out))
        for t, v in ((x, xv), (k, kv), (b, bv)):
            assert t.data.tobytes() == v.tobytes()

    def test_bias_shape_checked(self):
        x = T.Tensor(np.zeros((1, 2, 4, 4)))
        k = T.Tensor(np.zeros((3, 2, 3, 3)))
        with pytest.raises(T.ShapeError, match="bias"):
            T.conv2d(x, k, bias=T.Tensor(np.zeros(2)))


def fused_conv_oracle(xv, kv, bv, stride, padding, relu, gv):
    """``conv2d_plain`` followed by the bias add and ReLU, forward and backward:
    (output, grad_x, grad_kernel, grad_bias) for the output gradient ``gv``."""
    plain, oracle_bwd = conv2d_plain(xv, kv, stride, padding)
    pre = plain if bv is None else plain + bv[None, :, None, None]
    out = np.where(pre > 0, pre, 0.0) if relu else pre
    g = gv * (pre > 0) if relu else gv
    gx, gk = oracle_bwd(g)
    return out, np.ascontiguousarray(gx), gk, None if bv is None else g.sum(axis=(0, 2, 3))


class TestConvWindowGather:
    """conv2d gathers its im2col windows through a cached flat index and
    scatters the input gradient with one bincount; values and gradients are
    the strided-copy and (ki, kj)-loop conv's bit for bit."""

    @pytest.mark.parametrize("padding", [0, 1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_random_sweep_is_the_plain_conv_bitwise(self, k, stride, padding):
        rng = np.random.default_rng(100 * k + 10 * stride + padding)
        for per_sample in (False, True):
            for with_bias, relu in ((False, False), (True, False), (False, True), (True, True)):
                for batch in (1, 3):
                    # one odd and one even side, neither smaller than the kernel once padded
                    h, w = (int(v) for v in max(1, k - 2 * padding) + rng.permutation(2)
                            + 2 * rng.integers(0, 3, size=2))
                    c, o = (int(v) for v in rng.integers(1, 4, size=2))
                    xv = rng.standard_normal((batch, c, h, w))
                    kv = rng.standard_normal((batch, o, c, k, k) if per_sample else (o, c, k, k))
                    bv = rng.standard_normal(o) if with_bias else None
                    x, kt = T.Tensor(xv, requires_grad=True), T.Tensor(kv, requires_grad=True)
                    bt = None if bv is None else T.Tensor(bv, requires_grad=True)
                    tape = T.GradTape()
                    with T.recording(tape):
                        out = T.conv2d(x, kt, stride=stride, padding=padding, bias=bt, relu=relu)
                        gv = rng.standard_normal(out.shape)
                        grads = T.backward(sum_all(T.mul(out, T.Tensor(gv))))
                    expected, gx, gk, gb = fused_conv_oracle(xv, kv, bv, stride, padding, relu, gv)
                    assert out.data.tobytes() == expected.tobytes()
                    assert grads[x].tobytes() == gx.tobytes()
                    assert grads[kt].tobytes() == gk.tobytes()
                    if bt is not None:
                        assert grads[bt].tobytes() == gb.tobytes()

    @pytest.mark.parametrize("k,padding", [(3, 0), (1, 1)])
    def test_positions_no_window_covers_get_exact_zero(self, k, padding):
        # stride 2 over an even padded size: the last padded row and column
        # (and with k=1 every odd one) lie in no window
        rng = np.random.default_rng(7)
        xv = rng.standard_normal((2, 2, 6 - 2 * padding, 6 - 2 * padding))
        kv = rng.standard_normal((3, 2, k, k))
        x = T.Tensor(xv, requires_grad=True)
        grads = grad_of(lambda: sum_squares(T.conv2d(x, T.Tensor(kv), stride=2, padding=padding)), (x,))
        expected, oracle_bwd = conv2d_plain(xv, kv, 2, padding)
        gx = grads[x]
        assert gx.tobytes() == np.ascontiguousarray(oracle_bwd(2.0 * expected)[0]).tobytes()
        covered = np.zeros(6, dtype=bool)
        for start in range(0, 6 - k + 1, 2):
            covered[start:start + k] = True
        uncovered = ~covered[padding:6 - padding]
        assert uncovered.any()
        zeros = np.concatenate([gx[:, :, uncovered, :].ravel(), gx[:, :, :, uncovered].ravel()])
        assert zeros.tobytes() == np.zeros(zeros.size).tobytes()  # +0.0, not -0.0

    def test_index_is_read_only_and_shared_across_batch_sizes(self):
        # an 11x13 map at padding 2 and stride 2: a shape no other test uses
        kern = T.Tensor(np.ones((2, 3, 3, 3)))
        infos = [T._window_index.cache_info()]
        for batch in (2, 5, 5):
            T.conv2d(T.Tensor(np.ones((batch, 3, 11, 13))), kern, stride=2, padding=2)
            infos.append(T._window_index.cache_info())
        assert infos[1].misses == infos[0].misses + 1
        # a new batch size's plan looks the index up once and builds none
        assert (infos[2].misses, infos[2].hits) == (infos[1].misses, infos[1].hits + 1)
        assert infos[3] == infos[2]  # the shape's plan holds its index: no lookup, no new one
        idx = T._window_index(3, 11, 13, 3, 3, 2, 2, 7, 8)
        gather = T._conv_plan((5, 3, 11, 13), (2, 3, 3, 3), 2, 2, None)[1]
        assert np.shares_memory(gather, idx) and np.array_equal(gather.reshape(-1), idx)
        assert not idx.flags.writeable
        assert idx.max() == 3 * 11 * 13  # a tap in the padding reads the appended zero
        with pytest.raises(ValueError):
            idx[0] = 1

    def test_one_plan_per_shape_sharing_one_index(self):
        # a 9x11 map at padding 2 and stride 3 under a 5x5 kernel: a layer
        # shape no other test uses; each batch size is one plan, made once
        kern = T.Tensor(np.ones((2, 3, 5, 5)))
        before = T._conv_plan.cache_info()
        for batch in (1, 3, 16, 3, 1):
            T.conv2d(T.Tensor(np.ones((batch, 3, 9, 11))), kern, stride=3, padding=2)
        after = T._conv_plan.cache_info()
        assert (after.misses, after.hits) == (before.misses + 3, before.hits + 2)
        key, gather, plane, zshape, kmat_shape, out_shape = T._conv_plan(
            (16, 3, 9, 11), (2, 3, 5, 5), 3, 2, None)
        idx = T._window_index(*key)
        assert key == (3, 9, 11, 5, 5, 3, 2, 3, 4) and np.shares_memory(gather, idx)
        assert gather.shape == (3 * 5 * 5, 3 * 4) and np.array_equal(gather.reshape(-1), idx)
        assert not gather.flags.writeable
        assert np.shares_memory(T._conv_plan((1, 3, 9, 11), (2, 3, 5, 5), 3, 2, None)[1], idx)
        assert (plane, zshape) == (3 * 9 * 11, (16, 3 * 9 * 11 + 1))
        assert (kmat_shape, out_shape) == ((2, 3 * 5 * 5), (16, 2, 3, 4))
        per_sample = T._conv_plan((16, 3, 9, 11), (16, 2, 3, 5, 5), 3, 2, (2,))
        assert np.shares_memory(per_sample[1], idx) and per_sample[4:] == ((16, 2, 3 * 5 * 5), (16, 2, 3, 4))

    def test_plan_cache_stays_bounded_over_every_pending_count(self):
        # stage two's per-sample kernels make one plan per pending count P;
        # P = 1..256 must neither grow the cache past its bound nor build a
        # second window index (a 7x5 map at padding 1: a shape no other test uses)
        rng = np.random.default_rng(3)
        before = T._window_index.cache_info()
        for p in range(1, 257):
            x = T.Tensor(rng.standard_normal((p, 2, 7, 5)))
            out = T.conv2d(x, T.Tensor(rng.standard_normal((p, 3, 2, 3, 3))), 1, 1, T.Tensor(np.zeros(3)), True)
            assert out.shape == (p, 3, 7, 5)
            info = T._conv_plan.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize
        after = T._window_index.cache_info()
        assert (after.misses, after.hits) == (before.misses + 1, before.hits + 255)

    @pytest.mark.parametrize("xshape,kshape,kw,message", [
        ((4, 2, 9, 11), (2, 3, 5, 5), {},
         "conv2d channel mismatch: input (4, 2, 9, 11) has 2 channels, kernel (2, 3, 5, 5) expects 3"),
        ((4, 3, 3, 3), (2, 3, 5, 5), {"padding": 0},
         "conv2d kernel (2, 3, 5, 5) larger than padded input (4, 3, 3, 3) (padding=0)"),
        ((4, 3, 9, 11), (2, 3, 5, 5), {"bias": (3,)},
         "conv2d bias (3,) does not match kernel (2, 3, 5, 5)"),
        ((4, 9, 11), (2, 3, 5, 5), {},
         "conv2d expects NCHW input and OIKK or BOIKK kernel, got (4, 9, 11) and (2, 3, 5, 5)"),
        ((4, 3, 9, 11), (2, 3, 5, 5), {"stride": 0}, "stride must be >= 1, got 0"),
        ((4, 3, 9, 11), (2, 3, 5, 5), {"padding": -1}, "padding must be >= 0, got -1"),
        ((4, 3, 9, 11), (3, 2, 3, 5, 5), {},
         "conv2d per-sample kernel (3, 2, 3, 5, 5) does not match batch of input (4, 3, 9, 11)"),
    ], ids=["channels", "too_large", "bias", "rank", "stride", "padding", "per_sample_batch"])
    def test_bad_geometry_raises_the_same_message_on_every_call(self, xshape, kshape, kw, message):
        kw = {"stride": 1, "padding": 1, **kw}
        if "bias" in kw:
            kw["bias"] = T.Tensor(np.zeros(kw["bias"]))
        x, kern = T.Tensor(np.ones(xshape)), T.Tensor(np.ones(kshape))
        before = T._conv_plan.cache_info()
        for _ in range(2):
            with pytest.raises(T.ShapeError) as exc:
                T.conv2d(x, kern, **kw)
            assert str(exc.value) == message
        # a plan that fails is not stored, so the second call checks it again;
        # the per-sample batch is part of the plan's key, checked with the rest
        assert T._conv_plan.cache_info().hits == before.hits

    def test_col2im_index_cached_per_batch_and_gradient_is_plain_conv(self):
        # a 9x7 map at padding 1 and stride 2, at two batch sizes: one
        # read-only bincount index per batch size, reused by a later backward
        # at the same size, and every input gradient the plain conv's bitwise
        rng = np.random.default_rng(5)
        kv = rng.standard_normal((4, 2, 3, 3))
        infos = [T._col2im_index.cache_info()]
        for batch in (3, 8, 3):
            xv = rng.standard_normal((batch, 2, 9, 7))
            x = T.Tensor(xv, requires_grad=True)
            tape = T.GradTape()
            with T.recording(tape):
                out = T.conv2d(x, T.Tensor(kv, requires_grad=True), stride=2, padding=1)
                gv = rng.standard_normal(out.shape)
                grads = T.backward(sum_all(T.mul(out, T.Tensor(gv))))
            _, oracle_bwd = conv2d_plain(xv, kv, 2, 1)
            assert grads[x].tobytes() == np.ascontiguousarray(oracle_bwd(gv)[0]).tobytes()
            infos.append(T._col2im_index.cache_info())
        assert [i.misses - infos[0].misses for i in infos[1:]] == [1, 2, 2]
        key = (2, 9, 7, 3, 3, 2, 1, 5, 4)
        flat = T._col2im_index(key, 8)
        assert not flat.flags.writeable
        assert flat.size == 8 * T._window_index(*key).size
        assert flat.max() == 8 * (2 * 9 * 7)  # every padding tap's one bin, after the last sample's


class TestElementwise:
    def test_relu_values(self):
        # the ReLU is conv2d's: a 1x1 unit kernel passes the values to it
        out = T.conv2d(T.Tensor([[[[-1.0, 0.0, 2.0]]]]), T.Tensor(np.ones((1, 1, 1, 1))), relu=True)
        assert np.array_equal(out.data, [[[[0.0, 0.0, 2.0]]]])

    def test_scale_zero_gives_zero_tensor(self):
        out = T.scale(T.Tensor([[1.0, -2.0], [3.0, 4.0]]), 0.0)
        assert np.array_equal(out.data, np.zeros((2, 2)))

    def test_add_requires_equal_shapes(self):
        with pytest.raises(T.ShapeError):
            T.add(T.Tensor([1.0, 2.0]), T.Tensor([1.0, 2.0, 3.0]))

    def test_relu_gradient_at_fixed_points(self):
        x = T.Tensor([[[[2.0, -1.0]]]], requires_grad=True)
        unit = T.Tensor(np.ones((1, 1, 1, 1)))
        grads = grad_of(lambda: sum_all(T.conv2d(x, unit, relu=True)), (x,))
        numeric = finite_difference(lambda v: np.sum(np.maximum(v, 0.0)), np.array([[[[2.0, -1.0]]]]), h=1e-6)
        assert np.array_equal(grads[x], [[[[1.0, 0.0]]]])
        assert gradient_mismatch(grads[x], numeric) < 1e-9

    def test_sigmoid_gradient(self):
        rng = np.random.default_rng(11)
        xv = rng.standard_normal(6)
        x = T.Tensor(xv.copy(), requires_grad=True)
        grads = grad_of(lambda: sum_squares(T.sigmoid(x)), (x,))
        numeric = finite_difference(lambda v: np.sum((1 / (1 + np.exp(-v))) ** 2), xv.copy())
        assert gradient_mismatch(grads[x], numeric) < 1e-7

    @pytest.mark.parametrize("taped", [False, True], ids=["tape_free", "taped"])
    def test_ops_on_0d_tensors_hold_0d_arrays(self, taped):
        # numpy gives a scalar for arithmetic on 0-d arrays; every op result
        # must still wrap a C-contiguous float64 ndarray, with the same value
        a, b = T.Tensor(1.5, requires_grad=taped), T.Tensor(-0.25, requires_grad=taped)
        tape = T.GradTape()
        with T.recording(tape) if taped else contextlib.nullcontext():
            outs = {"add": (T.add(a, b), 1.25), "mul": (T.mul(a, b), -0.375),
                    "scale": (T.scale(a, 3.0), 4.5),
                    "sigmoid": (T.sigmoid(b), np.exp(-0.25) / (1.0 + np.exp(-0.25))),
                    "reshape": (T.reshape(T.Tensor([2.0]), ()), 2.0)}
        for name, (out, value) in outs.items():
            assert type(out.data) is np.ndarray and out.data.shape == (), name
            assert out.data.dtype == np.float64 and out.data.flags.c_contiguous, name
            assert out.data.tobytes() == np.float64(value).tobytes(), name
        assert bool(tape.records) == taped

    def test_mul_product_rule(self):
        xv, yv = np.array([1.5, -0.5]), np.array([2.0, 3.0])
        x = T.Tensor(xv.copy(), requires_grad=True)
        y = T.Tensor(yv.copy(), requires_grad=True)
        grads = grad_of(lambda: sum_all(T.mul(x, y)), (x, y))
        assert gradient_mismatch(grads[x], finite_difference(lambda v: np.sum(v * yv), xv.copy())) < 1e-8
        assert gradient_mismatch(grads[y], finite_difference(lambda v: np.sum(xv * v), yv.copy())) < 1e-8


class TestSoftmax:
    def test_uniform_on_zeros(self):
        out = T.softmax(T.Tensor([0.0, 0.0, 0.0, 0.0]), axis=0)
        assert np.array_equal(out.data, [0.25, 0.25, 0.25, 0.25])

    def test_no_overflow_on_large_logit(self):
        out = T.softmax(T.Tensor([1000.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-300)

    def test_rows_are_simplex_points(self):
        rng = np.random.default_rng(5)
        out = T.softmax(T.Tensor(rng.standard_normal((8, 5)) * 20), axis=1)
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        xv = rng.standard_normal(5)

        def softmax_np(v):
            e = np.exp(v - v.max())
            return e / e.sum()

        for i in range(5):
            x = T.Tensor(xv.copy(), requires_grad=True)
            grads = grad_of(lambda: take(T.softmax(x, axis=0), i), (x,))
            numeric = finite_difference(lambda v: softmax_np(v)[i], xv.copy())
            assert gradient_mismatch(grads[x], numeric) < 1e-6

    def test_axis_out_of_bounds(self):
        with pytest.raises(T.ShapeError):
            T.softmax(T.Tensor([1.0, 2.0]), axis=2)


class TestGlobalAvgPool:
    def test_constant_channel(self):
        out = T.global_avg_pool(T.Tensor(np.full((1, 1, 4, 4), 7.0)))
        assert out.data[0, 0] == 7.0

    def test_small_channel_mean(self):
        out = T.global_avg_pool(T.Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out.data[0, 0] == 2.5

    def test_gradient_spreads_uniformly(self):
        x = T.Tensor(np.arange(12.0).reshape(1, 3, 2, 2), requires_grad=True)
        grads = grad_of(lambda: sum_all(T.global_avg_pool(x)), (x,))
        assert np.array_equal(grads[x], np.full((1, 3, 2, 2), 0.25))

    @pytest.mark.parametrize("shape", [(1, 8, 3, 3), (256, 12, 3, 3), (64, 3, 6, 6), (2, 5, 4, 7)])
    def test_is_the_mean_and_repeat_formulation_bitwise(self, shape):
        rng = np.random.default_rng(sum(shape))
        xv = rng.standard_normal(shape)
        gv = rng.standard_normal(shape[:2])
        x = T.Tensor(xv, requires_grad=True)
        tape = T.GradTape()
        with T.recording(tape):
            out = T.global_avg_pool(x)
            grads = T.backward(sum_all(T.mul(out, T.Tensor(gv))))
        _, _, h, w = shape
        expected_gx = np.repeat(np.repeat(gv[:, :, None, None], h, axis=2), w, axis=3) / (h * w)
        assert out.data.tobytes() == xv.mean(axis=(2, 3)).tobytes()
        assert grads[x].tobytes() == expected_gx.tobytes()


class TestCrossEntropy:
    def test_uniform_logits_hard_target(self):
        logits = T.Tensor(np.zeros((1, 10)))
        loss = T.cross_entropy(logits, [3])
        assert abs(loss.item() - np.log(10)) < 1e-12

    def test_one_hot_soft_equals_hard(self):
        rng = np.random.default_rng(2)
        lv = rng.standard_normal((4, 6))
        soft = np.zeros((4, 6))
        hard = np.array([1, 0, 5, 2])
        soft[np.arange(4), hard] = 1.0
        a = T.cross_entropy(T.Tensor(lv), hard)
        b = T.cross_entropy(T.Tensor(lv), soft)
        assert a.item() == b.item()

    def test_rejects_unnormalized_soft_targets(self):
        with pytest.raises(T.ShapeError):
            T.cross_entropy(T.Tensor(np.zeros((1, 3))), np.array([[0.5, 0.2, 0.2]]))
        # a class index that is not an integer would be truncated: [0.5, 1.9]
        # read as [0, 1], [True, False] as [1, 0]
        for target, dtype in (([0.5, 1.9], "float64"), ([True, False], "bool")):
            with pytest.raises(T.ShapeError, match=f"integer dtype, got {dtype}$"):
                T.cross_entropy(T.Tensor(np.zeros((2, 3))), target)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        lv = rng.standard_normal((4, 6))
        target = np.array([0, 3, 5, 1])
        logits = T.Tensor(lv.copy(), requires_grad=True)
        grads = grad_of(lambda: T.cross_entropy(logits, target), (logits,))

        def loss_np(v):
            s = v - v.max(axis=1, keepdims=True)
            lp = s - np.log(np.exp(s).sum(axis=1, keepdims=True))
            return -np.mean(lp[np.arange(4), target]) * 1.0

        numeric = finite_difference(loss_np, lv.copy())
        assert gradient_mismatch(grads[logits], numeric) < 1e-6


class TestBackwardContract:
    def test_sum_gradient_is_ones(self):
        x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        grads = grad_of(lambda: sum_all(x), (x,))
        assert np.array_equal(grads[x], np.ones(3))

    def test_chain_product_rule_vs_fd(self):
        xv = np.array([0.7, -1.2, 2.0])
        yv = np.array([1.1, 0.4, -0.3])
        x = T.Tensor(xv.copy(), requires_grad=True)
        y = T.Tensor(yv.copy(), requires_grad=True)
        grads = grad_of(lambda: sum_squares(T.mul(x, y)), (x, y))
        assert gradient_mismatch(grads[x], finite_difference(lambda v: np.sum((v * yv) ** 2), xv.copy())) < 1e-7
        assert gradient_mismatch(grads[y], finite_difference(lambda v: np.sum((xv * v) ** 2), yv.copy())) < 1e-7

    def test_backward_twice_is_an_error(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        tape = T.GradTape()
        with T.recording(tape):
            loss = sum_all(x)
        T.backward(loss)
        with pytest.raises(RuntimeError):
            T.backward(loss)

    def test_backward_releases_the_tape_and_still_refuses_a_second_run(self):
        # the records go when the replay ends, which breaks the tape -> record
        # -> output -> tape cycle; the consumed flag still guards the tape
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        tape = T.GradTape()
        with T.recording(tape):
            loss = sum_all(T.mul(x, x))
        assert len(tape.records) == 2 and loss.tape is tape
        assert np.array_equal(T.backward(loss)[x], [2.0, 4.0])
        assert tape.records == []
        with pytest.raises(RuntimeError, match="already ran"):
            T.backward(loss)

    def test_backward_without_tape_is_noop(self):
        x = T.Tensor([[3.0]], requires_grad=True)
        assert T.backward(x) == {}

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        tape = T.GradTape()
        with T.recording(tape):
            out = T.scale(x, 2.0)
        with pytest.raises(T.ShapeError):
            T.backward(out)

    def test_unreachable_tensor_receives_no_gradient(self):
        x = T.Tensor([1.0], requires_grad=True)
        other = T.Tensor([5.0], requires_grad=True)
        grads = grad_of(lambda: sum_all(x), (x,))
        assert other not in grads

    def test_each_use_accumulates_once(self):
        x = T.Tensor([2.0], requires_grad=True)
        grads = grad_of(lambda: sum_all(T.add(x, x)), (x,))
        assert np.array_equal(grads[x], [2.0])

    def test_into_arrays_add_every_contribution(self):
        # the arrays hold a first term computed off the tape: each
        # contribution adds to it, and every tensor in into has an entry,
        # the one the loss does not reach too, its array left as it was
        x = T.Tensor([2.0, 3.0], requires_grad=True)
        other = T.Tensor([5.0], requires_grad=True)
        buf = np.array([0.5, 0.25, 4.0])
        tape = T.GradTape({x: buf[:2], other: buf[2:]})
        with T.recording(tape):
            loss = sum_all(T.scale(x, 3.0))
        grads = T.backward(loss)
        assert buf.tolist() == [3.5, 3.25, 4.0]
        assert grads[x] is tape.into[x] and grads[other] is tape.into[other]


def _add_self(rng):
    x = T.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    return [x], sum_all(T.mul(T.add(x, x), T.Tensor(rng.standard_normal((2, 3)))))


def _reshape_and_another_op(rng):
    # replay meets the reshape first: its contribution, a view of its
    # output's gradient, is copied before the sigmoid's term is added
    x = T.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    squares = sum_squares(T.sigmoid(x))
    flat = T.mul(T.reshape(x, (6,)), T.Tensor(rng.standard_normal(6)))
    return [x], T.add(squares, sum_all(flat))


def _scalar_read_twice(rng):
    # a 0-d gradient times a float is a numpy scalar, which cannot take the
    # second term in place
    x = T.Tensor(rng.standard_normal(3), requires_grad=True)
    total = sum_all(x)
    return [x], T.add(T.scale(total, 2.0), T.scale(total, 3.0))


def _fresh_then_accumulated(rng):
    # replay meets the scale first: its fresh g * 3 is kept, then the
    # sigmoid's term is added into it in place
    x = T.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    w = T.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    return [x, w], T.add(sum_squares(T.mul(T.sigmoid(x), w)), sum_all(T.scale(x, 3.0)))


def _pool_read_twice(rng):
    # global_avg_pool's gradient is a fresh array: the second pool's is kept
    # and the first one's added into it
    x = T.Tensor(rng.standard_normal((2, 3, 2, 2)), requires_grad=True)
    c, d = (T.Tensor(rng.standard_normal((2, 3))) for _ in range(2))
    pooled = [T.mul(T.global_avg_pool(x), c), T.mul(T.global_avg_pool(x), d)]
    return [x], sum_all(T.add(*pooled))


def _conv_read_twice(rng):
    # each conv's kernel and input gradients are fresh arrays of the
    # operand's shape: the shared kernel's first is kept and the second
    # added into it, and so are the input's
    x = T.Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
    k = T.Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    per_sample = T.Tensor(rng.standard_normal((2, 3, 2, 3, 3)), requires_grad=True)
    convs = [T.conv2d(x, k, padding=1), T.conv2d(x, k, stride=2), T.conv2d(x, per_sample, padding=1)]
    return [x, k, per_sample], T.add(sum_squares(convs[0], convs[2]), sum_all(convs[1]))


class TestBackwardOwnership:
    """backward keeps an op's own fresh gradient array and copies any other
    contribution (a view, the output gradient passed through): the bits of
    copying every contribution, and no two tensors' gradients share memory."""

    @pytest.mark.parametrize("build", [_add_self, _reshape_and_another_op,
                                       _scalar_read_twice, _fresh_then_accumulated,
                                       _pool_read_twice, _conv_read_twice])
    def test_bits_of_copying_every_contribution(self, build):
        results = []
        for replay in (T.backward, backward_copying):
            tape = T.GradTape()
            with T.recording(tape):
                leaves, loss = build(np.random.default_rng(3))
            order = leaves + [out for out, _, _ in tape.records]
            grads = replay(loss)
            results.append([grads[t].tobytes() for t in order])
            arrays = [grads[t] for t in order]
            for i, a in enumerate(arrays):
                for b in arrays[i + 1:]:
                    assert not np.shares_memory(a, b)
        assert results[0] == results[1]

    @pytest.mark.parametrize("per_sample", [False, True])
    def test_conv_kernel_gradient_is_fresh(self, per_sample):
        rng = np.random.default_rng(4)
        x = T.Tensor(rng.standard_normal((3, 2, 5, 5)), requires_grad=True)
        k = T.Tensor(rng.standard_normal((3, 4, 2, 3, 3) if per_sample else (4, 2, 3, 3)),
                     requires_grad=True)
        tape = T.GradTape()
        with T.recording(tape):
            out = T.conv2d(x, k, stride=2, padding=1)
        (_, _, bwd), = tape.records
        got = dict(bwd(np.ones(out.shape)))
        assert got[k].base is None and got[k].shape == k.shape  # kept by backward
        assert got[x].base is None and got[x].shape == x.shape  # the bincount bins, resized: kept


class TestStructuralOps:
    def test_row_and_reshape_roundtrip_gradients(self):
        xv = np.arange(6.0).reshape(2, 3)
        x = T.Tensor(xv.copy(), requires_grad=True)
        grads = grad_of(lambda: sum_squares(take(T.reshape(x, (3, 2)), 1)), (x,))
        numeric = finite_difference(lambda v: np.sum(v.reshape(3, 2)[1] ** 2), xv.copy())
        assert gradient_mismatch(grads[x], numeric) < 1e-8

    def test_take_along_axis_scatters_gradient(self):
        xv = np.arange(24.0).reshape(2, 3, 4)
        x = T.Tensor(xv, requires_grad=True)
        tape = T.GradTape()
        with T.recording(tape):
            picked = take(x, 1, axis=1)
            loss = sum_squares(picked)
        assert np.array_equal(picked.data, xv[:, 1])
        expected = np.zeros_like(xv)
        expected[:, 1] = 2.0 * xv[:, 1]
        assert np.array_equal(T.backward(loss)[x], expected)
        with pytest.raises(T.ShapeError):
            take(x, 3, axis=1)

    def test_tile_rows_sums_gradient(self):
        a = T.Tensor([1.0, -1.0], requires_grad=True)
        grads = grad_of(lambda: sum_all(tile_rows(a, 3)), (a,))
        assert np.array_equal(grads[a], [3.0, 3.0])
        batch = T.Tensor([[1.0, -1.0], [2.0, 0.5]], requires_grad=True)
        tiled = tile_rows(batch, 3)
        assert tiled.shape == (2, 3, 2) and np.all(tiled.data == batch.data[:, None, :])
        grads = grad_of(lambda: sum_squares(tile_rows(batch, 3)), (batch,))
        assert np.array_equal(grads[batch], 6.0 * batch.data)

    def test_normalize_rows_values_and_gradient(self):
        xv = np.array([[1.0, 3.0], [2.0, 2.0]])
        x = T.Tensor(xv.copy(), requires_grad=True)
        tape = T.GradTape()
        with T.recording(tape):
            out = normalize_rows(x, where=True)
            loss = sum_squares(out)
        np.testing.assert_allclose(out.data, [[0.25, 0.75], [0.5, 0.5]])
        grads = T.backward(loss)
        numeric = finite_difference(lambda v: np.sum((v / v.sum(axis=1, keepdims=True)) ** 2), xv.copy())
        assert gradient_mismatch(grads[x], numeric) < 1e-7

        # with ``where``, unselected rows pass through, values and gradient
        x = T.Tensor(xv.copy(), requires_grad=True)
        where = np.array([False, True])
        grads = grad_of(lambda: sum_squares(normalize_rows(x, where=where)), (x,))
        np.testing.assert_allclose(normalize_rows(x, where=where).data, [[1.0, 3.0], [0.5, 0.5]])

        def loss_np(v):
            return np.sum(v[0] ** 2) + np.sum((v[1] / v[1].sum()) ** 2)

        assert gradient_mismatch(grads[x], finite_difference(loss_np, xv.copy())) < 1e-7

    def test_blend_values_and_gradients(self):
        rng = np.random.default_rng(6)
        bank = rng.standard_normal((3, 2, 1, 3, 3))
        cv = np.array([[0.5, 0.3, 0.2], [0.1, 0.0, 0.9]])
        c = T.Tensor(cv.copy(), requires_grad=True)
        stack = T.Tensor(bank.copy(), requires_grad=True)
        grads = grad_of(lambda: sum_squares(T.blend(c, stack)), (c, stack))

        def mix(v, ks):
            return np.stack([sum(v[b, i] * ks[i] for i in range(3)) for b in range(2)])

        out = T.blend(T.Tensor(cv), stack).data
        np.testing.assert_allclose(out, mix(cv, bank), atol=1e-15)
        # the coefficients' gradient covers every position, the zero one too
        numeric_c = finite_difference(lambda v: np.sum(mix(v, bank) ** 2), cv.copy())
        assert gradient_mismatch(grads[c], numeric_c) < 1e-7
        numeric_stack = finite_difference(lambda v: np.sum(mix(cv, v) ** 2), bank.copy())
        assert grads[stack].shape == bank.shape
        assert gradient_mismatch(grads[stack], numeric_stack) < 1e-7

    def test_blend_one_hot_is_bitwise_selection(self):
        rng = np.random.default_rng(8)
        bank = T.Tensor(rng.standard_normal((4, 4, 2, 3, 3)))
        onehot = T.Tensor([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        out = T.blend(onehot, bank)
        for b, n in enumerate((2, 0, 2)):
            assert out.data[b].tobytes() == bank.data[n].tobytes()

    def test_blend_zero_coefficient_blocks_gradient(self):
        # a basis with a zero coefficient in every row gets exact-zero rows in
        # the stack's gradient, one with a nonzero coefficient in any row more
        c = T.Tensor([[0.0, 1.0, 0.0], [0.0, 0.5, 0.5]])
        stack = T.Tensor(np.ones((3, 2, 2)), requires_grad=True)
        grads = grad_of(lambda: sum_all(T.blend(c, stack)), (stack,))
        assert grads[stack].tobytes() == np.stack([np.zeros((2, 2)), np.full((2, 2), 1.5),
                                                   np.full((2, 2), 0.5)]).tobytes()

    def test_blend_reads_the_stack_in_place(self):
        # the blend's (N, F) operand is a view of the stack, not a copy: an
        # edit of the stack between forward and backward reaches the backward
        stack = T.Tensor(np.ones((2, 3)), requires_grad=True)
        c = T.Tensor([[1.0, 0.0]], requires_grad=True)
        tape = T.GradTape()
        with T.recording(tape):
            loss = sum_all(T.blend(c, stack))
        stack.data[1] = 2.0
        assert T.backward(loss)[c].tolist() == [[3.0, 6.0]]

    def test_blend_stack_must_match_the_coefficients(self):
        with pytest.raises(T.ShapeError, match="2 coefficients for a stack of shape"):
            T.blend(T.Tensor(np.ones((1, 2))), T.Tensor(np.ones((3, 4))))
        with pytest.raises(T.ShapeError, match="stack"):
            T.blend(T.Tensor(np.ones((1, 2))), T.Tensor(1.0))


class TestNumericSafety:
    def test_non_finite_forward_raises(self):
        big = T.Tensor([1e308])
        with np.errstate(over="ignore"):
            with pytest.raises(T.NonFiniteError):
                T.mul(big, big)
            with pytest.raises(T.NonFiniteError):
                T.scale(big, 1e308)

    @pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "bias"])
    @pytest.mark.parametrize("relu", [False, True], ids=["no-relu", "relu"])
    def test_conv_overflow_raises_before_the_relu(self, relu, with_bias):
        # the conv overflows to -Inf, which the ReLU would map to 0, so the
        # pre-activation is checked
        x = T.Tensor(np.full((1, 2, 1, 1), 1e308))
        k = T.Tensor(np.full((1, 2, 1, 1), -1e308))
        bias = T.Tensor([0.5]) if with_bias else None
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(T.NonFiniteError):
                T.conv2d(x, k, bias=bias, relu=relu)

    def test_nan_rejected_at_construction(self):
        with pytest.raises(T.NonFiniteError):
            T.Tensor([np.nan])

    def test_forward_is_bit_deterministic(self):
        rng = np.random.default_rng(12)
        xv = rng.standard_normal((2, 3, 8, 8))
        kv = rng.standard_normal((4, 3, 3, 3))
        a = T.conv2d(T.Tensor(xv), T.Tensor(kv), stride=1, padding=1)
        b = T.conv2d(T.Tensor(xv), T.Tensor(kv), stride=1, padding=1)
        assert a.data.tobytes() == b.data.tobytes()


class TestUncheckedOps:
    """``softmax``, ``sigmoid``, ``reshape``, ``take`` and ``tile_rows`` skip the
    result check: on finite inputs they only move data or return values in
    [0, 1]. Pinned at the edge of the float range."""

    def test_finite_at_the_float_limits(self):
        big = 1.7e308
        x = T.Tensor([[big, -big, 0.0], [-big, -big, big], [-big, -big, -big]])
        with np.errstate(over="ignore"):  # softmax's shift overflows to -inf, whose exp is 0
            outs = [T.softmax(x, axis=1), T.softmax(x, axis=0), T.sigmoid(x),
                    T.reshape(x, (9,)), take(x, 1), take(x, 2, axis=1), tile_rows(x, 2)]
        for out in outs:
            assert np.all(np.isfinite(out.data))
        for probs in outs[:3]:
            assert np.all((probs.data >= 0.0) & (probs.data <= 1.0))
        assert np.array_equal(outs[0].data, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3]])
        assert np.array_equal(outs[2].data, [[1.0, 0.0, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])


class TestApplyUpdate:
    def test_writes_in_place_so_views_stay_live(self):
        buf = np.arange(8.0)
        t = T.Tensor(buf[2:6].reshape(2, 2))  # a contiguous view is wrapped, not copied
        t.apply_update(np.full((2, 2), -1.0))
        assert buf.tolist() == [0.0, 1.0, -1.0, -1.0, -1.0, -1.0, 6.0, 7.0]

    def test_rejected_update_leaves_values(self):
        t = T.Tensor([1.0, 2.0])
        with pytest.raises(T.NonFiniteError):
            t.apply_update(np.array([3.0, np.nan]))
        with pytest.raises(T.ShapeError):
            t.apply_update(np.zeros(3))
        assert t.data.tolist() == [1.0, 2.0]

    def test_start_writes_only_the_flat_suffix(self):
        t = T.Tensor(np.arange(6.0).reshape(2, 3))
        t.apply_update(np.array([-1.0, -2.0]), start=4)
        assert t.data.tolist() == [[0.0, 1.0, 2.0], [3.0, -1.0, -2.0]]
        with pytest.raises(T.NonFiniteError):
            t.apply_update(np.array([np.inf, 0.0]), start=4)
        with pytest.raises(T.ShapeError):
            t.apply_update(np.zeros(3), start=4)
        assert t.data.tolist() == [[0.0, 1.0, 2.0], [3.0, -1.0, -2.0]]


class TestGradientSweep:
    """Analytic vs central finite differences over random small instances."""

    def test_elementwise_and_structural_ops_sweep(self):
        # one composite graph touching every elementwise and structural op,
        # checked against finite differences on 100 random instances
        rng = np.random.default_rng(77)
        unit = T.Tensor(np.ones((1, 1, 1, 1)))
        worst = 0.0
        for _ in range(100):
            av = rng.standard_normal((2, 6))
            av += np.sign(av) * 0.2  # keep the relu inputs away from the kink
            bv = rng.standard_normal((2, 6)) * 0.5
            wv = rng.standard_normal(3) * 0.5

            def build_loss(a, w):
                b = T.Tensor(bv)
                # the ReLU is conv2d's, over a 1x1 unit kernel (an exact identity)
                rect = T.reshape(T.conv2d(T.reshape(a, (2, 1, 1, 6)), unit, relu=True), (2, 6))
                h = T.add(T.mul(rect, T.sigmoid(b)), T.scale(b, 0.25))
                probs = T.softmax(h, axis=1)
                tiled = tile_rows(take(probs, 1), 2)
                picked = take(tile_rows(probs, 3), 2, axis=1)
                normed = normalize_rows(T.add(T.add(tiled, picked), T.Tensor(np.full((2, 6), 0.5))),
                                          where=True)
                flat = T.reshape(normed, (12,))
                # the stack (flat, -0.5 * flat, a constant ramp), built from ops
                rows = T.mul(tile_rows(flat, 3), T.Tensor(np.repeat([[1.0], [-0.5], [0.0]], 12, axis=1)))
                ramp = np.zeros((3, 12))
                ramp[2] = np.linspace(0, 1, 12)
                blend = T.blend(T.reshape(w, (1, 3)), T.add(rows, T.Tensor(ramp)))
                return T.add(sum_squares(blend), sum_all(normed))

            a = T.Tensor(av.copy(), requires_grad=True)
            w = T.Tensor(wv.copy(), requires_grad=True)
            tape = T.GradTape()
            with T.recording(tape):
                loss = build_loss(a, w)
            grads = T.backward(loss)

            numeric_a = finite_difference(
                lambda v: build_loss(T.Tensor(v), T.Tensor(wv)).item(), av.copy())
            numeric_w = finite_difference(
                lambda v: build_loss(T.Tensor(av), T.Tensor(v)).item(), wv.copy())
            worst = max(worst, gradient_mismatch(grads[a], numeric_a))
            worst = max(worst, gradient_mismatch(grads[w], numeric_w))
        assert worst < 1e-4

    def test_sum_squares_over_several_tensors(self):
        # one record for several tensors, one of them passed twice: gradients
        # against finite differences, value bitwise equal to the per-tensor chain
        rng = np.random.default_rng(31)
        for _ in range(20):
            vals = [rng.standard_normal(s) for s in ((2, 3), (4,), (2, 2, 2))]

            def build_loss(a, b, c):
                return sum_squares(a, T.scale(b, -0.5), a, c)

            ts = [T.Tensor(v.copy(), requires_grad=True) for v in vals]
            tape = T.GradTape()
            with T.recording(tape):
                loss = build_loss(*ts)
            assert len(tape.records) == 2  # the scale and the one sum_squares
            grads = T.backward(loss)
            for i, v in enumerate(vals):
                def f(var, i=i):
                    args = [T.Tensor(var if j == i else vals[j]) for j in range(3)]
                    return build_loss(*args).item()
                assert gradient_mismatch(grads[ts[i]], finite_difference(f, v.copy())) < 1e-7

            a, b, c = (T.Tensor(v) for v in vals)
            chain = sum_squares(a)
            for t in (T.scale(b, -0.5), a, c):
                chain = T.add(chain, sum_squares(t))
            assert loss.data.tobytes() == chain.data.tobytes()

    def test_random_instance_sweep(self):
        rng = np.random.default_rng(100)
        for trial in range(20):
            xv = rng.standard_normal((1, 2, 4, 4))
            kv = rng.standard_normal((2, 2, 3, 3)) * 0.5
            x = T.Tensor(xv.copy(), requires_grad=True)
            k = T.Tensor(kv.copy(), requires_grad=True)

            def build():
                h = T.conv2d(x, k, stride=1, padding=1)
                pooled = T.global_avg_pool(h)
                return T.cross_entropy(pooled, [trial % 2])

            grads = grad_of(build, (x, k))

            def loss_np(kvar):
                out, _ = conv2d_reference(xv, kvar, 1, 1)
                pooled = out.mean(axis=(2, 3))
                s = pooled - pooled.max(axis=1, keepdims=True)
                lp = s - np.log(np.exp(s).sum(axis=1, keepdims=True))
                return -lp[0, trial % 2]

            numeric = finite_difference(loss_np, kv.copy())
            assert gradient_mismatch(grads[k], numeric) < 1e-4
