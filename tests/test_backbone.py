"""Backbone: deterministic init, forward shapes, and exact multiply accounting."""

import numpy as np
import pytest

from kernelblend import backbone as B
from kernelblend import tensor as T

from oracles import conv2d_reference, linear_reference


def small_spec(act="relu"):
    return B.BackboneSpec(
        input_shape=(3, 8, 8),
        layers=(
            B.LayerSpec(3, 4, 3, stride=1, padding=1, activation=act),
            B.LayerSpec(4, 6, 3, stride=2, padding=1, activation=act),
        ),
        num_classes=5,
    )


class TestSpecs:
    def test_channel_chain_enforced(self):
        with pytest.raises(ValueError, match="L1"):
            B.BackboneSpec((1, 8, 8), (B.LayerSpec(1, 4, 3), B.LayerSpec(3, 4, 3)), 2)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            B.LayerSpec(1, 1, 2)

    def test_stride_three_rejected(self):
        with pytest.raises(ValueError):
            B.LayerSpec(1, 1, 3, stride=3)

    def test_spatial_collapse_rejected(self):
        with pytest.raises(ValueError, match="spatial"):
            B.BackboneSpec((1, 3, 3), (B.LayerSpec(1, 2, 3), B.LayerSpec(2, 2, 3)), 2)


class TestBuild:
    def test_same_seed_is_bitwise_identical(self):
        spec = small_spec()
        p1, p2 = B.build(spec, 42), B.build(spec, 42)
        def tensors(p):
            return [t for lp in p.layers for t in (lp.kernel, lp.bias)] + [p.head_w, p.head_b]

        for a, b in zip(tensors(p1), tensors(p2), strict=True):
            assert a.data.tobytes() == b.data.tobytes()

    def test_different_seeds_differ(self):
        spec = small_spec()
        p1, p2 = B.build(spec, 1), B.build(spec, 2)
        assert not np.array_equal(p1.layers[0].kernel.data, p2.layers[0].kernel.data)

    def test_fan_in_scaling(self):
        # many draws from the 3x3, 8-channel fan-in: std must approach 1/sqrt(72)
        spec = B.BackboneSpec((8, 6, 6), (B.LayerSpec(8, 512, 3, padding=1),), 2)
        params = B.build(spec, 0)
        k = params.layers[0].kernel.data
        bound = np.sqrt(3.0) / np.sqrt(72.0)
        assert np.abs(k).max() <= bound
        assert abs(k.std() - 1.0 / np.sqrt(72.0)) < 0.01


class TestForward:
    def test_zero_input_zero_bias_gives_zero_logits(self):
        spec = small_spec()
        params = B.build(spec, 0)
        x = T.Tensor(np.zeros((2, 3, 8, 8)))
        logits = B.forward(params, spec, x)
        assert logits.shape == (2, 5)
        assert np.array_equal(logits.data, np.zeros((2, 5)))

    def test_single_layer_on_1x1_input_is_a_linear_map(self):
        spec = B.BackboneSpec((3, 1, 1), (B.LayerSpec(3, 4, 1, activation="none"),), 5)
        params = B.build(spec, 7)
        rng = np.random.default_rng(0)
        xv = rng.standard_normal((2, 3, 1, 1))

        logits = B.forward(params, spec, T.Tensor(xv))

        # oracle: 1x1 conv on a 1x1 map is channels @ kernel.T, GAP is identity
        kmat = params.layers[0].kernel.data.reshape(4, 3)
        hidden = xv.reshape(2, 3) @ kmat.T + params.layers[0].bias.data
        expected, _ = linear_reference(hidden, params.head_w.data, params.head_b.data)
        np.testing.assert_allclose(logits.data, expected, atol=1e-12)

    def test_batch_permutation_permutes_logits(self):
        spec = small_spec()
        params = B.build(spec, 3)
        rng = np.random.default_rng(1)
        xv = rng.standard_normal((2, 3, 8, 8))
        fwd = B.forward(params, spec, T.Tensor(xv)).data
        swapped = B.forward(params, spec, T.Tensor(xv[::-1])).data
        assert np.array_equal(fwd[::-1], swapped)

    def _assert_batch_equals_serial(self, spec):
        params = B.build(spec, 5)
        rng = np.random.default_rng(2)
        xv = rng.standard_normal((3,) + spec.input_shape)
        batched = B.forward(params, spec, T.Tensor(xv)).data
        for i in range(3):
            single = B.forward(params, spec, T.Tensor(xv[i:i + 1])).data
            assert batched[i:i + 1].tobytes() == single.tobytes()

    def test_batch_equals_serial_bitwise(self):
        self._assert_batch_equals_serial(small_spec())

    def test_batch_equals_serial_bitwise_last_map_1x1(self):
        spec = B.BackboneSpec((1, 4, 4), (B.LayerSpec(1, 4, 3, stride=2, padding=1),
                                          B.LayerSpec(4, 1, 3, stride=2, padding=1)), 5)
        self._assert_batch_equals_serial(spec)

    @pytest.mark.parametrize("act", ["relu", "none"])
    def test_run_layer_is_one_tape_record(self, act):
        # conv, bias and activation are one op: one record per layer, and
        # its values are the reference conv plus bias, rectified for "relu"
        spec = small_spec(act)
        params = B.build(spec, 4)
        rng = np.random.default_rng(3)
        xv = rng.standard_normal((2,) + spec.input_shape)
        layer, lp = spec.layers[1], params.layers[1]
        lp.bias.apply_update(rng.standard_normal(lp.bias.shape))
        x = T.Tensor(rng.standard_normal((2, 4, 8, 8)), requires_grad=True)
        tape = T.GradTape()
        with T.recording(tape):
            out = B.run_layer(x, layer, lp)
            assert len(tape.records) == 1
            B.forward(params, spec, T.Tensor(xv))
            assert len(tape.records) == 1 + spec.num_layers + 2  # + pooling and head
        conv, _ = conv2d_reference(x.data, lp.kernel.data, layer.stride, layer.padding)
        pre = conv + lp.bias.data[None, :, None, None]
        np.testing.assert_allclose(out.data, np.maximum(pre, 0.0) if act == "relu" else pre, atol=1e-12)

    def test_input_shape_mismatch(self):
        spec = small_spec()
        params = B.build(spec, 0)
        with pytest.raises(T.ShapeError):
            B.forward(params, spec, T.Tensor(np.zeros((1, 2, 8, 8))))

    def test_spatial_size_mismatch_names_both_shapes(self):
        # the channel count matches; only the image size differs from the spec
        spec = B.BackboneSpec((1, 12, 12), (B.LayerSpec(1, 4, 3, stride=2, padding=1),), 3)
        params = B.build(spec, 0)
        with pytest.raises(T.ShapeError, match=r"\(2, 1, 16, 16\).*\(1, 12, 12\)"):
            B.forward(params, spec, T.Tensor(np.zeros((2, 1, 16, 16))))


class TestCounting:
    def test_known_conv_layer_madds(self):
        spec = B.BackboneSpec((3, 32, 32), (B.LayerSpec(3, 8, 3, stride=1, padding=1),), 2)
        per_layer = B.madds_per_layer(spec)
        assert per_layer[0] == 32 * 32 * 8 * 3 * 9 == 221184

    def test_conv_madds_equal_oracle_multiply_counter(self):
        rng = np.random.default_rng(0)
        for in_c, out_c, k, stride, pad, hw in [
            (3, 8, 3, 1, 1, 32), (1, 4, 3, 2, 1, 16), (2, 2, 5, 1, 2, 9), (4, 3, 1, 1, 0, 7),
        ]:
            x = rng.standard_normal((1, in_c, hw, hw))
            kern = rng.standard_normal((out_c, in_c, k, k))
            _, mults = conv2d_reference(x, kern, stride, pad)
            spec = B.BackboneSpec((in_c, hw, hw), (B.LayerSpec(in_c, out_c, k, stride=stride, padding=pad),), 2)
            assert B.madds_per_layer(spec)[0] == mults

    def test_one_by_one_conv_single_madd(self):
        spec = B.BackboneSpec((1, 1, 1), (B.LayerSpec(1, 1, 1),), 2)
        assert B.madds_per_layer(spec)[0] == 1

    def test_doubling_out_channels(self):
        base = B.BackboneSpec((3, 16, 16), (B.LayerSpec(3, 8, 3, padding=1),), 2)
        double = B.BackboneSpec((3, 16, 16), (B.LayerSpec(3, 16, 3, padding=1),), 2)
        assert B.madds_per_layer(double)[0] == 2 * B.madds_per_layer(base)[0]
        conv_params = lambda s: s.layers[0].out_channels * (s.layers[0].in_channels * 9 + 1)
        assert conv_params(double) == 2 * conv_params(base)

    def test_count_params_formula(self):
        spec = small_spec()
        expected = (4 * 3 * 9 + 4) + (6 * 4 * 9 + 6) + (6 * 5 + 5)
        assert B.count_params(spec) == expected
