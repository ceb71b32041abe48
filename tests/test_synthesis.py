"""Coefficient pipeline and kernel synthesis: exact cases, oracles, invariants."""

import copy

import numpy as np
import pytest

from kernelblend import backbone as B
from kernelblend import synthesis as S
from kernelblend import tensor as T
from kernelblend import training as TR

from oracles import (activate, sum_all, sum_squares, synthesis_reference, synthesize_take_then_blend,
                     to_one_hot)
from toys import run_training, toy_dataset, toy_state


def two_layer_spec():
    return B.BackboneSpec(
        input_shape=(2, 6, 6),
        layers=(
            B.LayerSpec(2, 4, 3, padding=1),
            B.LayerSpec(4, 4, 3, padding=1),
        ),
        num_classes=3,
    )


def cm(rows):
    return T.Tensor(np.array(rows, dtype=float))


def activated(raw, activation):
    """The (rows, N) matrix ``raw``, given as one head output, activated by
    ``coefficients_from_raw``."""
    raw = np.asarray(raw, dtype=float)
    return S.coefficients_from_raw(T.Tensor(raw.reshape(-1)), S.SynthesisConfig(activation=activation),
                                   *raw.shape)


class TestActivate:
    def test_softmax_on_zeros_is_uniform(self):
        out = activated(np.zeros((3, 4)), "softmax")
        assert np.array_equal(out.data, np.full((3, 4), 0.25))

    def test_sigmoid_on_zeros_is_half(self):
        out = activated(np.zeros((2, 5)), "sigmoid")
        assert np.array_equal(out.data, np.full((2, 5), 0.5))

    def test_peaked_row_keeps_argmax(self):
        raw = np.array([[10.0, 0.0, 0.0, 0.0]])
        out = activated(raw, "softmax")
        direct = np.exp(raw[0] - 10.0)
        direct = direct / direct.sum()
        np.testing.assert_allclose(out.data[0], direct, atol=1e-15)
        assert out.data[0, 0] > 0.999
        assert np.argmax(out.data[0]) == 0

    def test_sigmoid_rows_need_not_sum_to_one(self):
        out = activated([[3.0, 3.0]], "sigmoid")
        assert out.data.sum() > 1.5


class TestBlendEpsilon:
    """``stabilize``'s uniform blend, eps/N + (1-eps)*alpha."""

    def test_eps_one_forces_uniform(self):
        alpha = cm([[0.9, 0.1], [0.0, 1.0]])
        out = S.stabilize(alpha, 1.0)
        assert np.array_equal(out.data, np.full((2, 2), 0.5))

    def test_eps_zero_is_identity(self):
        alpha = cm([[0.9, 0.1]])
        out = S.stabilize(alpha, 0.0)
        assert np.array_equal(out.data, alpha.data)

    def test_half_blend_arithmetic(self):
        out = S.stabilize(cm([[1.0, 0.0]]), 0.5)
        assert np.array_equal(out.data, [[0.75, 0.25]])

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValueError):
            S.stabilize(cm([[1.0, 0.0]]), 1.5)

    def test_simplex_rows_stay_simplex(self):
        rng = np.random.default_rng(0)
        for eps in (0.1, 0.5, 0.9):
            raw = rng.standard_normal((4, 5))
            alpha = activate(T.Tensor(raw), "softmax")
            out = S.stabilize(alpha, eps)
            assert np.all(out.data >= 0)
            np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


class TestApplyBmd:
    """``stabilize``'s basis dropout, at epsilon 0."""

    def test_drop_none_is_identity(self):
        alpha = cm([[0.6, 0.4]])
        out = S.stabilize(alpha, 0.0, np.array([False, False]))
        assert out is alpha

    def test_drop_and_renormalize(self):
        out = S.stabilize(cm([[0.6, 0.4]]), 0.0, np.array([False, True]), renormalize=True)
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-15)

    def test_uniform_drop_one(self):
        out = S.stabilize(cm([[0.25] * 4]), 0.0, np.array([False, False, False, True]), renormalize=True)
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3, 0.0]], atol=1e-15)

    def test_no_renormalize_keeps_survivors(self):
        out = S.stabilize(cm([[0.6, 0.4]]), 0.0, np.array([False, True]), renormalize=False)
        assert np.array_equal(out.data, [[0.6, 0.0]])

    def test_all_dropped_is_an_error(self):
        with pytest.raises(ValueError, match="survive"):
            S.stabilize(cm([[0.6, 0.4]]), 0.0, np.array([True, True]))

    def test_simplex_closure(self):
        rng = np.random.default_rng(1)
        alpha = activate(T.Tensor(rng.standard_normal((3, 6))), "softmax")
        out = S.stabilize(alpha, 0.0, np.array([True, False, False, True, False, False]))
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("renormalize", [True, False])
    def test_shared_mask_equals_the_per_sample_masks_repeating_it(self, renormalize):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((3, 2, 4))
        upstream = rng.standard_normal((3, 2, 4))
        drop = np.array([False, True, False, True])

        def run(mask):
            alpha = T.Tensor(raw, requires_grad=True)
            tape = T.GradTape()
            with T.recording(tape):
                out = S.stabilize(activate(alpha, "softmax"), 0.0, mask, renormalize)
                loss = sum_all(T.mul(out, T.Tensor(upstream)))
            return out.data, T.backward(loss)[alpha]

        shared, per_sample = run(drop), run(np.tile(drop, (3, 1)))
        assert np.array_equal(shared[0], per_sample[0])
        assert np.array_equal(shared[1], per_sample[1])

    def test_mask_for_another_batch_size_rejected(self):
        with pytest.raises(T.ShapeError, match="drop mask shape"):
            S.stabilize(T.Tensor(np.full((3, 2, 4), 0.25)), 0.0, np.zeros((2, 4), dtype=bool))


class TestToOneHot:
    def test_argmax_row(self):
        out = to_one_hot(cm([[0.7, 0.2, 0.1]]))
        assert np.array_equal(out.data, [[1.0, 0.0, 0.0]])

    def test_tie_breaks_to_lowest_index(self):
        out = to_one_hot(cm([[0.5, 0.5]]))
        assert np.array_equal(out.data, [[1.0, 0.0]])

    def test_one_hot_input_is_fixed_point(self):
        hard = to_one_hot(cm([[0.1, 0.8, 0.1]]))
        again = to_one_hot(hard)
        assert np.array_equal(again.data, hard.data)

    def test_argmax_commutes_with_softmax(self):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((5, 4))
        via_softmax = S.coefficients_from_raw(T.Tensor(raw.reshape(-1)), S.SynthesisConfig(mode="one_hot"), 5, 4)
        direct = np.zeros_like(raw)
        direct[np.arange(5), np.argmax(raw, axis=1)] = 1.0
        assert np.array_equal(via_softmax.data, direct)


class TestBankStructure:
    def test_shared_layers_hold_one_tensor(self):
        spec = two_layer_spec()
        bank = S.build_bank(spec, n_bases=4, shared_layers=[0], seed=0)
        assert bank.kernels[0].shape == spec.layers[0].kernel_shape
        assert bank.kernels[1].shape == (4, *spec.layers[1].kernel_shape)
        assert bank.nonshared_indices() == [1]

    def test_stack_is_the_per_basis_draws_in_a_row(self):
        # one (N, O, I, K, K) draw gives the values of N (O, I, K, K) draws,
        # so the checkpoint blob keeps its bytes
        spec = two_layer_spec()
        bank = S.build_bank(spec, 3, [0], seed=5)
        rng = np.random.default_rng(5)
        per_basis = [B.init_kernel(rng, spec.layers[0]).data,
                     np.stack([B.init_kernel(rng, spec.layers[1]).data for _ in range(3)])]
        head_w, _ = B.init_linear(rng, spec.feature_channels, spec.num_classes)
        for got, want in zip(bank.kernels, per_basis, strict=True):
            assert got.data.tobytes() == want.tobytes()
        assert bank.head_w.data.tobytes() == head_w.data.tobytes()

    @pytest.mark.parametrize("layer,shape", [
        (1, (3, 4, 4, 3, 3)),  # a stack of the wrong N
        (1, (2, 4, 2, 3, 3)),  # a stack of the wrong kernel shape
        (1, (4, 4, 3, 3)),  # one kernel where a stack belongs
        (0, (2, 4, 2, 3, 3)),  # a stack where a shared kernel belongs
    ])
    def test_wrong_kernel_shape_names_the_layer(self, layer, shape):
        bank = S.build_bank(two_layer_spec(), 2, [0], seed=0)
        kernels = list(bank.kernels)
        kernels[layer] = T.Tensor(np.zeros(shape))
        with pytest.raises(ValueError, match=f"layer L{layer} kernel has shape"):
            S.BasisBank(bank.spec, 2, bank.share_mask, kernels, bank.biases, bank.head_w, bank.head_b)

    def test_bad_shared_index(self):
        with pytest.raises(ValueError):
            S.build_bank(two_layer_spec(), n_bases=2, shared_layers=[5], seed=0)

    def test_same_seed_bitwise(self):
        b1 = S.build_bank(two_layer_spec(), 3, [0], seed=9)
        b2 = S.build_bank(two_layer_spec(), 3, [0], seed=9)
        def tensors(b):
            return [*b.kernels, *b.biases, b.head_w, b.head_b]

        for t1, t2 in zip(tensors(b1), tensors(b2), strict=True):
            assert t1.data.tobytes() == t2.data.tobytes()


class TestSynthesize:
    def test_one_hot_selection_is_bitwise(self):
        bank = S.build_bank(two_layer_spec(), 4, [0], seed=3)
        alpha = cm([[0.0, 0.0, 1.0, 0.0]])
        params = S.synthesize(bank, alpha)
        assert params.layers[1].kernel.data.tobytes() == bank.kernels[1].data[2].tobytes()
        assert params.layers[0].kernel is bank.kernels[0]

    def test_even_blend_cancels_opposites(self):
        bank = S.build_bank(two_layer_spec(), 2, [0], seed=4)
        shape = bank.kernels[1].shape[1:]
        bank.kernels[1] = T.Tensor(np.stack([np.ones(shape), -np.ones(shape)]))
        params = S.synthesize(bank, cm([[0.5, 0.5]]))
        assert np.array_equal(params.layers[1].kernel.data, np.zeros(shape))

    def test_row_count_mismatch(self):
        bank = S.build_bank(two_layer_spec(), 2, [0], seed=0)
        with pytest.raises(T.ShapeError, match="rows"):
            S.synthesize(bank, cm([[1.0, 0.0], [0.5, 0.5]]))

    def test_basis_count_mismatch(self):
        bank = S.build_bank(two_layer_spec(), 2, [0], seed=0)
        with pytest.raises(T.ShapeError, match="bases"):
            S.synthesize(bank, cm([[0.5, 0.3, 0.2]]))

    def test_forward_equals_per_basis_mixture_oracle(self):
        # one dynamic layer with no nonlinearity after it: the whole map is
        # affine in that kernel, so forward(blend) == convex mix of per-basis
        # forwards. A relu sits before the dynamic layer on purpose.
        spec = B.BackboneSpec(
            input_shape=(2, 6, 6),
            layers=(
                B.LayerSpec(2, 4, 3, padding=1, activation="relu"),
                B.LayerSpec(4, 4, 3, padding=1, activation="none"),
            ),
            num_classes=3,
        )
        rng = np.random.default_rng(5)
        for trial in range(10):
            bank = S.build_bank(spec, 3, [0], seed=trial)
            x = T.Tensor(rng.standard_normal((1, 2, 6, 6)))
            w = rng.random(3)
            alpha = w / w.sum()

            blended = B.forward(S.synthesize(bank, cm([alpha])), spec, x).data
            mixture = sum(
                alpha[n] * B.forward(S.select_params(bank, [n]), spec, x).data
                for n in range(3)
            )
            np.testing.assert_allclose(blended, mixture, rtol=1e-10, atol=1e-12)

    def test_full_network_selection_consistency(self):
        spec = B.BackboneSpec(
            input_shape=(1, 8, 8),
            layers=(
                B.LayerSpec(1, 3, 3, padding=1),
                B.LayerSpec(3, 4, 3, stride=2, padding=1),
                B.LayerSpec(4, 4, 3, padding=1),
            ),
            num_classes=4,
        )
        bank = S.build_bank(spec, 5, [0], seed=8)
        rng = np.random.default_rng(11)
        x = T.Tensor(rng.standard_normal((2, 1, 8, 8)))
        for _ in range(5):
            choices = rng.integers(0, 5, size=2)
            hard = np.zeros((2, 5))
            hard[np.arange(2), choices] = 1.0
            via_synth = B.forward(S.synthesize(bank, cm(hard)), spec, x)
            direct = B.forward(S.select_params(bank, choices), spec, x)
            assert via_synth.data.tobytes() == direct.data.tobytes()

    def test_single_basis_degenerates_to_backbone(self):
        spec = two_layer_spec()
        bank = S.build_bank(spec, 1, [], seed=21)
        params = S.select_params(bank, [0] * bank.n_coefficient_rows)
        raw = T.Tensor(np.random.default_rng(0).standard_normal((2, 1)))
        alpha = activate(raw, "softmax")  # softmax over one logit is exactly 1.0
        x = T.Tensor(np.random.default_rng(1).standard_normal((3, 2, 6, 6)))
        assert np.array_equal(alpha.data, np.ones((2, 1)))
        a = B.forward(S.synthesize(bank, alpha), spec, x)
        b = B.forward(params, spec, x)
        assert a.data.tobytes() == b.data.tobytes()

    def test_gradient_flow_and_bmd_blocking(self):
        spec = two_layer_spec()
        bank = S.build_bank(spec, 3, [0], seed=6)
        rng = np.random.default_rng(7)
        raw = T.Tensor(rng.standard_normal((1, 3)), requires_grad=True)
        x = T.Tensor(rng.standard_normal((1, 2, 6, 6)))

        tape = T.GradTape()
        with T.recording(tape):
            alpha = activate(raw, "softmax")
            alpha = S.stabilize(alpha, 0.0, np.array([False, True, False]))
            loss = T.cross_entropy(B.forward(S.synthesize(bank, alpha), spec, x), [1])
        grads = T.backward(loss)

        stack = grads[bank.kernels[1]]
        assert np.array_equal(stack[1], np.zeros(stack.shape[1:]))  # the dropped basis
        for n in (0, 2):
            assert np.any(stack[n] != 0)
        # the coefficient path reaches the raw head outputs
        assert raw in grads and np.any(grads[raw] != 0)


class TestSynthesisTape:
    """``synthesize`` records one ``blend`` per non-shared layer and gives the
    gradients of the ``take``-then-``blend`` chain bit for bit."""

    PER_SAMPLE = np.array([[True, False, False, True], [True, True, False, False],
                           [True, False, True, False]])  # basis 0 dropped in every sample

    def test_one_record_per_nonshared_layer(self):
        state = toy_state(n_bases=3, seed=2, shared=(1,))
        bank = state.bank
        alpha = T.Tensor(np.full((4, bank.n_coefficient_rows, 3), 1 / 3), requires_grad=True)
        tape = T.GradTape()
        with T.recording(tape):
            params = S.synthesize(bank, alpha)
        assert len(tape.records) == bank.n_coefficient_rows == 2
        assert [rec[0] for rec in tape.records] == [params.layers[k].kernel for k in (0, 2)]
        assert params.layers[1].kernel is bank.kernels[1]

    @pytest.mark.parametrize("mode,eps,masks", [
        ("per_layer", 0.4, None),
        ("per_layer", 0.0, "per_sample"),
        ("per_layer", 0.4, "shared"),
        ("per_model", 0.4, "per_sample"),
        ("one_hot", 0.0, None),
    ])
    def test_gradients_bitwise_equal_take_then_blend(self, monkeypatch, mode, eps, masks):
        state = toy_state(n_bases=4, seed=31, synth_cfg=S.SynthesisConfig(mode=mode))
        train, _ = toy_dataset(train_size=16, eval_size=8)
        x, y = train.images[:3], train.labels[:3]
        drop = {None: None, "shared": self.PER_SAMPLE[1], "per_sample": self.PER_SAMPLE}[masks]
        params = [p for _, p in TR.named_parameters(state)]

        def gradients():
            tape = T.GradTape()
            with T.recording(tape):
                final, initial, alpha = TR.forward_training(state, x, eps, drop)
                loss = T.add(T.cross_entropy(final, y), T.cross_entropy(initial, y))
            grads = T.backward(loss)
            return grads, alpha, [grads[p].tobytes() if p in grads else None for p in params]

        grads, alpha, got = gradients()
        monkeypatch.setattr(S, "synthesize", synthesize_take_then_blend)
        ref_grads, ref_alpha, want = gradients()

        assert got == want
        if mode != "one_hot":  # hard coefficients are constants: no gradient reaches them
            assert grads[alpha].tobytes() == ref_grads[ref_alpha].tobytes()
        if masks is not None:  # a basis every sample drops has zero rows on either path
            dropped = np.logical_and.reduce(np.atleast_2d(drop), axis=0)
            assert dropped.any()
            for k in state.bank.nonshared_indices():
                assert not grads[state.bank.kernels[k]][dropped].any()

    @pytest.mark.parametrize("optimizer", ["sgd", "rmsprop"])
    def test_training_bitwise_equal_take_then_blend(self, monkeypatch, optimizer):
        # joint steps with dropped bases, then the one-hot fine-tune tail
        train, _ = toy_dataset(train_size=32, eval_size=8)
        s = TR.TrainSchedule(total_steps=5, finetune_steps=3, epsilon_decay_steps=2, bmd_rate=0.4,
                             bmd_per_sample=True, batch_size=4, lr_base=0.05, optimizer=optimizer)
        loss_cfg = TR.LossConfig(l2_weight=1e-3)
        state, metrics = run_training(toy_state(n_bases=4, seed=12), train, s, loss_cfg)
        monkeypatch.setattr(S, "synthesize", synthesize_take_then_blend)
        oracle, ref_metrics = run_training(toy_state(n_bases=4, seed=12), train, s, loss_cfg)
        assert metrics == ref_metrics
        assert state.vector.data.tobytes() == oracle.vector.data.tobytes()
        if optimizer == "rmsprop":
            assert state.opt_state.tobytes() == oracle.opt_state.tobytes()

    def test_basis_zero_in_every_sample_gets_zero_rows(self):
        # row 1 blends; basis 0 is zero there in every sample (not in row 0)
        c = T.Tensor([[[0.7, 0.3, 0.0], [0.0, 1.0, 0.0]],
                      [[0.2, 0.2, 0.6], [0.0, 0.5, 0.5]]], requires_grad=True)
        stack = T.Tensor(np.ones((3, 2, 2)), requires_grad=True)
        tape = T.GradTape()
        with T.recording(tape):
            loss = sum_all(T.blend(c, stack, row=1))
        grads = T.backward(loss)
        assert grads[stack].tobytes() == np.stack([np.zeros((2, 2)), np.full((2, 2), 1.5),
                                                   np.full((2, 2), 0.5)]).tobytes()
        assert np.array_equal(grads[c][:, 0], np.zeros((2, 3)))
        assert np.array_equal(grads[c][:, 1], np.full((2, 3), 4.0))

    @pytest.mark.parametrize("batch", [None, 1, 4], ids=["matrix", "batch1", "batch4"])
    def test_packed_and_unpacked_banks_agree_bitwise(self, batch):
        # one path: a TrainState's stacks view into its vector, a deep copy's
        # own their arrays, and blend reads either in place
        state = toy_state(n_bases=4, seed=41)
        packed, unpacked = state.bank, copy.deepcopy(state.bank)
        assert all(np.shares_memory(k.data, state.vector.data) for k in packed.kernels)
        assert all(k.data.base is None for k in unpacked.kernels)
        rng = np.random.default_rng(42)
        rows = packed.n_coefficient_rows
        av = rng.random((rows, 4) if batch is None else (batch, rows, 4))
        x = rng.standard_normal((batch or 2, *packed.spec.input_shape))

        def run(bank):
            alpha = T.Tensor(av, requires_grad=True)
            tape = T.GradTape()
            with T.recording(tape):
                params = S.synthesize(bank, alpha)
                loss = sum_squares(B.forward(params, bank.spec, T.Tensor(x)))
            kernels = [lp.kernel.data.tobytes() for lp in params.layers]
            grads = T.backward(loss)
            return kernels, [grads[k].tobytes() for k in (alpha, *bank.kernels)]

        assert run(packed) == run(unpacked)

    def test_row_out_of_range_or_wrong_rank_rejected(self):
        kernels = T.Tensor(np.ones((2, 2, 2)))
        with pytest.raises(T.ShapeError, match="row"):
            T.blend(T.Tensor(np.ones((3, 2, 2))), kernels, row=2)
        with pytest.raises(T.ShapeError, match="row"):
            T.blend(T.Tensor(np.ones((3, 2))), kernels, row=0)


class TestAccounting:
    def test_single_basis_overhead_is_parameter_count(self):
        bank = S.build_bank(two_layer_spec(), 1, [0], seed=0)
        assert S.synthesis_madds(bank.spec, bank.share_mask, bank.n_bases) == 4 * 4 * 9

    def test_known_bank_overhead(self):
        spec = B.BackboneSpec(
            input_shape=(16, 4, 4),
            layers=(B.LayerSpec(16, 16, 3, padding=1),),
            num_classes=2,
        )
        bank = S.build_bank(spec, 8, [], seed=0)
        assert S.synthesis_madds(bank.spec, bank.share_mask, bank.n_bases) == 8 * 16 * 16 * 9 == 18432

    def test_overhead_matches_counter_oracle(self):
        spec = two_layer_spec()
        bank = S.build_bank(spec, 4, [0], seed=1)
        rows = np.random.default_rng(3).random((1, 4))
        banks_np = [bank.kernels[1].data]
        _, mults = synthesis_reference(rows, banks_np)
        assert S.synthesis_madds(bank.spec, bank.share_mask, bank.n_bases) == mults
