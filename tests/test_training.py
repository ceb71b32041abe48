"""Training core: schedules, losses, dropout masks, routing, fine-tuning."""

import contextlib
import copy
import dataclasses
import gc
from itertools import accumulate

import numpy as np
import pytest

from kernelblend import backbone as B
from kernelblend import pipeline as P
from kernelblend import synthesis as S
from kernelblend import tensor as T
from kernelblend import training as TR
from kernelblend.data import augment_batch

from oracles import (augment_reference, l2_chain, per_image_forward, to_one_hot, train_step_chain,
                     train_step_per_tensor)
from toys import run_training, toy_bank_spec, toy_dataset, toy_lm, toy_state


def sched(**kw):
    base = dict(total_steps=1000, epsilon_hold_steps=0, epsilon_decay_steps=0,
                lr_base=0.1, batch_size=4, seed=0)
    base.update(kw)
    return TR.TrainSchedule(**base)


class TestEpsilonSchedule:
    def test_one_at_step_zero(self):
        s = sched(epsilon_hold_steps=100, epsilon_decay_steps=200)
        assert TR.epsilon_at(0, s) == 1.0

    def test_zero_after_decay(self):
        s = sched(epsilon_hold_steps=100, epsilon_decay_steps=200)
        assert TR.epsilon_at(300, s) == 0.0
        assert TR.epsilon_at(999, s) == 0.0

    def test_half_at_decay_midpoint(self):
        s = sched(epsilon_hold_steps=100, epsilon_decay_steps=200)
        assert TR.epsilon_at(200, s) == 0.5

    def test_holds_at_one(self):
        s = sched(epsilon_hold_steps=100, epsilon_decay_steps=200)
        assert TR.epsilon_at(99, s) == 1.0

    def test_hold_plus_decay_bounded(self):
        with pytest.raises(ValueError):
            sched(total_steps=100, epsilon_hold_steps=80, epsilon_decay_steps=30)


class TestTotalLoss:
    def make_logits(self, b=4, c=10, seed=0):
        rng = np.random.default_rng(seed)
        return T.Tensor(rng.standard_normal((b, c))), T.Tensor(rng.standard_normal((b, c)))

    def test_zero_lm_weight_drops_initial_term(self):
        final, initial = self.make_logits()
        y = np.array([0, 1, 2, 3])
        loss0, parts = TR.total_loss(final, initial, y, 0.0, TR.LossConfig(lm_weight=0.0))
        assert loss0.item() == pytest.approx(parts["synth_loss"])

    def test_l2_zero_with_zero_params(self):
        final, initial = self.make_logits()
        zero = T.Tensor(np.zeros(5), requires_grad=True)
        _, parts = TR.total_loss(final, initial, np.array([0, 1, 2, 3]),
                                 TR.squared_norm(zero.data, [zero.size]),
                                 TR.LossConfig(l2_weight=10.0))
        assert parts["l2"] == 0.0

    def test_uniform_heads_give_two_log_c(self):
        final = T.Tensor(np.zeros((2, 10)))
        initial = T.Tensor(np.zeros((2, 10)))
        loss, _ = TR.total_loss(final, initial, np.array([3, 7]), 0.0,
                                TR.LossConfig(lm_weight=1.0))
        assert loss.item() == pytest.approx(2 * np.log(10), abs=1e-12)

    @pytest.mark.parametrize("l2_weight", [0.0, 1e-3])
    def test_taped_loss_and_its_terms_hold_0d_arrays(self, l2_weight):
        # the scaled LM term and the sums are ops on 0-d tensors, which numpy
        # answers with scalars: each must still wrap a 0-d float64 ndarray
        final, initial = (T.Tensor(t.data, requires_grad=True) for t in self.make_logits())
        tape = T.GradTape()
        with T.recording(tape):
            loss, parts = TR.total_loss(final, initial, np.array([0, 1, 2, 3]), 2.5,
                                        TR.LossConfig(lm_weight=0.5, l2_weight=l2_weight))
        assert len(tape.records) == 1  # the loss is one op: both CEs, their weights and the L2 constant
        for out, *_ in tape.records:
            assert type(out.data) is np.ndarray and out.data.shape == ()
            assert out.data.dtype == np.float64 and out.data.flags.c_contiguous
        assert tape.records[-1][0] is loss
        expected = parts["synth_loss"] + parts["lm_loss"] * 0.5
        assert loss.item() == (expected + 2.5 * l2_weight if l2_weight else expected)
        grads = T.backward(loss)
        assert all(type(g) is np.ndarray for g in grads.values())

    def test_l2_term_value(self):
        final, initial = self.make_logits()
        p = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        _, parts = TR.total_loss(final, initial, np.array([0, 1, 2, 3]),
                                 TR.squared_norm(p.data, [p.size]), TR.LossConfig(l2_weight=0.5))
        assert parts["l2"] == pytest.approx(0.5 * 5.0)

    def test_l2_bitwise_equals_per_parameter_chain(self, monkeypatch):
        # train_step, its L2 gradient written into the buffer before the
        # backward, against the regulariser on the tape as one sum_squares
        # per parameter joined by add: the loss, the gradient buffer and the
        # updated vector bit for bit
        train, _ = toy_dataset(train_size=8, eval_size=8)
        batch = (train.images[:4], train.labels[:4])
        cfg = TR.LossConfig(lm_weight=0.7, l2_weight=1e-3)
        buffers = []
        apply_updates = TR._apply_updates

        def keep_buffer(st, grad, *rest):
            buffers.append(grad.copy())
            apply_updates(st, grad, *rest)

        monkeypatch.setattr(TR, "_apply_updates", keep_buffer)
        for optimizer in ("sgd", "rmsprop"):
            state = toy_state(n_bases=3, seed=11)
            s = sched(batch_size=4, optimizer=optimizer)
            oracle = copy.deepcopy(state)
            ref_loss, ref_grads, _ = train_step_per_tensor(oracle, batch, s, cfg, {})
            state, metrics = TR.train_step(state, batch, s, cfg)
            want = np.concatenate([ref_grads[p].reshape(-1) for _, p in TR.named_parameters(oracle)])
            assert np.float64(metrics["loss"]).tobytes() == ref_loss.data.tobytes()
            assert buffers[-1].tobytes() == want.tobytes()
            assert state.vector.data.tobytes() == oracle.vector.data.tobytes()

    def test_l2_term_adds_no_gradient_record(self):
        # the L2 value joins the loss op as a constant: no record of its own,
        # whatever the parameter count, and no parameter on the tape or in
        # the gradients
        final, initial = self.make_logits()
        final.requires_grad = initial.requires_grad = True
        y = np.array([0, 1, 2, 3])
        added = set()
        for count in (1, 5, 25):
            params = [T.Tensor(np.full(3, 0.5 + i), requires_grad=True) for i in range(count)]
            l2_sum = TR.squared_norm(np.concatenate([p.data for p in params]), [p.size for p in params])
            records = []
            for weight in (0.0, 1e-2):
                tape = T.GradTape()
                with T.recording(tape):
                    loss, _ = TR.total_loss(final, initial, y, l2_sum, TR.LossConfig(l2_weight=weight))
                records.append(len(tape.records))
                assert not any(p in inputs for _, inputs, _ in tape.records for p in params)
                grads = T.backward(loss)
                assert not any(p in grads for p in params)
            added.add(records[1] - records[0])
        assert added == {0}
        # the value is still the per-tensor sums, added left to right
        reg = l2_chain(params)
        _, parts = TR.total_loss(final, initial, y, l2_sum, TR.LossConfig(l2_weight=1e-2))
        assert parts["l2"] == 1e-2 * reg.item()


class TestBmdMask:
    def test_rate_zero_keeps_all(self):
        mask = TR.sample_bmd_mask(8, 0.0, np.random.default_rng(0))
        assert not mask.any()

    def test_empirical_rate_within_three_sigma(self):
        rng = np.random.default_rng(1)
        n, rate, trials = 8, 1.0 / 8.0, 100_000
        drops = sum(TR.sample_bmd_mask(n, rate, rng).sum() for _ in range(trials))
        total = n * trials
        sigma = np.sqrt(total * rate * (1 - rate))
        assert abs(drops - total * rate) < 3 * sigma

    def test_never_all_dropped(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            mask = TR.sample_bmd_mask(2, 0.9, rng)
            assert not mask.all()


class TestAugmentBatch:
    @pytest.mark.parametrize("crop_pad", [0, 1, 2, 3])
    @pytest.mark.parametrize("flip", [False, True])
    def test_gathered_crop_equals_per_sample_loop(self, crop_pad, flip):
        # non-square maps and two channels, so a transposed window would show
        images = np.random.default_rng(11).random((9, 2, 5, 7))
        got = augment_batch(images, np.random.default_rng(crop_pad), flip=flip, crop_pad=crop_pad)
        want = augment_reference(images, np.random.default_rng(crop_pad), flip, crop_pad)
        assert got.shape == images.shape
        assert got.tobytes() == want.tobytes()


class TestTrainStep:
    def test_single_example_loss_decreases(self):
        state = toy_state(n_bases=2, seed=0)
        train, _ = toy_dataset(train_size=8, eval_size=8)
        x, y = train.images[:1], train.labels[:1]
        s = sched(lr_base=0.02, batch_size=1)

        def loss_of(st):
            final, initial, _ = TR.forward_training(st, x, 0.0, None)
            loss, _ = TR.total_loss(final, initial, y, 0.0, TR.LossConfig())
            return loss.item()

        before = loss_of(state)
        state, _ = TR.train_step(state, (x, y), s, TR.LossConfig())
        after = loss_of(state)
        assert after < before

    def test_initial_term_sends_no_gradient_to_bank(self):
        state = toy_state(n_bases=3, seed=1)
        train, _ = toy_dataset(train_size=8, eval_size=8)
        x, y = train.images[:2], train.labels[:2]

        tape = T.GradTape()
        with T.recording(tape):
            final, initial, _ = TR.forward_training(state, x, 0.0, None)
            loss = T.scale(T.cross_entropy(initial, y), 1.0)  # lm term alone
        grads = T.backward(loss)

        for kernel in state.bank.kernels:
            assert kernel not in grads
        assert state.bank.head_w not in grads
        # while the lightweight trunk does learn from it
        assert state.lm_params.trunk.layers[0].kernel in grads

    def test_synth_term_reaches_lm_through_coefficients(self):
        state = toy_state(n_bases=3, seed=2)
        train, _ = toy_dataset(train_size=8, eval_size=8)
        x, y = train.images[:1], train.labels[:1]

        tape = T.GradTape()
        with T.recording(tape):
            final, _, _ = TR.forward_training(state, x, 0.0, None)
            loss = T.cross_entropy(final, y)
        grads = T.backward(loss)
        gw = grads.get(state.lm_params.coeff_w)
        assert gw is not None and np.any(gw != 0)

        # finite-difference probe on one coefficient-head weight
        idx = np.unravel_index(np.argmax(np.abs(gw)), gw.shape)
        w0 = state.lm_params.coeff_w.data.copy()

        def loss_at(wv):
            state.lm_params.coeff_w.apply_update(wv)
            final, _, _ = TR.forward_training(state, x, 0.0, None)
            out = T.cross_entropy(final, y).item()
            state.lm_params.coeff_w.apply_update(w0)
            return out

        h = 1e-6
        wp, wm = w0.copy(), w0.copy()
        wp[idx] += h
        wm[idx] -= h
        numeric = (loss_at(wp) - loss_at(wm)) / (2 * h)
        assert gw[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_uniform_blend_overrides_coefficient_head(self):
        # during the epsilon=1 hold phase, the specialist must not depend on
        # the coefficient head at all
        state = toy_state(n_bases=4, seed=3)
        train, _ = toy_dataset(train_size=8, eval_size=8)
        x = train.images[:2]
        final_a, _, _ = TR.forward_training(state, x, 1.0, None)
        rng = np.random.default_rng(0)
        state.lm_params.coeff_w.apply_update(rng.standard_normal(state.lm_params.coeff_w.shape))
        state.lm_params.coeff_b.apply_update(rng.standard_normal(state.lm_params.coeff_b.shape))
        final_b, _, _ = TR.forward_training(state, x, 1.0, None)
        assert final_a.data.tobytes() == final_b.data.tobytes()

    def test_dropped_basis_gets_no_update(self):
        state = toy_state(n_bases=3, seed=4)
        train, _ = toy_dataset(train_size=8, eval_size=8)
        x, y = train.images[:2], train.labels[:2]
        drop = np.array([False, True, False])

        tape = T.GradTape()
        with T.recording(tape):
            final, initial, _ = TR.forward_training(state, x, 0.0, drop)
            loss = T.cross_entropy(final, y)
        grads = T.backward(loss)
        for k in state.bank.nonshared_indices():  # the dropped basis's rows are exact zeros
            stack = grads[state.bank.kernels[k]]
            assert np.array_equal(stack[1], np.zeros(stack.shape[1:]))
            assert np.any(stack[0]) and np.any(stack[2])

    def test_determinism_across_runs(self):
        def one_run():
            state = toy_state(n_bases=2, seed=5)
            train, _ = toy_dataset(train_size=64, eval_size=8)
            s = sched(total_steps=12, epsilon_hold_steps=2, epsilon_decay_steps=4,
                      bmd_rate=0.25, batch_size=4, flip=True, crop_pad=1)
            _, metrics = run_training(state, train, s, TR.LossConfig(l2_weight=1e-5))
            return metrics

        a, b = one_run(), one_run()
        assert a == b

    def test_shared_layer_stays_single_storage(self):
        state = toy_state(n_bases=3, seed=6, shared=(0,))
        train, _ = toy_dataset(train_size=64, eval_size=8)
        s = sched(total_steps=5, batch_size=4)
        state, _ = run_training(state, train, s, TR.LossConfig())
        assert state.bank.kernels[0].shape == state.bank.spec.layers[0].kernel_shape
        specialist = S.synthesize(state.bank, T.Tensor(np.full((2, 3), 1 / 3)))
        assert specialist.layers[0].kernel is state.bank.kernels[0]

    def test_overflowing_update_raises_and_changes_nothing(self):
        # a finite forward and backward, then an RMSProp update, whose steps
        # are of order lr, that overflows: the step is refused whole, with
        # parameters, accumulator and step count unwritten
        state = toy_state(n_bases=2, seed=7)
        train, _ = toy_dataset(train_size=8, eval_size=8)
        batch = (train.images[:2], train.labels[:2])
        cfg = TR.LossConfig(l2_weight=1e-3)
        state, _ = TR.train_step(state, batch, sched(batch_size=2, optimizer="rmsprop"), cfg)
        vector, acc, step = state.vector.data.tobytes(), state.opt_state.tobytes(), state.step
        huge = sched(batch_size=2, optimizer="rmsprop", lr_base=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TR.TrainingDiverged, match="step 1 .*parameter update"):
                TR.train_step(state, batch, huge, cfg)
        assert state.vector.data.tobytes() == vector
        assert state.opt_state.tobytes() == acc
        assert state.step == step

    def test_nan_divergence_raises_with_diagnostics(self):
        state = toy_state(n_bases=2, seed=7)
        train, _ = toy_dataset(train_size=8, eval_size=8)
        s = sched(lr_base=0.1, batch_size=2)
        x, y = train.images[:2], train.labels[:2]
        # poison one layer's bases so the forward pass overflows float64
        kern = state.bank.kernels[1]
        kern.apply_update(np.full(kern.shape, 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TR.TrainingDiverged, match="step 0"):
                TR.train_step(state, (x, y), s, TR.LossConfig())

    def test_underflowed_dropout_row_raises_with_diagnostics(self):
        # the coefficient head puts all of every row on basis 0 (the others'
        # softmax terms underflow to 0), and the step's mask drops basis 0:
        # no survivor is left to rescale, a diverged step that changes nothing
        state = toy_state(n_bases=3, seed=7)
        train, _ = toy_dataset(train_size=8, eval_size=8)
        batch = (train.images[:2], train.labels[:2])
        state, _ = TR.train_step(state, batch, sched(batch_size=2, optimizer="rmsprop"), TR.LossConfig())
        bias = np.zeros(state.lm_params.coeff_b.shape)
        bias[::3] = 900.0  # basis 0 of each row
        state.lm_params.coeff_b.apply_update(bias)
        s = sched(batch_size=2, optimizer="rmsprop", bmd_rate=0.5)
        state.step = next(k for k in range(1, 100) if TR.sample_bmd_mask(3, 0.5, TR.step_rng(s, k, 2))[0])
        vector, acc, step = state.vector.data.tobytes(), state.opt_state.tobytes(), state.step
        with pytest.raises(TR.TrainingDiverged, match=(
                rf"^training went non-finite at step {step} \(lr=0\.1\): basis dropout left a "
                r"coefficient row whose survivors all underflowed to 0")):
            TR.train_step(state, batch, s, TR.LossConfig())
        assert state.vector.data.tobytes() == vector
        assert state.opt_state.tobytes() == acc
        assert state.step == step

    def test_overflowing_blend_refuses_the_step(self):
        # finite bases whose blend overflows (three sigmoid coefficients near
        # 1): blend does not scan, so the stage-two conv's check refuses the
        # step, and nothing is written
        state = toy_state(n_bases=3, seed=7, synth_cfg=S.SynthesisConfig(activation="sigmoid"))
        train, _ = toy_dataset(train_size=8, eval_size=8)
        bias = state.lm_params.coeff_b
        bias.apply_update(np.full(bias.shape, 40.0))
        kern = state.bank.kernels[1]
        kern.apply_update(np.full(kern.shape, 1e308))
        vector, step = state.vector.data.tobytes(), state.step
        _, feats = P.lm_forward(state.lm, state.lm_params, T.Tensor(train.images[:2]))
        raw = T.linear(feats, state.lm_params.coeff_w, bias)
        alpha = S.coefficients_from_raw(raw, state.synth_cfg, state.bank.n_coefficient_rows, 3)
        with np.errstate(all="ignore"):
            assert not np.isfinite(T.blend(alpha, kern, 0).data).any()
            with pytest.raises(TR.TrainingDiverged, match="step 0"):
                TR.train_step(state, (train.images[:2], train.labels[:2]), sched(batch_size=2),
                              TR.LossConfig())
        assert state.vector.data.tobytes() == vector and state.step == step

    def test_per_sample_bmd_masks(self):
        state = toy_state(n_bases=4, seed=23)
        train, _ = toy_dataset(train_size=16, eval_size=8)
        s = sched(lr_base=0.01, batch_size=8, bmd_rate=0.4, bmd_per_sample=True)
        state, metrics = TR.train_step(state, (train.images[:8], train.labels[:8]),
                                       s, TR.LossConfig())
        assert np.isfinite(metrics["loss"])
        # with a high rate and 8 samples, masks almost surely differ across rows
        rng = TR.step_rng(s, 0, stream=2)
        masks = np.stack([TR.sample_bmd_mask(4, 0.4, rng) for _ in range(8)])
        assert len({m.tobytes() for m in masks}) > 1
        # each sample's dropped bases are zero in its own rows only
        _, _, alpha = TR.forward_training(state, train.images[:8], 0.0, masks)
        for v, mask in zip(alpha.data, masks):
            assert np.all(v[:, mask] == 0.0) and np.all(v[:, ~mask] > 0.0)

    def test_rmsprop_updates_and_keeps_accumulators(self):
        state = toy_state(n_bases=2, seed=8)
        train, _ = toy_dataset(train_size=16, eval_size=8)
        s = sched(total_steps=3, optimizer="rmsprop", lr_base=0.01, batch_size=4)
        state, metrics = run_training(state, train, s, TR.LossConfig())
        assert len(metrics) == 3
        # one accumulator entry per parameter value, carried from step to step
        assert state.opt_state.shape == state.vector.shape
        before = state.opt_state.copy()
        state, _ = TR.train_step(state, TR.sample_batch(train, s, 3), s, TR.LossConfig())
        offset = 0
        for name, p in TR.named_parameters(state):
            acc = state.opt_state[offset:offset + p.size]
            if name.startswith("bank."):
                assert np.any(acc != 0.0)
            assert np.any(acc != before[offset:offset + p.size])
            offset += p.size

    def test_step_leaves_no_garbage_cycle(self):
        # backward releases its tape, so a step's graph is freed by reference
        # counting alone: with the cyclic collector off, nothing is left for it
        train, _ = toy_dataset(train_size=8, eval_size=8)
        s = sched(batch_size=4, bmd_rate=0.3, optimizer="rmsprop", clip_norm=1.0)
        state = toy_state(n_bases=3, seed=4)
        batch = (train.images[:4], train.labels[:4])
        gc.collect()
        gc.disable()
        try:
            TR.train_step(state, batch, s, TR.LossConfig(l2_weight=1e-3))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_parameters_are_views_into_one_vector(self):
        state = toy_state(n_bases=3, seed=8)
        params = [p for _, p in TR.named_parameters(state)]
        assert state.vector.size == sum(p.size for p in params)
        flat = np.concatenate([p.data.reshape(-1) for p in params])
        assert flat.tobytes() == state.vector.data.tobytes()
        for p in params:
            assert np.shares_memory(p.data, state.vector.data)
        # an update of the vector is an update of every parameter
        state.vector.apply_update(state.vector.data + 1.0)
        assert np.array_equal(np.concatenate([p.data.reshape(-1) for p in params]), flat + 1.0)

    def test_deepcopy_trains_its_own_vector(self):
        state = toy_state(n_bases=2, seed=8)
        train, _ = toy_dataset(train_size=8, eval_size=8)
        batch = (train.images[:2], train.labels[:2])
        s = sched(optimizer="rmsprop", batch_size=2)
        state, _ = TR.train_step(state, batch, s, TR.LossConfig())
        before = {name: p.data.copy() for name, p in TR.named_parameters(state)}
        acc = state.opt_state.copy()
        twin = copy.deepcopy(state)
        assert twin.step == state.step and np.array_equal(twin.opt_state, acc)
        for (name, p), (_, q) in zip(TR.named_parameters(state), TR.named_parameters(twin)):
            assert np.array_equal(q.data, before[name])
            assert np.shares_memory(q.data, twin.vector.data)
            assert not np.shares_memory(q.data, state.vector.data)
        twin, _ = TR.train_step(twin, batch, s, TR.LossConfig())
        assert not np.array_equal(twin.bank.head_w.data, before["bank.head.w"])
        assert not all(np.array_equal(k.data, before[name]) for name, k in
                       TR.named_parameters(twin) if name.endswith(".bases"))
        for name, p in TR.named_parameters(state):  # the original is untouched
            assert np.array_equal(p.data, before[name])
        assert np.array_equal(state.opt_state, acc) and state.step == twin.step - 1

    def test_replace_refuses_a_packed_state(self):
        # a second state over the same tensors would take them over from the first
        state = toy_state(n_bases=2, seed=8)
        with pytest.raises(ValueError, match=r"^parameter lm\.trunk\.L0\.kernel is already a "
                                             r"view into another state's vector"):
            dataclasses.replace(state)
        for _, p in TR.named_parameters(state):
            assert np.shares_memory(p.data, state.vector.data)

    def test_gradient_clipping_bounds_update_norm(self):
        state = toy_state(n_bases=2, seed=9)
        train, _ = toy_dataset(train_size=8, eval_size=8)
        before = {name: p.data.copy() for name, p in TR.named_parameters(state)}
        s = sched(lr_base=1.0, clip_norm=0.1, batch_size=2)
        state, _ = TR.train_step(state, (train.images[:2], train.labels[:2]), s, TR.LossConfig())
        total = 0.0
        for name, p in TR.named_parameters(state):
            delta = p.data - before[name]
            total += float(np.sum(delta * delta))
        assert np.sqrt(total) <= 0.1 + 1e-9

    @pytest.mark.parametrize("optimizer", ["sgd", "rmsprop"])
    def test_clip_above_gradient_norm_is_bitwise_unclipped(self, optimizer):
        train, _ = toy_dataset(train_size=8, eval_size=8)
        batch = (train.images[:2], train.labels[:2])
        after = []
        for clip_norm in (None, 1e6):
            state = toy_state(n_bases=2, seed=9)
            s = sched(lr_base=0.05, clip_norm=clip_norm, batch_size=2, optimizer=optimizer)
            state, _ = TR.train_step(state, batch, s, TR.LossConfig(l2_weight=1e-3))
            after.append([p.data.tobytes() for _, p in TR.named_parameters(state)])
        assert after[0] == after[1]


class TestGradientBuffer:
    """The gradient buffer lives on the state, built once, and every step
    reseeds the part it trains, so nothing a step leaves behind reaches the
    next."""

    @pytest.mark.parametrize("l2_weight", [0.0, 1e-3])
    def test_refused_step_leaves_nothing_for_the_next(self, l2_weight):
        train, _ = toy_dataset(train_size=8, eval_size=8)
        batch = (train.images[:2], train.labels[:2])
        cfg = TR.LossConfig(l2_weight=l2_weight)
        state = toy_state(n_bases=3, seed=7)
        twin = copy.deepcopy(state)
        huge = sched(batch_size=2, optimizer="rmsprop", lr_base=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TR.TrainingDiverged, match="parameter update"):
                TR.train_step(state, batch, huge, cfg)
        # the refused step's gradients are still in the buffer, a dropped
        # basis's among them
        s = sched(batch_size=2, bmd_rate=0.5)
        drops = TR.sample_bmd_mask(3, 0.5, TR.step_rng(s, 0, stream=2))
        assert drops.any()
        assert np.any(state.joint.into[state.bank.kernels[1]][drops] != 0.0)
        state, metrics = TR.train_step(state, batch, s, cfg)
        twin, want = TR.train_step(twin, batch, s, cfg)
        assert metrics == want
        assert state.vector.data.tobytes() == twin.vector.data.tobytes()
        assert state.grad.tobytes() == twin.grad.tobytes()

    def test_basis_dropped_in_every_sample_keeps_its_values(self):
        # SGD at l2_weight 0 reads every slot of the buffer: a basis no
        # sample uses must find zeros there, not the last step's gradient
        train, _ = toy_dataset(train_size=8, eval_size=8)
        batch = (train.images[:4], train.labels[:4])
        state = toy_state(n_bases=3, seed=5)
        state, _ = TR.train_step(state, batch, sched(batch_size=4), TR.LossConfig())
        s = sched(batch_size=4, bmd_rate=0.5)
        drops = TR.sample_bmd_mask(3, 0.5, TR.step_rng(s, 1, stream=2))
        assert drops.any()
        stacks = [state.bank.kernels[k] for k in state.bank.nonshared_indices()]
        before = [k.data[drops].tobytes() for k in stacks]
        assert all(np.any(state.joint.into[k][drops] != 0.0) for k in stacks)
        state, _ = TR.train_step(state, batch, s, TR.LossConfig())
        assert [k.data[drops].tobytes() for k in stacks] == before
        assert not any(np.any(state.joint.into[k][drops]) for k in stacks)

    def test_rmsprop_decays_the_accumulator_of_a_dropped_basis(self):
        # at l2_weight 0 a basis no sample uses gets zero rows in its stack's
        # gradient: its values stay and its accumulator decays by 0.9
        train, _ = toy_dataset(train_size=8, eval_size=8)
        batch = (train.images[:4], train.labels[:4])
        state = toy_state(n_bases=3, seed=5)
        state, _ = TR.train_step(state, batch, sched(batch_size=4, optimizer="rmsprop"), TR.LossConfig())
        s = sched(batch_size=4, bmd_rate=0.5, optimizer="rmsprop")
        drops = TR.sample_bmd_mask(3, 0.5, TR.step_rng(s, 1, stream=2))
        assert drops.any()
        named = TR.named_parameters(state)
        offsets = dict(zip((p for _, p in named), accumulate((p.size for _, p in named), initial=0)))
        stacks = [state.bank.kernels[k] for k in state.bank.nonshared_indices()]

        def dropped_rows(k, flat):
            return flat[offsets[k]:offsets[k] + k.size].reshape(k.shape)[drops]

        values = [k.data[drops].copy() for k in stacks]
        acc = [dropped_rows(k, state.opt_state).copy() for k in stacks]
        assert all(np.any(a > 0.0) for a in acc)
        state, _ = TR.train_step(state, batch, s, TR.LossConfig())
        for k, v, a in zip(stacks, values, acc):
            assert k.data[drops].tobytes() == v.tobytes()
            assert dropped_rows(k, state.opt_state).tobytes() == (0.9 * a).tobytes()

    def test_deepcopy_twin_gets_its_own_buffer(self):
        state = toy_state(n_bases=2, seed=8)
        twin = copy.deepcopy(state)
        assert not np.shares_memory(twin.grad, state.grad)
        for copy_, other in ((twin, state), (state, twin)):
            for plan in (copy_.joint, copy_.selection):
                assert np.shares_memory(plan.values, copy_.vector.data)
                for p, view in plan.into.items():
                    assert np.shares_memory(view, copy_.grad)
                    assert not np.shares_memory(view, other.grad)
                    assert p.shape == view.shape
        train, _ = toy_dataset(train_size=8, eval_size=8)
        before = state.grad.copy()
        TR.train_step(twin, (train.images[:2], train.labels[:2]), sched(batch_size=2),
                      TR.LossConfig(l2_weight=1e-3))
        assert np.any(twin.grad != 0.0)
        assert state.grad.tobytes() == before.tobytes()


class TestVectorisedUpdate:
    @pytest.mark.parametrize("clip_norm", [None, 0.05], ids=["unclipped", "clip_binding"])
    @pytest.mark.parametrize("optimizer", ["sgd", "rmsprop"])
    def test_bitwise_equal_to_per_tensor_oracle(self, optimizer, clip_norm):
        self._check_against_oracle(optimizer, clip_norm, l2_weight=0.0)

    @pytest.mark.parametrize("clip_norm", [None, 0.05], ids=["unclipped", "clip_binding"])
    @pytest.mark.parametrize("optimizer", ["sgd", "rmsprop"])
    def test_l2_bitwise_equal_to_per_tensor_oracle(self, optimizer, clip_norm):
        self._check_against_oracle(optimizer, clip_norm, l2_weight=1e-3)

    @staticmethod
    def _check_against_oracle(optimizer, clip_norm, l2_weight):
        # the gradient buffer started at L2's term (or at zeros, at l2_weight
        # 0) against the regulariser on a plain tape and a per-tensor update,
        # through joint steps and then the fine-tune tail. Dropout (per_layer)
        # and selection leave bases unused: such a basis gets its L2 gradient
        # alone. Under one_hot from step 0 the network never reaches the
        # coefficient head: at l2_weight 0 the plain tape gives it no entry,
        # and the state's accumulator for it stays exactly zero
        train, _ = toy_dataset(train_size=32, eval_size=8)
        s = sched(total_steps=6, finetune_steps=6, bmd_rate=0.4, batch_size=4, lr_base=0.05,
                  optimizer=optimizer, clip_norm=clip_norm)
        for mode in ("per_layer", "one_hot"):
            loss_cfg = TR.LossConfig(lm_weight=0.7, l2_weight=l2_weight)
            cfg = S.SynthesisConfig(mode=mode)
            state, metrics = run_training(toy_state(n_bases=4, seed=12, synth_cfg=cfg), train, s, loss_cfg)

            oracle = toy_state(n_bases=4, seed=12, synth_cfg=cfg)
            head = (oracle.lm_params.coeff_w, oracle.lm_params.coeff_b)
            accumulators, losses, factors, dropped, reached = {}, [], [], [], []
            while oracle.step < s.total_steps + s.finetune_steps:
                stacks = {p: p.data.copy() for name, p in TR.named_parameters(oracle) if name.endswith(".bases")}
                batch = TR.sample_batch(train, s, oracle.step)
                loss, grads, factor = train_step_per_tensor(oracle, batch, s, loss_cfg, accumulators)
                losses.append(loss.item())
                factors.append(factor)
                # the net term: a basis no sample used gets its L2 gradient only
                dropped.append(any(np.array_equal(grads[p][n], 2.0 * w[n] * l2_weight)
                                   for p, w in stacks.items() if p in grads for n in range(len(w))))
                reached.append(any(p in grads for p in head))

            assert any(dropped[:6]) and any(dropped[6:])
            assert reached == [mode == "per_layer" or l2_weight > 0.0] * 6 + [False] * 6
            assert all(f is not None for f in factors) if clip_norm else not any(factors)
            assert [m["loss"] for m in metrics] == losses
            assert state.vector.data.tobytes() == oracle.vector.data.tobytes()
            if optimizer == "sgd":
                assert state.opt_state is None
                continue
            named = TR.named_parameters(oracle)
            expected = np.concatenate([accumulators.get(name, np.zeros(p.shape)).reshape(-1)
                                       for name, p in named])
            assert state.opt_state.tobytes() == expected.tobytes()
            if mode == "one_hot" and l2_weight == 0.0:
                slots = dict(zip((name for name, _ in named),
                                 TR._views(state.opt_state, [p for _, p in named])))
                assert not any(name.startswith("lm.coeff_head.") for name in accumulators)
                assert not np.any(slots["lm.coeff_head.w"]) and not np.any(slots["lm.coeff_head.b"])


class TestStepEqualsPerOpChain:
    """``train_step``, with its one-op coefficients, stabilizers and loss,
    its fresh conv input gradients and its update written into the state's
    buffers, against ``oracles.train_step_chain``, the step as a chain of
    per-op records with a fresh array per temporary: each step's gradient
    buffer, metrics, vector and accumulator byte for byte."""

    CASES = {
        "per_layer-eps-shared-l2-rmsprop": dict(decay=5, bmd_rate=0.4, l2=1e-5),
        "per_layer-eps0-no_masks-l2_0-sgd": dict(optimizer="sgd", l2=0.0),
        "per_layer-eps-per_sample-clip": dict(decay=5, bmd_rate=0.4, per_sample=True, clip=0.05, l2=1e-5),
        "per_layer-mask_drops_nothing": dict(bmd_rate=0.01, l2=1e-5),
        "per_model-eps-per_sample": dict(mode="per_model", decay=5, bmd_rate=0.4, per_sample=True, l2=1e-5),
        "one_hot-masks_ignored": dict(mode="one_hot", decay=5, bmd_rate=0.4, l2=1e-5),
        "selection_tail-l2": dict(decay=5, bmd_rate=0.4, l2=1e-5, finetune=3),
        "selection_tail-l2_0-clip": dict(bmd_rate=0.4, l2=0.0, finetune=3, clip=0.05),
        "sigmoid-shared_layer_1-eps-shared-clip": dict(activation="sigmoid", shared=(1,), decay=5, bmd_rate=0.4,
                                                       clip=0.05, l2=1e-5),
        "distill_both": dict(distill="both", decay=5, bmd_rate=0.4, l2=1e-5),
        "distill_bases_only-selection_tail": dict(distill="bases_only", bmd_rate=0.4, finetune=3),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bitwise_equal_to_the_chain(self, case):
        opt = self.CASES[case]
        train, _ = toy_dataset(train_size=32, eval_size=8)
        cfg = S.SynthesisConfig(activation=opt.get("activation", "softmax"), mode=opt.get("mode", "per_layer"))
        s = sched(total_steps=6, finetune_steps=opt.get("finetune", 0), epsilon_decay_steps=opt.get("decay", 0),
                  bmd_rate=opt.get("bmd_rate", 0.0), bmd_per_sample=opt.get("per_sample", False),
                  clip_norm=opt.get("clip"), optimizer=opt.get("optimizer", "rmsprop"), batch_size=4,
                  lr_base=0.05)
        distill = None
        if "distill" in opt:
            spec = B.BackboneSpec((1, 12, 12), (B.LayerSpec(1, 4, 3, stride=2, padding=1),), 6)
            distill = TR.DistillConfig(spec, B.build(spec, seed=0), policy=opt["distill"], soft_weight=0.5)
        loss_cfg = TR.LossConfig(lm_weight=0.7, l2_weight=opt.get("l2", 0.0), distill=distill)
        state, oracle = (toy_state(n_bases=4, seed=12, shared=opt.get("shared", (0,)), synth_cfg=cfg)
                         for _ in range(2))
        state.step = oracle.step = 3  # from epsilon 0.4 down to 0 in a decaying case
        epsilons, drops = [], []
        while state.step < s.total_steps + s.finetune_steps:
            batch = TR.sample_batch(train, s, state.step)
            if s.bmd_rate > 0.0:
                drops.append(TR.sample_bmd_mask(4, s.bmd_rate, TR.step_rng(s, state.step, 2)).any())
            state, got = TR.train_step(state, batch, s, loss_cfg)
            oracle, want = train_step_chain(oracle, batch, s, loss_cfg)
            epsilons.append(got["epsilon"])
            assert {k: np.float64(v).tobytes() for k, v in got.items()} == {
                k: np.float64(v).tobytes() for k, v in want.items()}
            assert state.grad.tobytes() == oracle.grad.tobytes()
            assert state.vector.data.tobytes() == oracle.vector.data.tobytes()
            assert (state.opt_state is None) == (oracle.opt_state is None)
            if state.opt_state is not None:
                assert state.opt_state.tobytes() == oracle.opt_state.tobytes()
        assert epsilons[0] == (0.4 if "decay" in opt else 0.0)
        if s.bmd_rate == 0.01:
            assert not any(drops)
        elif s.bmd_rate > 0.0:
            assert any(drops)


class TestBatchedMatchesPerImage:
    """forward_training against the per-image oracle: logits bitwise, gradients to 1e-12."""

    SHARED = np.array([False, True, False, False])
    PER_SAMPLE = np.array([[False, True, False, False], [False, False, False, False],
                           [True, False, False, True], [False, True, True, False],
                           [False, False, False, False]])
    DROP_FIRST = np.array([[True, False, False, False], [True, True, False, False],
                           [True, False, False, True], [True, False, False, False],
                           [True, False, True, False]])

    @pytest.mark.parametrize("mode,activation,eps,masks", [
        ("per_layer", "softmax", 0.0, None),
        ("per_layer", "softmax", 0.4, "shared"),
        ("per_layer", "softmax", 0.4, "per_sample"),
        ("per_layer", "softmax", 1.0, "per_sample"),
        ("per_layer", "softmax", 0.0, "drop_first"),
        ("per_layer", "softmax", 0.4, "drop_first"),
        ("per_layer", "sigmoid", 0.4, "per_sample"),
        ("per_model", "softmax", 0.4, "per_sample"),
        ("per_model", "softmax", 0.0, "shared"),
        ("one_hot", "softmax", 0.4, "per_sample"),
    ])
    def test_logits_bitwise_and_gradients_close(self, mode, activation, eps, masks):
        cfg = S.SynthesisConfig(activation=activation, mode=mode)
        state = toy_state(n_bases=4, seed=30, synth_cfg=cfg)
        train, _ = toy_dataset(train_size=16, eval_size=8)
        x, y = train.images[:5], train.labels[:5]
        drop = {None: None, "shared": self.SHARED, "per_sample": self.PER_SAMPLE,
                "drop_first": self.DROP_FIRST}[masks]
        params = [p for _, p in TR.named_parameters(state)]

        tape = T.GradTape()
        with T.recording(tape):
            final, initial, alpha = TR.forward_training(state, x, eps, drop)
            loss = T.add(T.cross_entropy(final, y), T.cross_entropy(initial, y))
        grads = T.backward(loss)

        tape = T.GradTape()
        with T.recording(tape):
            finals, ref_initial, ref_alphas = per_image_forward(state, x, eps, drop)
            ref_loss = T.cross_entropy(ref_initial, y)
            for b, logits in enumerate(finals):
                ref_loss = T.add(ref_loss, T.scale(T.cross_entropy(logits, y[b:b + 1]), 1 / len(x)))
        ref_grads = T.backward(ref_loss)

        assert final.data.tobytes() == np.concatenate([f.data for f in finals]).tobytes()
        assert alpha.data.tobytes() == np.stack([a.data for a in ref_alphas]).tobytes()
        assert [p in grads for p in params] == [p in ref_grads for p in params]
        for p in params:
            if p in grads:
                np.testing.assert_allclose(grads[p], ref_grads[p], rtol=1e-12, atol=1e-12)


class TestTrainedModelIsEvaluatedModel:
    """With no uniform blend and no dropout, training's forward pass is the
    full path of inference, bit for bit, whether or not a tape records it."""

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("mode", ["per_layer", "per_model", "one_hot"])
    def test_forward_training_equals_infer_batch(self, mode, taped):
        state = toy_state(n_bases=4, seed=31, synth_cfg=S.SynthesisConfig(mode=mode))
        train, _ = toy_dataset(train_size=16, eval_size=8)
        x = train.images[:6]
        with T.recording(T.GradTape()) if taped else contextlib.nullcontext():
            final, initial, alpha = TR.forward_training(state, x, 0.0, None)
        assert (final.tape is not None) == taped
        record = P.infer_batch(state.lm, state.lm_params, state.bank, state.synth_cfg, x, 1.01)
        assert record.pending.tolist() == list(range(len(x)))
        assert final.data.tobytes() == record.final_logits.tobytes()
        assert initial.data.tobytes() == record.initial_logits.tobytes()
        assert alpha.shape == record.coefficients.shape
        assert alpha.data.tobytes() == record.coefficients.tobytes()


class TestDistillation:
    def make_teacher(self, num_classes=6):
        spec = B.BackboneSpec((1, 12, 12), (B.LayerSpec(1, 4, 3, stride=2, padding=1),), num_classes)
        return spec, B.build(spec, seed=0)

    def test_rows_sum_to_one(self):
        spec, params = self.make_teacher()
        x = np.random.default_rng(0).random((5, 1, 12, 12))
        soft = TR.distill_targets(spec, params, x)
        np.testing.assert_allclose(soft.sum(axis=1), 1.0, atol=1e-9)

    def test_saturated_teacher_equals_hard_labels(self):
        # a teacher whose softmax underflows to an exact one-hot makes
        # distilled training identical to hard-target training
        spec, params = self.make_teacher()
        x = np.random.default_rng(1).random((3, 1, 12, 12))
        cls = 2
        params.head_w.apply_update(np.zeros(params.head_w.shape))
        bias = np.zeros(spec.num_classes)
        bias[cls] = 2000.0  # exp(-2000) underflows to exactly 0
        params.head_b.apply_update(bias)

        soft = TR.distill_targets(spec, params, x)
        onehot = np.zeros((3, spec.num_classes))
        onehot[:, cls] = 1.0
        assert np.array_equal(soft, onehot)

        logits = T.Tensor(np.random.default_rng(2).standard_normal((3, spec.num_classes)))
        hard = np.full(3, cls)
        assert T.cross_entropy(logits, soft).item() == T.cross_entropy(logits, hard).item()

    def test_uniform_teacher_closed_form(self):
        rng = np.random.default_rng(3)
        lv = rng.standard_normal((4, 6))
        uniform = np.full((4, 6), 1 / 6)
        ce = T.cross_entropy(T.Tensor(lv), uniform).item()
        lse = np.log(np.exp(lv - lv.max(1, keepdims=True)).sum(1)) + lv.max(1)
        expected = float(np.mean(lse - lv.mean(axis=1)))
        assert ce == pytest.approx(expected, abs=1e-12)

    def test_policy_bases_only_keeps_hard_lm_targets(self):
        spec, params = self.make_teacher()
        rng = np.random.default_rng(4)
        final = T.Tensor(rng.standard_normal((2, 6)))
        initial = T.Tensor(rng.standard_normal((2, 6)))
        y = np.array([1, 5])
        soft = TR.distill_targets(spec, params, rng.random((2, 1, 12, 12)))

        both = TR.LossConfig(distill=TR.DistillConfig(spec, params, policy="both"))
        bases = TR.LossConfig(distill=TR.DistillConfig(spec, params, policy="bases_only"))
        _, parts_both = TR.total_loss(final, initial, y, 0.0, both, soft)
        _, parts_bases = TR.total_loss(final, initial, y, 0.0, bases, soft)
        assert parts_both["synth_loss"] == parts_bases["synth_loss"]
        assert parts_bases["lm_loss"] == T.cross_entropy(initial, y).item()
        assert parts_both["lm_loss"] != parts_bases["lm_loss"]


class TestFinetuneOneHot:
    def trained_state(self, mode="per_layer"):
        state = toy_state(n_bases=2, seed=10, synth_cfg=S.SynthesisConfig(mode=mode))
        train, _ = toy_dataset(train_size=64, eval_size=8)
        s = sched(total_steps=8, batch_size=4)
        state, _ = run_training(state, train, s, TR.LossConfig())
        return state, train

    def test_requires_joint_training(self):
        with pytest.raises(ValueError, match="joint training first"):
            sched(total_steps=0, finetune_steps=2)
        with pytest.raises(ValueError, match="finetune_steps must be >= 0"):
            sched(finetune_steps=-1)

    @pytest.mark.parametrize("mode", ["per_layer", "per_model"])
    def test_frozen_lm_bitwise_and_coefficients_hard(self, mode):
        state, train = self.trained_state(mode)
        lm_before = {n: p.data.copy() for n, p in TR.named_parameters(state) if n.startswith("lm.")}
        bank_before = state.bank.kernels[1].data.copy()

        state, metrics = run_training(
            state, train, sched(total_steps=state.step, finetune_steps=6, batch_size=4,
                                lr_base=0.05), TR.LossConfig())

        assert state.synth_cfg.mode == "one_hot" and metrics[-1]["step"] == 13
        for n, p in TR.named_parameters(state):
            if n.startswith("lm."):
                assert p.data.tobytes() == lm_before[n].tobytes()
        # the bases that were selected trained on
        if mode == "per_layer":
            assert not np.array_equal(state.bank.kernels[1].data[0], bank_before[0])
        else:
            assert any(not np.array_equal(k, before)
                       for k, before in zip(state.bank.kernels[1].data, bank_before))

        _, _, alpha = TR.forward_training(state, train.images[:3], 0.0, None)
        v = alpha.data
        assert v.shape == (3, 2, 2)
        assert np.all(np.isin(v, (0.0, 1.0))) and np.all(v.sum(axis=-1) == 1.0)
        if mode == "per_model":  # the one-row head selects one basis for every layer
            assert np.all(v == v[:, :1])

    def test_selection_step_backpropagates_only_the_bank(self, monkeypatch):
        state, train = self.trained_state()
        s = sched(total_steps=state.step, finetune_steps=2, batch_size=4)
        returned = []
        real_backward = T.backward

        def keep_gradients(loss):
            returned.append(real_backward(loss))
            return returned[-1]

        monkeypatch.setattr(T, "backward", keep_gradients)
        batch = TR.sample_batch(train, s, state.step)
        state, metrics = TR.train_step(state, batch, s, TR.LossConfig())

        names = {p: name for name, p in TR.named_parameters(state)}
        graded = [names[t] for t in returned[0] if t in names]
        assert graded and all(name.startswith("bank.") for name in graded)
        # the frozen model's loss is still reported
        _, initial, _ = TR.forward_training(state, batch[0], 0.0, None)
        assert metrics["lm_loss"] == T.cross_entropy(initial, batch[1]).item()

    def test_state_rejects_unknown_attributes(self):
        # a slotted dataclass: assigning a field it does not have raises
        # rather than being silently ignored
        state = toy_state(n_bases=2, seed=14)
        with pytest.raises(AttributeError):
            state.hard_selection = True


class TestCoefficientModes:
    @pytest.mark.parametrize("mode, head_rows, needed", [
        ("per_model", 2, 1),  # a per-layer head: one row per blended layer
        ("per_layer", 1, 2),  # a per-model head: one row for the whole model
    ])
    def test_head_that_does_not_fit_the_mode_is_refused(self, mode, head_rows, needed):
        spec = toy_bank_spec()  # three layers, layer 0 shared: two blended
        cfg = S.SynthesisConfig(mode=mode)
        assert cfg.head_rows(2) == needed
        with pytest.raises(ValueError, match=(
                f"^{mode} mode needs a {needed}-row coefficient head, "
                f"the lightweight model's has {head_rows}$")):
            TR.init_state(toy_lm(spec, 3, head_rows), spec, [0], cfg, seed=0)

    def test_per_model_training_step_runs(self):
        cfg = S.SynthesisConfig(mode="per_model")
        state = toy_state(n_bases=3, seed=20, synth_cfg=cfg)
        train, _ = toy_dataset(train_size=16, eval_size=8)
        assert state.lm.coeff_rows == 1
        state, metrics = TR.train_step(
            state, (train.images[:4], train.labels[:4]),
            sched(lr_base=0.01, batch_size=4), TR.LossConfig())
        assert np.isfinite(metrics["loss"])
        _, _, alpha = TR.forward_training(state, train.images[:2], 0.0, None)
        v = alpha.data
        assert v.shape == (2, 2, 3)
        assert np.all(v == v[:, :1])

    def test_one_hot_mode_trains_bases_only_path(self):
        cfg = S.SynthesisConfig(mode="one_hot")
        state = toy_state(n_bases=3, seed=21, synth_cfg=cfg)
        train, _ = toy_dataset(train_size=16, eval_size=8)
        state, metrics = TR.train_step(
            state, (train.images[:4], train.labels[:4]),
            sched(lr_base=0.01, batch_size=4), TR.LossConfig())
        assert np.isfinite(metrics["loss"])
        _, _, alpha = TR.forward_training(state, train.images[:2], 0.0, None)
        assert np.all(np.isin(alpha.data, (0.0, 1.0)))

    def test_hard_coefficients_skip_epsilon_and_dropout(self):
        state = toy_state(n_bases=4, seed=24, synth_cfg=S.SynthesisConfig(mode="one_hot"))
        train, _ = toy_dataset(train_size=16, eval_size=8)
        x = train.images[:5]
        _, _, alpha = TR.forward_training(state, x, 0.4, TestBatchedMatchesPerImage.PER_SAMPLE)
        _, feats = P.lm_forward(state.lm, state.lm_params, T.Tensor(x))
        raw = T.linear(feats, state.lm_params.coeff_w, state.lm_params.coeff_b)
        soft = S.coefficients_from_raw(raw, S.SynthesisConfig(), 2, 4)
        assert np.all(np.isin(alpha.data, (0.0, 1.0))) and np.all(alpha.data.sum(axis=-1) == 1.0)
        assert np.array_equal(alpha.data, to_one_hot(soft).data)

    def test_sigmoid_coefficients_stay_unnormalized(self):
        cfg = S.SynthesisConfig(activation="sigmoid")
        state = toy_state(n_bases=3, seed=22, synth_cfg=cfg)
        train, _ = toy_dataset(train_size=16, eval_size=8)
        _, _, alpha = TR.forward_training(state, train.images[:2], 0.0, None)
        sums = alpha.data[0].sum(axis=1)
        assert not np.allclose(sums, 1.0)


class TestCapacitySanity:
    def test_small_overfit_reaches_low_loss(self):
        # 200 samples must be memorizable by the toy stack within 700 steps
        state = toy_state(n_bases=2, seed=12, channels=8, num_classes=4)
        train, _ = toy_dataset(num_classes=4, train_size=200, eval_size=8, noise=0.02)
        s = sched(total_steps=700, lr_base=0.02, lr_decay_factor=0.9,
                  lr_decay_interval=200, batch_size=32, optimizer="rmsprop")
        state, metrics = run_training(state, train, s, TR.LossConfig(lm_weight=0.0))
        tail = [m["synth_loss"] for m in metrics[-25:]]
        assert np.mean(tail) < 0.05
