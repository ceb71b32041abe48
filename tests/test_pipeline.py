"""Two-stage inference: termination, accounting, trace order, and the router baseline."""

import contextlib
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from kernelblend import backbone as B
from kernelblend import experiment as EX
from kernelblend import pipeline as P
from kernelblend import synthesis as S
from kernelblend import tensor as T
from kernelblend import training as TR
from kernelblend.config import parse_config

from oracles import (RouterParams, build_routers, condconv_forward, confidence_reference,
                     conv2d_reference, linear_reference)
from toys import toy_state

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic-demo.json"


def bank_spec():
    return B.BackboneSpec(
        input_shape=(1, 16, 16),
        layers=(
            B.LayerSpec(1, 4, 3, stride=2, padding=1),
            B.LayerSpec(4, 6, 3, padding=1),
            B.LayerSpec(6, 6, 3, stride=2, padding=1),
        ),
        num_classes=4,
    )


def lm_for(bank, downsample=2):
    c, h, w = bank.spec.input_shape
    trunk = B.BackboneSpec(
        input_shape=(c, h // downsample, w // downsample),
        layers=(B.LayerSpec(c, 4, 3, stride=2, padding=1),),
        num_classes=bank.spec.num_classes,
    )
    return P.LightweightModel(
        trunk=trunk, n_bases=bank.n_bases,
        coeff_rows=bank.n_coefficient_rows, downsample=downsample,
    )


@pytest.fixture
def setup():
    bank = S.build_bank(bank_spec(), n_bases=3, shared_layers=[0], seed=0)
    lm = lm_for(bank)
    params = P.build_lm(lm, seed=1)
    cfg = S.SynthesisConfig(activation="softmax", mode="per_layer")
    x = np.random.default_rng(2).random((1, 1, 16, 16))
    return lm, params, bank, cfg, x


class TestLightweightModel:
    def test_downsample_feeds_halved_input(self, setup):
        lm, params, _, _, _ = setup
        x = T.Tensor(np.random.default_rng(3).random((1, 1, 16, 16)))
        initial, feats = P.lm_forward(lm, params, x)
        assert initial.shape == (1, 4)
        assert feats.shape == (1, lm.trunk.feature_channels)
        assert P.downsample_input(x.data, 2).shape == (1, 1, 8, 8)

    def test_downsample_is_block_mean(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        down = P.downsample_input(x, 2)
        assert down[0, 0, 0, 0] == (0 + 1 + 4 + 5) / 4

    @pytest.mark.parametrize("batch", [1, 3, 16, 256])
    @pytest.mark.parametrize("factor", range(1, P.MAX_DOWNSAMPLE + 1))
    def test_downsample_is_the_reshape_mean_bitwise(self, factor, batch):
        rng = np.random.default_rng(factor)
        shape = (batch, 3, 2 * factor, 3 * factor)
        # values over several orders of magnitude, so a change of summation
        # order shows in the last bits
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, size=shape)
        expected = x.reshape(batch, 3, 2, factor, 3, factor).mean(axis=(3, 5))
        assert P.downsample_input(x, factor).tobytes() == expected.tobytes()

    def test_downsample_rejects_a_size_the_factor_does_not_divide(self):
        with pytest.raises(T.ShapeError, match="not divisible"):
            P.downsample_input(np.zeros((2, 1, 9, 8)), 2)
        with pytest.raises(T.ShapeError, match="not divisible"):
            P.downsample_input(np.zeros((1, 1, 9, 10)), 3)

    def test_factor_above_the_bitwise_bound_rejected(self):
        bank = S.build_bank(bank_spec(), n_bases=2, shared_layers=[], seed=0)
        assert lm_for(bank, downsample=P.MAX_DOWNSAMPLE).downsample == P.MAX_DOWNSAMPLE
        with pytest.raises(ValueError, match="downsample"):
            lm_for(bank, downsample=P.MAX_DOWNSAMPLE + 1)

    def test_transformed_input_must_match_trunk(self, setup):
        lm, params, _, _, _ = setup
        with pytest.raises(T.ShapeError, match="does not match spec input shape"):
            P.lm_forward(lm, params, T.Tensor(np.zeros((1, 1, 24, 24))))
        # a malformed batch is refused naming the shape passed and the one the
        # model takes, not a shape the downsample made or a numpy unpack error
        state = toy_state()
        model = (state.lm, state.lm_params, state.bank, state.synth_cfg)
        for shape in ((2, 12, 12), (2, 1, 14, 14)):
            message = f"input {shape} does not match spec input shape (1, 12, 12)"
            with pytest.raises(T.ShapeError, match=re.escape(message)):
                P.infer_batch(*model, np.zeros(shape), 0.5)

    def test_deterministic_heads(self, setup):
        lm, params, _, _, x = setup
        a = P.lm_forward(lm, params, T.Tensor(x))
        b = P.lm_forward(lm, params, T.Tensor(x))
        assert a[0].data.tobytes() == b[0].data.tobytes()
        assert a[1].data.tobytes() == b[1].data.tobytes()

    def test_trunk_madds_counted_once_vs_oracle(self, setup):
        lm, params, bank, _, x = setup
        xd = P.downsample_input(x, lm.downsample)
        mults = 0
        out = xd
        for layer, lp in zip(lm.trunk.layers, params.trunk.layers):
            out, m = conv2d_reference(out, lp.kernel.data, layer.stride, layer.padding)
            mults += m
        feats = out.mean(axis=(2, 3))
        _, m_class = linear_reference(feats, params.trunk.head_w.data)
        _, m_coeff = linear_reference(feats, params.coeff_w.data)
        stage_one, synthesis, _, _ = P.image_madds(lm, bank)
        assert stage_one == mults + m_class  # an image that stops runs no coefficient head
        assert synthesis == m_coeff + S.synthesis_madds(bank.spec, bank.share_mask, bank.n_bases)


class TestConfidence:
    def test_uniform_logits(self):
        assert P.confidence(np.zeros(10)) == pytest.approx(0.1)

    def test_dominant_logit(self):
        assert P.confidence(np.array([100.0, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self):
        logits = np.array([1.3, -0.2, 0.5])
        assert P.confidence(logits) == pytest.approx(P.confidence(logits + 123.4))

    def test_needs_two_classes(self):
        with pytest.raises(T.ShapeError):
            P.confidence(np.array([1.0]))
        with pytest.raises(T.ShapeError):
            P.confidences(np.zeros((3, 1)))

    def test_vectorised_equals_per_row_formula(self):
        # bit for bit, over batch sizes, class counts (C=2 and past numpy's
        # pairwise-summation blocks), magnitudes and tied logits
        rng = np.random.default_rng(21)
        cases = []
        for b in (1, 2, 7, 64, 257):
            for c in (2, 3, 6, 8, 9, 10, 17, 130, 300):
                for scale in (1e-3, 1.0, 40.0, 1e3, 1e8):
                    cases.append(scale * rng.standard_normal((b, c)))
                cases.append(rng.integers(-2, 3, size=(b, c)).astype(np.float64))  # ties
        cases += [np.zeros((4, 6)), np.full((3, 2), 1e300), np.array([[7.0, 7.0, -1.0]]),
                  np.array([[1e307, -1e307], [-1e307, 1e307]])]
        for logits in cases:
            expected = np.array([confidence_reference(row) for row in logits])
            assert P.confidences(logits).tobytes() == expected.tobytes()
            assert P.confidence(logits[-1]) == expected[-1]

    def test_one_over_sum_is_max_over_sum_bitwise(self):
        # confidences returns 1/sum(e): the row's max shifts to exp(0.0),
        # exactly 1.0, so it equals max(e)/sum(e) in every bit, here on
        # adversarial rows: exact ties, adjacent doubles, +-1e300, values near
        # 1e-300 and subnormal, constant rows, and rows long enough for
        # numpy's pairwise sums
        def up(v, k=1):
            for _ in range(k):
                v = np.nextafter(v, np.inf)
            return v

        rows = [
            [3.0, 3.0, 3.0], [7.0, 7.0, -1.0], [-2.0, 5.0, 5.0, 5.0],
            [1.0, up(1.0)], [up(1.0), 1.0, up(1.0, 2)], [0.0, up(0.0), -up(0.0)],
            [1e300, -1e300], [-1e300, 1e300, 0.0], [1e300, up(1e300), 1e300],
            [-1e300, -1e300], [1e-300, 2e-300, -1e-300], [5e-324, 0.0, -5e-324],
            [1e-300, up(1e-300)], [0.0] * 6, [42.5] * 9, [-1e300] * 17,
            [1e300, 1e-300, -1e-300, 0.0, 7.0, 7.0, -7.0, 1e300, up(1e300)],
            [1e307, -1e307], [700.0, -700.0, 0.0], [1.0, 1.0 - 2 ** -52] * 5,
        ]
        rng = np.random.default_rng(35)
        for c in (2, 6, 8, 9, 33):
            rows.append(list(np.round(rng.standard_normal(c), 1)))  # ties likely
            v = rng.standard_normal()
            rows.append(list(v + np.spacing(v) * rng.integers(0, 3, size=c)))  # adjacent doubles
        for row in rows:
            for logits in (np.array([row]), np.array([row, row[::-1]])):
                e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
                expected = np.maximum.reduce(e, axis=-1) / np.add.reduce(e, axis=-1)
                assert P.confidences(logits).tobytes() == expected.tobytes(), row


class TestImageMadds:
    @pytest.mark.parametrize("mode,shared,n_bases", [
        ("per_layer", [0], 3), ("per_layer", [], 1), ("per_model", [0], 3),
        ("one_hot", [0], 3), ("per_layer", [0, 2], 4), ("per_model", [1], 2),
    ], ids=["per_layer", "single_basis", "per_model", "one_hot", "two_shared", "per_model_shared"])
    def test_memoised_price_is_the_formula(self, mode, shared, n_bases):
        # the price is kept per model structure; the first call and a repeat
        # both equal the formula summed here from the layer specs, and a
        # bank with other kernels but the same structure reads the same entry
        bank = S.build_bank(bank_spec(), n_bases=n_bases, shared_layers=shared, seed=0)
        lm = dataclasses.replace(lm_for(bank), coeff_rows=S.SynthesisConfig(mode=mode).head_rows(
            bank.n_coefficient_rows))
        assert lm.coeff_rows == (1 if mode == "per_model" else 3 - len(shared))

        def madds(spec):
            return sum(h * w * layer.kernel_params for layer, (h, w) in zip(spec.layers, spec.spatial_sizes())
                       ) + spec.feature_channels * spec.num_classes

        stage_one = madds(lm.trunk)
        synthesis = lm.trunk.feature_channels * lm.coeff_rows * n_bases + n_bases * sum(
            layer.kernel_params for k, layer in enumerate(bank.spec.layers) if k not in shared)
        stage2 = madds(bank.spec)
        expected = (stage_one, synthesis, stage2, stage_one + synthesis + stage2)
        assert P.image_madds(lm, bank) == expected
        assert synthesis == lm.trunk.feature_channels * lm.coeff_width + S.synthesis_madds(
            bank.spec, bank.share_mask, n_bases)
        before = P._image_madds.cache_info()
        other = S.build_bank(bank_spec(), n_bases=n_bases, shared_layers=shared, seed=1)
        assert P.image_madds(lm, bank) == P.image_madds(lm, other) == expected
        after = P._image_madds.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 2)
        res = P.infer(lm, P.build_lm(lm, seed=1), bank, S.SynthesisConfig(mode=mode),
                      np.random.default_rng(2).random((1, 1, 16, 16)), 1.01)
        assert type(res.madds_spent) is int and res.madds_spent == expected[3]


def events(trace):
    return [(e[0], e[1], e[2].tobytes() if len(e) > 2 else None) for e in trace]


def reverse_bases(seen):
    """An ``edit`` that records each coefficient batch it is given and
    reverses the basis order."""
    def edit(alpha):
        seen.append(alpha.data.tobytes())
        return T.Tensor(alpha.data[..., ::-1])
    return edit


class TestInfer:
    def test_threshold_zero_always_terminates(self, setup):
        lm, params, bank, cfg, x = setup
        res = P.infer(lm, params, bank, cfg, x, threshold=0.0)
        assert res.terminated
        assert res.final_logits is None and res.coefficients is None
        assert res.madds_spent == P.image_madds(lm, bank)[0]

    def test_threshold_above_one_never_terminates(self, setup):
        lm, params, bank, cfg, x = setup
        res = P.infer(lm, params, bank, cfg, x, threshold=1.01)
        assert not res.terminated
        assert res.final_logits is not None
        coeff_head = lm.trunk.feature_channels * lm.coeff_width
        synthesis = S.synthesis_madds(bank.spec, bank.share_mask, bank.n_bases)
        expected = B.count_madds(lm.trunk) + coeff_head + synthesis + B.count_madds(bank.spec)
        assert res.madds_spent == expected

    def test_terminated_costs_strictly_less(self, setup):
        lm, params, bank, cfg, x = setup
        skipped = P.infer(lm, params, bank, cfg, x, threshold=0.0)
        ran = P.infer(lm, params, bank, cfg, x, threshold=1.01)
        assert skipped.madds_spent < ran.madds_spent

    def test_single_basis_matches_cascade_oracle(self):
        spec = bank_spec()
        bank = S.build_bank(spec, 1, [], seed=7)
        backbone_params = S.select_params(bank, [0] * bank.n_coefficient_rows)
        lm = lm_for(bank)
        params = P.build_lm(lm, seed=8)
        cfg = S.SynthesisConfig()
        x = np.random.default_rng(9).random((1, 1, 16, 16))
        res = P.infer(lm, params, bank, cfg, x, threshold=1.01)
        oracle = B.forward(backbone_params, spec, T.Tensor(x))
        assert np.array_equal(res.final_logits, oracle.data[0])

    def test_negative_threshold_rejected(self, setup):
        lm, params, bank, cfg, x = setup
        with pytest.raises(ValueError):
            P.infer(lm, params, bank, cfg, x, threshold=-0.1)

    def test_all_coefficients_ready_before_first_layer(self, setup):
        lm, params, bank, cfg, x = setup
        trace = []
        P.infer(lm, params, bank, cfg, x, threshold=1.01, trace=trace)
        kinds = [e[0] for e in trace]
        first_execute = kinds.index("execute")
        assert "coefficients" not in kinds[first_execute:]
        assert kinds[:first_execute].count("coefficients") == bank.n_coefficient_rows

    def test_one_hot_mode_hardens_at_inference(self, setup):
        lm, params, bank, _, x = setup
        cfg = S.SynthesisConfig(mode="one_hot")
        res = P.infer(lm, params, bank, cfg, x, threshold=1.01)
        v = res.coefficients.data
        assert np.all(np.isin(v, (0.0, 1.0))) and np.all(v.sum(axis=1) == 1.0)

    def test_result_fields_are_plain_scalars(self, setup):
        lm, params, bank, cfg, x = setup
        for threshold, stop in ((0.0, True), (1.01, False)):
            res = P.infer(lm, params, bank, cfg, x, threshold)
            assert res.terminated is stop
            assert type(res.confidence) is float and type(res.madds_spent) is int
            assert res.confidence == confidence_reference(res.initial_logits)
            assert res.initial_logits.shape == (4,)
            assert type(res.prediction) is int
            if stop:
                assert res.coefficients is None and res.final_logits is None
            else:
                assert isinstance(res.coefficients, T.Tensor)
                assert res.coefficients.shape == (bank.n_coefficient_rows, bank.n_bases)
                assert res.final_logits.shape == (4,)

    def test_result_invariant_enforced(self):
        with pytest.raises(ValueError):
            P.PipelineResult(
                initial_logits=np.zeros(3), confidence=0.5,
                terminated=True, madds_spent=1, final_logits=np.zeros(3),
            )
        with pytest.raises(ValueError):
            P.PipelineResult(
                initial_logits=np.zeros(3), confidence=0.5,
                terminated=False, madds_spent=1,
            )

    def test_skip_rate_nonincreasing_in_threshold(self, setup):
        lm, params, bank, cfg, _ = setup
        rng = np.random.default_rng(4)
        images = rng.random((12, 1, 16, 16))
        rates = []
        for thr in (0.0, 0.3, 0.6, 0.9, 1.01):
            skips = sum(
                P.infer(lm, params, bank, cfg, images[i:i + 1], thr).terminated
                for i in range(12)
            )
            rates.append(skips / 12)
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    # a one-row head is the per-model head; ``one_hot`` hardens either head
    @pytest.mark.parametrize("mode,one_row_head", [
        ("per_layer", False), ("per_model", True), ("one_hot", False), ("one_hot", True),
    ])
    def test_batch_equals_per_image_infer(self, setup, mode, one_row_head):
        _, _, bank, _, _ = setup
        lm = dataclasses.replace(lm_for(bank), coeff_rows=1 if one_row_head else bank.n_coefficient_rows)
        params = P.build_lm(lm, seed=1)
        cfg = S.SynthesisConfig(mode=mode)
        images = np.random.default_rng(5).random((10, 1, 16, 16))
        threshold = float(np.median([P.infer(lm, params, bank, cfg, images[i:i + 1], 0.0).confidence
                                     for i in range(10)]))
        batch = P.infer_batch(lm, params, bank, cfg, images, threshold)
        assert np.count_nonzero(batch.terminated) == 5
        assert batch.pending.tolist() == np.flatnonzero(~batch.terminated).tolist()
        row = {i: j for j, i in enumerate(batch.pending.tolist())}
        for i in range(len(images)):
            one = P.infer(lm, params, bank, cfg, images[i:i + 1], threshold)
            assert (batch.terminated[i], batch.confidence[i], batch.madds_spent[i]) == (
                one.terminated, one.confidence, one.madds_spent)
            assert batch.initial_logits[i].tobytes() == one.initial_logits.tobytes()
            assert batch.predictions()[i] == one.prediction
            if not batch.terminated[i]:
                assert batch.final_logits[row[i]].tobytes() == one.final_logits.tobytes()
                assert batch.coefficients[row[i]].tobytes() == one.coefficients.data.tobytes()
        if one_row_head:
            assert np.all(batch.coefficients == batch.coefficients[:, :1])
        if mode == "one_hot":
            assert np.all(np.isin(batch.coefficients, (0.0, 1.0)))
            assert np.all(batch.coefficients.sum(axis=-1) == 1.0)

        # ``stage_two`` over the pending images calls ``edit`` once with
        # their (P, rows, N) tensor, in image order, and each image's
        # specialist runs on its slice of the tensor that ``edit`` returns
        seen = []
        x = T.Tensor(images[batch.pending])
        final, edited = P.stage_two(params, bank, cfg, x, P.lm_forward(lm, params, x)[1],
                                    reverse_bases(seen))
        assert seen == [batch.coefficients.tobytes()]
        for j, i in enumerate(batch.pending):
            alpha = T.Tensor(edited.data[j])
            assert np.array_equal(alpha.data, batch.coefficients[j][:, ::-1])
            alone = B.forward(S.synthesize(bank, alpha), bank.spec, T.Tensor(images[i:i + 1]))
            assert final.data[j].tobytes() == alone.data[0].tobytes()

    def test_pending_rows_are_the_rows_of_the_pass_that_stops_none(self, setup, monkeypatch):
        # the coefficient head runs on the pending rows only, and each such
        # row gives the bits of the pass that stops no image and of ``infer``
        # on that image alone
        lm, params, bank, cfg, _ = setup
        images = np.random.default_rng(7).random((12, 1, 16, 16))
        full = P.infer_batch(lm, params, bank, cfg, images, 1.01)
        threshold = float(np.median(full.confidence))
        head_rows = []
        linear = T._linear  # the kernel the stage-two plan runs the head with
        monkeypatch.setattr(T, "_linear", lambda x, w, b: (
            head_rows.append(len(x)) if w is params.coeff_w.data else None) or linear(x, w, b))
        part = P.infer_batch(lm, params, bank, cfg, images, threshold)
        assert head_rows == [len(part.pending)] and 0 < len(part.pending) < len(images)
        for j, i in enumerate(part.pending):
            alone = P.infer(lm, params, bank, cfg, images[i:i + 1], threshold)
            for coefficients, final in ((full.coefficients[i], full.final_logits[i]),
                                        (alone.coefficients.data, alone.final_logits)):
                assert part.coefficients[j].tobytes() == coefficients.tobytes()
                assert part.final_logits[j].tobytes() == final.tobytes()

    def test_predictions_cut_below_the_pass_threshold(self, setup):
        lm, params, bank, cfg, _ = setup
        images = np.random.default_rng(6).random((12, 1, 16, 16))
        full = P.infer_batch(lm, params, bank, cfg, images, 1.01)
        for threshold in (0.0, float(np.median(full.confidence)), 1.01):
            cut = P.infer_batch(lm, params, bank, cfg, images, threshold)
            assert full.predictions(threshold).tolist() == cut.predictions().tolist()
        with pytest.raises(ValueError, match="range"):
            cut.predictions(1.02)
        none_run = P.infer_batch(lm, params, bank, cfg, images, 0.0)
        assert none_run.pending.shape == (0,) and none_run.final_logits.shape == (0, 4)
        assert none_run.coefficients.shape == (0, bank.n_coefficient_rows, bank.n_bases)


class TestTapeFreeEqualsTaped:
    """The plan equals the taped run: with no tape live ``lm_forward`` and
    ``stage_two`` run their plans of ndarray kernels; inside a tape they run
    the ops, and every op records. Both must give every field, trace event
    and ``edit`` argument the same bits."""

    @pytest.mark.parametrize("mode,activation,one_row_head,shared", [
        ("per_layer", "softmax", False, [0]), ("per_layer", "softmax", False, []),
        ("per_model", "softmax", True, [0]), ("one_hot", "softmax", False, [0]),
        ("per_layer", "sigmoid", False, [1]),
    ], ids=["per_layer", "no_shared_layer", "per_model", "one_hot", "sigmoid"])
    def test_every_field_bitwise(self, mode, activation, one_row_head, shared):
        bank = S.build_bank(bank_spec(), n_bases=3, shared_layers=shared, seed=0)
        lm = dataclasses.replace(lm_for(bank), coeff_rows=1 if one_row_head else bank.n_coefficient_rows)
        params = P.build_lm(lm, seed=1)
        cfg = S.SynthesisConfig(activation=activation, mode=mode)
        images = np.random.default_rng(8).random((10, 1, 16, 16))
        threshold = float(np.median(P.infer_batch(lm, params, bank, cfg, images, 1.01).confidence))

        def run():
            trace, seen = [], []
            batch = P.infer_batch(lm, params, bank, cfg, images, threshold, trace=trace)
            x = T.Tensor(images)
            edited = P.stage_two(params, bank, cfg, x, P.lm_forward(lm, params, x)[1],
                                 reverse_bases(seen))
            singles = []
            for i in range(len(images)):
                one_trace = []
                one = P.infer(lm, params, bank, cfg, images[i:i + 1], threshold, trace=one_trace)
                singles.append((one.initial_logits.tobytes(), one.confidence, one.terminated,
                                one.madds_spent, one.prediction, events(one_trace),
                                None if one.terminated else (one.coefficients.data.tobytes(),
                                                             one.final_logits.tobytes())))
            records = [(name, getattr(batch, name).dtype, getattr(batch, name).shape,
                        getattr(batch, name).tobytes()) for name in batch._fields
                       if name != "threshold"]
            records += [(t.data.dtype, t.data.shape, t.data.tobytes()) for t in edited]
            return records, events(trace), seen, singles

        free = run()
        tape = T.GradTape()
        with T.recording(tape):
            taped = run()
        assert tape.records  # the taped path ran
        assert len(free[2]) == 1 and free == taped


class TestPlan:
    """The inference plans: one per model structure and input shape, in a
    bounded cache, reading the parameter arrays on every call."""

    def test_plan_reads_the_parameters_at_call_time(self, setup):
        # an in-place update, as training's optimizer makes, reaches the next
        # call through a plan already cached, and gives the taped run's bits
        lm, params, bank, cfg, x = setup
        before = P.infer(lm, params, bank, cfg, x, P.NEVER_TERMINATE)
        for tensor in (params.trunk.layers[0].kernel, params.coeff_w, bank.kernels[1]):
            tensor.apply_update(tensor.data * 1.5)
        plans = P._stage_one_plan.cache_info(), P._stage_two_plan.cache_info()
        after = P.infer(lm, params, bank, cfg, x, P.NEVER_TERMINATE)
        assert (P._stage_one_plan.cache_info().hits, P._stage_two_plan.cache_info().hits) == (
            plans[0].hits + 1, plans[1].hits + 1)
        with T.recording(T.GradTape()):
            taped = P.infer(lm, params, bank, cfg, x, P.NEVER_TERMINATE)
        assert after.final_logits.tobytes() == taped.final_logits.tobytes()
        assert after.coefficients.data.tobytes() == taped.coefficients.data.tobytes()
        assert after.initial_logits.tobytes() != before.initial_logits.tobytes()
        assert after.final_logits.tobytes() != before.final_logits.tobytes()

    def test_plan_caches_stay_bounded_over_every_pending_count(self, setup):
        lm, params, bank, cfg, _ = setup
        images = np.random.default_rng(9).random((80, 1, 16, 16))
        x = T.Tensor(images)
        _, feats = P.lm_forward(lm, params, x)
        for p in range(1, len(images) + 1):
            final, _ = P.stage_two(params, bank, cfg, T.constant(images[:p]), T.constant(feats.data[:p]))
            assert final.shape == (p, 4)
            for cache in (P._stage_one_plan, P._stage_two_plan):
                info = cache.cache_info()
                assert info.maxsize is not None and info.currsize <= info.maxsize


class TestBenchmarkHooks:
    """The benchmark's tracer wraps module attributes. It times ``lm_forward``
    inside ``infer`` and reads its Tensors' ``.data``, and times each conv
    layer's backward by wrapping the tape records that ``run_layer`` appends
    in training. These calls must keep going through their modules."""

    @pytest.fixture
    def demo(self):
        raw = json.loads(DEMO_CONFIG.read_text())
        raw["dataset"].update(train_size=32, eval_size=8)
        cfg = parse_config(raw)
        state, loss_cfg = EX.build_state(cfg)
        train, evalset = EX.load_dataset(cfg)
        return cfg, state, loss_cfg, train, evalset

    def test_each_inference_call_makes_one_lm_forward_call(self, demo, record_calls):
        _, state, _, _, evalset = demo
        model = (state.lm, state.lm_params, state.bank, state.synth_cfg)
        calls = record_calls(P, "lm_forward")
        for threshold in (0.0, P.NEVER_TERMINATE):
            P.infer(*model, evalset.images[:1], threshold)
            assert len(calls) == 1
            P.infer_batch(*model, evalset.images, threshold)
            assert len(calls) == 2
            assert all(isinstance(args[2], T.Tensor) for args in calls)
            calls.clear()
        initial, feats = P.lm_forward(state.lm, state.lm_params, T.Tensor(evalset.images[:1]))
        assert isinstance(initial, T.Tensor) and isinstance(feats, T.Tensor)
        assert initial.data.shape == (1, 6)

    def test_a_train_step_reaches_the_traced_functions(self, demo, record_calls, monkeypatch):
        # the tracer splits a step into its forward, loss, backward and update
        # phases from the spans of these calls, one of each per step
        cfg, state, loss_cfg, train, _ = demo
        layers, convs = record_calls(B, "run_layer"), record_calls(T, "conv2d")
        synths, backwards = record_calls(S, "synthesize"), record_calls(T, "backward")
        forwards, losses = record_calls(TR, "forward_training"), record_calls(TR, "total_loss")
        appended, run_layer = [], B.run_layer

        def probe(*args):  # what the tracer reads: the records each call appends
            records = T._ACTIVE_TAPE.records
            before = len(records)
            out = run_layer(*args)
            appended.append(len(records) - before)
            return out

        monkeypatch.setattr(B, "run_layer", probe)
        TR.train_step(state, TR.sample_batch(train, cfg.schedule, 0), cfg.schedule, loss_cfg)
        assert len(layers) == len(convs) == 5 and appended == [1] * 5
        assert len(synths) == len(backwards) == len(forwards) == len(losses) == 1


class TestFinitenessChecks:
    """A NaN in the input image is caught as it enters. Finite but huge
    parameters overflow the trunk, a blended stage-two kernel or the pooled
    features before a head. ``blend`` and ``global_avg_pool`` do not scan
    their results: each overflow must reach ``conv2d``'s check before its
    ReLU or the check on a ``linear`` output, with a tape live or not, as
    the CLI runs (every float warning off)."""

    CASES = ("nan_image", "lm_trunk", "blended_kernel", "lm_pooled", "bank_pooled")

    @staticmethod
    def overflow(case, lm, params, bank, x):
        cfg = S.SynthesisConfig()
        if case == "nan_image":  # the input is scanned once, as it enters
            x[0, 0, 0, 0] = np.nan
        elif case == "lm_trunk":  # -Inf before the ReLU, which would map it to 0
            params.trunk.layers[0].kernel.data[...] = -1e308
        elif case == "blended_kernel":  # finite bases; three coefficients near 1 sum them past the range
            cfg = S.SynthesisConfig(activation="sigmoid")
            params.coeff_b.data[...] = 40.0
            bank.kernels[1].data[...] = 1e308
            kernel = S.synthesize(bank, T.Tensor(np.ones((2, 3)))).layers[1].kernel
            assert not np.isfinite(kernel.data).any()
        elif case == "lm_pooled":  # every map entry 1e308: finite, but its 16 positions sum to Inf
            params.trunk.layers[0].kernel.data[...] = 0.0
            params.trunk.layers[0].bias.data[...] = 1e308
            spec, bp, inp = lm.trunk, params.trunk, P.downsample_input(x, lm.downsample)
        else:
            bank.kernels[2].data[...] = 0.0
            bank.biases[2].data[...] = 1e308
            spec, bp, inp = bank.spec, S.select_params(bank, [0, 0]), x
        if case.endswith("pooled"):  # every conv's check passes; the pooled features are Inf
            with np.errstate(all="ignore"):
                feats = B.forward_features(bp, spec, T.Tensor(inp))
            assert np.all(feats.data == np.inf)
        return cfg

    @pytest.mark.parametrize("taped", [False, True], ids=["tape_free", "taped"])
    @pytest.mark.parametrize("call", ["infer", "infer_batch"])
    @pytest.mark.parametrize("case", CASES)
    def test_overflow_raises(self, setup, case, call, taped):
        lm, params, bank, _, x = setup
        cfg = self.overflow(case, lm, params, bank, x)
        run = P.infer if call == "infer" else P.infer_batch
        with np.errstate(all="ignore"), contextlib.ExitStack() as stack:
            if taped:
                stack.enter_context(T.recording(T.GradTape()))
            with pytest.raises(T.NonFiniteError):
                run(lm, params, bank, cfg, x, P.NEVER_TERMINATE)


class TestCondConv:
    def test_constant_one_hot_routers_select_statically(self):
        bank = S.build_bank(bank_spec(), n_bases=3, shared_layers=[0], seed=5)
        routers = []
        choices = [2, 0]
        for k, choice in zip(bank.nonshared_indices(), choices):
            in_c = bank.spec.layers[k].in_channels
            onehot = np.zeros(3)
            onehot[choice] = 1.0
            routers.append(RouterParams(
                w=T.Tensor(np.zeros((in_c, 3))), b=T.Tensor(onehot),
            ))
        x = np.random.default_rng(6).random((1, 1, 16, 16))
        dynamic = condconv_forward(bank, routers, x, activation="identity")
        static = B.forward(S.select_params(bank, choices), bank.spec, T.Tensor(x))
        assert dynamic.data.tobytes() == static.data.tobytes()

    def test_single_basis_equals_plain_backbone(self):
        spec = bank_spec()
        bank = S.build_bank(spec, 1, [], seed=10)
        params = S.select_params(bank, [0] * bank.n_coefficient_rows)
        routers = build_routers(bank, seed=11)
        x = np.random.default_rng(12).random((1, 1, 16, 16))
        out = condconv_forward(bank, routers, x, activation="softmax")
        plain = B.forward(params, spec, T.Tensor(x))
        assert out.data.tobytes() == plain.data.tobytes()

    def test_later_coefficients_depend_on_earlier_kernels(self):
        bank = S.build_bank(bank_spec(), n_bases=3, shared_layers=[0], seed=13)
        routers = build_routers(bank, seed=14)
        x = np.random.default_rng(15).random((1, 1, 16, 16))

        before = []
        condconv_forward(bank, routers, x, trace=before)

        bumped = bank.kernels[0].data.copy()
        bumped[0, 0, 0, 0] += 0.5
        bank.kernels[0].apply_update(bumped)
        after = []
        condconv_forward(bank, routers, x, trace=after)

        coeff_before = [e for e in before if e[0] == "coefficients"]
        coeff_after = [e for e in after if e[0] == "coefficients"]
        assert any(
            not np.array_equal(b[2], a[2]) for b, a in zip(coeff_before, coeff_after)
        )

    def test_coefficients_interleave_with_execution(self):
        bank = S.build_bank(bank_spec(), n_bases=3, shared_layers=[0], seed=16)
        routers = build_routers(bank, seed=17)
        x = np.random.default_rng(18).random((1, 1, 16, 16))
        trace = []
        condconv_forward(bank, routers, x, trace=trace)
        order = [(e[0], e[1]) for e in trace]
        # layer 1's coefficients only exist after layer 0 has executed
        assert order.index(("coefficients", 1)) > order.index(("execute", 0))
        assert order.index(("coefficients", 2)) > order.index(("execute", 1))

    def test_router_count_mismatch(self):
        bank = S.build_bank(bank_spec(), n_bases=3, shared_layers=[0], seed=19)
        routers = build_routers(bank, seed=20)[:1]
        with pytest.raises(T.ShapeError):
            condconv_forward(bank, routers, np.zeros((1, 1, 16, 16)))
