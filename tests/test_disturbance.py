"""Coefficient disturbance: exact row edits, determinism, degenerate cases."""

import numpy as np
import pytest

from kernelblend import disturbance as DI
from kernelblend import pipeline as P
from kernelblend import synthesis as S
from kernelblend import tensor as T

from oracles import shuffle_reference
from toys import toy_dataset, toy_state


def cm(rows):
    return T.Tensor(np.array(rows, dtype=float))


class TestDisturb:
    def test_correct_is_identity(self):
        alpha = cm([[0.2, 0.8]])
        assert DI.disturb(alpha, DI.Disturbance("correct")) is alpha

    def test_uniform_rows(self):
        out = DI.disturb(cm([[0.9, 0.05, 0.03, 0.02]]), DI.Disturbance("uniform"))
        assert np.array_equal(out.data, [[0.25, 0.25, 0.25, 0.25]])

    def test_top1(self):
        out = DI.disturb(cm([[0.1, 0.6, 0.3]]), DI.Disturbance("top1"))
        assert np.array_equal(out.data, [[0.0, 1.0, 0.0]])

    def test_shuffle_preserves_multiset_and_sum(self):
        rows = [[0.5, 0.3, 0.15, 0.05], [0.25, 0.25, 0.4, 0.1]]
        out = DI.disturb(cm(rows), DI.Disturbance("shuffled", seed=3))
        for r in range(2):
            assert sorted(out.data[r]) == sorted(rows[r])
            assert out.data[r].sum() == pytest.approx(sum(rows[r]))

    def test_shuffle_deterministic_for_seed(self):
        rows = [[0.5, 0.3, 0.2]]
        a = DI.disturb(cm(rows), DI.Disturbance("shuffled", seed=7))
        b = DI.disturb(cm(rows), DI.Disturbance("shuffled", seed=7))
        assert np.array_equal(a.data, b.data)

    def test_shuffle_without_rng_draws_from_the_seed_stream(self):
        # the stream evaluate_disturbed, and so the CLI, shuffles from
        batch = np.random.default_rng(0).random((4, 3, 5))
        out = DI.disturb(T.Tensor(batch), DI.Disturbance("shuffled", seed=3))
        reference = shuffle_reference(batch, None, np.random.default_rng([3, 0x5F]))
        assert out.data.tobytes() == reference.tobytes()

    def test_mean_requires_table(self):
        with pytest.raises(ValueError, match="mean"):
            DI.disturb(cm([[0.5, 0.5]]), DI.Disturbance("mean"))

    def test_mean_applies_table(self):
        table = np.array([[0.7, 0.3]])
        out = DI.disturb(cm([[0.1, 0.9]]), DI.Disturbance("mean"), mean_table=table)
        assert np.array_equal(out.data, table)

    def test_idempotent_kinds(self):
        rows = [[0.3, 0.45, 0.25]]
        table = np.array([[0.2, 0.5, 0.3]])
        for kind, kw in (("top1", {}), ("uniform", {}), ("mean", {"mean_table": table})):
            once = DI.disturb(cm(rows), DI.Disturbance(kind), **kw)
            twice = DI.disturb(once, DI.Disturbance(kind), **kw)
            assert np.array_equal(once.data, twice.data)

    def test_row_subset_only_touches_targets(self):
        out = DI.disturb(cm([[0.8, 0.2], [0.3, 0.7]]), DI.Disturbance("uniform"), rows=[1])
        assert np.array_equal(out.data, [[0.8, 0.2], [0.5, 0.5]])

    @pytest.mark.parametrize("kind", DI.KINDS)
    @pytest.mark.parametrize("rows", [None, [1]])
    def test_batch_equals_each_image_in_turn(self, kind, rows):
        batch = np.random.default_rng(0).random((4, 3, 5))
        table = np.random.default_rng(1).random((3, 5))
        d = DI.Disturbance(kind)
        out = DI.disturb(T.Tensor(batch), d, rows=rows, mean_table=table,
                         rng=np.random.default_rng(9))
        rng = np.random.default_rng(9)  # one generator across the images, as in a batch
        each = [DI.disturb(T.Tensor(v), d, rows=rows, mean_table=table, rng=rng).data
                for v in batch]
        assert out.data.tobytes() == np.stack(each).tobytes()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("shape,rows", [
        ((3, 4), None), ((3, 4), [2]), ((256, 3, 4), None), ((256, 3, 4), [0]),
        ((7, 5, 2), [4, 1]), ((6, 2, 5), []), ((0, 3, 4), None),
    ])
    def test_shuffle_matches_row_by_row_reference(self, seed, shape, rows):
        values = np.random.default_rng(100 + seed).random(shape)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out = DI.disturb(T.Tensor(values), DI.Disturbance("shuffled"), rows=rows, rng=rng)
        assert out.data.tobytes() == shuffle_reference(values, rows, ref_rng).tobytes()
        # both consumed the same draws: the generators stay in step
        assert rng.random() == ref_rng.random()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DI.Disturbance("negate")


class TestEvaluateDisturbed:
    @pytest.fixture
    def model(self):
        state = toy_state(n_bases=3, seed=4)
        _, evalset = toy_dataset(train_size=8, eval_size=20)
        return state, evalset

    def test_correct_equals_undisturbed_pipeline(self, model):
        state, evalset = model
        acc = DI.evaluate_disturbed(state.lm, state.lm_params, state.bank,
                                    state.synth_cfg, evalset, DI.Disturbance("correct"))
        reference = 0
        for i in range(len(evalset)):
            res = P.infer(state.lm, state.lm_params, state.bank, state.synth_cfg,
                          evalset.images[i:i + 1], threshold=1.01)
            reference += res.prediction == evalset.labels[i]
        assert acc == reference / len(evalset)

    def test_single_basis_is_immune_to_every_kind(self):
        state = toy_state(n_bases=1, seed=5)
        _, evalset = toy_dataset(train_size=8, eval_size=16)
        model = (state.lm, state.lm_params, state.bank, state.synth_cfg)
        table = DI.mean_coefficients(P.infer_batch(*model, evalset.images, P.NEVER_TERMINATE).coefficients)
        accs = {
            kind: DI.evaluate_disturbed(*model, evalset, DI.Disturbance(kind), table)
            for kind in DI.KINDS
        }
        assert len(set(accs.values())) == 1

    @pytest.mark.parametrize("mode,kind,layer", [
        ("per_model", "shuffled", None),
        ("per_model", "shuffled", 1),
        ("per_model", "uniform", 1),
        ("one_hot", "uniform", 1),
    ])
    def test_edited_coefficients_synthesize_in_every_mode(self, mode, kind, layer):
        state = toy_state(n_bases=3, seed=4, synth_cfg=S.SynthesisConfig(mode=mode))
        _, evalset = toy_dataset(train_size=8, eval_size=12)
        acc = DI.evaluate_disturbed(state.lm, state.lm_params, state.bank, state.synth_cfg,
                                    evalset, DI.Disturbance(kind, layer=layer, seed=2))
        assert 0.0 <= acc <= 1.0

    def test_out_of_range_layer_rejected(self, model):
        state, evalset = model
        with pytest.raises(ValueError, match="out of range"):
            DI.evaluate_disturbed(state.lm, state.lm_params, state.bank,
                                  state.synth_cfg, evalset,
                                  DI.Disturbance("uniform", layer=9))

    def test_mean_without_table_rejected(self, model):
        state, evalset = model
        with pytest.raises(ValueError, match="mean table"):
            DI.evaluate_disturbed(state.lm, state.lm_params, state.bank,
                                  state.synth_cfg, evalset, DI.Disturbance("mean"))

    def test_mean_table_matches_manual_average(self, model):
        state, evalset = model
        params = (state.lm, state.lm_params, state.bank, state.synth_cfg)
        table = DI.mean_coefficients(P.infer_batch(*params, evalset.images, P.NEVER_TERMINATE).coefficients)
        assert table.shape == (2, 3)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-9)
        manual = sum(P.infer(*params, evalset.images[i:i + 1], threshold=1.01).coefficients.data
                     for i in range(len(evalset))) / len(evalset)
        np.testing.assert_allclose(table, manual, atol=1e-12)


def toy_model(seed, shared=(0,), eval_size=16):
    """(lm, params, bank, synthesis config, eval set) of a 3-layer toy."""
    state = toy_state(n_bases=3, seed=seed, shared=shared)
    _, evalset = toy_dataset(train_size=8, eval_size=eval_size)
    return state.lm, state.lm_params, state.bank, state.synth_cfg, evalset


class TestLayerSweep:
    def test_shared_layer_disturbance_is_noop(self, record_calls):
        # every kind at the shared layer 0 reports the reference pass's
        # accuracy as it is, and runs no disturbed pass there
        model = toy_model(seed=6)
        reference = DI.evaluate_disturbed(*model, DI.Disturbance("correct"))
        assert model[2].share_mask[0]
        calls = record_calls(DI, "_disturbed_accuracy")
        for kind in DI.KINDS:
            got, accuracies = DI.study(*model, kind, range(3), 2)
            assert got == reference and accuracies[0] == reference
            assert len(accuracies) == 3
        assert calls and all(args[6].layer != 0 for args in calls)

    def test_reports_mean_over_seeds(self):
        model = toy_model(seed=7, eval_size=12)
        reference, accuracies = DI.study(*model, "shuffled", range(3), 3)
        assert accuracies[0] == reference  # shared
        for layer in (1, 2):
            per_seed = [DI.evaluate_disturbed(*model, DI.Disturbance("shuffled", layer, seed))
                        for seed in range(3)]
            assert accuracies[layer] == float(np.mean(per_seed))
            assert 0.0 <= accuracies[layer] <= 1.0

    def test_mean_table_computed_once_per_sweep(self, record_calls):
        # the table is the reference pass's: no pass of its own, and each
        # non-shared layer's one pass synthesizes from it
        model = toy_model(seed=8, eval_size=12)
        tables = record_calls(DI, "mean_coefficients")
        evaluations = record_calls(DI, "_disturbed_accuracy")
        passes = record_calls(P, "stage_two")
        DI.study(*model, "mean", range(3), 3)
        assert len(tables) == 1 and len(passes) == 3 and len(evaluations) == 2
        reference = P.infer_batch(*model[:4], model[4].images, P.NEVER_TERMINATE)
        for args in evaluations:
            np.testing.assert_array_equal(args[7], DI.mean_coefficients(reference.coefficients))

    def test_seedless_kind_runs_once_per_layer(self, record_calls):
        # only shuffled reads the seed: top1 over 3 seeds is one pass per
        # non-shared layer, reported as that pass's accuracy, which every
        # seed's pass would give; the shared layer 0 runs none
        model = toy_model(seed=8, eval_size=12)
        evaluate_disturbed = DI.evaluate_disturbed
        calls = record_calls(DI, "_disturbed_accuracy")
        _, accuracies = DI.study(*model, "top1", range(3), 3)
        assert [args[6].layer for args in calls] == [1, 2]
        for layer, accuracy in enumerate(accuracies):
            assert all(evaluate_disturbed(*model, DI.Disturbance("top1", layer, seed)) == accuracy
                       for seed in range(3))

    @pytest.mark.parametrize("kind,layers,seeds,shared,passes", [
        ("mean", [1], 2, (), 2),  # a separate mean-table pass made it 3
        ("correct", [0, 1, 2], 5, (), 1),  # a pass per layer made it 4
        ("mean", [0, 1, 2], 5, (), 4),  # 5
        ("shuffled", [0, 1, 2], 5, (0,), 11),  # 5 passes at the shared layer made it 16
        ("correct", [None], 5, (), 1),
    ])
    def test_passes_per_study(self, record_calls, kind, layers, seeds, shared, passes):
        # stage one runs once; stage two once for the reference and once
        # per disturbed pass
        model = toy_model(seed=9, shared=shared, eval_size=12)
        stage_one, calls = record_calls(P, "lm_forward"), record_calls(P, "stage_two")
        DI.study(*model, kind, layers, seeds)
        assert len(stage_one) == 1 and len(calls) == passes

    @pytest.mark.parametrize("kind", DI.KINDS)
    def test_layer_range_checked_before_any_pass(self, record_calls, kind):
        model = toy_model(seed=9, eval_size=12)
        calls = record_calls(P, "lm_forward")
        with pytest.raises(ValueError, match="layer 9 out of range"):
            DI.study(*model, kind, [0, 9], 2)
        assert calls == []
