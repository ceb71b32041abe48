"""Experiment orchestration: training runs, metrics, teacher plumbing, export."""

import csv

import numpy as np
import pytest

from kernelblend import checkpoint as CK
from kernelblend import cost as C
from kernelblend import experiment as EX
from kernelblend import pipeline as P
from kernelblend import training as TR
from kernelblend.config import parse_config

from test_config import base_config
from toys import run_training, toy_dataset, toy_state


def make_cfg(tmp_path, **overrides):
    raw = base_config(**overrides)
    raw["output_dir"] = str(tmp_path / "out")
    return parse_config(raw)


def finetune_cfg(out_dir, finetune_steps, **schedule):
    raw = base_config()
    raw["output_dir"] = str(out_dir)
    raw["schedule"].update(finetune_steps=finetune_steps, **schedule)
    return parse_config(raw)


def parameter_bytes(state):
    return [(name, p.data.tobytes()) for name, p in TR.named_parameters(state)]


class TestRunTrain:
    def test_produces_metrics_checkpoint_and_summary(self, tmp_path):
        cfg = make_cfg(tmp_path)
        summary = EX.run_train(cfg)
        assert summary["steps"] == 20
        with open(summary["metrics_csv"]) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["step"]) for r in rows] == [10, 20]
        state, stored = CK.load_checkpoint(summary["checkpoint"])
        assert state.step == 20
        assert stored.raw == cfg.raw

    def test_epsilon_column_follows_schedule(self, tmp_path):
        cfg = make_cfg(tmp_path)
        summary = EX.run_train(cfg)
        with open(summary["metrics_csv"]) as fh:
            rows = list(csv.DictReader(fh))
        # metric rows carry the epsilon used by the step that produced them
        assert float(rows[0]["epsilon"]) == TR.epsilon_at(9, cfg.schedule)
        assert float(rows[1]["epsilon"]) == TR.epsilon_at(19, cfg.schedule)

    @pytest.mark.parametrize("finetune_steps, row_steps", [
        (5, [10, 20, 25]),
        (15, [10, 20, 30, 35]),  # fine-tuning crosses an eval multiple
    ])
    def test_finetune_phase_appends_steps_and_freezes_lm(self, tmp_path, finetune_steps,
                                                         row_steps):
        cfg = finetune_cfg(tmp_path / "out", finetune_steps)
        summary = EX.run_train(cfg)
        assert summary["steps"] == 20 + finetune_steps
        state, _ = CK.load_checkpoint(summary["checkpoint"])
        assert state.step == 20 + finetune_steps
        assert state.synth_cfg.mode == "one_hot"
        with open(summary["metrics_csv"]) as fh:
            rows = list(csv.DictReader(fh))
        # fine-tuning writes a row at each eval multiple and at its last step,
        # which the summary reports
        assert [int(r["step"]) for r in rows] == row_steps
        assert summary["final_eval_acc_full"] == float(rows[-1]["eval_acc_full"])

    def test_finetune_continues_from_checkpoint_bitwise(self, tmp_path):
        # a checkpoint taken mid fine-tuning continues exactly as the
        # uninterrupted run: the loaded state keeps the lightweight model frozen
        whole = EX.run_train(finetune_cfg(tmp_path / "whole", 5))
        cut = EX.run_train(finetune_cfg(tmp_path / "cut", 3))
        cfg = finetune_cfg(tmp_path / "resumed", 5)
        train, _ = EX.load_dataset(cfg)
        state, _ = CK.load_checkpoint(cut["checkpoint"])
        state, _ = run_training(state, train, cfg.schedule, cfg.loss)
        expected, _ = CK.load_checkpoint(whole["checkpoint"])
        assert state.step == expected.step == 25
        assert state.synth_cfg == expected.synth_cfg
        assert parameter_bytes(state) == parameter_bytes(expected)

    def test_augmented_finetune_matches_train_step_loop(self, tmp_path):
        # fine-tuning steps run the config's own schedule, augmentation included
        cfg = finetune_cfg(tmp_path / "out", 5, flip=True, crop_pad=1)
        summary = EX.run_train(cfg)
        train, _ = EX.load_dataset(cfg)
        state, loss_cfg = EX.build_state(cfg)
        state, _ = run_training(state, train, cfg.schedule, loss_cfg)
        saved, _ = CK.load_checkpoint(summary["checkpoint"])
        assert parameter_bytes(saved) == parameter_bytes(state)

    def test_teacher_checkpoint_distillation(self, tmp_path):
        # first train a single-basis teacher
        teacher_raw = base_config()
        teacher_raw["output_dir"] = str(tmp_path / "teacher")
        teacher_raw["bank"]["n_bases"] = 1
        teacher_cfg = parse_config(teacher_raw)
        teacher_summary = EX.run_train(teacher_cfg)

        student_raw = base_config()
        student_raw["output_dir"] = str(tmp_path / "student")
        student_raw["loss"]["distill"] = {
            "teacher_checkpoint": teacher_summary["checkpoint"],
            "policy": "bases_only",
        }
        student_cfg = parse_config(student_raw)
        state, loss_cfg = EX.build_state(student_cfg)
        assert loss_cfg.distill is not None
        assert loss_cfg.distill.policy == "bases_only"
        summary = EX.run_train(student_cfg)
        assert summary["steps"] == 20

    def test_multi_basis_teacher_rejected(self, tmp_path):
        cfg = make_cfg(tmp_path)
        summary = EX.run_train(cfg)  # n_bases == 3
        with pytest.raises(ValueError, match="^loss.distill.teacher_checkpoint: the teacher "
                                             "must be a single-basis model, got 3 bases$"):
            EX.teacher_from_checkpoint(summary["checkpoint"], cfg.bank_spec)


class TestEvalHelpers:
    def test_threshold_extremes_match_component_accuracies(self):
        state = toy_state(n_bases=2, seed=0)
        train, evalset = toy_dataset(train_size=64, eval_size=32)
        sched = TR.TrainSchedule(total_steps=5, lr_base=0.05, batch_size=4, seed=0)
        state, _ = run_training(state, train, sched, TR.LossConfig())

        assert EX.pipeline_accuracy(state, evalset, 0.0) == EX.lm_accuracy(state, evalset)
        assert EX.pipeline_accuracy(state, evalset, 1.01) == EX.full_accuracy(state, evalset)

    def test_skip_rate_matches_infer_loop(self):
        # the per-image infer loop is the reference the one-pass consumers reproduce
        state = toy_state(n_bases=2, seed=1)
        _, evalset = toy_dataset(train_size=8, eval_size=24)
        model = (state.lm, state.lm_params, state.bank, state.synth_cfg)

        def infer_loop(threshold):
            return [P.infer(*model, evalset.images[i:i + 1], threshold)
                    for i in range(len(evalset))]

        confs = sorted({res.confidence for res in infer_loop(0.0)})
        # the extremes, one image's exact confidence, and cuts strictly between two images
        thresholds = [0.0, (confs[0] + confs[1]) / 2, confs[len(confs) // 2],
                      (confs[-2] + confs[-1]) / 2, 0.4, 1.01]
        lm_forward = P.lm_forward
        calls = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(P, "lm_forward", lambda *args: calls.append(1) or lm_forward(*args))
            points = C.sweep(*model, evalset, thresholds)
        assert len(calls) == 1  # one pipeline pass serves every threshold

        for threshold, point in zip(thresholds, points):
            ref = infer_loop(threshold)
            skip = np.mean([res.terminated for res in ref])
            acc = np.mean([res.prediction == label for res, label in zip(ref, evalset.labels)])
            spend = sum(res.madds_spent for res in ref) / len(evalset)
            assert EX.skip_rate(state, evalset, threshold) == skip
            assert EX.pipeline_accuracy(state, evalset, threshold) == acc
            assert (point.skip_rate, point.accuracy, point.avg_madds) == (skip, acc, spend)
        assert 0.0 < points[2].skip_rate < 1.0


class TestExportCoefficients:
    def test_mean_of_export_matches_disturbance_table(self, tmp_path):
        state = toy_state(n_bases=3, seed=2)
        _, evalset = toy_dataset(train_size=8, eval_size=20)
        out = tmp_path / "coeffs.csv"
        count = EX.export_coefficients(state, evalset, out)
        assert count == 20 * 2 * 3

        sums = np.zeros((2, 3))
        layer_to_row = {layer: r for r, layer in enumerate(state.bank.nonshared_indices())}
        with open(out) as fh:
            for row in csv.DictReader(fh):
                sums[layer_to_row[int(row["layer"])], int(row["basis"])] += float(row["coefficient"])
        from kernelblend import disturbance as DI
        table = DI.mean_coefficients(P.infer_batch(
            state.lm, state.lm_params, state.bank, state.synth_cfg, evalset.images,
            P.NEVER_TERMINATE).coefficients)
        np.testing.assert_allclose(sums / 20, table, atol=1e-12)
