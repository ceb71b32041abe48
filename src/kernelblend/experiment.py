"""Experiment orchestration: config to trained checkpoint plus metrics files.

The train loop runs the one schedule, joint steps then any selection
fine-tuning steps, and emits a metrics row at every evaluation interval, at
the end of joint training and at the last step, in full-precision floats,
so a repeated run with the same config produces a byte-identical
metrics.csv.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

from . import backbone as bb
from . import checkpoint as ck
from . import cost as co
from . import pipeline as pl
from . import synthesis as syn
from . import training as tr
from .config import ConfigError, ExperimentConfig
from .data import Dataset, generate_synthetic, load_cifar10, load_mnist

METRICS_COLUMNS = (
    "step", "train_loss", "lm_loss", "synth_loss",
    "eval_acc_lm", "eval_acc_full", "epsilon", "skip_rate_at_default_threshold",
)


def load_dataset(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """The config's train and eval sets; their classes and image shape must be the bank's."""
    kind = cfg.dataset["kind"]
    if kind == "synthetic":
        train, evalset = generate_synthetic(cfg.dataset["spec"])
    elif kind == "mnist":
        train, evalset = load_mnist(cfg.dataset["path"])
    else:
        train, evalset = load_cifar10(cfg.dataset["path"])
    if train.num_classes != cfg.bank_spec.num_classes:
        raise ConfigError(f"bank.num_classes is {cfg.bank_spec.num_classes} but the "
                          f"{kind} dataset has {train.num_classes} classes")
    if train.images.shape[1:] != cfg.bank_spec.input_shape:
        raise ConfigError(f"bank.input_shape is {list(cfg.bank_spec.input_shape)} but the "
                          f"{kind} dataset's images are {list(train.images.shape[1:])}")
    return train, evalset


def teacher_from_checkpoint(path, bank_spec) -> tuple[bb.BackboneSpec, bb.BackboneParams]:
    """A teacher is a single-basis checkpoint whose bank, a plain backbone, takes
    the student bank's input and classes; errors name the key that gives its path."""
    key = "loss.distill.teacher_checkpoint"
    try:
        state, _ = ck.load_checkpoint(path)
    except ck.CheckpointError as err:
        raise ConfigError(f"{key}: {err}") from None
    teacher = state.bank.spec
    if state.bank.n_bases != 1:
        raise ConfigError(f"{key}: the teacher must be a single-basis model, got {state.bank.n_bases} bases")
    for field in ("input_shape", "num_classes"):
        got, want = (json.dumps(getattr(spec, field)) for spec in (teacher, bank_spec))
        if got != want:
            raise ConfigError(f"{key}: the teacher's bank.{field} is {got} but the student's is {want}")
    return teacher, syn.select_params(state.bank, [0] * state.bank.n_coefficient_rows)


def build_state(cfg: ExperimentConfig) -> tuple[tr.TrainState, tr.LossConfig]:
    state = tr.init_state(cfg.lm, cfg.bank_spec, cfg.shared_layers, cfg.synth_cfg, seed=cfg.schedule.seed)
    if cfg.distill is None:
        return state, cfg.loss
    spec, params = teacher_from_checkpoint(cfg.teacher_checkpoint, cfg.bank_spec)
    distill = replace(cfg.distill, teacher_spec=spec, teacher_params=params)
    return state, replace(cfg.loss, distill=distill)


# ---------------------------------------------------------------------------
# evaluation


def lm_accuracy(state: tr.TrainState, dataset: Dataset) -> float:
    """Initial-prediction accuracy: at threshold 0 every image stops after stage one."""
    return pipeline_accuracy(state, dataset, threshold=0.0)


def pipeline_accuracy(state: tr.TrainState, dataset: Dataset, threshold: float) -> float:
    record = pl.infer_batch(state.lm, state.lm_params, state.bank, state.synth_cfg,
                            dataset.images, threshold)
    return record.accuracy(dataset.labels)


def full_accuracy(state: tr.TrainState, dataset: Dataset) -> float:
    """Specialist accuracy with termination disabled."""
    return pipeline_accuracy(state, dataset, threshold=pl.NEVER_TERMINATE)


def skip_rate(state: tr.TrainState, dataset: Dataset, threshold: float) -> float:
    # a threshold-0 pass stops every image after stage one and records its confidence
    record = pl.infer_batch(state.lm, state.lm_params, state.bank, state.synth_cfg,
                            dataset.images, 0.0)
    return int(np.count_nonzero(record.confidence >= threshold)) / len(dataset)


def evaluate(state: tr.TrainState, dataset: Dataset, threshold: float) -> dict:
    """The ``eval.json`` record: accuracy and skip rate at ``threshold``, and
    the stage-one and specialist accuracies, all from one sweep."""
    point, lm_point, full_point = co.sweep(state.lm, state.lm_params, state.bank,
                                           state.synth_cfg, dataset, [threshold, 0.0, pl.NEVER_TERMINATE])
    return {
        "threshold": threshold,
        "accuracy": point.accuracy,
        "skip_rate": point.skip_rate,
        "accuracy_lm": lm_point.accuracy,
        "accuracy_full": full_point.accuracy,
    }


def run_train(cfg: ExperimentConfig, log=None) -> dict:
    """Train per config; writes metrics.csv and checkpoint/ under output_dir."""
    train, evalset = load_dataset(cfg)
    state, loss_cfg = build_state(cfg)

    rows = []

    def record(metrics):
        result = evaluate(state, evalset, cfg.default_threshold)
        rows.append({
            "step": state.step,
            "train_loss": metrics["loss"],
            "lm_loss": metrics["lm_loss"],
            "synth_loss": metrics["synth_loss"],
            "eval_acc_lm": result["accuracy_lm"],
            "eval_acc_full": result["accuracy_full"],
            "epsilon": metrics["epsilon"],
            "skip_rate_at_default_threshold": result["skip_rate"],
        })
        if log is not None:
            log(rows[-1])

    schedule = cfg.schedule
    end = schedule.total_steps + schedule.finetune_steps
    while state.step < end:
        batch = tr.sample_batch(train, schedule, state.step)
        state, metrics = tr.train_step(state, batch, schedule, loss_cfg)
        if ((schedule.eval_interval > 0 and state.step % schedule.eval_interval == 0)
                or state.step in (schedule.total_steps, end)):
            record(metrics)

    metrics_path = cfg.output_dir / "metrics.csv"
    ck.write_csv(metrics_path, METRICS_COLUMNS, [[row[c] for c in METRICS_COLUMNS] for row in rows])

    ckpt_path = cfg.output_dir / "checkpoint"
    ck.save_checkpoint(state, ckpt_path, config=cfg.raw)

    return {
        "steps": state.step,
        "metrics_csv": str(metrics_path),
        "checkpoint": str(ckpt_path),
        "final_eval_acc_full": rows[-1]["eval_acc_full"] if rows else None,
    }


# ---------------------------------------------------------------------------
# coefficient export


def export_coefficients(state: tr.TrainState, dataset: Dataset, out_path) -> int:
    """Write one CSV row per (image, non-shared layer, basis); returns rows written."""
    bank = state.bank
    record = pl.infer_batch(state.lm, state.lm_params, bank, state.synth_cfg,
                            dataset.images, pl.NEVER_TERMINATE)
    # one row per coefficient cell, in (image, layer, basis) order
    image, row, basis = np.indices(record.coefficients.shape).reshape(3, -1)
    image = record.pending[image]
    ck.write_csv(out_path, ["image_id", "label", "layer", "basis", "coefficient"], zip(
        image.tolist(), dataset.labels[image].tolist(),
        np.asarray(bank.nonshared_indices())[row].tolist(), basis.tolist(),
        record.coefficients.ravel().tolist()))
    return len(image)
