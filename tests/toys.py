"""Shared toy model builders for the test suite."""

from __future__ import annotations

from kernelblend import backbone as B
from kernelblend import data as D
from kernelblend import pipeline as P
from kernelblend import synthesis as S
from kernelblend import training as TR
from kernelblend.config import parse_config


def toy_bank_spec(channels=3, num_classes=6, image_size=12):
    return B.BackboneSpec(
        input_shape=(1, image_size, image_size),
        layers=(
            B.LayerSpec(1, channels, 3, stride=2, padding=1),
            B.LayerSpec(channels, channels, 3, stride=1, padding=1),
            B.LayerSpec(channels, channels, 3, stride=2, padding=1),
        ),
        num_classes=num_classes,
    )


def toy_lm(bank_spec, n_bases, coeff_rows, downsample=2, trunk_channels=8):
    c, h, w = bank_spec.input_shape
    trunk = B.BackboneSpec(
        input_shape=(c, h // downsample, w // downsample),
        layers=(B.LayerSpec(c, trunk_channels, 3, stride=2, padding=1),),
        num_classes=bank_spec.num_classes,
    )
    return P.LightweightModel(
        trunk=trunk, n_bases=n_bases, coeff_rows=coeff_rows, downsample=downsample,
    )


def toy_state(n_bases=3, seed=0, channels=3, num_classes=6, shared=(0,),
              synth_cfg=None, image_size=12):
    spec = toy_bank_spec(channels, num_classes, image_size)
    cfg = synth_cfg or S.SynthesisConfig()
    lm = toy_lm(spec, n_bases, cfg.head_rows(len(spec.layers) - len(shared)))
    return TR.init_state(lm, spec, list(shared), cfg, seed=seed)


def toy_config_state(n_bases=3, seed=0):
    """``toy_state(n_bases, seed)`` built as ``train`` builds it, from a raw
    experiment config; returns (state, raw config). The config's dataset is
    ``toy_dataset(train_size=64, eval_size=16)``, and its schedule has no
    fine-tuning, so a checkpoint of the state loads in the state's mode."""
    raw = {
        "schema_version": 1, "seed": seed, "output_dir": "runs/toy",
        "dataset": {"kind": "synthetic", "num_classes": 6, "image_size": 12, "noise": 0.1,
                    "train_size": 64, "eval_size": 16, "seed": 1},
        "lightweight": {"input_shape": [1, 6, 6], "downsample": 2,
                        "layers": [{"in": 1, "out": 8, "k": 3, "stride": 2, "pad": 1}]},
        "bank": {"n_bases": n_bases, "input_shape": [1, 12, 12], "num_classes": 6,
                 "shared": [[0, 0]], "layers": [
                     {"in": 1, "out": 3, "k": 3, "stride": 2, "pad": 1},
                     {"in": 3, "out": 3, "k": 3, "stride": 1, "pad": 1},
                     {"in": 3, "out": 3, "k": 3, "stride": 2, "pad": 1}]},
        "synthesis": {},
        "schedule": {"total_steps": 6, "batch_size": 4},
        "loss": {},
        "eval": {},
    }
    cfg = parse_config(raw)
    state = TR.init_state(cfg.lm, cfg.bank_spec, cfg.shared_layers, cfg.synth_cfg, seed=cfg.schedule.seed)
    return state, raw


def toy_dataset(num_classes=6, image_size=12, train_size=512, eval_size=256,
                seed=1, noise=0.1):
    return D.generate_synthetic(D.SyntheticSpec(
        num_classes=num_classes, image_size=image_size, noise=noise,
        train_size=train_size, eval_size=eval_size, seed=seed,
    ))


def run_training(state, dataset, schedule, loss_cfg):
    """Step ``state`` to the end of the schedule, fine-tuning included."""
    metrics = []
    while state.step < schedule.total_steps + schedule.finetune_steps:
        batch = TR.sample_batch(dataset, schedule, state.step)
        state, m = TR.train_step(state, batch, schedule, loss_cfg)
        metrics.append(m)
    return state, metrics
