"""Shared toy model builders for the test suite."""

from __future__ import annotations

from kernelblend import backbone as B
from kernelblend import data as D
from kernelblend import pipeline as P
from kernelblend import synthesis as S
from kernelblend import training as TR


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
    rows = 1 if cfg.mode == "per_model" else len(spec.layers) - len(shared)
    lm = toy_lm(spec, n_bases, rows)
    return TR.init_state(lm, spec, n_bases, list(shared), cfg, seed=seed)


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
