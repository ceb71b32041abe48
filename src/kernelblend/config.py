"""Experiment configuration: a versioned JSON schema with no silent keys.

Every section is validated with an explicit allowed-key set; an unknown key
is an error, not a warning, so a typo in an experiment definition cannot
quietly fall back to a default. An optional key that is absent is not passed
on, so each default lives only on the dataclass that takes the value.

This is the one reader of the project's JSON. A checkpoint manifest embeds
the config its model was trained from, and a load builds the model from it
through ``parse_config``; the manifest's ``step`` goes through the same
helpers under the same rules.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import backbone as bb
from . import pipeline as pl
from . import synthesis as syn
from . import training as tr
from .data import SyntheticSpec

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """The experiment config failed validation."""


# JSON key of a layer object -> LayerSpec field
LAYER_KEYS = {"in": "in_channels", "out": "out_channels", "k": "kernel_size",
              "stride": "stride", "pad": "padding", "act": "activation"}


def _cast(value, caster, name: str):
    """Cast one value, turning a mismatch into a ConfigError that names the key.
    Each key takes only its own JSON kind: an int key a whole number (as a
    float only below 2**53 in magnitude, where every whole float is exact), a
    float key a number, a bool key true or false, a str key a string, a list
    key an array and a dict key an object."""
    if caster is bool or isinstance(value, bool):
        fits = type(value) is caster
    elif caster is int:
        fits = isinstance(value, int) or (
            isinstance(value, float) and value.is_integer() and abs(value) < 2**53)
    elif caster is float:
        fits = isinstance(value, (int, float))
    else:
        fits = isinstance(value, caster)
    if not fits:
        if caster is dict:
            raise ConfigError(f"{name} is {type(value).__name__}, not an object")
        wanted = "true or false" if caster is bool else caster.__name__
        raise ConfigError(f"{name}: expected {wanted}, got {json.dumps(value)}")
    return caster(value)


def _take(section: dict, where: str, required: dict, optional: dict | None = None) -> dict:
    """Pull typed keys out of a dict, rejecting unknown ones. An optional key
    that is absent or null is left out, so the dataclass it goes to supplies
    its default."""
    if not isinstance(section, dict):
        _cast(section, dict, where)  # raises, naming ``where``
    optional = optional or {}
    unknown = section.keys() - required.keys() - optional.keys()
    if unknown:
        raise ConfigError(f"{where}: unknown key {min(unknown)!r}")
    missing = required.keys() - section.keys()
    if missing:
        raise ConfigError(f"{where}: missing key {min(missing)!r}")
    out = {}
    for key, caster in required.items():
        out[key] = _cast(section[key], caster, f"{where}.{key}")
    for key, caster in optional.items():
        if section.get(key) is not None:
            out[key] = _cast(section[key], caster, f"{where}.{key}")
    return out


def _build(cls, where: str, **kw):
    """``cls(**kw)``, its ValueError a ConfigError under ``where``. The class
    checks its values first; a NaN or infinite float it lets through is
    refused after it, naming the key."""
    try:
        built = cls(**kw)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err
    for key, value in kw.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where}: {key} must be finite, got {value}")
    return built


def _shape(raw: list, where: str) -> tuple[int, ...]:
    if len(raw) != 3:
        raise ConfigError(f"{where}: expected [C, H, W], got {json.dumps(raw)}")
    return tuple(_cast(v, int, where) for v in raw)


def read_threshold(value, name: str) -> float:
    """A termination threshold: a finite number >= 0; errors name ``name``."""
    threshold = _cast(value, float, name)
    if not 0 <= threshold < math.inf:  # also rejects NaN
        raise ConfigError(f"{name}: expected a finite number >= 0, got {json.dumps(value)}")
    return threshold


def read_thresholds(values: list, name: str) -> list[float]:
    """A non-empty list of termination thresholds; errors name ``name``."""
    if not values:
        raise ConfigError(f"{name}: expected a non-empty list of thresholds, got []")
    return [read_threshold(value, name) for value in values]


def read_layers(raw, where: str) -> tuple[bb.LayerSpec, ...]:
    """A non-empty list of layer objects, keyed as in ``LAYER_KEYS``."""
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where}: layers must be a non-empty list")
    layers = []
    for i, entry in enumerate(raw):
        d = _take(entry, f"{where}[{i}]",
                  {"in": int, "out": int, "k": int},
                  {"stride": int, "pad": int, "act": str})
        layers.append(_build(bb.LayerSpec, f"{where}[{i}]",
                             **{LAYER_KEYS[key]: value for key, value in d.items()}))
    return tuple(layers)


def read_spec(input_shape: list, layers: list, num_classes: int, where: str) -> bb.BackboneSpec:
    """A backbone from a section's input shape, layers and class count."""
    return _build(bb.BackboneSpec, where,
                  input_shape=_shape(input_shape, f"{where}.input_shape"),
                  layers=read_layers(layers, f"{where}.layers"),
                  num_classes=num_classes)


@dataclass
class ExperimentConfig:
    raw: dict
    output_dir: Path
    dataset: dict
    lm: pl.LightweightModel
    bank_spec: bb.BackboneSpec
    shared_layers: list[int]
    synth_cfg: syn.SynthesisConfig
    schedule: tr.TrainSchedule
    loss: tr.LossConfig
    teacher_checkpoint: Path | None
    distill: tr.DistillConfig | None  # the options; build_state loads the teacher
    eval_thresholds: list[float]
    default_threshold: float
    disturbance_seeds: int


def _dataset_section(raw: dict) -> dict:
    kind = raw.get("kind")
    if kind == "synthetic":
        d = _take(raw, "dataset", {"kind": str}, {
            "num_classes": int, "clusters_per_class": int, "image_size": int,
            "noise": float, "train_size": int, "eval_size": int, "seed": int,
        })
        d["spec"] = _build(SyntheticSpec, "dataset", **{k: v for k, v in d.items() if k != "kind"})
        return d
    if kind in ("mnist", "cifar10"):
        d = _take(raw, "dataset", {"kind": str, "path": str})
        if not Path(d["path"]).exists():
            raise ConfigError(f"dataset.path does not exist: {d['path']}")
        return d
    raise ConfigError(f"dataset.kind must be synthetic, mnist, or cifar10, got {kind!r}")


def parse_config(raw: dict) -> ExperimentConfig:
    top = _take(raw, "config", {
        "schema_version": int, "seed": int, "output_dir": str, "dataset": dict,
        "lightweight": dict, "bank": dict, "synthesis": dict, "schedule": dict,
        "loss": dict, "eval": dict,
    })
    if top["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {top['schema_version']} != supported {SCHEMA_VERSION}")
    if top["seed"] < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"config.seed must be >= 0, got {top['seed']}")

    dataset = _dataset_section(top["dataset"])

    bank_d = _take(top["bank"], "bank", {
        "input_shape": list, "layers": list, "num_classes": int, "n_bases": int,
    }, {"shared": list})
    if bank_d["n_bases"] < 1:  # checked before the lightweight model takes it
        raise ConfigError(f"bank.n_bases must be >= 1, got {bank_d['n_bases']}")
    bank_spec = read_spec(bank_d["input_shape"], bank_d["layers"], bank_d["num_classes"], "bank")

    shared_layers: list[int] = []
    for rng in bank_d.get("shared", []):
        if not isinstance(rng, list) or len(rng) != 2:
            raise ConfigError("bank.shared must be a list of [lo, hi] ranges")
        lo, hi = (_cast(v, int, "bank.shared") for v in rng)
        if not (0 <= lo <= hi < bank_spec.num_layers):
            raise ConfigError(f"bank.shared: expected ranges with 0 <= lo <= hi < "
                              f"{bank_spec.num_layers}, got [{lo}, {hi}]")
        shared_layers.extend(range(lo, hi + 1))
    shared_layers = sorted(set(shared_layers))
    bank_rows = bank_spec.num_layers - len(shared_layers)
    if not bank_rows:
        raise ConfigError(f"bank.shared covers all {bank_spec.num_layers} layers; "
                          f"a bank must blend at least one")

    synth_d = _take(top["synthesis"], "synthesis", {}, {
        "activation": str, "mode": str, "bmd_renormalize": bool,
    })
    synth_cfg = _build(syn.SynthesisConfig, "synthesis", **synth_d)

    lm_d = _take(top["lightweight"], "lightweight", {
        "layers": list, "input_shape": list,
    }, {"downsample": int})
    trunk = read_spec(lm_d.pop("input_shape"), lm_d.pop("layers"), bank_spec.num_classes,
                      "lightweight")
    lm = _build(pl.LightweightModel, "lightweight", trunk=trunk, n_bases=bank_d["n_bases"],
                coeff_rows=synth_cfg.head_rows(bank_rows), **lm_d)
    c, h, w = bank_spec.input_shape  # the lightweight model previews it, downsampled
    if h % lm.downsample or w % lm.downsample:
        raise ConfigError(f"lightweight.downsample {lm.downsample} does not divide the bank's {h}x{w} input")
    if trunk.input_shape != (c, h // lm.downsample, w // lm.downsample):
        raise ConfigError(f"lightweight.input_shape {list(trunk.input_shape)} is not the bank's "
                          f"{[c, h, w]} input downsampled by {lm.downsample}")

    sched_d = _take(top["schedule"], "schedule", {
        "total_steps": int, "batch_size": int,
    }, {
        "epsilon_hold_steps": int, "epsilon_decay_steps": int,
        "learning_rate": dict, "bmd_rate": float, "optimizer": str,
        "clip_norm": float, "bmd_per_sample": bool, "flip": bool, "crop_pad": int,
        "eval_interval": int, "finetune_steps": int,
    })
    if "learning_rate" in sched_d:
        lr_d = _take(sched_d.pop("learning_rate"), "schedule.learning_rate",
                     {"base": float}, {"decay_factor": float, "decay_interval": int})
        sched_d.update({f"lr_{key}": value for key, value in lr_d.items()})
    schedule = _build(tr.TrainSchedule, "schedule", seed=top["seed"], **sched_d)

    loss_d = _take(top["loss"], "loss", {}, {
        "lm_weight": float, "l2_weight": float, "distill": dict,
    })
    distill_d = loss_d.pop("distill", None)
    teacher_checkpoint = distill = None
    if distill_d is not None:
        distill_d = _take(distill_d, "loss.distill", {"teacher_checkpoint": str},
                          {"policy": str, "soft_weight": float})
        teacher_checkpoint = Path(distill_d.pop("teacher_checkpoint"))
        distill = _build(tr.DistillConfig, "loss.distill", teacher_spec=None,
                         teacher_params=None, **distill_d)
    loss = _build(tr.LossConfig, "loss", **loss_d)

    eval_d = _take(top["eval"], "eval", {}, {
        "thresholds": list, "default_threshold": float, "disturbance_seeds": int,
    })
    disturbance_seeds = eval_d.get("disturbance_seeds", 5)
    if disturbance_seeds < 1:
        raise ConfigError(f"eval.disturbance_seeds must be >= 1, got {disturbance_seeds}")

    return ExperimentConfig(
        raw=raw,
        output_dir=Path(top["output_dir"]),
        dataset=dataset,
        lm=lm,
        bank_spec=bank_spec,
        shared_layers=shared_layers,
        synth_cfg=synth_cfg,
        schedule=schedule,
        loss=loss,
        teacher_checkpoint=teacher_checkpoint,
        distill=distill,
        eval_thresholds=read_thresholds(eval_d.get("thresholds", [0.0, 0.5, 0.7, 0.9, 1.01]),
                                        "eval.thresholds"),
        default_threshold=read_threshold(eval_d.get("default_threshold", 0.7),
                                         "eval.default_threshold"),
        disturbance_seeds=disturbance_seeds,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from err
    return parse_config(raw)
