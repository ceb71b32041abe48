"""Experiment configuration: a versioned JSON schema with no silent keys.

Every section is validated with an explicit allowed-key set; an unknown key
is an error, not a warning, so a typo in an experiment definition cannot
quietly fall back to a default.
"""

from __future__ import annotations

import json
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


def _cast(value, caster, name: str):
    """Cast one value, turning a mismatch into a ConfigError that names the key.
    Each key takes only its own JSON kind: an int key a whole number, a float
    key a number, a bool key true or false, a str key a string, a list key an
    array and a dict key an object."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    fits = {
        int: number and (isinstance(value, int) or value.is_integer()),
        float: number,
        bool: isinstance(value, bool),
        str: isinstance(value, str),
        list: isinstance(value, list),
        dict: isinstance(value, dict),
    }[caster]
    if not fits:
        wanted = "true or false" if caster is bool else caster.__name__
        raise ConfigError(f"{name}: expected {wanted}, got {json.dumps(value)}")
    return caster(value)


def _take(section: dict, where: str, required: dict, optional: dict | None = None) -> dict:
    """Pull typed keys out of a dict, rejecting unknown ones. An optional key
    set to null counts as absent."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object, got {type(section).__name__}")
    optional = optional or {}
    unknown = set(section) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(section)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    out = {}
    for key, caster in required.items():
        out[key] = _cast(section[key], caster, f"{where}.{key}")
    for key, caster in optional.items():
        if section.get(key) is not None:
            out[key] = _cast(section[key], caster, f"{where}.{key}")
    return out


def _shape(raw: list, where: str) -> tuple[int, ...]:
    if len(raw) != 3:
        raise ConfigError(f"{where}: expected [C, H, W], got {json.dumps(raw)}")
    return tuple(_cast(v, int, where) for v in raw)


def _layers(raw, where: str) -> tuple[bb.LayerSpec, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where}: layers must be a non-empty list")
    layers = []
    for i, entry in enumerate(raw):
        d = _take(entry, f"{where}[{i}]",
                  {"in": int, "out": int, "k": int},
                  {"stride": int, "pad": int, "act": str})
        try:
            layers.append(bb.LayerSpec(
                d["in"], d["out"], d["k"],
                d.get("stride", 1), d.get("pad", 0), d.get("act", "relu")))
        except ValueError as err:
            raise ConfigError(f"{where}[{i}]: {err}") from err
    return tuple(layers)


@dataclass
class ExperimentConfig:
    raw: dict
    seed: int
    output_dir: Path
    dataset: dict
    lm: pl.LightweightModel
    bank_spec: bb.BackboneSpec
    n_bases: int
    shared_layers: list[int]
    synth_cfg: syn.SynthesisConfig
    schedule: tr.TrainSchedule
    loss: tr.LossConfig
    teacher_checkpoint: Path | None
    eval_thresholds: list[float]
    default_threshold: float
    disturbance_seeds: int
    distill_policy: str = "both"
    distill_soft_weight: float = 1.0


def _dataset_section(raw: dict) -> dict:
    kind = raw.get("kind")
    if kind == "synthetic":
        d = _take(raw, "dataset", {"kind": str}, {
            "num_classes": int, "clusters_per_class": int, "image_size": int,
            "noise": float, "train_size": int, "eval_size": int, "seed": int,
        })
        spec_kw = {k: v for k, v in d.items() if k != "kind"}
        try:
            d["spec"] = SyntheticSpec(**spec_kw)
        except ValueError as err:
            raise ConfigError(f"dataset: {err}") from err
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

    dataset = _dataset_section(top["dataset"])

    bank_d = _take(top["bank"], "bank", {
        "n_bases": int, "layers": list, "input_shape": list, "num_classes": int,
    }, {"shared": list})
    try:
        bank_spec = bb.BackboneSpec(
            input_shape=_shape(bank_d["input_shape"], "bank.input_shape"),
            layers=_layers(bank_d["layers"], "bank.layers"),
            num_classes=bank_d["num_classes"],
        )
    except ValueError as err:
        raise ConfigError(f"bank: {err}") from err

    shared_layers: list[int] = []
    for rng in bank_d.get("shared") or []:
        if not isinstance(rng, list) or len(rng) != 2:
            raise ConfigError("bank.shared must be a list of [lo, hi] ranges")
        lo, hi = (_cast(v, int, "bank.shared") for v in rng)
        if not (0 <= lo <= hi < bank_spec.num_layers):
            raise ConfigError(
                f"bank.shared range [{lo}, {hi}] outside layers [0, {bank_spec.num_layers})")
        shared_layers.extend(range(lo, hi + 1))
    shared_layers = sorted(set(shared_layers))

    synth_d = _take(top["synthesis"], "synthesis", {}, {
        "activation": str, "mode": str, "bmd_renormalize": bool, "stabilizer_order": str,
    })
    try:
        synth_cfg = syn.SynthesisConfig(**synth_d)
    except ValueError as err:
        raise ConfigError(f"synthesis: {err}") from err

    lm_d = _take(top["lightweight"], "lightweight", {
        "layers": list, "input_shape": list,
    }, {"downsample": int})
    downsample = lm_d.get("downsample", 1)
    try:
        trunk = bb.BackboneSpec(
            input_shape=_shape(lm_d["input_shape"], "lightweight.input_shape"),
            layers=_layers(lm_d["layers"], "lightweight.layers"),
            num_classes=bank_spec.num_classes,
        )
        coeff_rows = 1 if synth_cfg.mode == "per_model" else (
            bank_spec.num_layers - len(shared_layers))
        lm = pl.LightweightModel(
            trunk=trunk, n_bases=bank_d["n_bases"],
            coeff_rows=coeff_rows, downsample=downsample)
    except (ValueError, KeyError) as err:
        raise ConfigError(f"lightweight: {err}") from err

    sched_d = _take(top["schedule"], "schedule", {
        "total_steps": int, "batch_size": int,
    }, {
        "epsilon_hold_steps": int, "epsilon_decay_steps": int,
        "learning_rate": dict, "bmd_rate": float, "optimizer": str,
        "clip_norm": float, "bmd_per_sample": bool, "flip": bool, "crop_pad": int,
        "eval_interval": int, "finetune_steps": int,
    })
    lr_d = _take(sched_d.get("learning_rate") or {"base": 0.1}, "schedule.learning_rate",
                 {"base": float}, {"decay_factor": float, "decay_interval": int})
    try:
        schedule = tr.TrainSchedule(
            total_steps=sched_d["total_steps"],
            finetune_steps=sched_d.get("finetune_steps", 0),
            epsilon_hold_steps=sched_d.get("epsilon_hold_steps", 0),
            epsilon_decay_steps=sched_d.get("epsilon_decay_steps", 0),
            lr_base=lr_d["base"],
            lr_decay_factor=lr_d.get("decay_factor", 1.0),
            lr_decay_interval=lr_d.get("decay_interval", 100),
            bmd_rate=sched_d.get("bmd_rate", 0.0),
            batch_size=sched_d["batch_size"],
            seed=top["seed"],
            optimizer=sched_d.get("optimizer", "sgd"),
            clip_norm=sched_d.get("clip_norm"),
            bmd_per_sample=sched_d.get("bmd_per_sample", False),
            flip=sched_d.get("flip", False),
            crop_pad=sched_d.get("crop_pad", 0),
            eval_interval=sched_d.get("eval_interval", 100),
        )
    except ValueError as err:
        raise ConfigError(f"schedule: {err}") from err

    loss_d = _take(top["loss"], "loss", {}, {
        "lm_weight": float, "l2_weight": float, "distill": dict,
    })
    teacher_checkpoint = None
    policy, soft_weight = "both", 1.0
    distill_d = loss_d.pop("distill", None)
    if distill_d is not None:
        dd = _take(distill_d, "loss.distill", {"teacher_checkpoint": str},
                   {"policy": str, "soft_weight": float})
        teacher_checkpoint = Path(dd["teacher_checkpoint"])
        policy = dd.get("policy", "both")
        soft_weight = dd.get("soft_weight", 1.0)
    try:
        loss = tr.LossConfig(
            lm_weight=loss_d.get("lm_weight", 1.0),
            l2_weight=loss_d.get("l2_weight", 0.0),
        )
    except ValueError as err:
        raise ConfigError(f"loss: {err}") from err

    eval_d = _take(top["eval"], "eval", {}, {
        "thresholds": list, "default_threshold": float, "disturbance_seeds": int,
    })
    disturbance_seeds = eval_d.get("disturbance_seeds", 5)
    if disturbance_seeds < 1:
        raise ConfigError(f"eval.disturbance_seeds must be >= 1, got {disturbance_seeds}")

    return ExperimentConfig(
        raw=raw,
        seed=top["seed"],
        output_dir=Path(top["output_dir"]),
        dataset=dataset,
        lm=lm,
        bank_spec=bank_spec,
        n_bases=bank_d["n_bases"],
        shared_layers=shared_layers,
        synth_cfg=synth_cfg,
        schedule=schedule,
        loss=loss,
        teacher_checkpoint=teacher_checkpoint,
        eval_thresholds=[_cast(t, float, "eval.thresholds")
                         for t in eval_d.get("thresholds", [0.0, 0.5, 0.7, 0.9, 1.01])],
        default_threshold=eval_d.get("default_threshold", 0.7),
        disturbance_seeds=disturbance_seeds,
        distill_policy=policy,
        distill_soft_weight=soft_weight,
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
