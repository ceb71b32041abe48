"""Checkpoint persistence: a JSON manifest plus one binary parameter blob.

The manifest records the schema version, the structural model description,
the training step, optimizer accumulators, and an index of named tensors
(shape, byte offset, byte length), and the blob's SHA-256. The blob holds
every tensor's little-endian float64 bytes concatenated in manifest order, so
a round trip is bitwise exact by construction.

A save writes the blob, then the manifest, each to a temporary file that
``os.replace`` moves into place. A crash therefore leaves either the old pair
or a manifest whose hash does not match the blob, and a load refuses the
latter.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from . import backbone as bb
from . import pipeline as pl
from . import synthesis as syn
from .training import TrainState, named_parameters

SCHEMA_VERSION = 3
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "tensors.bin"


class CheckpointError(ValueError):
    """Manifest or blob failed validation."""


def _layer_to_dict(layer: bb.LayerSpec) -> dict:
    return {
        "in": layer.in_channels, "out": layer.out_channels, "k": layer.kernel_size,
        "stride": layer.stride, "pad": layer.padding, "act": layer.activation,
    }


def _layer_from_dict(d: dict) -> bb.LayerSpec:
    return bb.LayerSpec(d["in"], d["out"], d["k"], d["stride"], d["pad"], d["act"])


def backbone_spec_to_dict(spec: bb.BackboneSpec) -> dict:
    return {
        "input_shape": list(spec.input_shape),
        "layers": [_layer_to_dict(l) for l in spec.layers],
        "num_classes": spec.num_classes,
    }


def backbone_spec_from_dict(d: dict) -> bb.BackboneSpec:
    return bb.BackboneSpec(
        input_shape=tuple(d["input_shape"]),
        layers=tuple(_layer_from_dict(l) for l in d["layers"]),
        num_classes=d["num_classes"],
    )


def _structure_dict(state: TrainState) -> dict:
    return {
        "lm": {
            "trunk": backbone_spec_to_dict(state.lm.trunk),
            "n_bases": state.lm.n_bases,
            "coeff_rows": state.lm.coeff_rows,
            "downsample": state.lm.downsample,
        },
        "bank": {
            "spec": backbone_spec_to_dict(state.bank.spec),
            "n_bases": state.bank.n_bases,
            "share_mask": list(state.bank.share_mask),
        },
        "synthesis": dataclasses.asdict(state.synth_cfg),
    }


def _replace_atomically(target: Path, data: bytes) -> None:
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, target)


def save_checkpoint(state: TrainState, path, config: dict | None = None) -> None:
    """Write manifest.json and tensors.bin under ``path`` (a directory)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    entries = []
    chunks = []
    offset = 0
    for name, tensor in named_parameters(state):
        raw = np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()
        entries.append({
            "name": name,
            "shape": list(tensor.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "dtype": "<f8",
        "step": state.step,
        "structure": _structure_dict(state),
        "config": config,
        "opt_state": {k: v.tolist() for k, v in state.opt_state.items()},
        "opt_shapes": {k: list(v.shape) for k, v in state.opt_state.items()},
        "tensors": entries,
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
    }
    _replace_atomically(path / BLOB_NAME, blob)
    _replace_atomically(path / MANIFEST_NAME, json.dumps(manifest, indent=1).encode())


def load_checkpoint(path):
    """Rebuild a TrainState from disk; returns (state, stored config dict)."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"no {MANIFEST_NAME} under {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as err:
        raise CheckpointError(f"{manifest_path} is not valid JSON ({err})") from err
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{manifest_path} holds a JSON {type(manifest).__name__}, not an object")

    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema {manifest.get('schema_version')} != supported {SCHEMA_VERSION}")
    if manifest.get("dtype") != "<f8":
        raise CheckpointError(f"unsupported dtype {manifest.get('dtype')!r}")
    try:
        state = _restore(manifest, path / BLOB_NAME)
    except KeyError as err:
        raise CheckpointError(f"manifest lacks key {err}") from err
    return state, manifest.get("config")


def _restore(manifest: dict, blob_path: Path) -> TrainState:
    structure = manifest["structure"]
    lm_d = structure["lm"]
    lm = pl.LightweightModel(
        trunk=backbone_spec_from_dict(lm_d["trunk"]),
        n_bases=lm_d["n_bases"],
        coeff_rows=lm_d["coeff_rows"],
        downsample=lm_d["downsample"],
    )
    bank_d = structure["bank"]
    bank = syn.build_bank(
        backbone_spec_from_dict(bank_d["spec"]),
        bank_d["n_bases"],
        [k for k, shared in enumerate(bank_d["share_mask"]) if shared],
        seed=0,
    )
    cfg_d = structure["synthesis"]
    if not isinstance(cfg_d, dict):
        raise CheckpointError(f"manifest synthesis section is {type(cfg_d).__name__}, not an object")
    known = {f.name for f in dataclasses.fields(syn.SynthesisConfig)}
    for key in cfg_d:
        if key not in known:
            raise CheckpointError(f"manifest synthesis section has unknown key {key!r}")
    synth_cfg = syn.SynthesisConfig(**cfg_d)
    lm_params = pl.build_lm(lm, seed=0)

    state = TrainState(lm=lm, lm_params=lm_params, bank=bank, synth_cfg=synth_cfg,
                       step=manifest["step"])
    state.opt_state = {
        k: np.array(v, dtype=np.float64).reshape(manifest["opt_shapes"][k])
        for k, v in manifest.get("opt_state", {}).items()
    }

    blob = blob_path.read_bytes()
    if hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
        raise CheckpointError(f"{blob_path} does not match the SHA-256 its manifest records")
    total = sum(e["nbytes"] for e in manifest["tensors"])
    if len(blob) != total:
        raise CheckpointError(f"blob is {len(blob)} bytes, manifest expects {total}")

    by_name = dict(named_parameters(state))
    seen = set()
    for entry in manifest["tensors"]:
        name = entry["name"]
        tensor = by_name.get(name)
        if tensor is None:
            raise CheckpointError(f"manifest names unknown tensor {name!r}")
        shape = tuple(entry["shape"])
        if shape != tensor.shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {list(tensor.shape)} but manifest says {entry['shape']}")
        count = int(np.prod(shape)) if shape else 1
        if entry["nbytes"] != count * 8:
            raise CheckpointError(f"tensor {name!r}: {entry['nbytes']} bytes for shape {entry['shape']}")
        values = np.frombuffer(
            blob, dtype="<f8", count=count, offset=entry["offset"]).reshape(shape)
        tensor.apply_update(values.astype(np.float64))
        seen.add(name)
    missing = set(by_name) - seen
    if missing:
        raise CheckpointError(f"checkpoint is missing tensors: {sorted(missing)}")

    return state
