"""Persistence: the one writer of every output file, and checkpoints.

``write_atomically`` writes a temporary file that ``os.replace`` moves into
place, so a failed or killed write leaves the previous file as it was.
``write_csv`` writes through it; ``csv`` gives each float its shortest
round-trip form.

A checkpoint is a JSON manifest plus one binary blob. The manifest records
the schema version, the experiment config the model was trained from, the
training step (within that config's schedule), an index of named tensors (shape, byte offset, byte length)
and the blob's SHA-256. The config is the one description of the model: a
load builds the state from it as ``train`` does, and the synthesis mode
follows from its schedule and the step. The blob is the parameter vector as
little-endian float64, then the RMSProp accumulator when there is one, so a
round trip is bitwise exact and the one hash covers the optimizer state too.

A save writes the blob, then the manifest, each atomically. A crash
therefore leaves either the old pair or a manifest whose hash does not match
the blob, and a load refuses the latter.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import replace
from itertools import accumulate, zip_longest
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, _cast, parse_config
from .training import TrainState, init_state, named_parameters

SCHEMA_VERSION = 7
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "tensors.bin"


class CheckpointError(ValueError):
    """Manifest or blob failed validation."""


def write_atomically(path, data: bytes) -> None:
    """Write ``data`` to ``path``, making its directory; on failure the
    previous file stays in place and no temporary file is left."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """Write a header and rows as one CSV file through ``write_atomically``."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    write_atomically(path, buf.getvalue().encode())


def tensor_index(state: TrainState) -> list[dict]:
    """The manifest's ``tensors`` entries: where each parameter sits in the blob."""
    params = named_parameters(state)
    offsets = accumulate((8 * p.size for _, p in params), initial=0)
    return [{"name": name, "shape": list(p.shape), "offset": offset, "nbytes": 8 * p.size}
            for (name, p), offset in zip(params, offsets)]


def save_checkpoint(state: TrainState, path, config: dict) -> None:
    """Write manifest.json and tensors.bin under ``path`` (a directory);
    ``config`` is the raw experiment config ``state`` was built from."""
    path = Path(path)
    blob = state.vector.data.astype("<f8").tobytes()
    if state.opt_state is not None:
        blob += state.opt_state.astype("<f8").tobytes()
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "dtype": "<f8",
        "step": state.step,
        "config": config,
        "tensors": tensor_index(state),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
    }
    write_atomically(path / BLOB_NAME, blob)
    write_atomically(path / MANIFEST_NAME, json.dumps(manifest, indent=1).encode())


def load_checkpoint(path) -> tuple[TrainState, ExperimentConfig]:
    """Rebuild a TrainState from disk; returns it with its parsed config."""
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
        return _restore(manifest, path / BLOB_NAME)
    except KeyError as err:
        raise CheckpointError(f"manifest lacks key {err}") from err
    except ConfigError as err:
        raise CheckpointError(f"manifest {err}") from err


def _restore(manifest: dict, blob_path: Path) -> tuple[TrainState, ExperimentConfig]:
    """Build the config's model, fill it from the blob, and set the step and
    the synthesis mode the last step that ran left."""
    cfg = parse_config(manifest["config"])
    step = _cast(manifest["step"], int, "step")
    end = cfg.schedule.total_steps + cfg.schedule.finetune_steps
    if not 0 <= step <= end:  # a save comes at most at the schedule's end
        raise ConfigError(f"step: expected int in [0, {end}], got {step}")
    state = init_state(cfg.lm, cfg.bank_spec, cfg.shared_layers, cfg.synth_cfg, seed=cfg.schedule.seed)
    recorded, expected = manifest["tensors"], tensor_index(state)
    if recorded != expected:
        pairs = zip_longest(recorded if isinstance(recorded, list) else [recorded], expected)
        for i, (got, want) in enumerate(pairs):
            if got != want:
                raise CheckpointError(f"manifest tensor {i} is {got}, the config gives {want}")

    blob = blob_path.read_bytes()
    if hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
        raise CheckpointError(f"{blob_path} does not match the SHA-256 its manifest records")
    n = state.vector.size
    if len(blob) not in (8 * n, 16 * n):
        raise CheckpointError(
            f"blob is {len(blob)} bytes, manifest expects {8 * n} ({16 * n} with an accumulator)")
    values = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    state.vector.apply_update(values[:n])
    if len(values) > n:
        state.opt_state = values[n:]
    state.step = step
    # the mode the last step set, after init_state checked the head against the configured one
    if cfg.schedule.selects(state.step - 1):
        state.synth_cfg = replace(state.synth_cfg, mode="one_hot")
    return state, cfg
