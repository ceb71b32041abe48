"""Coefficient corruption study: how much does the right blend matter?

Each disturbance replaces the predicted coefficients before synthesis -
with their argmax one-hot, the dataset mean, a uniform blend, or a random
within-row shuffle - either at every non-shared layer or at a single one,
through ``stage_two``'s ``edit`` hook on the whole (B, rows, N) tensor,
in any synthesis mode, with early termination disabled. ``study`` answers
``disturb`` from one stage-one pass and one undisturbed stage two: they give
the ``correct`` row, the ``mean`` table and every layer that the disturbance
cannot change, and each disturbed pass reruns stage two alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pipeline as pl
from . import synthesis as syn
from . import tensor as T
from .data import Dataset

KINDS = ("correct", "top1", "mean", "uniform", "shuffled")


@dataclass(frozen=True)
class Disturbance:
    kind: str
    layer: int | None = None  # bank layer index; None disturbs all layers
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")


def mean_coefficients(coefficients: np.ndarray) -> np.ndarray:
    """Per-layer mean rows of the (B, rows, N) coefficients of a pass at
    ``NEVER_TERMINATE``."""
    return coefficients.sum(axis=0) / len(coefficients)


def disturb(alpha: T.Tensor, disturbance: Disturbance,
            rows: list[int] | None = None,
            mean_table: np.ndarray | None = None,
            rng: np.random.Generator | None = None) -> T.Tensor:
    """Corrupt the selected rows (all by default) of one (rows, N) matrix or
    of every image's in a (B, rows, N) batch; returns a new tensor.

    ``shuffled`` draws one permutation per selected row, image by image in
    order, in one call, so a batch takes the same draws from ``rng`` as its
    images would one after another. Without ``rng`` it draws from the
    disturbance's own stream, ``default_rng([seed, 0x5F])``.
    """
    if disturbance.kind == "correct":
        return alpha
    v = alpha.data.copy()
    n = v.shape[-1]
    targets = slice(None) if rows is None else rows
    if disturbance.kind == "top1":
        v[..., targets, :] = np.arange(n) == np.argmax(v[..., targets, :], axis=-1)[..., None]
    elif disturbance.kind == "uniform":
        v[..., targets, :] = 1.0 / n
    elif disturbance.kind == "mean":
        if mean_table is None:
            raise ValueError("mean disturbance requires a precomputed mean table")
        v[..., targets, :] = mean_table[targets]
    elif disturbance.kind == "shuffled":
        if rng is None:
            rng = np.random.default_rng([disturbance.seed, 0x5F])
        selected = v[..., targets, :]
        order = rng.permuted(np.broadcast_to(np.arange(n), selected.shape), axis=-1)
        v[..., targets, :] = np.take_along_axis(selected, order, axis=-1)
    return T.Tensor(v)


def _rows_for_layer(bank: syn.BasisBank, layer: int | None) -> list[int] | None:
    """Map a bank layer index to coefficient rows; a shared layer maps to none."""
    if layer is None:
        return None
    if not 0 <= layer < bank.spec.num_layers:
        raise ValueError(f"layer {layer} out of range [0, {bank.spec.num_layers})")
    nonshared = bank.nonshared_indices()
    return [nonshared.index(layer)] if layer in nonshared else []


def _accuracy(final: T.Tensor, labels: np.ndarray) -> float:
    """Fraction of the specialist predictions in ``final`` equal to ``labels``:
    ``infer_batch``'s accuracy at ``NEVER_TERMINATE``, where no image stops."""
    return int(np.count_nonzero(np.argmax(final.data, axis=1) == labels)) / len(labels)


def _disturbed_accuracy(params: pl.LMParams, bank: syn.BasisBank, cfg: syn.SynthesisConfig,
                        x: T.Tensor, feats: T.Tensor, labels: np.ndarray,
                        disturbance: Disturbance, mean_table: np.ndarray | None) -> float:
    """Specialist accuracy of stage two over images ``x``, with pooled trunk
    features ``feats``, whose coefficients ``disturbance`` edits."""
    rows = _rows_for_layer(bank, disturbance.layer)
    final, _ = pl.stage_two(params, bank, cfg, x, feats,
                            lambda alpha: disturb(alpha, disturbance, rows=rows, mean_table=mean_table))
    return _accuracy(final, labels)


def evaluate_disturbed(lm: pl.LightweightModel, params: pl.LMParams,
                       bank: syn.BasisBank, cfg: syn.SynthesisConfig,
                       dataset: Dataset, disturbance: Disturbance,
                       mean_table: np.ndarray | None = None) -> float:
    """Specialist accuracy with disturbed coefficients, no early termination.
    A ``mean`` disturbance needs ``mean_table`` (see ``mean_coefficients``)."""
    x = T.Tensor(dataset.images)
    _, feats = pl.lm_forward(lm, params, x)
    return _disturbed_accuracy(params, bank, cfg, x, feats, dataset.labels, disturbance, mean_table)


def study(lm: pl.LightweightModel, params: pl.LMParams, bank: syn.BasisBank,
          cfg: syn.SynthesisConfig, dataset: Dataset, kind: str,
          layers, seeds: int) -> tuple[float, list[float]]:
    """(undisturbed accuracy, accuracy of a ``kind`` disturbance at each of
    ``layers``: a bank layer index, or None for every layer). Every layer is
    range-checked first. Stage one runs once. One undisturbed stage two on
    its features gives the undisturbed accuracy, the ``mean`` table and each
    layer that the disturbance cannot change (kind ``correct``, or a shared
    layer: it has no coefficient row). Each other layer reruns stage two
    with its disturbance once, or for ``shuffled``, the one kind that reads
    the seed, at seeds 0..seeds-1 and takes the mean. Each value is what
    ``evaluate_disturbed`` gives."""
    rows = [_rows_for_layer(bank, layer) for layer in layers]
    x = T.Tensor(dataset.images)
    _, feats = pl.lm_forward(lm, params, x)
    final, alpha = pl.stage_two(params, bank, cfg, x, feats)
    reference = _accuracy(final, dataset.labels)
    mean_table = mean_coefficients(alpha.data) if kind == "mean" else None
    return reference, [
        reference if kind == "correct" or layer_rows == [] else float(np.mean([
            _disturbed_accuracy(params, bank, cfg, x, feats, dataset.labels,
                                Disturbance(kind, layer, seed), mean_table)
            for seed in range(seeds if kind == "shuffled" else 1)]))
        for layer, layer_rows in zip(layers, rows)]
