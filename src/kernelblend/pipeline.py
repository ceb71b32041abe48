"""Two-stage inference: preview, maybe terminate, otherwise synthesize and run.

The lightweight model shares one trunk pass between two linear heads: an
initial class prediction and the raw combination coefficients. If the
initial prediction's max-softmax confidence clears the threshold, stage two
is skipped entirely, the coefficient head with it. Otherwise every layer's
coefficients are computed and activated, and the whole specialist is
synthesized up front, before stage-two layer L0 executes. ``stage_two``
is that sequence, the one training runs too, and ``image_madds`` the one
price of both paths an image can take.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import backbone as bb
from . import synthesis as syn
from . import tensor as T


# numpy sums a reduction of 8 or more terms pairwise, in another order than
# ``downsample_input``'s adds of views
MAX_DOWNSAMPLE = 7
NEVER_TERMINATE = 1.01  # above every confidence: stage two always runs


@dataclass(frozen=True)
class LightweightModel:
    """Trunk spec (its classifier head is the initial-prediction head) plus
    the coefficient head geometry and the input transform."""

    trunk: bb.BackboneSpec
    n_bases: int
    coeff_rows: int  # SynthesisConfig.head_rows of the bank's blended layers
    downsample: int = 1

    def __post_init__(self):
        if self.n_bases < 1 or self.coeff_rows < 1:
            raise ValueError("n_bases and coeff_rows must be positive")
        if not 1 <= self.downsample <= MAX_DOWNSAMPLE:
            raise ValueError(
                f"downsample factor must be in [1, {MAX_DOWNSAMPLE}], got {self.downsample}")

    @property
    def coeff_width(self) -> int:
        return self.coeff_rows * self.n_bases


@dataclass
class LMParams:
    trunk: bb.BackboneParams
    coeff_w: T.Tensor
    coeff_b: T.Tensor


@dataclass
class PipelineResult:
    initial_logits: np.ndarray
    confidence: float
    terminated: bool
    madds_spent: int
    coefficients: T.Tensor | None = None  # this image's (rows, N) coefficients
    final_logits: np.ndarray | None = None

    def __post_init__(self):
        if self.terminated and self.final_logits is not None:
            raise ValueError("terminated results must not carry final logits")
        if not self.terminated and self.final_logits is None:
            raise ValueError("non-terminated results must carry final logits")

    @property
    def prediction(self) -> int:
        logits = self.initial_logits if self.terminated else self.final_logits
        return int(np.argmax(logits))


class BatchResult(NamedTuple):
    """``infer_batch`` over B images at ``threshold``, one array per field.

    Stage two ran on the P images in ``pending`` (sorted image indices, the
    ones below the threshold); ``final_logits`` and ``coefficients`` hold
    their rows in that order. A named tuple: immutable, and built in one call.
    """

    threshold: float
    confidence: np.ndarray  # (B,) max-softmax of the initial logits
    initial_logits: np.ndarray  # (B, C)
    terminated: np.ndarray  # (B,) bool, confidence >= threshold
    madds_spent: np.ndarray  # (B,) int64
    pending: np.ndarray  # (P,) int64
    final_logits: np.ndarray  # (P, C)
    coefficients: np.ndarray  # (P, rows, N), as synthesized

    def predictions(self, threshold: float | None = None) -> np.ndarray:
        """(B,) class per image: the initial prediction where the image stops,
        the specialist's elsewhere. ``threshold`` cuts at another threshold,
        no higher than this pass's; every image it does not stop ran stage two."""
        stop = self.terminated
        if threshold is not None:
            if not 0 <= threshold <= self.threshold:  # also rejects NaN
                raise ValueError(
                    f"threshold {threshold} outside [0, {self.threshold}], the pass's range")
            stop = self.confidence >= threshold
        out = np.argmax(self.initial_logits, axis=1)
        run = ~stop[self.pending]
        out[self.pending[run]] = np.argmax(self.final_logits[run], axis=1)
        return out

    def accuracy(self, labels: np.ndarray, threshold: float | None = None) -> float:
        """Fraction of ``predictions(threshold)`` equal to ``labels``."""
        return int(np.count_nonzero(self.predictions(threshold) == labels)) / len(labels)


def build_lm(lm: LightweightModel, seed: int) -> LMParams:
    rng = np.random.default_rng(seed)
    trunk = bb.build(lm.trunk, seed)
    return LMParams(trunk, *bb.init_linear(rng, lm.trunk.feature_channels, lm.coeff_width))


def downsample_input(x: np.ndarray, factor: int) -> np.ndarray:
    """Average-pool HxW by an integer factor (the lightweight preview input).

    Adds the (B, C, H/f, f, W/f, f) view of ``x`` over its last axis, then
    over its fourth, one add of views per term, and divides by ``f*f``: the
    additions numpy's ``reshape(...).mean(axis=(3, 5))`` makes for
    ``f <= MAX_DOWNSAMPLE``, so the result is that mean bit for bit, without
    its strided reduction.
    """
    if factor == 1:
        return x
    b, c, h, w = x.shape
    if h % factor or w % factor:
        raise T.ShapeError(f"spatial size {h}x{w} not divisible by downsample factor {factor}")
    blocks = x.reshape(b, c, h // factor, factor, w // factor, factor)
    rows = blocks[..., 0]
    for j in range(1, factor):
        rows = rows + blocks[..., j]
    total = rows[:, :, :, 0]
    for i in range(1, factor):
        total = total + rows[:, :, :, i]
    return total / (factor * factor)


def lm_forward(lm: LightweightModel, params: LMParams, x: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
    """One trunk pass and the class head: (initial logits (B, C), pooled
    features (B, F)). The coefficient head (``coeff_w``, ``coeff_b``) is
    ``stage_two``'s, so inference runs it only on the images the gate passes on."""
    xd = T.constant(downsample_input(x.data, lm.downsample))  # the trunk's first conv checks it
    feats = bb.forward_features(params.trunk, lm.trunk, xd)
    return T.linear(feats, params.trunk.head_w, params.trunk.head_b), feats


def image_madds(lm: LightweightModel, bank: syn.BasisBank) -> tuple[int, int, int, int]:
    """Analytic multiplies for one image: (stage one, synthesis, stage two,
    full path). An image that stops pays stage one alone, what ``lm_forward``
    runs: the trunk and the class head (the trunk spec's input shape is the
    post-transform size, so no downsample correction is applied). The full
    path adds synthesis, the coefficient head and the blend, both of which
    scale with N, and the specialist's pass. Priced once per model, from the
    bank's frozen structure, not its mutable kernels.
    """
    return _image_madds(lm, bank.spec, bank.share_mask, bank.n_bases)


@lru_cache(maxsize=32)
def _image_madds(lm: LightweightModel, spec: bb.BackboneSpec, share_mask: tuple[bool, ...],
                 n_bases: int) -> tuple[int, int, int, int]:
    stage_one = bb.count_madds(lm.trunk)
    synthesis = lm.trunk.feature_channels * lm.coeff_width + syn.synthesis_madds(spec, share_mask, n_bases)
    stage2 = bb.count_madds(spec)
    return stage_one, synthesis, stage2, stage_one + synthesis + stage2


def confidences(logits: np.ndarray) -> np.ndarray:
    """Max softmax probability of each row of (B, C) logits. The row's max
    shifts to exp(0.0) == 1.0 exactly, so it is 1 over the row's sum."""
    if logits.shape[-1] < 2:
        raise T.ShapeError("confidence needs at least 2 classes")
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    return 1.0 / np.add.reduce(e, axis=-1)


def confidence(logits: np.ndarray) -> float:
    """Max softmax probability of a single logits vector: ``confidences``
    of one row."""
    return float(confidences(logits.reshape(1, -1))[0])


def coefficients_from_raw(raw: T.Tensor, cfg: syn.SynthesisConfig,
                          n_rows: int, n_bases: int) -> T.Tensor:
    """Activate raw head outputs; harden them to one-hot in ``one_hot`` mode.

    ``raw`` is one sample's head output (width,), giving a (rows, N)
    matrix, or a batch (B, width), giving (B, rows, N). The head width, not
    the mode, decides the layout: a head N wide (the per-model head) is
    repeated for every layer before activation.
    """
    rows = (T.tile_rows(raw, n_rows) if raw.shape[-1] == n_bases
            else T.reshape(raw, (*raw.shape[:-1], n_rows, n_bases)))
    alpha = syn.activate(rows, cfg.activation)
    return syn.to_one_hot(alpha) if cfg.mode == "one_hot" else alpha


def stage_two(params: LMParams, bank: syn.BasisBank, cfg: syn.SynthesisConfig, x: T.Tensor,
              feats: T.Tensor, edit=None, trace: list | None = None) -> tuple[T.Tensor, T.Tensor]:
    """The second stage for images x (B, C, H, W) with pooled trunk features
    ``feats`` (B, F): the coefficient head, activation, ``edit`` if given,
    one synthesis of per-image specialists and one batched stage-two pass.
    ``edit`` maps the (B, rows, N) coefficients to the ones synthesized in
    their place: the one hook for training's stabilizers and the
    disturbance study. Returns (final logits (B, C), those coefficients).
    """
    raw = T.linear(feats, params.coeff_w, params.coeff_b)
    alpha = coefficients_from_raw(raw, cfg, bank.n_coefficient_rows, bank.n_bases)
    if edit is not None:
        alpha = edit(alpha)
    if trace is not None:
        for a in alpha.data:
            for r, k in enumerate(bank.nonshared_indices()):
                trace.append(("coefficients", k, a[r].copy()))
    return bb.forward(syn.synthesize(bank, alpha), bank.spec, x, trace), alpha


def _preview(lm: LightweightModel, params: LMParams, images: np.ndarray,
             threshold: float) -> tuple[T.Tensor, np.ndarray, T.Tensor, np.ndarray]:
    """Stage one over images (B, C, H, W): (the images as a Tensor, initial
    logits (B, C), pooled features (B, F), confidences (B,))."""
    if not threshold >= 0:  # also rejects NaN
        raise ValueError(f"threshold must be a number >= 0, got {threshold}")
    x = T.Tensor(images)
    initial, feats = lm_forward(lm, params, x)
    return x, initial.data, feats, confidences(initial.data)


def infer_batch(lm: LightweightModel, params: LMParams, bank: syn.BasisBank,
                cfg: syn.SynthesisConfig, images: np.ndarray, threshold: float,
                trace: list | None = None) -> BatchResult:
    """Run the pipeline over images (B, C, H, W); row i is ``infer`` on image i.

    One batched lightweight pass scores every image. The images below the
    threshold then share one ``stage_two`` (an image that stops never pays
    for its coefficient head).
    """
    x, initial, feats, conf = _preview(lm, params, images, threshold)
    terminated = conf >= threshold
    pending = (~terminated).nonzero()[0]
    if len(pending):
        if len(pending) < len(conf):
            x, feats = T.constant(x.data[pending]), T.constant(feats.data[pending])
        final, alpha = stage_two(params, bank, cfg, x, feats, trace=trace)
        final, coefficients = final.data, alpha.data
    else:
        final = np.empty((0, initial.shape[1]))
        coefficients = np.empty((0, bank.n_coefficient_rows, bank.n_bases))
    stopped, *_, full = image_madds(lm, bank)
    return BatchResult(threshold, conf, initial, terminated,
                       np.where(terminated, stopped, full), pending, final, coefficients)


def infer(lm: LightweightModel, params: LMParams, bank: syn.BasisBank,
          cfg: syn.SynthesisConfig, x: np.ndarray, threshold: float,
          trace: list | None = None) -> PipelineResult:
    """Run the full two-stage pipeline on a single image (1, C, H, W).

    Terminates after stage one when confidence >= threshold. Thresholds
    above 1 are legal and mean "never terminate". The result is row 0 of
    ``infer_batch``'s record, as plain scalars: the same stage one, gate and
    ``stage_two``, with no record built.
    """
    if x.ndim != 4 or x.shape[0] != 1:
        raise T.ShapeError(f"infer expects a single (1, C, H, W) image, got {x.shape}")
    x, initial, feats, conf = _preview(lm, params, x, threshold)
    confidence = conf.item()
    stopped, *_, full = image_madds(lm, bank)
    if confidence >= threshold:
        return PipelineResult(initial[0], confidence, True, stopped)
    final, alpha = stage_two(params, bank, cfg, x, feats, trace=trace)
    return PipelineResult(initial[0], confidence, False, full, T.constant(alpha.data[0]), final.data[0])
