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


@lru_cache(maxsize=64)
def _stage_one_plan(lm: LightweightModel, shape: tuple) -> tuple:
    """Stage one for images of ``shape``, checked once: the trunk's layer plans."""
    (c, h, w), f = lm.trunk.input_shape, lm.downsample
    if shape[1:] != (c, h * f, w * f):  # the model's input: the trunk's before the downsample
        raise T.ShapeError(f"input {shape} does not match spec input shape {(c, h * f, w * f)}")
    return bb.plan_features(lm.trunk, (shape[0], c, h, w))


def lm_forward(lm: LightweightModel, params: LMParams, x: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
    """One trunk pass and the class head: (initial logits (B, C), pooled
    features (B, F)), by the stage-one plan with no tape live, else by the
    ops. The coefficient head is ``stage_two``'s, so inference runs it only
    on the images the gate passes on."""
    plans = _stage_one_plan(lm, x.data.shape)
    xd = downsample_input(x.data, lm.downsample)  # the trunk's first conv checks it
    trunk = params.trunk
    if T.taping():
        feats = bb.forward_features(trunk, lm.trunk, T.constant(xd))
        return T.linear(feats, trunk.head_w, trunk.head_b), feats
    feats = bb.planned_features(xd, plans, [lp.kernel.data for lp in trunk.layers], [lp.bias for lp in trunk.layers])
    return T.constant(T._linear(feats, trunk.head_w.data, trunk.head_b.data)), T.constant(feats)


def image_madds(lm: LightweightModel, bank: syn.BasisBank) -> tuple[int, int, int, int]:
    """Analytic multiplies for one image: (stage one, synthesis, stage two,
    full path). An image that stops pays stage one alone, what ``lm_forward``
    runs: the trunk and the class head (the trunk spec's input shape is the
    post-transform size, so no downsample correction is applied). The full
    path adds synthesis (the coefficient head and the blend, both scaling with
    N) and the specialist's pass. Priced once per model structure."""
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
    """Max softmax probability of a single logits vector: ``confidences`` of one row."""
    return float(confidences(logits.reshape(1, -1))[0])


@lru_cache(maxsize=64)
def _stage_two_plan(spec: bb.BackboneSpec, share_mask: tuple[bool, ...], n_bases: int,
                    wshape: tuple, xshape: tuple, fshape: tuple) -> tuple:
    """Stage two for images of ``xshape``, features of ``fshape`` and a head
    of ``wshape``, checked once: (tiled head, (B, rows, N), blend and layer plans)."""
    if xshape[1:] != spec.input_shape:
        raise T.ShapeError(f"input {xshape} does not match spec input shape {spec.input_shape}")
    shape = (xshape[0], share_mask.count(False), n_bases)
    if fshape != (xshape[0], wshape[0]) or wshape[1] not in (n_bases, shape[1] * n_bases):
        raise T.ShapeError(f"features {fshape} and a coefficient head {wshape} for {shape} coefficients")
    return (wshape[1] == n_bases, shape, syn.plan_blends(spec, share_mask, shape),
            bb.plan_features(spec, xshape, share_mask))


def stage_two(params: LMParams, bank: syn.BasisBank, cfg: syn.SynthesisConfig, x: T.Tensor,
              feats: T.Tensor, edit=None, trace: list | None = None) -> tuple[T.Tensor, T.Tensor]:
    """The second stage for images x (B, C, H, W) with pooled trunk features
    ``feats`` (B, F): the coefficient head, activation, ``edit`` if given,
    one synthesis of per-image specialists and one batched stage-two pass.
    ``edit`` maps the (B, rows, N) coefficients Tensor to the one synthesized
    in its place: the one hook for training's stabilizers and the
    disturbance study. Returns (final logits (B, C), those coefficients).
    With no tape live it runs the stage-two plan; on a tape, the ops.
    """
    taped = T.taping()
    if taped:
        raw = T.linear(feats, params.coeff_w, params.coeff_b)
        alpha = syn.coefficients_from_raw(raw, cfg, bank.n_coefficient_rows, bank.n_bases)
    else:
        tiled, shape, blends, plans = _stage_two_plan(
            bank.spec, bank.share_mask, bank.n_bases, params.coeff_w.data.shape, x.data.shape, feats.data.shape)
        raw = T._linear(feats.data, params.coeff_w.data, params.coeff_b.data)
        alpha = T.constant(syn.planned_coefficients(raw, cfg, shape, tiled))
    if edit is not None:
        alpha = edit(alpha)
        if not taped and alpha.shape != shape:  # on a tape, synthesize checks it
            raise T.ShapeError(f"edit returned coefficients {alpha.shape}, expected {shape}")
    if trace is not None:
        for a in alpha.data:
            for r, k in enumerate(bank.nonshared_indices()):
                trace.append(("coefficients", k, a[r].copy()))
    if taped:
        return bb.forward(syn.synthesize(bank, alpha), bank.spec, x, trace), alpha
    feats = bb.planned_features(x.data, plans, syn.blend_kernels(bank, alpha.data, blends), bank.biases, trace)
    return T.constant(T._linear(feats, bank.head_w.data, bank.head_b.data)), alpha


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
    One batched stage one scores every image; the images below the threshold
    share one ``stage_two`` (an image that stops never pays for its head)."""
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
    """Run the full two-stage pipeline on a single image (1, C, H, W): it
    stops after stage one when confidence >= threshold (above 1: never).
    Row 0 of ``infer_batch``'s record, as plain scalars, from the same stage
    one, gate and ``stage_two``, with no record built."""
    if x.ndim != 4 or x.shape[0] != 1:
        raise T.ShapeError(f"infer expects a single (1, C, H, W) image, got {x.shape}")
    x, initial, feats, conf = _preview(lm, params, x, threshold)
    confidence = conf.item()
    stopped, *_, full = image_madds(lm, bank)
    if confidence >= threshold:
        return PipelineResult(initial[0], confidence, True, stopped)
    final, alpha = stage_two(params, bank, cfg, x, feats, trace=trace)
    return PipelineResult(initial[0], confidence, False, full, T.constant(alpha.data[0]), final.data[0])
