"""Basis kernel banks and input-conditioned kernel synthesis.

A bank stores a non-shared layer's N candidate kernels as one (N, O, I, K, K)
stack; a shared layer keeps one kernel. Coefficients are a plain (rows, N)
tensor, one row per non-shared layer, that blends the candidates into one
specialist kernel per layer: W_k = sum_n alpha[k, n] * W_k_n. Biases and the
classifier head are always shared, so blending touches kernels only. A (B,
rows, N) batch blends one specialist per sample in one op per layer.

Also here: the coefficient path from the head's output - the layout and
row-wise activation, hardened to one-hot in selection mode, as one op, and
training's stabilizers (the uniform blend, basis dropout masking and
rescaling) as another - each taking and returning one matrix or a batch.
The caller's ``SynthesisConfig`` alone decides which apply (selection
fine-tuning sets its ``one_hot`` mode); the tensors carry no mode, so an
edited matrix, such as a disturbed one, synthesizes like any other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import BackboneParams, BackboneSpec, LayerParams, init_kernel, init_linear, zero_bias

MODES = ("per_layer", "per_model", "one_hot")
ACTIVATIONS = ("softmax", "sigmoid")


@dataclass(frozen=True)
class SynthesisConfig:
    activation: str = "softmax"
    mode: str = "per_layer"
    bmd_renormalize: bool = True

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    def head_rows(self, bank_rows: int) -> int:
        """Coefficient rows the head emits for a bank that blends ``bank_rows``
        layers: one per blended layer, or one for the whole model."""
        return 1 if self.mode == "per_model" else bank_rows


@dataclass
class BasisBank:
    """N same-architecture kernel sets with per-layer sharing.

    ``kernels[k]`` is layer k's (O, I, K, K) kernel if it is shared, else its
    N bases as one (N, O, I, K, K) stack; biases and the head are shared.
    """

    spec: BackboneSpec
    n_bases: int
    share_mask: tuple[bool, ...]
    kernels: list[T.Tensor]
    biases: list[T.Tensor]
    head_w: T.Tensor
    head_b: T.Tensor

    def __post_init__(self):
        if self.n_bases < 1:
            raise ValueError("a bank needs at least one basis")
        if len(self.share_mask) != self.spec.num_layers:
            raise ValueError("share_mask length must equal the layer count")
        for k, (layer, shared, kernel) in enumerate(zip(self.spec.layers, self.share_mask, self.kernels, strict=True)):
            expected = layer.kernel_shape if shared else (self.n_bases, *layer.kernel_shape)
            if kernel.shape != expected:
                raise ValueError(f"layer L{k} kernel has shape {kernel.shape}, expected {expected}")

    def nonshared_indices(self) -> list[int]:
        return [k for k, shared in enumerate(self.share_mask) if not shared]

    @property
    def n_coefficient_rows(self) -> int:
        return self.share_mask.count(False)


def build_bank(spec: BackboneSpec, n_bases: int, shared_layers, seed: int) -> BasisBank:
    """Initialize a bank; ``shared_layers`` is an iterable of layer indices."""
    shared = set(int(i) for i in shared_layers)
    for i in shared:
        if not 0 <= i < spec.num_layers:
            raise ValueError(f"shared layer index {i} out of range [0, {spec.num_layers})")

    rng = np.random.default_rng(seed)
    kernels = [init_kernel(rng, layer, () if k in shared else (n_bases,)) for k, layer in enumerate(spec.layers)]
    head_w, head_b = init_linear(rng, spec.feature_channels, spec.num_classes)
    return BasisBank(
        spec=spec,
        n_bases=n_bases,
        share_mask=tuple(k in shared for k in range(spec.num_layers)),
        kernels=kernels,
        biases=[zero_bias(layer.out_channels) for layer in spec.layers],
        head_w=head_w,
        head_b=head_b,
    )


# ---------------------------------------------------------------------------
# coefficient pipeline


def coefficients_from_raw(raw: T.Tensor, cfg: SynthesisConfig, n_rows: int, n_bases: int) -> T.Tensor:
    """Activate raw head outputs; harden them to one-hot in ``one_hot`` mode.

    ``raw`` is one sample's head output (width,), giving a (rows, N)
    matrix, or a batch (B, width), giving (B, rows, N). The head width, not
    the mode, decides the layout: a head N wide (the per-model head) is
    repeated for every layer before activation. One op, ``planned_coefficients``
    on the data; its backward is the activation's, then the layout's (the
    repeated rows' gradients summed). Hardened coefficients are a constant:
    no gradient reaches the head through them.
    """
    tiled = raw.shape[-1] == n_bases
    shape = (*raw.shape[:-1], n_rows, n_bases)
    if not tiled and raw.shape[-1] != n_rows * n_bases:
        raise T.ShapeError(f"cannot reshape {raw.shape} to {shape}")
    if len(shape) not in (2, 3):
        raise T.ShapeError(f"raw coefficients must be (rows, N) or (B, rows, N), got shape {shape}")
    alpha = planned_coefficients(raw.data, cfg, shape, tiled)
    if cfg.mode == "one_hot":
        return T.constant(alpha)
    return T._result(alpha, (raw,), _coefficients_bwd, cfg.activation, tiled, alpha)


def _coefficients_bwd(g, activation, tiled, out, raw):
    # the layout's backward: the repeated rows' sum, or the product written
    # straight into the head's shape, so the contribution is the op's own
    graw = None if tiled else np.empty(raw.shape)
    into = None if tiled else graw.reshape(out.shape)
    if activation == "softmax":
        g = np.multiply(out, g - np.add.reduce(g * out, axis=-1, keepdims=True), out=into)
    else:
        g = np.multiply(g * out, 1.0 - out, out=into)
    return ((raw, np.add.reduce(g, axis=-2) if tiled else graw),)


def planned_coefficients(raw: np.ndarray, cfg: SynthesisConfig, shape: tuple, tiled: bool) -> np.ndarray:
    """``coefficients_from_raw`` on a (B, width) ndarray, in a layout the
    caller has checked: the (B, rows, N) ``shape``, from a ``tiled`` head or not."""
    rows = T._tile_rows(raw, shape[-2]) if tiled else raw.reshape(shape)
    alpha = T._softmax(rows, -1) if cfg.activation == "softmax" else T._sigmoid(rows)
    return one_hot(alpha) if cfg.mode == "one_hot" else alpha


def stabilize(alpha: T.Tensor, epsilon: float = 0.0, drop_mask: np.ndarray | None = None,
              renormalize: bool = True) -> T.Tensor:
    """Training's coefficient stabilizers as one op: the uniform blend
    eps/N + (1-eps)*alpha (none at eps 0), then basis dropout, which zeroes
    dropped bases' coefficients in every row and, with ``renormalize``,
    rescales each row to sum 1. Blending first gives a dropped basis 0, not eps/N.

    ``drop_mask`` is None, (N,), one mask for every matrix, or (B, N), one
    mask per sample of a (B, rows, N) batch. A sample whose mask drops
    nothing keeps its coefficients exactly, unrescaled; with nothing to do,
    ``alpha`` comes back as it is. The backward undoes the steps in reverse
    with the arithmetic of the blend, mask and rescale as separate ops.
    Nothing is scanned: on coefficients in [0, 1] every value stays in [0,
    1], and a NaN reaches the stage-two conv's check. A row whose surviving
    coefficients all underflowed to 0 cannot be rescaled; it raises
    NonFiniteError, which training reports as a diverged step.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    shape = alpha.data.shape
    factor = keep = selected = sums = None
    if drop_mask is not None:
        keep = np.where(drop_mask, 0.0, 1.0)
        if keep.shape not in ((shape[-1],), (*shape[:-2], shape[-1])):
            raise T.ShapeError(f"drop mask shape {keep.shape} does not match coefficients {shape}")
        kept = np.add.reduce(keep, axis=-1)  # survivors per mask
        if not np.logical_and.reduce(kept, axis=None):
            raise ValueError("all bases dropped; at least one must survive")
        if np.minimum.reduce(kept, axis=None) == shape[-1]:  # nothing dropped
            keep = None
    if keep is None and epsilon == 0.0:
        return alpha
    values = alpha.data
    if epsilon > 0.0:
        factor = 1.0 - epsilon
        values = values * factor + epsilon / shape[-1]
    if keep is not None:
        keep = keep[..., None, :]  # one mask row spans its matrix's rows
        values = values * keep
        if renormalize:
            sums = np.add.reduce(values, axis=-1, keepdims=True)
            if kept.ndim:  # per-sample masks: a sample whose mask drops nothing keeps its rows unscaled
                selected = (kept < shape[-1])[:, None, None]
                sums = np.where(selected, sums, 1.0)
            if not np.logical_and.reduce(sums, axis=None):
                raise T.NonFiniteError("basis dropout left a coefficient row whose survivors all "
                                       "underflowed to 0, and rescaling it would divide by zero")
            values = values / sums
    return T._result(values, (alpha,), _stabilize_bwd, factor, keep, selected, sums, values)


def _stabilize_bwd(g, factor, keep, selected, sums, out, alpha):
    if sums is not None:
        inner = np.add.reduce(g * out, axis=-1, keepdims=True)
        if selected is not None:
            inner = np.where(selected, inner, 0.0)
        g = (g - inner) / sums
    if keep is not None:
        g = g * keep
    if factor is not None:
        g = g * factor
    return ((alpha, g),)


def one_hot(v: np.ndarray) -> np.ndarray:
    """Each row of ``v`` hardened to its argmax (ties go to the lowest basis index)."""
    return (np.arange(v.shape[-1]) == np.argmax(v, axis=-1)[..., None]).astype(np.float64)


# ---------------------------------------------------------------------------
# synthesis


def synthesize(bank: BasisBank, alpha: T.Tensor) -> BackboneParams:
    """Blend per-layer kernels into one specialist parameter set.

    A (B, rows, N) batch of coefficients gives per-sample (B, O, I, K, K)
    kernels, one blend per layer, which ``conv2d`` runs as one batched call;
    one image's (rows, N) matrix gives an ordinary specialist with (O, I,
    K, K) kernels that runs on any batch. Shared layers pass their single
    kernel through untouched; biases and the head are the bank's shared
    tensors. Differentiable w.r.t. both the coefficients and every layer's
    stack of bases.
    """
    shape = alpha.data.shape
    if len(shape) not in (2, 3):
        raise T.ShapeError(f"coefficients must be (rows, N) or (B, rows, N), got shape {shape}")
    if shape[-1] != bank.n_bases:
        raise T.ShapeError(f"coefficients have {shape[-1]} bases, bank has {bank.n_bases}")
    rows = bank.n_coefficient_rows
    if shape[-2] != rows:
        raise T.ShapeError(f"coefficients have {shape[-2]} rows, bank has {rows} non-shared layers")

    single = len(shape) == 2
    values = T.reshape(alpha, (1, *shape)) if single else alpha
    layers, r = [], 0
    for kernel, bias, shared in zip(bank.kernels, bank.biases, bank.share_mask):
        if not shared:
            kernel = T.blend(values, kernel, r)
            if single:
                kernel = T.reshape(kernel, kernel.shape[1:])
            r += 1
        layers.append(LayerParams(kernel, bias))
    return BackboneParams(layers, bank.head_w, bank.head_b)


def plan_blends(spec: BackboneSpec, share_mask: tuple[bool, ...], shape: tuple) -> tuple:
    """``synthesize``'s blends for (B, rows, N) coefficients of ``shape``,
    checked: each layer's (coefficient row, blend plan), None if shared."""
    plans, r = [], 0
    for layer, shared in zip(spec.layers, share_mask):
        plans.append(None if shared else (r, T._blend_plan(shape, r, (shape[-1], *layer.kernel_shape))))
        r += not shared
    return tuple(plans)


def blend_kernels(bank: BasisBank, alpha: np.ndarray, plans: tuple) -> list[np.ndarray]:
    """``synthesize`` on ndarrays through ``plan_blends``' plans: each layer's
    specialist kernel, a (B, O, I, K, K) blend or the shared (O, I, K, K) one."""
    return [kernel.data if plan is None else T._blend(alpha, plan[0], kernel.data, plan[1])[0]
            for plan, kernel in zip(plans, bank.kernels)]


def select_params(bank: BasisBank, choices) -> BackboneParams:
    """Pick one basis per non-shared layer, no blending: constant slices, for forward passes."""
    choices = list(choices)
    if len(choices) != bank.n_coefficient_rows:
        raise T.ShapeError(f"{len(choices)} choices for {bank.n_coefficient_rows} non-shared layers")
    params = BackboneParams(head_w=bank.head_w, head_b=bank.head_b)
    it = iter(choices)
    for k, shared in enumerate(bank.share_mask):
        kernel = bank.kernels[k] if shared else T.constant(bank.kernels[k].data[next(it)])
        params.layers.append(LayerParams(kernel=kernel, bias=bank.biases[k]))
    return params


# ---------------------------------------------------------------------------
# accounting


def synthesis_madds(spec: BackboneSpec, share_mask: tuple[bool, ...], n_bases: int) -> int:
    """Multiplies to blend a full specialist of a bank with this structure:
    one per basis kernel parameter."""
    return n_bases * basis_param_count(spec, share_mask)


def basis_param_count(spec: BackboneSpec, share_mask: tuple[bool, ...]) -> int:
    """Kernel parameters one basis holds: its non-shared layers' kernels."""
    # priced from the bank's frozen structure, not its mutable kernels
    return sum(layer.kernel_params for layer, shared in zip(spec.layers, share_mask) if not shared)
