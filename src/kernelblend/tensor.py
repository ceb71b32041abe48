"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a Tensor wraps a C-contiguous float64
ndarray, and every differentiable operation appends a backward rule to the
active GradTape. Replaying the tape in reverse yields gradients for every
parameter reachable from a scalar loss. There is no broadcasting; shape
mismatches raise instead of being silently stretched.

Float64 is used throughout so finite-difference gradient checks are decisive.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(ArithmeticError):
    """A forward operation produced NaN or Inf."""


def _require_finite(arr: np.ndarray, message: str) -> None:
    """Raise NonFiniteError with ``message`` if any entry is NaN or Inf."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(message)


def _contiguous(arr: np.ndarray) -> np.ndarray:
    # most op results are already C-contiguous, so the copy is rarely needed;
    # a 0-d array always is (ascontiguousarray would promote it to 1-d)
    return arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)


class Tensor:
    """A dense N-dimensional float64 array, optionally tracked for gradients.

    Tensors are immutable after construction except through
    :meth:`apply_update`, which is the single mutation point reserved for
    optimizers. Hashing is by identity so tensors can key gradient maps.
    """

    __slots__ = ("data", "requires_grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = _contiguous(np.asarray(data, dtype=np.float64))
        _require_finite(arr, "tensor data contains NaN or Inf")
        self.data = arr
        self.requires_grad = requires_grad
        self.tape: GradTape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def apply_update(self, new_data: np.ndarray) -> None:
        """Write new values into this tensor's buffer (optimizer-only interface).
        The write is in place, so views of the buffer stay live."""
        arr = np.asarray(new_data, dtype=np.float64)
        if arr.shape != self.data.shape:
            raise ShapeError(f"update shape {arr.shape} != parameter shape {self.data.shape}")
        _require_finite(arr, "parameter update contains NaN or Inf")
        self.data[...] = arr

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class GradTape:
    """Ordered record of differentiable operations.

    Each record is (output, inputs, backward_fn) where backward_fn maps the
    output gradient to per-input gradient contributions. The tape is
    single-shot: backward() consumes it and a second call is an error.
    """

    def __init__(self):
        self.records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self.consumed = False


_ACTIVE_TAPE: GradTape | None = None


@contextlib.contextmanager
def recording(tape: GradTape):
    """Route all differentiable ops inside the block onto ``tape``."""
    global _ACTIVE_TAPE
    if _ACTIVE_TAPE is not None:
        raise RuntimeError("a GradTape is already active; tapes do not nest")
    _ACTIVE_TAPE = tape
    try:
        yield tape
    finally:
        _ACTIVE_TAPE = None


def _result(data: np.ndarray, inputs: Sequence[Tensor], backward: Callable,
            checked: bool = False) -> Tensor:
    """Wrap an op result, enforce finiteness (unless the op has ``checked``
    it already), and record it if a tape is live."""
    if not checked:
        _require_finite(data, "forward operation produced NaN or Inf")
    out = Tensor.__new__(Tensor)
    out.data = _contiguous(data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.tape = None
    if _ACTIVE_TAPE is not None and out.requires_grad:
        out.tape = _ACTIVE_TAPE
        _ACTIVE_TAPE.records.append((out, tuple(inputs), backward))
    return out


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate gradients of ``loss`` w.r.t. every tensor that fed it.

    Returns a map from tensor to its gradient array. Tensors not reachable
    from the loss are simply absent. The tape is consumed; calling backward
    a second time on the same tape raises.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss.tape
    if tape is None:
        return {}
    if tape.consumed:
        raise RuntimeError("backward already ran on this tape")
    tape.consumed = True

    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for out, inputs, backward_fn in reversed(tape.records):
        gout = grads.get(out)
        if gout is None:
            continue
        for tensor, contribution in backward_fn(gout):
            if not tensor.requires_grad:
                continue
            existing = grads.get(tensor)
            if existing is None:
                grads[tensor] = np.array(contribution, dtype=np.float64, copy=True)
            else:
                existing += contribution
    return grads


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def bwd(g):
        return ((a, g), (b, g))

    return _result(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, equal shapes only."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")

    def bwd(g):
        return ((a, g * b.data), (b, g * a.data))

    return _result(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)

    def bwd(g):
        return ((a, g * factor),)

    return _result(a.data * factor, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bwd(g):
        return ((a, g * out * (1.0 - out)),)

    return _result(out, (a,), bwd)


def softmax(a: Tensor, axis: int) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"softmax axis {axis} out of bounds for shape {a.shape}")
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    out = ex / np.sum(ex, axis=axis, keepdims=True)

    def bwd(g):
        inner = np.sum(g * out, axis=axis, keepdims=True)
        return ((a, out * (g - inner)),)

    return _result(out, (a,), bwd)


# ---------------------------------------------------------------------------
# structural ops


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    old = a.shape

    def bwd(g):
        return ((a, g.reshape(old)),)

    return _result(a.data.reshape(shape), (a,), bwd)


def take(a: Tensor, index: int, axis: int = 0) -> Tensor:
    """Select ``index`` along ``axis``, dropping that axis (a row of a matrix,
    an element of a vector, one layer's coefficients of every sample)."""
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"take axis {axis} out of bounds for shape {a.shape}")
    if not 0 <= index < a.shape[axis]:
        raise ShapeError(f"index {index} out of range for axis {axis} of shape {a.shape}")

    def bwd(g):
        full = np.zeros_like(a.data)
        np.moveaxis(full, axis, 0)[index] = g
        return ((a, full),)

    return _result(np.take(a.data, index, axis=axis), (a,), bwd)


def tile_rows(a: Tensor, count: int) -> Tensor:
    """Repeat the last axis as ``count`` identical rows: (..., N) -> (..., count, N)."""
    if a.data.ndim < 1:
        raise ShapeError("tile_rows expects at least a 1-D tensor")

    def bwd(g):
        return ((a, g.sum(axis=-2)),)

    return _result(np.repeat(a.data[..., None, :], count, axis=-2), (a,), bwd)


def normalize_rows(a: Tensor, where=None) -> Tensor:
    """Divide each row (a slice along the last axis) by its own sum.

    ``where``, a boolean array over the rows (``a.shape[:-1]``, or any shape
    that broadcasts to it), restricts the division to the selected rows;
    the others pass through unchanged, values and gradient alike.
    """
    if a.data.ndim < 2:
        raise ShapeError(f"normalize_rows expects at least a 2-D tensor, got shape {a.shape}")
    sums = a.data.sum(axis=-1, keepdims=True)
    selected = True if where is None else np.asarray(where, dtype=bool)[..., None]
    sums = np.where(selected, sums, 1.0)
    if np.any(sums == 0.0):
        raise ShapeError("normalize_rows: a row sums to zero")
    out = a.data / sums

    def bwd(g):
        inner = np.where(selected, np.sum(g * out, axis=-1, keepdims=True), 0.0)
        return ((a, (g - inner) / sums),)

    return _result(out, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    """Scalar sum of all entries."""

    def bwd(g):
        return ((a, np.full_like(a.data, float(g))),)

    return _result(np.array(np.sum(a.data)), (a,), bwd)


def sum_squares(*tensors: Tensor) -> Tensor:
    """Scalar sum of the squared entries of every tensor (the L2 regulariser).

    One record however many tensors: each tensor's sum is added left to
    right, the same additions as a chain of per-tensor sums joined by
    ``add``, and each tensor gets its own ``2 * t * g`` gradient term.
    """

    def bwd(g):
        return tuple((t, 2.0 * t.data * g) for t in tensors)

    total = 0.0  # plain left-to-right adds: sum() compensates on Python >= 3.12
    for t in tensors:
        total = total + np.sum(t.data * t.data)
    return _result(np.array(total), tensors, bwd)


def blend(coeffs: Tensor, tensors: Sequence[Tensor]) -> Tensor:
    """Per-sample linear combinations out[b] = sum_n coeffs[b, n] * tensors[n].

    ``coeffs`` is (B, N) and the N tensors share one shape, so the result
    is (B, *shape): one blended tensor per sample, from a single einsum.
    The other terms of a one-hot row add exact zeros, so it returns the
    selected tensor's values bit for bit. The coefficients get a
    gradient at every position; a tensor whose coefficient is zero in every
    row gets no gradient entry at all (not even a zero-filled one, which an
    optimizer would still see).
    """
    if coeffs.data.ndim != 2:
        raise ShapeError(f"blend coeffs must be (B, N), got shape {coeffs.shape}")
    n = coeffs.shape[1]
    if n != len(tensors):
        raise ShapeError(f"{n} coefficients for {len(tensors)} tensors")
    base = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != base:
            raise ShapeError(f"blend member shapes differ: {t.shape} vs {base}")

    c = coeffs.data
    flat = np.concatenate([t.data for t in tensors]).reshape(n, -1)

    def bwd(g):
        gflat = g.reshape(len(c), -1)
        gc = np.einsum("bf,nf->bn", gflat, flat)
        gt = np.einsum("bn,bf->nf", c, gflat)
        used = np.flatnonzero(np.any(c != 0.0, axis=0))
        return ((coeffs, gc), *((tensors[i], gt[i].reshape(base)) for i in used))

    out = np.einsum("bn,nf->bf", c, flat).reshape(len(c), *base)
    return _result(out, (coeffs, *tensors), bwd)


# ---------------------------------------------------------------------------
# network ops


@functools.lru_cache(maxsize=64)
def _window_index(c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int,
                  out_h: int, out_w: int) -> np.ndarray:
    """Read-only int64 offsets into one sample's flattened (C, H, W) input
    with one zero appended at offset C*H*W, one per im2col entry in
    (C, kh, kw, oH, oW) order: entry [ci, ki, kj, i, j] is the element that
    kernel tap (ki, kj) of channel ci meets at output (i, j), or the zero if
    that tap falls in the padding. The batch is not part of the key, so
    every batch size shares one index."""
    ci, ki, kj, i, j = np.indices((c, kh, kw, out_h, out_w))
    r, s = ki + i * stride - padding, kj + j * stride - padding
    inside = (r >= 0) & (r < h) & (s >= 0) & (s < w)
    idx = np.where(inside, ci * (h * w) + r * w + s, c * h * w).reshape(-1)
    idx.flags.writeable = False
    return idx


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None, relu: bool = False) -> Tensor:
    """2-D cross-correlation of an NCHW input with an OIKK kernel, then an
    optional per-channel bias and ReLU: a whole conv layer as one op.

    A (B, O, I, K, K) kernel gives each sample its own kernel (CondConv's
    per-example kernels). Either kind runs as stacked matmuls in which B
    stays the loop axis, one same-shape GEMM per sample, so that a sample's
    result does not depend on the batch it runs in. Output spatial size is
    floor((H + 2*padding - K)/stride) + 1 per side. Differentiable w.r.t.
    the input, the kernel and the bias; an input that does not require a
    gradient gets none computed. The bias add and the ReLU follow the GEMM,
    and the backward masks the gradient and sums the bias gradient before
    the conv backward, so a layer gives the values of a conv, a bias add and
    a ReLU run one after another, on one tape record (as cuDNN's fused
    conv-bias-activation call does).
    """
    per_sample = kernel.data.ndim == 5
    if x.data.ndim != 4 or kernel.data.ndim not in (4, 5):
        raise ShapeError(f"conv2d expects NCHW input and OIKK or BOIKK kernel, got {x.shape} and {kernel.shape}")
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ShapeError(f"padding must be >= 0, got {padding}")
    batch, in_c, h, w = x.shape
    out_c, k_in, kh, kw = kernel.shape[-4:]
    if per_sample and kernel.shape[0] != batch:
        raise ShapeError(f"conv2d per-sample kernel {kernel.shape} does not match batch of input {x.shape}")
    if in_c != k_in:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} has {in_c} channels, kernel {kernel.shape} expects {k_in}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"conv2d kernel {kernel.shape} larger than padded input {x.shape} (padding={padding})")
    if bias is not None and bias.shape != (out_c,):
        raise ShapeError(f"conv2d bias {bias.shape} does not match kernel {kernel.shape}")

    # im2col: gather the windows through a cached flat index into one
    # contiguous (B, C, kh, kw, oH, oW) array, which reshapes for free to the
    # GEMM operand (B, C*kh*kw, oH*oW); a tap in the padding reads the zero
    # appended to each sample. Each contraction is a stacked matmul with B as
    # its loop axis: one GEMM call per sample, of the same shape at any batch
    # size, so a sample reduces in the same order alone or in a batch (the
    # batch-equals-serial and bit-determinism contracts). Folded into a GEMM
    # dimension, B could change BLAS's blocking.
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    idx = _window_index(in_c, h, w, kh, kw, stride, padding, out_h, out_w)
    plane = in_c * h * w
    xz = np.concatenate([x.data.reshape(batch, plane), np.zeros((batch, 1))], axis=1)
    cols = np.take(xz, idx, axis=1).reshape(batch, in_c * kh * kw, out_h * out_w)
    kmat = kernel.data.reshape(*kernel.shape[:-3], in_c * kh * kw)
    out = np.matmul(kmat, cols).reshape(batch, out_c, out_h, out_w)
    if bias is not None:
        out = out + bias.data[None, :, None, None]
    # checked before the ReLU, which maps NaN and -Inf to 0
    _require_finite(out, "forward operation produced NaN or Inf")
    if relu:
        mask = out > 0
        out = np.where(mask, out, 0.0)

    def bwd(g):
        if relu:
            g = g * mask
        gb = () if bias is None else ((bias, g.sum(axis=(0, 2, 3))),)
        g3 = g.reshape(batch, out_c, out_h * out_w)
        gk = np.matmul(g3, cols.transpose(0, 2, 1))
        # a shared kernel sums the per-sample products, in batch order
        gk = (gk if per_sample else gk.sum(axis=0)).reshape(kernel.shape)
        if not x.requires_grad:  # e.g. the image at layer 0: backward would drop it
            return ((kernel, gk), *gb)
        gcols = np.matmul(np.swapaxes(kmat, -1, -2), g3)  # (B, C*kh*kw, oH*oW)
        # col2im: bincount adds each input position's window contributions
        # to 0.0 in index order, which is ascending (ki, kj); a position no
        # window covers gets an exact zero. The padding taps all land in each
        # sample's last bin, which the view drops.
        flat = (np.arange(batch)[:, None] * (plane + 1) + idx).reshape(-1)
        gx = np.bincount(flat, weights=gcols.reshape(-1), minlength=batch * (plane + 1)
                         ).reshape(batch, plane + 1)[:, :plane].reshape(x.shape)
        return ((x, gx), (kernel, gk), *gb)

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    return _result(out, inputs, bwd, checked=True)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map of a (B, F) batch through an (F, O) weight."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ShapeError(f"linear shape mismatch: input {x.shape} vs weight {weight.shape}")
    if bias is not None and bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear bias {bias.shape} does not match weight {weight.shape}")
    out = np.einsum("bf,fo->bo", x.data, weight.data)
    if bias is not None:
        out = out + bias.data[None, :]

    def bwd(g):
        contribs = [(x, np.einsum("bo,fo->bf", g, weight.data)),
                    (weight, np.einsum("bf,bo->fo", x.data, g))]
        if bias is not None:
            contribs.append((bias, g.sum(axis=0)))
        return tuple(contribs)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, inputs, bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean of each channel: NCHW -> NC."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool expects NCHW, got {x.shape}")
    _, _, h, w = x.shape
    area = h * w

    def bwd(g):
        gx = np.repeat(np.repeat(g[:, :, None, None], h, axis=2), w, axis=3) / area
        return ((x, gx),)

    return _result(x.data.mean(axis=(2, 3)), (x,), bwd)


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Mean over the batch of -sum(target * log softmax(logits)).

    ``target`` is either an integer class index per batch row or a (B, C)
    array of soft distributions (rows must sum to 1); soft targets are what
    distillation feeds in.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects (B, C) logits, got {logits.shape}")
    b, c = logits.shape
    if c < 2:
        raise ShapeError(f"cross_entropy needs at least 2 classes, got {c}")

    target = np.asarray(target)
    if target.ndim <= 1:
        idx = target.reshape(-1).astype(np.int64)
        if idx.shape[0] != b:
            raise ShapeError(f"{idx.shape[0]} targets for {b} logits rows")
        if np.any(idx < 0) or np.any(idx >= c):
            raise ShapeError(f"class index out of range [0, {c})")
        soft = np.zeros((b, c))
        soft[np.arange(b), idx] = 1.0
    else:
        soft = np.asarray(target, dtype=np.float64)
        if soft.shape != (b, c):
            raise ShapeError(f"soft target shape {soft.shape} does not match logits {logits.shape}")
        sums = soft.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            raise ShapeError("soft target rows must sum to 1 within 1e-6")

    shifted = logits.data - np.max(logits.data, axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -np.sum(soft * log_probs) / b

    def bwd(g):
        probs = np.exp(log_probs)
        return ((logits, g * (probs - soft) / b),)

    return _result(np.array(loss), (logits,), bwd)
