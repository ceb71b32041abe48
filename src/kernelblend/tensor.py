"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a Tensor wraps a C-contiguous float64
ndarray, and every differentiable operation appends a backward rule to the
active GradTape. Replaying the tape in reverse yields gradients for every
parameter reachable from a scalar loss and releases the tape. There is no
broadcasting; shape mismatches raise instead of being silently stretched.

Float64 is used throughout so finite-difference gradient checks are decisive.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(ArithmeticError):
    """A forward operation produced NaN or Inf."""


def _require_finite(arr: np.ndarray, message: str) -> None:
    """Raise NonFiniteError with ``message`` if any entry is NaN or Inf (one
    ufunc reduce: ``ndarray.all`` would add a Python-level wrapper per op)."""
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
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

    def apply_update(self, new_data: np.ndarray, start: int = 0) -> None:
        """Write new values into this tensor's buffer, from flat offset ``start``
        to its end (optimizer-only interface); nothing unless all are finite.
        The write is in place, so views of the buffer stay live."""
        arr = np.asarray(new_data, dtype=np.float64)
        target = self.data.reshape(-1)[start:] if start else self.data
        if arr.shape != target.shape:
            raise ShapeError(f"update shape {arr.shape} != parameter shape {target.shape}")
        _require_finite(arr, "parameter update contains NaN or Inf")
        target[...] = arr

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class GradTape:
    """Ordered record of differentiable operations.

    Each record is (output, inputs, backward_fn) where backward_fn maps the
    output gradient to per-input gradient contributions. The tape is
    single-shot: backward() consumes it and a second call is an error.

    ``into`` maps a tensor to a writable array holding its gradient's start
    (zeros, or a term computed off the tape such as L2's): backward adds
    every contribution into it and gives the tensor an entry, reached or not.
    """

    def __init__(self, into: dict[Tensor, np.ndarray] | None = None):
        self.records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self.consumed = False
        self.into = {} if into is None else into


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


def constant(data: np.ndarray) -> Tensor:
    """A Tensor over rows taken from a Tensor's data, which are finite
    already: the constructor's finiteness scan is skipped."""
    return _result(data, (), None, checked=True)


def _result(data: np.ndarray, inputs: Sequence[Tensor], backward: Callable,
            checked: bool = False) -> Tensor:
    """Wrap an op result, check it is finite (unless ``checked``: the op did,
    or finite inputs cannot give anything else), and record it if a tape is live."""
    if not checked:
        _require_finite(data, "forward operation produced NaN or Inf")
    out = Tensor.__new__(Tensor)
    out.data = _contiguous(data)
    out.requires_grad = False
    for t in inputs:  # a plain loop: any() over a generator costs more per op
        if t.requires_grad:
            out.requires_grad = True
            break
    out.tape = None
    if _ACTIVE_TAPE is not None and out.requires_grad:
        out.tape = _ACTIVE_TAPE
        _ACTIVE_TAPE.records.append((out, tuple(inputs), backward))
    return out


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate gradients of ``loss`` w.r.t. every tensor that fed it.

    Returns a map from tensor to its gradient array: each tensor in the
    tape's ``into`` to its array, with every contribution added in. Any other
    tensor the loss does not reach is absent. The tape is consumed; calling
    backward a second time raises.

    A tensor outside ``into`` takes its first contribution as its gradient
    array and adds later ones into it in place. The first is kept without a
    copy when the op made it fresh (``base`` None) for this one input, so a
    backward rule never returns one fresh array for two inputs. Anything else
    (a view, the output gradient passed through, a numpy scalar) is copied,
    so no two gradients share memory.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss.tape
    if tape is None:
        return {}
    if tape.consumed:
        raise RuntimeError("backward already ran on this tape")
    tape.consumed = True

    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data), **tape.into}
    for out, inputs, backward_fn in reversed(tape.records):
        gout = grads.get(out)
        if gout is None:
            continue
        for tensor, contribution in backward_fn(gout):
            if not tensor.requires_grad:
                continue
            existing = grads.get(tensor)
            if existing is not None:
                existing += contribution
            elif (type(contribution) is np.ndarray and contribution.base is None
                  and contribution is not gout):
                grads[tensor] = contribution  # the op's own fresh array: nothing else holds it
            else:  # a view, the output gradient passed through, or a numpy scalar
                grads[tensor] = np.array(contribution, dtype=np.float64, copy=True)
    tape.records.clear()  # outputs refer back to the tape: free the graph without the cyclic GC
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

    return _result(out, (a,), bwd, checked=True)  # in [0, 1]


def softmax(a: Tensor, axis: int) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"softmax axis {axis} out of bounds for shape {a.shape}")
    shifted = a.data - np.maximum.reduce(a.data, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    out = ex / np.add.reduce(ex, axis=axis, keepdims=True)

    def bwd(g):
        inner = np.add.reduce(g * out, axis=axis, keepdims=True)
        return ((a, out * (g - inner)),)

    return _result(out, (a,), bwd, checked=True)  # in [0, 1]


# ---------------------------------------------------------------------------
# structural ops


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    old = a.shape

    def bwd(g):
        return ((a, g.reshape(old)),)

    return _result(a.data.reshape(shape), (a,), bwd, checked=True)  # moves data only


def tile_rows(a: Tensor, count: int) -> Tensor:
    """Repeat the last axis as ``count`` identical rows: (..., N) -> (..., count, N)."""
    if a.data.ndim < 1:
        raise ShapeError("tile_rows expects at least a 1-D tensor")

    def bwd(g):
        return ((a, np.add.reduce(g, axis=-2)),)

    return _result(np.repeat(a.data[..., None, :], count, axis=-2), (a,), bwd, checked=True)  # copies


def normalize_rows(a: Tensor, where) -> Tensor:
    """Divide each selected row (a slice along the last axis) by its own sum.

    ``where``, a boolean array over the rows (``a.shape[:-1]``, or any shape
    that broadcasts to it, ``True`` for every row), selects the rows to
    divide; the others pass through unchanged, values and gradient alike.
    """
    if a.data.ndim < 2:
        raise ShapeError(f"normalize_rows expects at least a 2-D tensor, got shape {a.shape}")
    sums = np.add.reduce(a.data, axis=-1, keepdims=True)
    selected = np.asarray(where, dtype=bool)[..., None]
    sums = np.where(selected, sums, 1.0)
    if np.logical_or.reduce(sums == 0.0, axis=None):
        raise ShapeError("normalize_rows: a row sums to zero")
    out = a.data / sums

    def bwd(g):
        inner = np.where(selected, np.add.reduce(g * out, axis=-1, keepdims=True), 0.0)
        return ((a, (g - inner) / sums),)

    return _result(out, (a,), bwd)


def blend(coeffs: Tensor, bases: Tensor, row: int | None = None) -> Tensor:
    """Per-sample linear combinations out[b] = sum_n coeffs[b, n] * bases[n].

    ``bases`` is one (N, *shape) stack. ``coeffs`` is (B, N), or (B, rows, N)
    blending its ``row`` (one layer's row of every sample). The result is
    (B, *shape): one blended tensor per sample, from a single einsum over the
    stack's (N, F) view, which copies nothing. The other terms of a one-hot
    row add exact zeros, so it returns the selected basis's values bit for
    bit. The coefficients get a gradient at every position (zero off
    ``row``), and the stack one gradient of its own shape, in which a basis
    whose coefficient is zero in every sample has exact-zero rows.
    """
    c = coeffs.data
    if c.ndim != (2 if row is None else 3) or row is not None and not 0 <= row < c.shape[1]:
        raise ShapeError(f"blend coeffs must be (B, N), or (B, rows, N) and a row in range, got {c.shape}, row {row}")
    c = c if row is None else c.take(row, axis=1)
    n = c.shape[1]
    if bases.shape[:1] != (n,):
        raise ShapeError(f"{n} coefficients for a stack of shape {bases.shape}")
    flat = bases.data.reshape(n, -1)

    def bwd(g):
        gflat = g.reshape(len(c), -1)
        gc = np.einsum("bf,nf->bn", gflat, flat)
        if row is not None:  # zero outside the row
            full = np.zeros_like(coeffs.data)
            full[:, row] = gc
            gc = full
        return ((coeffs, gc), (bases, np.einsum("bn,bf->nf", c, gflat).reshape(bases.shape)))

    out = np.einsum("bn,nf->bf", c, flat).reshape(len(c), *bases.shape[1:])
    return _result(out, (coeffs, bases), bwd)


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


@functools.lru_cache(maxsize=64)
def _conv_plan(xtail: tuple, ktail: tuple, kdim: int, stride: int, padding: int,
               bshape: tuple | None) -> tuple:
    """A conv layer's geometry, checked, as its ``_window_index`` key. The
    batch is not part of the key, so every batch size shares one plan. A bad
    geometry raises on every call (the cache keeps no exception); ``{x}`` and
    ``{k}`` in its message stand for the input and kernel shapes."""
    if len(xtail) != 3 or kdim not in (4, 5):
        raise ShapeError("conv2d expects NCHW input and OIKK or BOIKK kernel, got {x} and {k}")
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ShapeError(f"padding must be >= 0, got {padding}")
    (in_c, h, w), (out_c, k_in, kh, kw) = xtail, ktail
    if in_c != k_in:
        raise ShapeError(f"conv2d channel mismatch: input {{x}} has {in_c} channels, kernel {{k}} expects {k_in}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"conv2d kernel {{k}} larger than padded input {{x}} (padding={padding})")
    if bshape is not None and bshape != (out_c,):
        raise ShapeError(f"conv2d bias {bshape} does not match kernel {{k}}")
    return (in_c, h, w, kh, kw, stride, padding,
            (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1)


@functools.lru_cache(maxsize=16)
def _col2im_index(key: tuple, batch: int) -> np.ndarray:
    """Read-only flat ``bincount`` bins for a batch: ``_window_index(*key)``
    shifted to each sample's own C*H*W + 1 bins. An entry is ``batch`` window
    indexes long, hence the smaller cache; a training run uses one batch size."""
    c, h, w = key[:3]
    flat = (np.arange(batch)[:, None] * (c * h * w + 1) + _window_index(*key)).reshape(-1)
    flat.flags.writeable = False
    return flat


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
    in place on its output, and the backward masks the gradient and sums the
    bias gradient before the conv backward, so a layer gives the values of a
    conv, a bias add and a ReLU run one after another, on one tape record (as
    cuDNN's fused conv-bias-activation call does). The ReLU's zero is +0.0.
    """
    xshape, kshape = x.data.shape, kernel.data.shape
    try:
        key = _conv_plan(xshape[1:], kshape[-4:], len(kshape), stride, padding,
                         None if bias is None else bias.data.shape)
    except ShapeError as err:  # the message names the shapes, batch and all
        raise ShapeError(str(err).format(x=xshape, k=kshape)) from None
    batch, per_sample = xshape[0], len(kshape) == 5
    if per_sample and kshape[0] != batch:
        raise ShapeError(f"conv2d per-sample kernel {kshape} does not match batch of input {xshape}")
    (in_c, h, w, kh, kw, _, _, out_h, out_w), out_c = key, kshape[-4]

    # im2col: gather the windows through a cached flat index into one
    # contiguous (B, C, kh, kw, oH, oW) array, which reshapes for free to the
    # GEMM operand (B, C*kh*kw, oH*oW); a tap in the padding reads the zero
    # appended to each sample. Each contraction is a stacked matmul with B as
    # its loop axis: one GEMM call per sample, of the same shape at any batch
    # size, so a sample reduces in the same order alone or in a batch (the
    # batch-equals-serial and bit-determinism contracts). Folded into a GEMM
    # dimension, B could change BLAS's blocking.
    idx = _window_index(*key)
    plane = in_c * h * w
    xz = np.zeros((batch, plane + 1))
    xz[:, :plane] = x.data.reshape(batch, plane)
    cols = xz.take(idx, axis=1).reshape(batch, in_c * kh * kw, out_h * out_w)
    kmat = kernel.data.reshape(*kshape[:-3], in_c * kh * kw)
    out = np.matmul(kmat, cols).reshape(batch, out_c, out_h, out_w)
    if bias is not None:
        out += bias.data[:, None, None]
    # checked before the ReLU, which maps NaN and -Inf to 0
    _require_finite(out, "forward operation produced NaN or Inf")
    if relu:
        mask = out > 0 if _ACTIVE_TAPE is not None else None  # only the backward reads it
        np.maximum(out, 0.0, out=out)  # maximum(-0.0, 0.0) is +0.0 (tests pin it by bytes)

    def bwd(g):
        if relu:
            g = g * mask
        gb = () if bias is None else ((bias, np.add.reduce(g, axis=(0, 2, 3))),)
        g3 = g.reshape(batch, out_c, out_h * out_w)
        gk = np.empty(kshape)  # fresh and kernel-shaped, so backward keeps it without a copy
        if per_sample:
            np.matmul(g3, cols.transpose(0, 2, 1), out=gk.reshape(batch, out_c, -1))
        else:  # a shared kernel sums the per-sample products, in batch order
            np.add.reduce(np.matmul(g3, cols.transpose(0, 2, 1)), axis=0, out=gk.reshape(out_c, -1))
        if not x.requires_grad:  # e.g. the image at layer 0: backward would drop it
            return ((kernel, gk), *gb)
        gcols = np.matmul(np.swapaxes(kmat, -1, -2), g3)  # (B, C*kh*kw, oH*oW)
        # col2im: bincount adds each input position's window contributions
        # to 0.0 in index order, which is ascending (ki, kj); a position no
        # window covers gets an exact zero. The padding taps all land in each
        # sample's last bin, which the view drops.
        gx = np.bincount(_col2im_index(key, batch), weights=gcols.reshape(-1), minlength=batch * (plane + 1)
                         ).reshape(batch, plane + 1)[:, :plane].reshape(xshape)
        return ((x, gx), (kernel, gk), *gb)

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    return _result(out, inputs, bwd, checked=True)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map of a (B, F) batch through an (F, O) weight and an (O,) bias."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.data.shape[1] != weight.data.shape[0]:
        raise ShapeError(f"linear shape mismatch: input {x.shape} vs weight {weight.shape}")
    if bias.data.shape != (weight.data.shape[1],):
        raise ShapeError(f"linear bias {bias.shape} does not match weight {weight.shape}")
    out = np.einsum("bf,fo->bo", x.data, weight.data)
    out += bias.data  # in place: the einsum output is fresh

    def bwd(g):
        return ((x, np.einsum("bo,fo->bf", g, weight.data)),
                (weight, np.einsum("bf,bo->fo", x.data, g)),
                (bias, np.add.reduce(g, axis=0)))

    return _result(out, (x, weight, bias), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean of each channel: NCHW -> NC."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool expects NCHW, got {x.shape}")
    area = x.data.shape[2] * x.data.shape[3]

    def bwd(g):
        gx = np.empty(x.shape)  # fresh, so backward keeps it without a copy
        gx[...] = (g / area)[:, :, None, None]
        return ((x, gx),)

    return _result(np.add.reduce(x.data, axis=(2, 3)) / area, (x,), bwd)


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
        if np.logical_or.reduce((idx < 0) | (idx >= c)):
            raise ShapeError(f"class index out of range [0, {c})")
        soft = np.zeros((b, c))
        soft[np.arange(b), idx] = 1.0
    else:
        soft = np.asarray(target, dtype=np.float64)
        if soft.shape != (b, c):
            raise ShapeError(f"soft target shape {soft.shape} does not match logits {logits.shape}")
        sums = np.add.reduce(soft, axis=1)
        if np.logical_or.reduce(np.abs(sums - 1.0) > 1e-6):
            raise ShapeError("soft target rows must sum to 1 within 1e-6")

    shifted = logits.data - np.maximum.reduce(logits.data, axis=1, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -np.add.reduce(soft * log_probs, axis=None) / b

    def bwd(g):
        probs = np.exp(log_probs)
        return ((logits, g * (probs - soft) / b),)

    return _result(np.array(loss), (logits,), bwd)
