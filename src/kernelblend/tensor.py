"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a C-contiguous float64 ndarray, and every differentiable
op appends a backward rule to the active GradTape; replaying the tape in
reverse gives every parameter reachable from a scalar loss its gradient and
releases the tape. Shape mismatches raise: nothing is broadcast.

An op checks its shapes, runs its forward arithmetic as one ndarray kernel
(``_conv``, ``_blend``, ``_linear``, ...) that returns the output and what
the backward needs, and hands both to ``_result``, the one wrapper that
builds the Tensor and, with a tape live, the record and its closure.
Inference runs the kernels from ``pipeline``'s plans, so a plan and a taped
run give the same bits. Finiteness is checked where nothing can hide it:
the constructor scans outside data, ``_conv`` its output before the ReLU
(which maps -Inf to 0; a NaN it passes on), ``_linear`` its output, the
elementwise arithmetic ops theirs and ``cross_entropy_sum`` its sum, which
a NaN or Inf in any term reaches. A blended kernel always feeds a conv and
pooled features a linear, so ``_blend`` and ``_pool`` do not scan.

A backward rule returns arrays it made for their input where it can (the
conv's input gradient is its col2im bins, resized in place), which
``backward`` keeps as gradients without a copy.

Float64 is used throughout so finite-difference gradient checks are decisive.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Callable, Sequence

import numpy as np

try:  # np.einsum and np.count_nonzero without their Python wrappers: the same C calls and bits
    from numpy._core.multiarray import c_einsum as _einsum, count_nonzero as _count_nonzero
except ImportError:  # numpy < 2
    _einsum, _count_nonzero = np.einsum, np.count_nonzero


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(ArithmeticError):
    """A forward operation produced NaN or Inf."""


def _finite(arr: np.ndarray, message: str = "forward operation produced NaN or Inf") -> np.ndarray:
    """``arr``, or NonFiniteError with ``message`` if any entry is NaN or Inf.
    On a per-image op's few hundred values, counting costs half a reduce."""
    if _count_nonzero(np.isfinite(arr)) != arr.size:
        raise NonFiniteError(message)
    return arr


def _contiguous(arr: np.ndarray) -> np.ndarray:
    if type(arr) is not np.ndarray:  # an op on 0-d arrays gives a numpy scalar
        return np.asarray(arr)  # a 0-d array (ascontiguousarray makes it 1-d)
    return arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)  # rarely copies


class Tensor:
    """A dense N-dimensional float64 array, optionally tracked for gradients.
    Immutable except through :meth:`apply_update`, the optimizers' one
    mutation point. Hashing is by identity so tensors can key gradient maps."""

    __slots__ = ("data", "requires_grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _finite(_contiguous(np.asarray(data, dtype=np.float64)), "tensor data contains NaN or Inf")
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
        target[...] = _finite(arr, "parameter update contains NaN or Inf")

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class GradTape:
    """Ordered record of differentiable operations: (output, inputs,
    backward_fn), where backward_fn maps the output gradient to per-input
    contributions. Single-shot: backward() consumes it; a second call raises.

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


def taping() -> bool:
    """Whether a tape is live: ops record, and the pipeline runs them, not its plans."""
    return _ACTIVE_TAPE is not None


def constant(data: np.ndarray) -> Tensor:
    """A Tensor over C-contiguous float64 ``data`` as it is, on no tape: no
    copy, no scan. It wraps data that is finite already (rows of a Tensor)
    or whose first use is checked, and every op result with no tape live."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.tape = None
    return out


def _result(data: np.ndarray, inputs: Sequence[Tensor], backward: Callable, *saved) -> Tensor:
    """Wrap a kernel's output. With a tape live and an input that requires a
    gradient, record it with the closure ``g -> backward(g, *saved, *inputs)``."""
    out = constant(_contiguous(data))
    if _ACTIVE_TAPE is not None:
        for t in inputs:  # a plain loop: any() over a generator costs more per op
            if t.requires_grad:
                out.requires_grad = True
                out.tape = _ACTIVE_TAPE
                _ACTIVE_TAPE.records.append((out, tuple(inputs), lambda g: backward(g, *saved, *inputs)))
                break
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
    return _result(_finite(a.data + b.data), (a, b), lambda g, a, b: ((a, g), (b, g)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, equal shapes only."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    return _result(_finite(a.data * b.data), (a, b), lambda g, a, b: ((a, g * b.data), (b, g * a.data)))


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _result(_finite(a.data * factor), (a,), lambda g, a: ((a, g * factor),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    return _result(out, (a,), lambda g, a: ((a, g * out * (1.0 - out)),))


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    ex = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    return ex / np.add.reduce(ex, axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"softmax axis {axis} out of bounds for shape {a.shape}")
    out = _softmax(a.data, axis)
    return _result(out, (a,), lambda g, a: ((a, out * (g - np.add.reduce(g * out, axis=axis, keepdims=True))),))


# ---------------------------------------------------------------------------
# structural ops


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to {tuple(shape)}")
    return _result(a.data.reshape(shape), (a,), lambda g, a: ((a, g.reshape(a.data.shape)),))


def _tile_rows(x: np.ndarray, count: int) -> np.ndarray:
    return np.repeat(x[..., None, :], count, axis=-2)


@functools.lru_cache(maxsize=256)
def _blend_plan(cshape: tuple, row: int | None, bshape: tuple) -> tuple:
    """A ``blend`` call's shapes, checked: the stack's (N, F) view and the output's."""
    if len(cshape) != (2 if row is None else 3) or row is not None and not 0 <= row < cshape[1]:
        raise ShapeError(f"blend coeffs must be (B, N), or (B, rows, N) and a row in range, got {cshape}, row {row}")
    if bshape[:1] != cshape[-1:]:
        raise ShapeError(f"{cshape[-1]} coefficients for a stack of shape {bshape}")
    return (bshape[0], math.prod(bshape[1:])), (cshape[0], *bshape[1:])


def _blend(coeffs: np.ndarray, row: int | None, bases: np.ndarray, plan: tuple) -> tuple:
    """``blend``'s kernel: (output, the (B, N) coefficients used, the stack's (N, F) view)."""
    c = coeffs if row is None else coeffs.take(row, axis=1)
    flat = bases.reshape(plan[0])
    return _einsum("bn,nf->bf", c, flat).reshape(plan[1]), c, flat


def blend(coeffs: Tensor, bases: Tensor, row: int | None = None) -> Tensor:
    """Per-sample linear combinations out[b] = sum_n coeffs[b, n] * bases[n].

    ``bases`` is one (N, *shape) stack; ``coeffs`` is (B, N), or (B, rows, N)
    blending its ``row``. The result is (B, *shape), from one einsum over the
    stack's (N, F) view. A one-hot row adds exact zeros, so it returns the
    selected basis bit for bit. The coefficients get a gradient everywhere
    (zero off ``row``); a basis no sample weighs gets exact-zero rows.
    """
    plan = _blend_plan(coeffs.data.shape, row, bases.data.shape)
    out, c, flat = _blend(coeffs.data, row, bases.data, plan)
    return _result(out, (coeffs, bases), _blend_bwd, row, c, flat)


def _blend_bwd(g, row, c, flat, coeffs, bases):
    gflat = g.reshape(len(c), -1)
    if row is None:
        gc = _einsum("bf,nf->bn", gflat, flat)
    else:  # zero outside the row, the row's products written in place
        gc = np.zeros(coeffs.data.shape)
        _einsum("bf,nf->bn", gflat, flat, out=gc[:, row])
    return ((coeffs, gc), (bases, _einsum("bn,bf->nf", c, gflat).reshape(bases.data.shape)))


# ---------------------------------------------------------------------------
# network ops


@functools.lru_cache(maxsize=64)
def _window_index(c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int,
                  out_h: int, out_w: int) -> np.ndarray:
    """Read-only int64 offsets into one sample's flattened (C, H, W) input
    with one zero appended at offset C*H*W, in im2col (C, kh, kw, oH, oW)
    order: entry [ci, ki, kj, i, j] is what tap (ki, kj) of channel ci meets
    at output (i, j), or the zero in the padding. Shared by every batch size."""
    ci, ki, kj, i, j = np.indices((c, kh, kw, out_h, out_w))
    r, s = ki + i * stride - padding, kj + j * stride - padding
    inside = (r >= 0) & (r < h) & (s >= 0) & (s < w)
    idx = np.where(inside, ci * (h * w) + r * w + s, c * h * w).reshape(-1)
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=256)
def _conv_plan(xshape: tuple, kshape: tuple, stride: int, padding: int, bshape: tuple | None) -> tuple:
    """A conv call's geometry for its full shapes, checked: the window index's
    key, the index as (C*kh*kw, oH*oW), the plane C*H*W, and the padded-input
    (B, C*H*W + 1), kernel-matrix and output shapes. Bounded: stage two makes a
    plan per pending count. A bad geometry raises on every call (no exception is cached)."""
    if len(xshape) != 4 or len(kshape) not in (4, 5):
        raise ShapeError(f"conv2d expects NCHW input and OIKK or BOIKK kernel, got {xshape} and {kshape}")
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ShapeError(f"padding must be >= 0, got {padding}")
    (batch, in_c, h, w), (out_c, k_in, kh, kw) = xshape, kshape[-4:]
    if in_c != k_in:
        raise ShapeError(f"conv2d channel mismatch: input {xshape} has {in_c} channels, kernel {kshape} expects {k_in}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"conv2d kernel {kshape} larger than padded input {xshape} (padding={padding})")
    if bshape is not None and bshape != (out_c,):
        raise ShapeError(f"conv2d bias {bshape} does not match kernel {kshape}")
    if len(kshape) == 5 and kshape[0] != batch:
        raise ShapeError(f"conv2d per-sample kernel {kshape} does not match batch of input {xshape}")
    out_h, out_w = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    key = (in_c, h, w, kh, kw, stride, padding, out_h, out_w)
    plane, taps = in_c * h * w, in_c * kh * kw
    return (key, _window_index(*key).reshape(taps, -1), plane, (batch, plane + 1), (*kshape[:-3], taps),
            (batch, out_c, out_h, out_w))


@functools.lru_cache(maxsize=16)
def _col2im_index(key: tuple, batch: int) -> np.ndarray:
    """Read-only flat ``bincount`` bins for a batch: ``_window_index(*key)``
    shifted to each sample's own C*H*W bins, every padding tap to the one bin
    after the last sample's; ``batch`` indexes long, hence the smaller cache."""
    c, h, w = key[:3]
    plane = c * h * w
    window = _window_index(*key)
    flat = np.where(window == plane, batch * plane, np.arange(batch)[:, None] * plane + window).reshape(-1)
    flat.flags.writeable = False
    return flat


def _conv(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None, relu: bool, plan: tuple) -> tuple:
    """``conv2d``'s kernel on a checked ``_conv_plan``: (output, im2col columns).
    im2col is one gather through the cached index into the GEMM operand (B,
    C*kh*kw, oH*oW); a padding tap reads each sample's appended zero. The
    contraction is a stacked matmul with B as its loop axis: one same-shape
    GEMM per sample, so a sample reduces in one order alone or in a batch
    (batch equals serial). Folded into a GEMM dimension, B could change
    BLAS's blocking."""
    _, gather, plane, zshape, kmat_shape, out_shape = plan
    xz = np.zeros(zshape)
    xz[:, :plane] = x.reshape(zshape[0], plane)
    cols = xz.take(gather, axis=1)
    out = np.matmul(kernel.reshape(kmat_shape), cols).reshape(out_shape)
    if bias is not None:
        out += bias[:, None, None]
    _finite(out)  # before the ReLU, which would map -Inf to 0
    if relu:
        np.maximum(out, 0.0, out=out)  # maximum(-0.0, 0.0) is +0.0 (tests pin it by bytes)
    return out, cols


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None, relu: bool = False) -> Tensor:
    """2-D cross-correlation of an NCHW input with an OIKK kernel, then an
    optional per-channel bias and ReLU: a whole conv layer as one op, one
    tape record (as cuDNN's fused conv-bias-activation call is one call).

    A (B, O, I, K, K) kernel gives each sample its own kernel (CondConv's).
    Output size is floor((H + 2*padding - K)/stride) + 1 per side. An input
    that does not require a gradient gets none computed. The backward masks
    the gradient where the output is not positive (where the ReLU's input
    was not) and sums the bias gradient first. The ReLU's zero is +0.0.
    """
    plan = _conv_plan(x.data.shape, kernel.data.shape, stride, padding, None if bias is None else bias.data.shape)
    out, cols = _conv(x.data, kernel.data, None if bias is None else bias.data, relu, plan)
    return _result(out, (x, kernel) if bias is None else (x, kernel, bias), _conv2d_bwd, relu, plan, out, cols)


def _conv2d_bwd(g, relu, plan, out, cols, x, kernel, bias=None):
    key, _, plane, zshape, kmat_shape, out_shape = plan
    if relu:
        g = g * (out > 0)
    gb = () if bias is None else ((bias, np.add.reduce(g, axis=(0, 2, 3))),)
    batch = zshape[0]
    g3 = g.reshape(batch, out_shape[1], -1)
    gk = np.empty(kernel.data.shape)  # fresh and kernel-shaped, so backward keeps it without a copy
    if len(kmat_shape) == 3:  # per-sample kernels
        np.matmul(g3, cols.transpose(0, 2, 1), out=gk.reshape(kmat_shape))
    else:  # a shared kernel sums the per-sample products, in batch order
        np.add.reduce(np.matmul(g3, cols.transpose(0, 2, 1)), axis=0, out=gk.reshape(kmat_shape))
    if not x.requires_grad:  # e.g. the image at layer 0: backward would drop it
        return ((kernel, gk), *gb)
    gcols = np.matmul(np.swapaxes(kernel.data.reshape(kmat_shape), -1, -2), g3)  # (B, C*kh*kw, oH*oW)
    # col2im: bincount adds each input position's window contributions
    # to 0.0 in index order, which is ascending (ki, kj); a position no
    # window covers gets an exact zero. The padding taps all land in the
    # last bin, which the in-place resize drops: the array stays the op's
    # own, so backward keeps it without a copy.
    gx = np.bincount(_col2im_index(key, batch), weights=gcols.reshape(-1), minlength=batch * plane + 1)
    gx.resize(x.data.shape, refcheck=False)  # nothing else refers to the fresh bins
    return ((x, gx), (kernel, gk), *gb)


def _linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``linear``'s kernel, checked: nothing checks logits or coefficients later."""
    out = _einsum("bf,fo->bo", x, weight)
    out += bias  # in place: the einsum output is fresh
    return _finite(out)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map of a (B, F) batch through an (F, O) weight and an (O,) bias."""
    xs, ws = x.data.shape, weight.data.shape
    if len(xs) != 2 or len(ws) != 2 or xs[1] != ws[0]:
        raise ShapeError(f"linear shape mismatch: input {xs} vs weight {ws}")
    if bias.data.shape != ws[1:]:
        raise ShapeError(f"linear bias {bias.shape} does not match weight {ws}")
    return _result(_linear(x.data, weight.data, bias.data), (x, weight, bias), lambda g, x, weight, bias: (
        (x, _einsum("bo,fo->bf", g, weight.data)), (weight, _einsum("bf,bo->fo", x.data, g)),
        (bias, np.add.reduce(g, axis=0))))


def _pool(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x, axis=(2, 3)) / (x.shape[2] * x.shape[3])


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean of each channel: NCHW -> NC."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool expects NCHW, got {x.shape}")
    return _result(_pool(x.data), (x,), _pool_bwd)


def _pool_bwd(g, x):
    gx = np.empty(x.shape)  # fresh, so backward keeps it without a copy
    gx[...] = (g / (x.shape[2] * x.shape[3]))[:, :, None, None]
    return ((x, gx),)


def class_targets(target, shape: tuple) -> np.ndarray:
    """Target rows for cross-entropy over logits of ``shape`` (B, C), checked:
    one-hot rows from a class index per row (an integer dtype: a float or
    bool index would be truncated), or (B, C) soft rows (distillation's),
    each summing to 1 within 1e-6. Build them once per batch."""
    if len(shape) != 2:
        raise ShapeError(f"cross_entropy expects (B, C) logits, got {shape}")
    b, c = shape
    if c < 2:
        raise ShapeError(f"cross_entropy needs at least 2 classes, got {c}")
    target = np.asarray(target)
    if target.ndim <= 1:
        if target.dtype.kind not in "iu":
            raise ShapeError(f"class indices must have an integer dtype, got {target.dtype}")
        idx = target.reshape(-1)
        if idx.shape[0] != b:
            raise ShapeError(f"{idx.shape[0]} targets for {b} logits rows")
        if b and not 0 <= np.minimum.reduce(idx) <= np.maximum.reduce(idx) < c:
            raise ShapeError(f"class index out of range [0, {c})")
        rows = np.zeros((b, c))
        rows[np.arange(b), idx] = 1.0
        return rows
    rows = np.asarray(target, dtype=np.float64)
    if rows.shape != (b, c):
        raise ShapeError(f"soft target shape {rows.shape} does not match logits {shape}")
    if np.logical_or.reduce(np.abs(np.add.reduce(rows, axis=1) - 1.0) > 1e-6, axis=None):
        raise ShapeError("soft target rows must sum to 1 within 1e-6")
    return rows


def cross_entropy_sum(terms: Sequence[tuple[Tensor, np.ndarray, float]],
                      constant: float | None = None) -> tuple[Tensor, list[float]]:
    """sum_i weight_i * CE(logits_i, rows_i), plus ``constant`` if given, as
    one op, where CE is the mean over the batch of -sum(rows * log
    softmax(logits)) and ``terms`` holds (logits, ``class_targets`` rows,
    weight) triples. The terms add left to right, each scaled by its weight
    first, the arithmetic of a chain of ``cross_entropy``, ``scale`` and
    ``add``; logits i gets (g * weight_i) * (softmax - rows) / B. Only the
    sum is checked: a NaN or Inf in any term reaches it. Returns the sum and
    each term's unweighted CE."""
    values, saved = [], []
    total = None
    for logits, rows, weight in terms:
        if rows.shape != logits.data.shape:
            raise ShapeError(f"target rows {rows.shape} do not match logits {logits.shape}")
        shifted = logits.data - np.maximum.reduce(logits.data, axis=1, keepdims=True)
        log_probs = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
        value = -np.add.reduce(rows * log_probs, axis=None) / rows.shape[0]
        total = value * weight if total is None else total + value * weight
        values.append(float(value))
        saved.append((log_probs, rows, weight))
    if constant is not None:
        total = total + constant
    if not math.isfinite(total):
        raise NonFiniteError("forward operation produced NaN or Inf")
    return _result(np.array(total), [logits for logits, _, _ in terms], _cross_entropy_bwd, saved), values


def _cross_entropy_bwd(g, saved, *logits):
    return tuple((t, (g * weight) * (np.exp(log_probs) - rows) / rows.shape[0])
                 for t, (log_probs, rows, weight) in zip(logits, saved) if t.requires_grad)


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Mean over the batch of -sum(target * log softmax(logits)): one term of
    ``cross_entropy_sum``, ``target`` as ``class_targets`` reads it."""
    return cross_entropy_sum(((logits, class_targets(target, logits.data.shape), 1.0),))[0]
