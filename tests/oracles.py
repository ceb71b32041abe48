"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: nested loops, explicit multiply
counters, and finite differences. The references share no code with the
package under test, so agreement between the two is evidence, not tautology.

Three sections at the end hold code the tests run but no command does:
tape ops (``take``, ``sum_all``, ``sum_squares``, ``tile_rows`` and
``normalize_rows``, built on the tape's ``T._result`` as the package's own
ops are, each with a backward rule that takes the output gradient and the
op's inputs), the training step as a chain of those per-op records, which
the fused coefficient, loss and update code must match bit for bit, and the
per-layer router baseline, built on the package's ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kernelblend import backbone as bb
from kernelblend import synthesis as syn
from kernelblend import tensor as T


def conv2d_reference(x: np.ndarray, kernel: np.ndarray, stride: int, padding: int):
    """Direct six-loop cross-correlation.

    Returns (output, multiply_count). The counter increments once per
    kernel-times-input multiply, which is the MAdds convention the analytic
    cost model must match exactly.
    """
    batch, in_c, h, w = x.shape
    out_c, _, kh, kw = kernel.shape
    if padding > 0:
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((batch, out_c, out_h, out_w))
    mults = 0
    for b in range(batch):
        for o in range(out_c):
            for i in range(out_h):
                for j in range(out_w):
                    acc = 0.0
                    for c in range(in_c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += xp[b, c, i * stride + ki, j * stride + kj] * kernel[o, c, ki, kj]
                                mults += 1
                    out[b, o, i, j] = acc
    return out, mults


def conv2d_plain(x: np.ndarray, kernel: np.ndarray, stride: int, padding: int):
    """The im2col conv as it stood before the bias and ReLU moved into it.

    Returns (output, backward) where backward(g) gives (grad_x, grad_kernel).
    The windows come from ``sliding_window_view``, not from a gathered flat
    index, and the input gradient from a loop over the kernel taps, not from
    a bincount, but the GEMMs are the same calls on the same operands (one per
    sample, a shared kernel's products summed in batch order) and the input
    gradient adds in the same (ki, kj) order, so a plain ``conv2d`` must
    equal it bit for bit.
    """
    batch, in_c = x.shape[:2]
    out_c, _, kh, kw = kernel.shape[-4:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (B, C, oH, oW, kh, kw)
    out_h, out_w = win.shape[2:4]
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(batch, -1, out_h * out_w)
    kmat = kernel.reshape(*kernel.shape[:-3], -1)
    out = np.matmul(kmat, cols).reshape(batch, out_c, out_h, out_w)

    def backward(g):
        g3 = g.reshape(batch, out_c, out_h * out_w)
        gk = np.matmul(g3, cols.transpose(0, 2, 1))
        gk = (gk if kernel.ndim == 5 else gk.sum(axis=0)).reshape(kernel.shape)
        gcols = np.matmul(np.swapaxes(kmat, -1, -2), g3).reshape(batch, in_c, kh, kw, out_h, out_w)
        gxp = np.zeros(xp.shape)
        for ki in range(kh):
            for kj in range(kw):
                gxp[:, :, ki:ki + stride * out_h:stride, kj:kj + stride * out_w:stride] += gcols[:, :, ki, kj]
        return gxp[:, :, padding:xp.shape[2] - padding, padding:xp.shape[3] - padding], gk

    return out, backward


def linear_reference(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None):
    """Naive matrix multiply with a multiply counter (bias adds uncounted)."""
    b, f = x.shape
    _, o = weight.shape
    out = np.zeros((b, o))
    mults = 0
    for i in range(b):
        for j in range(o):
            acc = 0.0
            for k in range(f):
                acc += x[i, k] * weight[k, j]
                mults += 1
            out[i, j] = acc
    if bias is not None:
        out = out + bias[None, :]
    return out, mults


def synthesis_reference(coeff_rows: np.ndarray, kernel_banks):
    """Blend per-layer kernel banks with dense coefficient rows.

    ``kernel_banks`` is a list (one entry per coefficient row) of (N, *shape)
    basis stacks. Returns (blended kernels, multiply_count), counting
    one multiply per coefficient-times-parameter product with no sparsity
    shortcuts.
    """
    blended = []
    mults = 0
    for r, bank in enumerate(kernel_banks):
        acc = np.zeros_like(bank[0])
        for n, kern in enumerate(bank):
            flat = kern.reshape(-1)
            scaled = np.empty_like(flat)
            for p in range(flat.shape[0]):
                scaled[p] = coeff_rows[r, n] * flat[p]
                mults += 1
            acc += scaled.reshape(kern.shape)
        blended.append(acc)
    return blended, mults


def synthesize_take_then_blend(bank, alpha):
    """``synthesize`` as two tape ops per non-shared layer, as it stood before
    ``blend`` took a row: ``take`` of the layer's row of every sample, then
    ``blend`` of that (B, N) row. The coefficients' gradient adds the same
    zero-filled (B, rows, N) arrays in the same order, so ``synthesize``
    must give every gradient of this chain bit for bit."""

    single = alpha.data.ndim == 2
    values = T.reshape(alpha, (1, *alpha.shape)) if single else alpha
    params = bb.BackboneParams(head_w=bank.head_w, head_b=bank.head_b)
    r = 0
    for k, shared in enumerate(bank.share_mask):
        if shared:
            kernel = bank.kernels[k]
        else:
            kernel = T.blend(take(values, r, axis=1), bank.kernels[k])
            if single:
                kernel = T.reshape(kernel, kernel.shape[1:])
            r += 1
        params.layers.append(bb.LayerParams(kernel=kernel, bias=bank.biases[k]))
    return params


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.shape[0]):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def gradient_mismatch(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / (1 + |n|), a scale-aware relative error."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return float(np.max(np.abs(a - n) / (1.0 + np.abs(n))))


def per_image_forward(state, batch_x: np.ndarray, epsilon: float, drop_masks):
    """Training forward one image at a time: the loop the batched path replaced.

    One lightweight pass over the batch, then for each image its own raw
    row, (rows, N) coefficient matrix, uniform blend then basis dropout
    (only when that image's mask drops something), specialist
    with ordinary 4-D kernels and batch-1 stage two. ``drop_masks`` is None,
    (N,) for the whole batch or (B, N) per image. Returns (per-image (1, C)
    final logits, initial logits, per-image coefficient matrices).
    """
    from kernelblend import pipeline as pl

    cfg, bank = state.synth_cfg, state.bank
    initial, feats = pl.lm_forward(state.lm, state.lm_params, T.Tensor(batch_x))
    raw = T.linear(feats, state.lm_params.coeff_w, state.lm_params.coeff_b)
    finals, alphas = [], []
    for b in range(len(batch_x)):
        alpha = coefficients_chain(take(raw, b), cfg, bank.n_coefficient_rows, bank.n_bases)
        if cfg.mode != "one_hot":
            mask = drop_masks[b] if drop_masks is not None and drop_masks.ndim == 2 else drop_masks
            if epsilon > 0.0:
                alpha = blend_epsilon(alpha, epsilon)
            if mask is not None and mask.any():
                alpha = apply_bmd(alpha, mask, cfg.bmd_renormalize)
        specialist = syn.synthesize(bank, alpha)
        finals.append(bb.forward(specialist, bank.spec, T.Tensor(batch_x[b:b + 1])))
        alphas.append(alpha)
    return finals, initial, alphas


def shuffle_reference(values: np.ndarray, rows, rng: np.random.Generator) -> np.ndarray:
    """The ``shuffled`` disturbance row by row: for each (rows, N) matrix in
    order, one ``rng.permutation`` per selected row (all rows when ``rows``
    is None). Returns a shuffled copy."""
    v = np.array(values, dtype=np.float64)
    n = v.shape[-1]
    for matrix in v.reshape(-1, *v.shape[-2:]):
        for r in range(len(matrix)) if rows is None else rows:
            matrix[r] = matrix[r, rng.permutation(n)]
    return v


def augment_reference(images: np.ndarray, rng: np.random.Generator,
                      flip: bool, crop_pad: int) -> np.ndarray:
    """``augment_batch`` sample by sample: the crop offsets drawn as one
    (B, 2) array, each window sliced out of its own zero-padded image, then
    one flip draw per sample."""
    out = np.array(images, dtype=np.float64)
    b, _, h, w = out.shape
    if crop_pad > 0:
        offsets = rng.integers(0, 2 * crop_pad + 1, size=(b, 2))
        for i, (oy, ox) in enumerate(offsets):
            padded = np.pad(out[i], ((0, 0), (crop_pad, crop_pad), (crop_pad, crop_pad)))
            out[i] = padded[:, oy:oy + h, ox:ox + w]
    if flip:
        for i, mirror in enumerate(rng.random(b) < 0.5):
            if mirror:
                out[i] = out[i, :, :, ::-1].copy()
    return out


def confidence_reference(logits) -> float:
    """Max softmax probability of one logits vector, by the scalar formula
    the pipeline once applied row by row."""
    v = np.asarray(logits, dtype=np.float64).reshape(-1)
    e = np.exp(v - v.max())
    return float(e.max() / e.sum())


def sweep_reference(results, labels, lm_madds: int, thresholds) -> list[tuple]:
    """Threshold sweep as a loop over per-image pipeline results, all run at
    the largest threshold: each threshold re-cuts every image by its
    confidence. Returns (threshold, skip rate, average spend, accuracy) per
    threshold."""
    n = len(results)
    points = []
    for threshold in thresholds:
        skips = correct = spent = 0
        for res, label in zip(results, labels):
            stop = confidence_reference(res.initial_logits) >= threshold
            skips += stop
            correct += int(np.argmax(res.initial_logits if stop else res.final_logits)) == label
            spent += lm_madds if stop else res.madds_spent
        points.append((float(threshold), skips / n, spent / n, correct / n))
    return points


def apply_updates_per_tensor(opt_state: dict, grads, params, lr: float, schedule):
    """The optimizer step one parameter tensor at a time, each RMSProp
    accumulator kept under the tensor's name in ``opt_state``. A tensor with
    no gradient entry is skipped. Returns the clip factor, or None when the
    gradient norm stayed within ``schedule.clip_norm`` (or it is unset)."""
    factor = None
    if schedule.clip_norm is not None:
        total = 0.0
        for _, p in params:
            if p in grads:
                total += float(np.sum(grads[p] * grads[p]))
        norm = np.sqrt(total)
        if norm > schedule.clip_norm and norm > 0:
            factor = schedule.clip_norm / norm
    for name, p in params:
        g = grads.get(p)
        if g is None:
            continue
        if factor is not None:
            g = g * factor
        if schedule.optimizer == "rmsprop":
            acc = opt_state.get(name)
            if acc is None:
                acc = np.zeros_like(p.data)
            acc = 0.9 * acc + 0.1 * g * g
            opt_state[name] = acc
            p.apply_update(p.data - lr * g / (np.sqrt(acc) + 1e-8))
        else:
            p.apply_update(p.data - lr * g)
    return factor


def backward_copying(loss):
    """Reverse replay of ``loss``'s tape in which every tensor's first
    gradient contribution is copied and each later one added in place: the
    copy-every-contribution rule. Consumes the tape as ``backward`` does and
    returns the gradient map."""
    tape = loss.tape
    grads = {loss: np.ones_like(loss.data)}
    for out, _, backward_fn in reversed(tape.records):
        gout = grads.get(out)
        if gout is None:
            continue
        for tensor, contribution in backward_fn(gout):
            if not tensor.requires_grad:
                continue
            if tensor in grads:
                grads[tensor] += contribution
            else:
                grads[tensor] = np.array(contribution, dtype=np.float64, copy=True)
    tape.records.clear()
    tape.consumed = True
    return grads


def l2_chain(params):
    """The L2 sum on the tape as one ``sum_squares`` per parameter joined by
    ``add``, left to right: each parameter gets its own ``2 * p * g`` term."""

    reg = sum_squares(params[0])
    for p in params[1:]:
        reg = T.add(reg, sum_squares(p))
    return reg


def train_step_per_tensor(state, batch, schedule, loss_cfg, opt_state: dict):
    """A training step with the L2 term on the tape and a per-tensor update:
    a plain tape (a fresh gradient copy per tensor), the loss CE(final) +
    lm_weight * CE(initial) + l2_weight * ``l2_chain``, then
    ``apply_updates_per_tensor``. Epsilon, the dropout masks, the learning
    rate and selection fine-tuning follow the schedule as ``train_step``
    does; no distillation. Steps ``state`` and returns (loss, gradients,
    clip factor)."""
    from dataclasses import replace

    from kernelblend import training as tr

    x, y = batch
    step = state.step
    params = tr.named_parameters(state)
    selecting = schedule.finetune_steps > 0 and step >= schedule.total_steps
    if selecting:
        state.synth_cfg = replace(state.synth_cfg, mode="one_hot")
        params = [(name, p) for name, p in params if not name.startswith("lm.")]
    drop = None
    if schedule.bmd_rate > 0.0:
        rng = tr.step_rng(schedule, step, stream=2)
        draws = len(x) if schedule.bmd_per_sample else 1
        drop = np.stack([tr.sample_bmd_mask(state.bank.n_bases, schedule.bmd_rate, rng)
                         for _ in range(draws)])
        drop = drop if schedule.bmd_per_sample else drop[0]
    tape = T.GradTape()
    with T.recording(tape):
        final, initial, _ = tr.forward_training(state, x, tr.epsilon_at(step, schedule), drop)
        if selecting:
            initial = T.Tensor(initial.data)
        loss = T.add(T.cross_entropy(final, y),
                     T.scale(T.cross_entropy(initial, y), loss_cfg.lm_weight))
        if loss_cfg.l2_weight > 0.0:
            loss = T.add(loss, T.scale(l2_chain([p for _, p in params]), loss_cfg.l2_weight))
    grads = T.backward(loss)
    factor = apply_updates_per_tensor(opt_state, grads, params,
                                      tr.learning_rate_at(step, schedule), schedule)
    state.step = step + 1
    return loss, grads, factor


def _blob_reference(size: int, cy: float, cx: float, sigma: float, amp: float) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    return amp * np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma ** 2)))


def _render_reference(spec, label: int, cluster: int, rng: np.random.Generator) -> np.ndarray:
    s = spec.image_size
    group, within = divmod(label, 2)
    margin = 0.3 * s
    cy, cx = rng.uniform(margin, s - 1 - margin, size=2)

    sigma_g = s * (0.09 + 0.045 * group)
    amp_g = 0.9 - 0.15 * (cluster % 2)
    img = _blob_reference(s, cy, cx, sigma=sigma_g, amp=amp_g)

    n_groups = (spec.num_classes + 1) // 2
    axis = np.pi * group / max(n_groups, 1)
    ang = axis + (0.0 if within == 0 else np.pi)
    dist = s * (0.24 + 0.03 * (cluster % 2))
    fy = cy + dist * np.sin(ang)
    fx = cx + dist * np.cos(ang)
    img += _blob_reference(s, fy, fx, sigma=s / 10.0, amp=0.55)

    img += spec.noise * rng.standard_normal((s, s))
    return np.clip(img, 0.0, 1.0)


def synthetic_reference(spec) -> list[tuple[np.ndarray, np.ndarray]]:
    """The synthetic generator one image at a time, in Python scalars where
    it can: per image a group blob and a detail blob, each from its own
    ``np.mgrid`` and ``exp``, then the noise and the clip. Returns the
    (images (M, 1, H, W), labels) of the train split and of the eval split."""
    rng = np.random.default_rng([spec.seed, 0xDA7A])
    splits = []
    for count in (spec.train_size, spec.eval_size):
        labels = rng.integers(0, spec.num_classes, size=count)
        clusters = rng.integers(0, spec.clusters_per_class, size=count)
        images = np.stack([_render_reference(spec, int(labels[i]), int(clusters[i]), rng)
                           for i in range(count)])
        splits.append((images[:, None, :, :].astype(np.float64), labels.astype(np.int64)))
    return splits


# ---------------------------------------------------------------------------
# tape ops the tests need: an element or row out of a tensor, and scalar losses


def take(a: T.Tensor, index: int, axis: int = 0) -> T.Tensor:
    """Select ``index`` along ``axis``, dropping that axis (a row of a matrix,
    an element of a vector, one layer's coefficients of every sample)."""
    if not -a.data.ndim <= axis < a.data.ndim:
        raise T.ShapeError(f"take axis {axis} out of bounds for shape {a.shape}")
    if not 0 <= index < a.shape[axis]:
        raise T.ShapeError(f"index {index} out of range for axis {axis} of shape {a.shape}")

    def bwd(g, a):
        full = np.zeros_like(a.data)
        np.moveaxis(full, axis, 0)[index] = g
        return ((a, full),)

    return T._result(a.data.take(index, axis=axis), (a,), bwd)  # moves data only


def sum_all(a: T.Tensor) -> T.Tensor:
    """Scalar sum of all entries."""

    def bwd(g, a):
        return ((a, np.full_like(a.data, float(g))),)

    return T._result(T._finite(np.array(np.add.reduce(a.data, axis=None))), (a,), bwd)


def sum_squares(*tensors: T.Tensor) -> T.Tensor:
    """Scalar sum of the squared entries of every tensor.

    One record however many tensors: each tensor's sum is added left to
    right, the same additions as a chain of per-tensor sums joined by
    ``add``, and each tensor gets its own ``2 * t * g`` gradient term.
    """

    def bwd(g, *tensors):
        return tuple((t, 2.0 * t.data * g) for t in tensors)

    total = 0.0  # plain left-to-right adds: sum() compensates on Python >= 3.12
    for t in tensors:
        total = total + np.add.reduce(t.data * t.data, axis=None)
    return T._result(T._finite(np.array(total)), tensors, bwd)


def tile_rows(a: T.Tensor, count: int) -> T.Tensor:
    """Repeat the last axis as ``count`` identical rows: (..., N) -> (..., count, N)."""
    if a.data.ndim < 1:
        raise T.ShapeError("tile_rows expects at least a 1-D tensor")
    return T._result(T._tile_rows(a.data, count), (a,), lambda g, a: ((a, np.add.reduce(g, axis=-2)),))


def normalize_rows(a: T.Tensor, where) -> T.Tensor:
    """Divide each row (along the last axis) that ``where`` selects by its
    own sum; ``where`` is a boolean array that broadcasts to ``a.shape[:-1]``.
    The other rows pass through unchanged, values and gradient alike."""
    if a.data.ndim < 2:
        raise T.ShapeError(f"normalize_rows expects at least a 2-D tensor, got shape {a.shape}")
    sums = np.add.reduce(a.data, axis=-1, keepdims=True)
    selected = np.asarray(where, dtype=bool)[..., None]
    sums = np.where(selected, sums, 1.0)
    if np.logical_or.reduce(sums == 0.0, axis=None):
        raise T.ShapeError("normalize_rows: a row sums to zero")
    out = T._finite(a.data / sums)

    def bwd(g, a):
        inner = np.where(selected, np.add.reduce(g * out, axis=-1, keepdims=True), 0.0)
        return ((a, (g - inner) / sums),)

    return T._result(out, (a,), bwd)


# ---------------------------------------------------------------------------
# the training step as a chain of per-op records


def activate(raw: T.Tensor, activation: str) -> T.Tensor:
    """Raw head outputs, (rows, N) or (B, rows, N), into coefficients: row-wise
    ``T.softmax`` or elementwise ``T.sigmoid``, one record."""
    if raw.data.ndim not in (2, 3):
        raise T.ShapeError(f"raw coefficients must be (rows, N) or (B, rows, N), got shape {raw.shape}")
    if activation == "softmax":
        return T.softmax(raw, axis=-1)
    if activation == "sigmoid":
        return T.sigmoid(raw)
    raise ValueError(f"unknown activation {activation!r}")


def to_one_hot(alpha: T.Tensor) -> T.Tensor:
    """``syn.one_hot`` of a coefficient tensor: a scanned constant, with no gradient."""
    return T.Tensor(syn.one_hot(alpha.data))


def coefficients_chain(raw: T.Tensor, cfg, n_rows: int, n_bases: int) -> T.Tensor:
    """``syn.coefficients_from_raw`` as three records: the layout (``tile_rows``
    of a per-model head, else ``reshape``), the activation, and one-hot
    hardening as a scanned constant."""
    rows = (tile_rows(raw, n_rows) if raw.shape[-1] == n_bases
            else T.reshape(raw, (*raw.shape[:-1], n_rows, n_bases)))
    alpha = activate(rows, cfg.activation)
    return to_one_hot(alpha) if cfg.mode == "one_hot" else alpha


def blend_epsilon(alpha: T.Tensor, epsilon: float) -> T.Tensor:
    """The uniform blend as ``add`` of a scanned constant and ``scale``."""
    uniform = T.Tensor(np.full(alpha.shape, epsilon / alpha.shape[-1]))
    return T.add(uniform, T.scale(alpha, 1.0 - epsilon))


def apply_bmd(alpha: T.Tensor, drop_mask: np.ndarray, renormalize: bool = True) -> T.Tensor:
    """Basis dropout as ``mul`` by a scanned 0/1 constant, then
    ``normalize_rows`` of the rows of every sample whose mask drops a basis."""
    drop = np.asarray(drop_mask, dtype=bool)
    if not drop.any():
        return alpha
    drop = drop[..., None, :]
    values = T.mul(alpha, T.Tensor(np.broadcast_to(~drop, alpha.shape).astype(np.float64)))
    return normalize_rows(values, where=drop.any(axis=-1)) if renormalize else values


def cross_entropy_chain(logits: T.Tensor, target) -> T.Tensor:
    """One cross-entropy record whose target rows are built and checked on
    every call."""
    b, c = logits.shape
    target = np.asarray(target)
    if target.ndim <= 1:
        soft = np.zeros((b, c))
        soft[np.arange(b), target.reshape(-1).astype(np.int64)] = 1.0
    else:
        soft = np.asarray(target, dtype=np.float64)
        assert np.all(np.abs(soft.sum(axis=1) - 1.0) <= 1e-6)
    shifted = logits.data - np.maximum.reduce(logits.data, axis=1, keepdims=True)
    log_probs = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    loss = -np.add.reduce(soft * log_probs, axis=None) / b
    return T._result(T._finite(np.array(loss)), (logits,),
                     lambda g, logits: ((logits, g * (np.exp(log_probs) - soft) / b),))


def loss_chain(final, initial, target, l2_sum, cfg, distill_soft=None):
    """``training.total_loss`` as a chain: two ``cross_entropy_chain`` records,
    ``scale``, ``add``, and one more ``add`` of the L2 value as a constant."""
    final_target = initial_target = target
    if cfg.distill is not None and distill_soft is not None:
        w = cfg.distill.soft_weight
        final_target = w * distill_soft + (1.0 - w) * np.eye(final.shape[1])[target]
        if cfg.distill.policy == "both":
            initial_target = final_target
    synth = cross_entropy_chain(final, final_target)
    lm = cross_entropy_chain(initial, initial_target)
    loss = T.add(synth, T.scale(lm, cfg.lm_weight))
    l2_value = 0.0
    if cfg.l2_weight > 0.0:
        loss = T.add(loss, T.Tensor(l2_sum * cfg.l2_weight))
        l2_value = cfg.l2_weight * float(l2_sum)
    return loss, {"synth_loss": synth.data.item(), "lm_loss": lm.data.item(), "l2": l2_value}


def apply_updates_allocating(state, grad, sizes, lr: float, schedule) -> None:
    """The vectorised update with a fresh array per temporary and a copied
    accumulator, committed after the finite write of the new values."""
    from kernelblend import training as tr

    if schedule.clip_norm is not None:
        norm = np.sqrt(tr.squared_norm(grad, sizes))
        if norm > schedule.clip_norm:
            grad = grad * (schedule.clip_norm / norm)
    start = state.vector.size - grad.size
    acc = state.opt_state
    if schedule.optimizer == "rmsprop":
        acc = np.zeros(state.vector.size) if acc is None else acc.copy()
        acc[start:] = tail = 0.9 * acc[start:] + 0.1 * grad * grad
        delta = lr * grad / (np.sqrt(tail) + 1e-8)
    else:
        delta = lr * grad
    state.vector.apply_update(state.vector.data[start:] - delta, start)
    state.opt_state = acc


def forward_chain(state, batch_x: np.ndarray, epsilon: float, drop_masks):
    """``training.forward_training`` with ``coefficients_chain`` and the
    stabilizers as ``blend_epsilon`` then ``apply_bmd``: (final logits,
    initial logits, coefficients)."""
    from kernelblend import pipeline as pl

    cfg, bank = state.synth_cfg, state.bank
    x = T.Tensor(batch_x)
    initial, feats = pl.lm_forward(state.lm, state.lm_params, x)
    raw = T.linear(feats, state.lm_params.coeff_w, state.lm_params.coeff_b)
    alpha = coefficients_chain(raw, cfg, bank.n_coefficient_rows, bank.n_bases)
    if cfg.mode != "one_hot":
        if epsilon > 0.0:
            alpha = blend_epsilon(alpha, epsilon)
        if drop_masks is not None:
            alpha = apply_bmd(alpha, drop_masks, cfg.bmd_renormalize)
    return bb.forward(syn.synthesize(bank, alpha), bank.spec, x), initial, alpha


def train_step_chain(state, batch, schedule, loss_cfg):
    """``training.train_step`` on the chain: ``forward_chain``, ``loss_chain``
    (the frozen model's logits detached by a scanned copy on a selection
    step), ``T.backward`` into the state's gradient buffer, which starts at
    L2's term or zeros, and ``apply_updates_allocating``. Returns (state,
    metrics)."""
    from dataclasses import replace

    from kernelblend import training as tr

    x, y = batch
    step = state.step
    eps = tr.epsilon_at(step, schedule)
    selecting = schedule.selects(step)
    trained = state.joint
    if selecting:
        state.synth_cfg = replace(state.synth_cfg, mode="one_hot")
        trained = state.selection
    drop = None
    if schedule.bmd_rate > 0.0:
        rng = tr.step_rng(schedule, step, stream=2)
        draws = len(x) if schedule.bmd_per_sample else 1
        drop = np.stack([tr.sample_bmd_mask(state.bank.n_bases, schedule.bmd_rate, rng)
                         for _ in range(draws)])
        drop = drop if schedule.bmd_per_sample else drop[0]
    soft = None
    if loss_cfg.distill is not None:
        soft = tr.distill_targets(loss_cfg.distill.teacher_spec, loss_cfg.distill.teacher_params, x)
    lr = tr.learning_rate_at(step, schedule)
    grad = trained.grad
    if loss_cfg.l2_weight > 0.0:
        np.multiply(trained.values, 2.0, out=grad)
        np.multiply(grad, loss_cfg.l2_weight, out=grad)
        l2_sum = tr.squared_norm(trained.values, trained.sizes)
    else:
        grad.fill(0.0)
        l2_sum = 0.0
    with T.recording(T.GradTape(trained.into)):
        final, initial, _ = forward_chain(state, x, eps, drop)
        if selecting:
            initial = T.Tensor(initial.data)
        loss, parts = loss_chain(final, initial, y, l2_sum, loss_cfg, soft)
    T.backward(loss)
    apply_updates_allocating(state, grad, trained.sizes, lr, schedule)
    state.step = step + 1
    return state, {"step": step, "loss": loss.data.item(), "epsilon": eps, "lr": lr, **parts}


# ---------------------------------------------------------------------------
# per-layer router baseline (CondConv): a scheduling contrast to the two-stage path


@dataclass
class RouterParams:
    w: T.Tensor
    b: T.Tensor


def build_routers(bank: syn.BasisBank, seed: int) -> list[RouterParams]:
    """One pooled-feature router per non-shared layer."""
    rng = np.random.default_rng(seed)
    return [RouterParams(*bb.init_linear(rng, bank.spec.layers[k].in_channels, bank.n_bases))
            for k in bank.nonshared_indices()]


def condconv_forward(bank: syn.BasisBank, routers: list[RouterParams], x: np.ndarray,
                     activation: str = "softmax", trace: list | None = None) -> T.Tensor:
    """Layer-by-layer dynamic baseline: each non-shared layer blends its
    kernels from coefficients computed off the previous layer's pooled
    output, so synthesis cannot run ahead of execution. No early exit is
    possible - there is no standalone preview prediction to gate on.
    """
    if x.ndim != 4 or x.shape[0] != 1:
        raise T.ShapeError(f"condconv_forward expects a single (1, C, H, W) image, got {x.shape}")
    if len(routers) != bank.n_coefficient_rows:
        raise T.ShapeError(
            f"{len(routers)} routers for {bank.n_coefficient_rows} non-shared layers")

    out = T.Tensor(x)
    r = 0
    for k, (layer, shared) in enumerate(zip(bank.spec.layers, bank.share_mask)):
        if shared:
            kernel = bank.kernels[k]
        else:
            pooled = T.global_avg_pool(out)
            logits = T.linear(pooled, routers[r].w, routers[r].b)
            coeffs = logits if activation == "identity" else activate(logits, activation)
            if trace is not None:
                trace.append(("coefficients", k, coeffs.data[0].copy()))
            kernel = T.blend(coeffs, bank.kernels[k])
            r += 1
        if trace is not None:
            trace.append(("execute", k))
        out = bb.run_layer(out, layer, bb.LayerParams(kernel=kernel, bias=bank.biases[k]))
    feats = T.global_avg_pool(out)
    return T.linear(feats, bank.head_w, bank.head_b)
