"""Joint end-to-end training of the lightweight model and the basis bank.

One step: sample a batch and run it through the model once, every stage
batched. The lightweight trunk gives initial logits and raw coefficients;
the coefficients are activated (one op), blended toward uniform at the
scheduled strength and masked for dropped bases, per sample when masks
differ (one op, ``synthesis.stabilize``), then one synthesis blends a
specialist per sample and one stage-two pass runs each sample through its
own kernels. The loss, CE(specialist) + lm_weight * CE(initial) + L2, is one
op on target rows built once per batch. The gradient routing the design
calls for falls out of the graph itself: the initial-prediction term never
touches basis kernels, while the specialist term reaches the lightweight
model through the coefficient path. The fused ops' backward rules do the
arithmetic of the per-op chain they replaced in its order, so a step trains
the same bits.

A step keeps these finiteness checks: the batch as it enters, each conv's
output before its ReLU, each linear's output, the loss, and the new
parameter values before they are written. The coefficients between the head
and the stage-two convs are not scanned: they stay in [0, 1], and a NaN
among them reaches a conv's check. A failed check, or a dropout row whose
survivors all underflowed to 0, raises ``TrainingDiverged`` with the step
and learning rate, and the step writes nothing.

Selection fine-tuning is the tail of the same schedule: the
``finetune_steps`` steps after ``total_steps`` run with the synthesis mode
set to ``one_hot`` and the lightweight model frozen. ``train_step`` decides
that from (step, schedule) alone, so a state loaded from any checkpoint
continues exactly as the uninterrupted run would.

A ``TrainState`` packs every parameter into one vector in
``named_parameters`` order, ``lm.*`` first, and each parameter views into
it. Beside it the state keeps one gradient buffer aligned with the vector
and, built once, what a step needs of the suffix it trains (every
parameter, or the bank alone on a selection step): their sizes, their part
of the vector and each one's view of the buffer. A step writes L2's term (or
zeros) into that part of the buffer (L2 is not a tape op), the backward pass
adds the network's through the views, and one vectorised update of the
suffix follows, its temporaries in three rows the state keeps (``work``);
the RMSProp accumulator is one vector too.

All per-step randomness (batch choice, augmentation, dropout masks) derives
from (seed, step), so any run is reproducible bit for bit and no step
depends on a generator's state left by earlier steps.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from . import backbone as bb
from . import pipeline as pl
from . import synthesis as syn
from . import tensor as T
from .data import Dataset, augment_batch


class TrainingDiverged(RuntimeError):
    """Loss or activations went non-finite; carries step diagnostics."""


@dataclass(frozen=True)
class DistillConfig:
    teacher_spec: bb.BackboneSpec
    teacher_params: bb.BackboneParams
    policy: str = "both"  # "both" heads distilled, or "bases_only"
    soft_weight: float = 1.0

    def __post_init__(self):
        if self.policy not in ("both", "bases_only"):
            raise ValueError(f"unknown distillation policy {self.policy!r}")
        if not 0.0 <= self.soft_weight <= 1.0:
            raise ValueError("soft_weight must be in [0, 1]")


@dataclass(frozen=True)
class LossConfig:
    lm_weight: float = 1.0
    l2_weight: float = 0.0
    distill: DistillConfig | None = None

    def __post_init__(self):
        if self.lm_weight < 0 or self.l2_weight < 0:
            raise ValueError("loss weights must be >= 0")


@dataclass(frozen=True)
class TrainSchedule:
    """``total_steps`` joint steps, then ``finetune_steps`` selection steps."""
    total_steps: int
    finetune_steps: int = 0
    epsilon_hold_steps: int = 0
    epsilon_decay_steps: int = 0
    lr_base: float = 0.1
    lr_decay_factor: float = 1.0
    lr_decay_interval: int = 100
    bmd_rate: float = 0.0
    batch_size: int = 16
    seed: int = 0
    optimizer: str = "sgd"  # or "rmsprop"
    clip_norm: float | None = None
    bmd_per_sample: bool = False
    flip: bool = False
    crop_pad: int = 0
    eval_interval: int = 100

    def __post_init__(self):
        if self.epsilon_hold_steps + self.epsilon_decay_steps > self.total_steps:
            raise ValueError("epsilon hold + decay cannot exceed total_steps")
        if self.optimizer not in ("sgd", "rmsprop"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.bmd_rate < 1.0:
            raise ValueError("bmd_rate must be in [0, 1)")
        if self.total_steps < 0 or self.finetune_steps < 0:
            raise ValueError("total_steps and finetune_steps must be >= 0")
        if self.finetune_steps > 0 and self.total_steps == 0:
            raise ValueError("fine-tuning needs joint training first (total_steps > 0)")
        if self.clip_norm is not None and not self.clip_norm > 0:  # also rejects NaN
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")
        for name, low in (("batch_size", 1), ("lr_decay_interval", 1), ("crop_pad", 0),
                          ("epsilon_hold_steps", 0), ("epsilon_decay_steps", 0),
                          ("eval_interval", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("lr_base", "lr_decay_factor"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    def selects(self, step: int) -> bool:
        """Whether ``step`` is a selection step: fine-tuning, at or past ``total_steps``."""
        return self.finetune_steps > 0 and step >= self.total_steps


@dataclass(frozen=True, slots=True, eq=False)
class Trained:
    """The parameters a step trains, a suffix of ``named_parameters``: their
    sizes, their part of the state's vector and of its gradient buffer, and
    each tensor's view of that part of the buffer."""
    sizes: list[int]
    values: np.ndarray
    grad: np.ndarray
    into: dict[T.Tensor, np.ndarray]


@dataclass(slots=True)
class TrainState:
    # Building a state packs its tensors into its own vector, so a second state
    # over tensors already packed (dataclasses.replace too) is refused: it would
    # take them over from the first. copy.deepcopy copies the tensors first.
    lm: pl.LightweightModel
    lm_params: pl.LMParams
    bank: syn.BasisBank
    synth_cfg: syn.SynthesisConfig
    step: int = 0
    opt_state: np.ndarray | None = None  # RMSProp accumulator, aligned with ``vector``
    vector: T.Tensor = field(init=False)  # every parameter; each one views into it
    grad: np.ndarray = field(init=False, repr=False)  # gradient buffer aligned with ``vector``
    work: np.ndarray = field(init=False, repr=False)  # three rows for the update's temporaries
    joint: Trained = field(init=False, repr=False)  # what a joint step trains
    selection: Trained = field(init=False, repr=False)  # what a selection step trains

    def __post_init__(self):
        named = named_parameters(self)
        for name, p in named:
            if p.data.base is not None:  # a packed tensor views into its state's vector
                raise ValueError(f"parameter {name} is already a view into another "
                                 "state's vector; copy a state with copy.deepcopy")
        params = [p for _, p in named]
        self.vector = T.Tensor(np.concatenate([p.data.reshape(-1) for p in params]))
        self.grad = np.zeros(self.vector.size)
        self.work = np.empty((3, self.vector.size))
        for p, view in zip(params, _views(self.vector.data, params)):
            p.data = view  # same values, now held in the vector
        self.joint = self._trained(params)
        self.selection = self._trained([p for n, p in named if not n.startswith("lm.")])

    def _trained(self, tensors: list[T.Tensor]) -> Trained:
        start = self.vector.size - sum(p.size for p in tensors)
        grad = self.grad[start:]
        return Trained([p.size for p in tensors], self.vector.data[start:], grad,
                       dict(zip(tensors, _views(grad, tensors))))

    def __deepcopy__(self, memo):
        lm, lm_params, bank, acc = copy.deepcopy((self.lm, self.lm_params, self.bank, self.opt_state), memo)
        return TrainState(lm, lm_params, bank, self.synth_cfg, self.step, acc)


def _views(flat: np.ndarray, tensors) -> list[np.ndarray]:
    """Consecutive views of ``flat``, one shaped like each of ``tensors``."""
    offsets = accumulate((t.size for t in tensors), initial=0)
    return [flat[o:o + t.size].reshape(t.shape) for t, o in zip(tensors, offsets)]


def named_parameters(state: TrainState) -> list[tuple[str, T.Tensor]]:
    """Stable (name, tensor) listing; checkpoint blob order follows it."""
    out: list[tuple[str, T.Tensor]] = []
    for i, lp in enumerate(state.lm_params.trunk.layers):
        out.append((f"lm.trunk.L{i}.kernel", lp.kernel))
        out.append((f"lm.trunk.L{i}.bias", lp.bias))
    out.append(("lm.class_head.w", state.lm_params.trunk.head_w))
    out.append(("lm.class_head.b", state.lm_params.trunk.head_b))
    out.append(("lm.coeff_head.w", state.lm_params.coeff_w))
    out.append(("lm.coeff_head.b", state.lm_params.coeff_b))
    for k, (shared, kernel) in enumerate(zip(state.bank.share_mask, state.bank.kernels)):
        out.append((f"bank.L{k}.kernel" if shared else f"bank.L{k}.bases", kernel))
        out.append((f"bank.L{k}.bias", state.bank.biases[k]))
    out.append(("bank.head.w", state.bank.head_w))
    out.append(("bank.head.b", state.bank.head_b))
    return out


# ---------------------------------------------------------------------------
# schedules and sampling


def epsilon_at(step: int, schedule: TrainSchedule) -> float:
    """1 during the hold window, then linear to 0 over the decay window."""
    if step < 0:
        raise ValueError("step must be >= 0")
    hold, decay = schedule.epsilon_hold_steps, schedule.epsilon_decay_steps
    if step < hold:
        return 1.0
    if decay > 0 and step < hold + decay:
        return 1.0 - (step - hold) / decay
    return 0.0


def learning_rate_at(step: int, schedule: TrainSchedule) -> float:
    return schedule.lr_base * schedule.lr_decay_factor ** (step // schedule.lr_decay_interval)


def sample_bmd_mask(n_bases: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Independent per-basis drops at ``rate``, resampled until one survives."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
    drops = rng.random(n_bases) < rate
    while np.logical_and.reduce(drops):
        drops = rng.random(n_bases) < rate
    return drops


def step_rng(schedule: TrainSchedule, step: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([schedule.seed, step, stream])


def sample_batch(dataset: Dataset, schedule: TrainSchedule, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic batch for a step: uniform indices, then augmentation."""
    rng = step_rng(schedule, step, stream=1)
    idx = rng.integers(0, len(dataset), size=schedule.batch_size)
    images = dataset.images[idx]
    if schedule.flip or schedule.crop_pad > 0:
        images = augment_batch(images, rng, flip=schedule.flip, crop_pad=schedule.crop_pad)
    return images, dataset.labels[idx]


# ---------------------------------------------------------------------------
# forward and loss


def forward_training(state: TrainState, batch_x: np.ndarray, epsilon: float,
                     drop_masks: np.ndarray | None):
    """Batched stage-one pass, then inference's ``stage_two`` with the
    stabilizers as its coefficient edit.

    ``drop_masks`` is (N,) to share one mask across the batch or (B, N) for
    per-sample masks; None disables basis dropout. Returns (final logits,
    initial logits, the (B, rows, N) coefficients the specialists used).
    """
    cfg = state.synth_cfg
    x = T.Tensor(batch_x)
    initial, feats = pl.lm_forward(state.lm, state.lm_params, x)

    def stabilize(alpha):
        return syn.stabilize(alpha, epsilon, drop_masks, cfg.bmd_renormalize)

    # selection gets no uniform blend and no dropout
    edit = None if cfg.mode == "one_hot" else stabilize
    final, alpha = pl.stage_two(state.lm_params, state.bank, cfg, x, feats, edit)
    return final, initial, alpha


def distill_targets(teacher_spec: bb.BackboneSpec, teacher_params: bb.BackboneParams,
                    batch_x: np.ndarray) -> np.ndarray:
    """Frozen-teacher softmax outputs (temperature 1); rows sum to 1."""
    return T.softmax(bb.forward(teacher_params, teacher_spec, T.Tensor(batch_x)), axis=1).data


def squared_norm(flat: np.ndarray, sizes) -> float:
    """sum ||p||^2 of the parameters packed one after another in ``flat``,
    ``sizes`` long each: one square of the whole array, then one sum per
    parameter, added left to right. A contiguous slice sums in the order its
    tensor would, so this gives the bits of a per-tensor chain."""
    squares = flat * flat
    total = 0.0  # plain left-to-right adds: sum() compensates on Python >= 3.12
    start = 0
    for size in sizes:  # np.sum's reduce, without its Python-level wrapper
        total = total + np.add.reduce(squares[start:start + size])
        start += size
    return total


def total_loss(final_logits: T.Tensor, initial_logits: T.Tensor, target: np.ndarray,
               l2_sum: float, cfg: LossConfig, distill_soft: np.ndarray | None = None):
    """CE(final) + lm_weight * CE(initial) + l2_weight * l2_sum, where
    ``l2_sum`` is sum ||p||^2 over the trained parameters (``squared_norm``).

    With distillation on, the teacher's soft rows replace (or blend into)
    the hard targets for the heads the policy selects. The batch's target
    rows are built and checked once, and the loss is one op
    (``T.cross_entropy_sum``) with the L2 term a constant in it:
    ``train_step`` writes its gradient itself.
    """
    hard = T.class_targets(target, final_logits.data.shape)
    final_rows = initial_rows = hard
    if cfg.distill is not None and distill_soft is not None:
        w = cfg.distill.soft_weight
        final_rows = T.class_targets(w * distill_soft + (1.0 - w) * hard, hard.shape)
        if cfg.distill.policy == "both":
            initial_rows = final_rows

    l2_value = cfg.l2_weight * float(l2_sum) if cfg.l2_weight > 0.0 else 0.0
    loss, (synth, lm) = T.cross_entropy_sum(
        ((final_logits, final_rows, 1.0), (initial_logits, initial_rows, cfg.lm_weight)),
        l2_sum * cfg.l2_weight if cfg.l2_weight > 0.0 else None)
    return loss, {"synth_loss": synth, "lm_loss": lm, "l2": l2_value}


# ---------------------------------------------------------------------------
# optimizer step


def _apply_updates(state: TrainState, grad, sizes, lr: float, schedule: TrainSchedule):
    """One update of the suffix of ``state.vector`` that ``grad``, the
    gradient buffer aligned with it, covers: parameters ``sizes`` long each.
    Every accumulator slot updates; a parameter the backward pass did not
    reach has a zero gradient, so its values stay and a zero accumulator
    stays zero. A global gradient norm above ``clip_norm`` is scaled down to
    it first. The temporaries go into the state's ``work`` rows, and nothing
    is written unless the new values are all finite."""
    n = grad.size
    scaled, tail, new = (row[-n:] for row in state.work)
    if schedule.clip_norm is not None:
        norm = np.sqrt(squared_norm(grad, sizes))
        if norm > schedule.clip_norm:
            grad = np.multiply(grad, schedule.clip_norm / norm, out=scaled)
    start = state.vector.size - n  # the trained part is a suffix of named_parameters
    acc = state.opt_state
    if schedule.optimizer == "rmsprop":
        if acc is None:
            acc = np.zeros(state.vector.size)
        np.multiply(grad, 0.1, out=tail)
        np.multiply(tail, grad, out=tail)
        np.add(np.multiply(acc[start:], 0.9, out=new), tail, out=tail)  # 0.9 * acc + 0.1 * g * g
        denominator = np.add(np.sqrt(tail, out=new), 1e-8, out=new)
        np.divide(np.multiply(grad, lr, out=scaled), denominator, out=new)
    else:
        np.multiply(grad, lr, out=new)
    state.vector.apply_update(np.subtract(state.vector.data[start:], new, out=new), start)
    if schedule.optimizer == "rmsprop":
        acc[start:] = tail
        state.opt_state = acc


def train_step(state: TrainState, batch: tuple[np.ndarray, np.ndarray],
               schedule: TrainSchedule, loss_cfg: LossConfig) -> tuple[TrainState, dict]:
    """One serialized optimization transaction; returns (state, metrics).

    A step at or past ``schedule.total_steps`` of a schedule with
    fine-tuning is a selection step: it sets the synthesis mode to
    ``one_hot`` (which a checkpoint load sets again) and leaves the lightweight
    model out of the update, the L2 term and the backward pass: its
    initial-prediction loss is reported from a detached copy of the logits.
    """
    batch_x, batch_y = batch
    step = state.step
    eps = epsilon_at(step, schedule)
    selecting = schedule.selects(step)
    trained = state.joint
    if selecting:
        if state.synth_cfg.mode != "one_hot":
            state.synth_cfg = replace(state.synth_cfg, mode="one_hot")
        trained = state.selection

    drop_masks = None
    if schedule.bmd_rate > 0.0:
        rng = step_rng(schedule, step, stream=2)
        if schedule.bmd_per_sample:
            drop_masks = np.stack([
                sample_bmd_mask(state.bank.n_bases, schedule.bmd_rate, rng)
                for _ in range(len(batch_x))
            ])
        else:
            drop_masks = sample_bmd_mask(state.bank.n_bases, schedule.bmd_rate, rng)

    distill_soft = None
    if loss_cfg.distill is not None:
        distill_soft = distill_targets(
            loss_cfg.distill.teacher_spec, loss_cfg.distill.teacher_params, batch_x)

    lr = learning_rate_at(step, schedule)
    # the trained part of the gradient buffer is rewritten whole with L2's
    # term or zeros, so nothing a refused step left survives and a tensor this
    # one does not reach has a zero gradient; the backward then adds the
    # network's term, the order of a tape ending in the regulariser, so every
    # gradient matches that one bit for bit
    grad = trained.grad
    if loss_cfg.l2_weight > 0.0:
        np.multiply(trained.values, 2.0, out=grad)
        np.multiply(grad, loss_cfg.l2_weight, out=grad)
        l2_sum = squared_norm(trained.values, trained.sizes)
    else:
        grad.fill(0.0)
        l2_sum = 0.0
    try:
        with T.recording(T.GradTape(trained.into)):
            final, initial, _ = forward_training(state, batch_x, eps, drop_masks)
            if selecting:  # detached: its values, checked by the head, on no tape
                initial = T.constant(initial.data)
            loss, parts = total_loss(final, initial, batch_y, l2_sum, loss_cfg, distill_soft)
        T.backward(loss)
        _apply_updates(state, grad, trained.sizes, lr, schedule)
    except T.NonFiniteError as err:
        raise TrainingDiverged(
            f"training went non-finite at step {step} (lr={lr}): {err}"
        ) from err

    state.step = step + 1
    metrics = {"step": step, "loss": loss.data.item(), "epsilon": eps, "lr": lr, **parts}
    return state, metrics


# ---------------------------------------------------------------------------
# state construction


def init_state(lm: pl.LightweightModel, bank_spec: bb.BackboneSpec, shared_layers,
               synth_cfg: syn.SynthesisConfig, seed: int) -> TrainState:
    """Build a fresh trainable state with deterministic initialization; the
    bank has the lightweight model's ``n_bases``."""
    bank = syn.build_bank(bank_spec, lm.n_bases, shared_layers, seed)
    lm_params = pl.build_lm(lm, seed + 1)
    expected_rows = synth_cfg.head_rows(bank.n_coefficient_rows)
    if lm.coeff_rows != expected_rows:
        raise ValueError(f"{synth_cfg.mode} mode needs a {expected_rows}-row coefficient head, "
                         f"the lightweight model's has {lm.coeff_rows}")
    return TrainState(lm=lm, lm_params=lm_params, bank=bank, synth_cfg=synth_cfg)
