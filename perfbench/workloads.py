"""The benchmark's workloads: set-up, measured loops and correctness checks.

Every workload is a closed loop with one caller in one process, driven
through kernelblend's public functions. The seed only shapes the inputs:
the training data and initialisation of ``train``, and the eval images of
``infer_gated`` and ``eval_sweep``. The package sees nothing else of the
benchmark.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kernelblend import backbone as bb
from kernelblend import checkpoint as ck
from kernelblend import config as kc
from kernelblend import cost
from kernelblend import disturbance as dist
from kernelblend import experiment as ex
from kernelblend import pipeline as pl
from kernelblend import synthesis as syn
from kernelblend import tensor as T
from kernelblend import training as tr

DEMO_CONFIG = Path("configs") / "synthetic-demo.json"
NEVER_TERMINATE = 1.01  # above every confidence: stage two always runs


@dataclass(frozen=True)
class Scale:
    """Sizes of one run. The demo schedule (1500 steps, epsilon held 60 and
    decayed over 240) is scaled down so that one training pass covers the
    hold window, the decay window and steps after it."""

    pass_steps: int
    hold_steps: int
    decay_steps: int
    train_size: int
    eval_size: int
    setups: int
    calibration_reps: int
    probe_passes: int


FULL = Scale(pass_steps=50, hold_steps=2, decay_steps=8, train_size=1024, eval_size=256,
             setups=3, calibration_reps=5, probe_passes=2)
TINY = Scale(pass_steps=6, hold_steps=1, decay_steps=2, train_size=64, eval_size=32,
             setups=1, calibration_reps=1, probe_passes=1)


@dataclass
class Outcome:
    """Operations attempted and failed; a failed check fails every
    operation it covers."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    checks: dict[str, int] = field(default_factory=dict)

    def check(self, name: str, ok: bool, ops: int = 1) -> None:
        self.checks[name] = self.checks.get(name, 0) + 1
        if not ok:
            self.failed += ops
            if len(self.failures) < 20:
                self.failures.append(name)


def no_span(name: str, items: int = 1):
    return contextlib.nullcontext()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def timings(meter, *unit_lists) -> dict:
    """Seconds of each unit list, speed-normalised and raw."""
    return {
        "normalised": tuple(meter.normalise(units) for units in unit_lists),
        "raw": tuple([u[2] * 1e-9 for u in units] for units in unit_lists),
    }


def data_digest(*datasets) -> str:
    h = hashlib.sha256()
    for ds in datasets:
        h.update(ds.images.tobytes())
        h.update(ds.labels.tobytes())
    return h.hexdigest()


def param_digest(state: tr.TrainState) -> str:
    h = hashlib.sha256()
    for name, tensor in tr.named_parameters(state):
        h.update(name.encode())
        h.update(tensor.data.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Model:
    """A trained, checkpointed model and the data it is evaluated on."""

    cfg: kc.ExperimentConfig
    train: object
    evalset: object
    ckpt: Path
    digest: str  # of the trained parameters; "" without a model
    state: tr.TrainState | None = None
    threshold: float | None = None


def load_config(root: Path, seed: int | None, scale: Scale, workdir: Path
                ) -> kc.ExperimentConfig:
    """The demo config at the run's scale; ``seed`` replaces its model and
    dataset seeds, None keeps them."""
    raw = json.loads((root / DEMO_CONFIG).read_text())
    raw["output_dir"] = str(workdir)
    raw["dataset"].update(train_size=scale.train_size, eval_size=scale.eval_size)
    if seed is not None:
        raw["seed"] = seed
        raw["dataset"]["seed"] = seed
    raw["schedule"].update(total_steps=scale.pass_steps, epsilon_hold_steps=scale.hold_steps,
                           epsilon_decay_steps=scale.decay_steps)
    return kc.parse_config(raw)


def train_pass(cfg: kc.ExperimentConfig, train_set, ckpt: Path, clock=None,
               step_units: list | None = None) -> tr.TrainState:
    """Fresh seeded state, the configured number of steps, one checkpoint save."""
    state, loss_cfg = ex.build_state(cfg)
    schedule = cfg.schedule
    while state.step < schedule.total_steps:
        if clock is not None:
            c = clock.clock()
        batch = tr.sample_batch(train_set, schedule, state.step)
        state, _ = tr.train_step(state, batch, schedule, loss_cfg)
        if clock is not None:
            step_units.append(clock.elapsed(c))
    ck.save_checkpoint(state, ckpt, config=cfg.raw)
    return state


def median_threshold(state: tr.TrainState, evalset) -> float:
    """Median stage-one confidence, computed per image exactly as infer does."""
    confs = []
    for i in range(len(evalset)):
        initial, _ = pl.lm_forward(state.lm, state.lm_params, T.Tensor(evalset.images[i:i + 1]))
        confs.append(pl.confidence(initial.data[0]))
    return float(np.median(confs))


def set_up(root: Path, seed: int, scale: Scale, workdir: Path, with_model: bool,
           with_threshold: bool) -> Model:
    """Without a model: the seed's config and data, for training passes.

    With a model: one training pass at the demo config's own seeds (the
    same model for every workload seed, so that the work an eval pass does
    hardly depends on the seed), checkpointed, and the seed's eval set.
    """
    cfg = load_config(root, seed, scale, workdir)
    train, evalset = ex.load_dataset(cfg)
    model = Model(cfg=cfg, train=train, evalset=evalset, ckpt=workdir / "model", digest="")
    if with_model:
        model.cfg = load_config(root, None, scale, workdir)
        model.train, _ = ex.load_dataset(model.cfg)
        model.digest = param_digest(train_pass(model.cfg, model.train, model.ckpt))
    if with_threshold:
        model.state, _ = ck.load_checkpoint(model.ckpt)
        model.threshold = median_threshold(model.state, evalset)
    return model


def timed_setups(root, seed, scale, workdir, outcome: Outcome, clock, **kw) -> tuple[Model, list]:
    """Set up ``scale.setups`` times; every set-up must build the same data
    and model."""
    units = []
    models = []
    for _ in range(scale.setups):
        gc.collect()
        c = clock.clock()
        models.append(set_up(root, seed, scale, workdir, **kw))
        units.append(clock.elapsed(c))
    built = [(data_digest(m.train, m.evalset), m.digest, m.threshold) for m in models]
    for b in built[1:]:
        outcome.attempted += 1
        outcome.check("setup.deterministic", b == built[0])
    return models[-1], units


# ---------------------------------------------------------------------------
# train


def train_loop(model: Model, seconds: float, outcome: Outcome, reference: str, clock) -> dict:
    """Training passes until ``seconds`` have passed; each must end with
    parameters bitwise equal to the reference pass of the same seed."""
    steps = model.cfg.schedule.total_steps
    step_units: list = []
    pass_units: list = []
    start = time.perf_counter()
    while not pass_units or time.perf_counter() - start < seconds:
        gc.collect()
        outcome.attempted += steps
        c = clock.clock()
        state = train_pass(model.cfg, model.train, model.ckpt, clock, step_units)
        pass_units.append(clock.elapsed(c))
        outcome.check("train.same_seed_bitwise_params", param_digest(state) == reference,
                      ops=steps)
    return {"steps": step_units, "passes": pass_units,
            "samples": steps * model.cfg.schedule.batch_size}


def train_metrics(res: dict, meter) -> dict:
    out = {}
    for kind, (steps, passes) in timings(meter, res["steps"], res["passes"]).items():
        out[kind] = {
            "train.samples_per_s": statistics.median(res["samples"] / p for p in passes),
            "train.step_ms_p50": statistics.median(steps) * 1e3,
            "train.step_ms_p90": percentile(steps, 90) * 1e3,
        }
    named = out["normalised"]
    return {
        "items_per_s": named["train.samples_per_s"],
        "latency_ms_p50": named["train.step_ms_p50"],
        "named": {**named, "train.passes": len(res["passes"]), "train.steps": len(res["steps"]),
                  "raw": out["raw"]},
    }


# ---------------------------------------------------------------------------
# infer_gated


def infer_pass(model: Model, threshold: float, clock=None, image_units: dict | None = None
               ) -> list:
    state = model.state
    images = model.evalset.images
    results = []
    for i in range(len(images)):
        if clock is not None:
            c = clock.clock()
        res = pl.infer(state.lm, state.lm_params, state.bank, state.synth_cfg,
                       images[i:i + 1], threshold)
        if clock is not None:
            image_units[res.terminated].append(clock.elapsed(c))
        results.append(res)
    return results


def check_infer_pass(model: Model, results: list, outcome: Outcome) -> int:
    """Per-image gate, spend and specialist checks; returns correct predictions."""
    state = model.state
    report = cost.full_cost(state.lm, state.bank)
    images, labels = model.evalset.images, model.evalset.labels
    n = len(results)
    outcome.check("infer.skip_rate_is_half", 2 * sum(r.terminated for r in results) == n, ops=n)
    pending = [i for i, r in enumerate(results) if not r.terminated]
    for i, res in enumerate(results):
        ok = res.terminated == (res.confidence >= model.threshold)
        outcome.check("infer.terminated_iff_confident", ok)
        spend = report.lm_madds if res.terminated else report.total_madds
        outcome.check("infer.madds_closed_form", res.madds_spent == spend)
    for j, i in enumerate(pending):
        # a batch of two: this image and the next non-terminated one
        other = pending[(j + 1) % len(pending)]
        specialist = syn.synthesize(state.bank, results[i].coefficients)
        batch = T.Tensor(np.concatenate([images[i:i + 1], images[other:other + 1]]))
        logits = bb.forward(specialist, state.bank.spec, batch).data
        outcome.check("infer.logits_equal_batched_specialist",
                      logits[0].tobytes() == results[i].final_logits.tobytes())
    return sum(int(r.prediction == labels[i]) for i, r in enumerate(results))


def infer_loop(model: Model, seconds: float, outcome: Outcome, clock,
               quiet=contextlib.nullcontext) -> dict:
    """Passes over the eval set until ``seconds`` have passed. The checks
    run under ``quiet``, which a traced run uses to keep them out of its spans."""
    image_units = {True: [], False: []}
    pass_units = []
    correct = None
    n = len(model.evalset)
    start = time.perf_counter()
    while not pass_units or time.perf_counter() - start < seconds:
        gc.collect()
        outcome.attempted += n
        c = clock.clock()
        results = infer_pass(model, model.threshold, clock, image_units)
        pass_units.append(clock.elapsed(c))
        with quiet():
            hits = check_infer_pass(model, results, outcome)
        if correct is None:
            correct = hits
        outcome.check("infer.accuracy_repeats", hits == correct, ops=n)
    return {"passes": pass_units, "skip": image_units[True], "full": image_units[False],
            "images": n, "accuracy": correct / n}


def infer_metrics(res: dict, meter) -> dict:
    out = {}
    for kind, (skip, full, passes) in timings(
            meter, res["skip"], res["full"], res["passes"]).items():
        # Exactly half the images stop after stage one, so the plain sample
        # median falls in the gap between the two paths' latencies and is
        # set by their extremes. The median is taken as the midpoint of the
        # two path medians instead.
        p50 = (statistics.median(skip) + statistics.median(full)) / 2
        out[kind] = {
            "infer.images_per_s": statistics.median(res["images"] / p for p in passes),
            "infer.latency_ms_p50": p50 * 1e3,
            "infer.latency_ms_p99": percentile(skip + full, 99) * 1e3,
            "infer.skip_ms_p50": statistics.median(skip) * 1e3,
            "infer.full_ms_p50": statistics.median(full) * 1e3,
        }
    named = out["normalised"]
    return {
        "items_per_s": named["infer.images_per_s"],
        "latency_ms_p50": named["infer.latency_ms_p50"],
        "named": {**named, "infer.accuracy": res["accuracy"],
                  "infer.images": len(res["skip"]) + len(res["full"]), "raw": out["raw"]},
    }


# ---------------------------------------------------------------------------
# eval_sweep


def eval_pass(model: Model, seed: int, outcome: Outcome, span=no_span) -> None:
    """What a user runs after training: load, eval at the default threshold,
    sweep the thresholds and disturb the coefficients once."""
    evalset = model.evalset
    default_threshold = model.cfg.default_threshold
    state, _ = ck.load_checkpoint(model.ckpt)
    with span("experiment.eval"):
        acc = ex.pipeline_accuracy(state, evalset, default_threshold)
        skip = ex.skip_rate(state, evalset, default_threshold)
        lm_acc = ex.lm_accuracy(state, evalset)
        full_acc = ex.full_accuracy(state, evalset)
    try:
        points = cost.sweep(state.lm, state.lm_params, state.bank, state.synth_cfg,
                            evalset, model.cfg.eval_thresholds)
    except AssertionError:
        outcome.check("eval.sweep_closed_form", False)
        return
    outcome.check("eval.sweep_closed_form", True)
    dist.evaluate_disturbed(state.lm, state.lm_params, state.bank, state.synth_cfg, evalset,
                            dist.Disturbance(kind="shuffled", layer=None, seed=seed))

    by_threshold = {p.threshold: p for p in points}
    default = by_threshold[default_threshold]
    rates = [p.skip_rate for p in points]
    outcome.check("eval.checkpoint_round_trip", param_digest(state) == model.digest)
    outcome.check("eval.sweep_at_0_is_lm_accuracy", by_threshold[0.0].accuracy == lm_acc)
    outcome.check("eval.sweep_at_1.01_is_full_accuracy",
                  by_threshold[NEVER_TERMINATE].accuracy == full_acc)
    outcome.check("eval.skip_rate_non_increasing", all(a >= b for a, b in zip(rates, rates[1:])))
    outcome.check("eval.default_threshold_matches_sweep",
                  default.accuracy == acc and default.skip_rate == skip)


def eval_loop(model: Model, seed: int, seconds: float, outcome: Outcome, clock,
              span=no_span) -> dict:
    pass_units = []
    start = time.perf_counter()
    while not pass_units or time.perf_counter() - start < seconds:
        gc.collect()
        outcome.attempted += 1
        failed = outcome.failed
        c = clock.clock()
        eval_pass(model, seed, outcome, span)
        pass_units.append(clock.elapsed(c))
        if outcome.failed > failed:
            outcome.failed = failed + 1  # one pass is one operation
    return {"passes": pass_units, "images": len(model.evalset)}


def eval_metrics(res: dict, meter) -> dict:
    out = {}
    for kind, (passes,) in timings(meter, res["passes"]).items():
        out[kind] = {
            "eval_sweep.pass_s": statistics.median(passes),
            "eval_sweep.pass_s_p90": percentile(passes, 90),
            "eval_sweep.images_per_s": statistics.median(res["images"] / p for p in passes),
        }
    named = out["normalised"]
    return {
        "items_per_s": named["eval_sweep.images_per_s"],
        "latency_ms_p50": named["eval_sweep.pass_s"] * 1e3,
        "named": {**named, "eval_sweep.passes": len(res["passes"]), "raw": out["raw"]},
    }


# ---------------------------------------------------------------------------
# criterion 1 against measured time


def calibrate(model: Model, reps: int, meter, outcome: Outcome) -> dict:
    """Mean per-image latency at thresholds 0 (LM only), 1.01 (LM, synthesis
    and stage two) and the median threshold, interleaved, median over reps."""
    n = len(model.evalset)
    thresholds = {0.0: 1.0, NEVER_TERMINATE: 0.0, model.threshold: 0.5}  # expected skip rate
    units = [[] for _ in thresholds]
    for _ in range(reps):
        for k, (threshold, expected) in enumerate(thresholds.items()):
            gc.collect()
            outcome.attempted += n
            c = meter.clock()
            results = infer_pass(model, threshold)
            units[k].append(meter.elapsed(c))
            p_skip = sum(r.terminated for r in results) / n
            outcome.check("calibration.skip_rate", p_skip == expected, ops=n)
    lm, total, gated = (statistics.median(meter.normalise(u)) / n * 1e3 for u in units)
    mixture = cost.expected_cost(thresholds[model.threshold], lm, total)
    report = cost.full_cost(model.state.lm, model.state.bank)
    return {
        "pipeline.t_lm_ms": lm,
        "pipeline.t_total_ms": total,
        "pipeline.mixture_rel_err": abs(gated - mixture) / gated,
        "pipeline.lm_total_ratio": lm / total,
        "pipeline.lm_total_ratio_analytic": report.lm_madds / report.total_madds,
    }


def layer_madds(state: tr.TrainState) -> dict[str, int]:
    """Analytic MAdds per image of every conv layer, keyed like the tracer's rows."""
    out = {}
    for prefix, spec in (("lm", state.lm.trunk), ("bank", state.bank.spec)):
        for k, madds in enumerate(bb.madds_per_layer(spec)[:-1]):
            out[f"{prefix}.L{k}"] = madds
    return out
