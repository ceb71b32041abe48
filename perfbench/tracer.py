"""Outside-in tracing: spans recorded around kernelblend's public functions.

The tracer replaces module attributes (``pipeline.infer``,
``backbone.run_layer``, ...) with wrappers that record a span per call and
restores them on ``uninstall``. The package itself is never edited, so the
untraced runs execute exactly the code a user runs. Spans are kept in memory
as ``[name, start_ns, end_ns, parent, items]`` and reduced to per-layer
metrics when the run ends.

Stage-two and lightweight conv layers are told apart by the backbone spec
that ``forward_features`` receives; backward time per layer comes from
wrapping the tape closures that ``run_layer`` appended while a tape was live.
"""

from __future__ import annotations

import contextlib
import statistics
from pathlib import Path
from time import perf_counter_ns

from kernelblend import backbone as bb
from kernelblend import checkpoint as ck
from kernelblend import cost
from kernelblend import disturbance as dist
from kernelblend import pipeline as pl
from kernelblend import synthesis as syn
from kernelblend import tensor as T
from kernelblend import training as tr

NAME, START, END, PARENT, ITEMS = range(5)


class Tracer:
    def __init__(self, layer_prefixes: dict[bb.BackboneSpec, str]):
        self.layer_prefixes = layer_prefixes
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []
        self._layer: list | None = None  # [prefix, next layer index] inside forward_features

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, items: int = 1) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, items])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, items: int = 1):
        idx = self.begin(name, items)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    # -- wrappers with extra bookkeeping -------------------------------------

    def _infer(self, fn):
        def wrapper(*args, **kwargs):
            idx = self.begin("pipeline.infer")
            try:
                res = fn(*args, **kwargs)
                self.spans[idx][NAME] = "pipeline.infer.skip" if res.terminated else "pipeline.infer.full"
                return res
            finally:
                self.end(idx)
        return wrapper

    def _lm_forward(self, fn):
        def wrapper(lm, params, x):
            idx = self.begin("pipeline.lm_forward", x.shape[0])
            try:
                return fn(lm, params, x)
            finally:
                self.end(idx)
        return wrapper

    def _forward_features(self, fn):
        def wrapper(params, spec, x, trace=None):
            outer = self._layer
            self._layer = [self.layer_prefixes.get(spec, "other"), 0]
            try:
                return fn(params, spec, x, trace)
            finally:
                self._layer = outer
        return wrapper

    def _run_layer(self, fn):
        def wrapper(x, layer, lp):
            if self._layer is None:
                name = "backbone.other"
            else:
                name = f"backbone.{self._layer[0]}.L{self._layer[1]}"
                self._layer[1] += 1
            tape = T._ACTIVE_TAPE
            first = len(tape.records) if tape is not None else 0
            idx = self.begin(name, x.shape[0])
            try:
                out = fn(x, layer, lp)
            finally:
                self.end(idx)
            if tape is not None:
                self.spans[idx][NAME] = name + ".taped"
                for r in range(first, len(tape.records)):
                    out_t, inputs, bwd = tape.records[r]
                    tape.records[r] = (out_t, inputs, self._timed(name + ".bwd", bwd))
            return out
        return wrapper

    def _backward(self, fn):
        def wrapper(loss):
            records = len(loss.tape.records) if loss.tape is not None else 0
            idx = self.begin("tensor.backward", records)
            try:
                return fn(loss)
            finally:
                self.end(idx)
        return wrapper

    def _save(self, fn):
        def wrapper(state, path, *args, **kwargs):
            idx = self.begin("checkpoint.save_checkpoint")
            try:
                return fn(state, path, *args, **kwargs)
            finally:
                self.end(idx)
                self.spans[idx][ITEMS] = sum(
                    f.stat().st_size for f in Path(path).iterdir() if f.is_file())
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        plan = [
            (bb, "forward_features", self._forward_features),
            (bb, "run_layer", self._run_layer),
            (T, "conv2d", lambda f: self._timed("tensor.conv2d", f)),
            (T, "backward", self._backward),
            (syn, "synthesize", lambda f: self._timed("synthesis.synthesize", f)),
            (pl, "lm_forward", self._lm_forward),
            (pl, "infer", self._infer),
            (tr, "sample_batch", lambda f: self._timed("training.sample_batch", f)),
            (tr, "train_step", lambda f: self._timed("training.train_step", f)),
            (tr, "forward_training", lambda f: self._timed("training.forward_training", f)),
            (tr, "total_loss", lambda f: self._timed("training.total_loss", f)),
            (cost, "sweep", lambda f: self._timed("cost.sweep", f)),
            (dist, "evaluate_disturbed", lambda f: self._timed("disturbance.evaluate_disturbed", f)),
            (ck, "save_checkpoint", self._save),
            (ck, "load_checkpoint", lambda f: self._timed("checkpoint.load_checkpoint", f)),
        ]
        for module, attr, make in plan:
            original = getattr(module, attr)
            setattr(module, attr, make(original))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run the block on the package's own functions, unrecorded."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- reduction -----------------------------------------------------------

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def layer_metrics(self, layer_madds: dict[str, int], eval_size: int) -> dict[str, float]:
        """Reduce the recorded spans to the per-layer metric table.

        ``backbone.<layer>.fwd_ms`` and ``bwd_ms`` are milliseconds per image
        through the layer (backward over taped images only); ``madds`` is
        the analytic count per image and ``madds_per_s`` the forward rate
        achieved. Other ``_ms`` rows are medians per call; ``training.*``
        split ``train_step``, with update as its remainder. Counts are per
        train step, per eval (LM images over ``eval_size``) or per sweep.
        ``layer_madds`` maps ``lm.L0``-style layer names to MAdds per image.
        """
        ms = 1e-6
        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(self.spans):
            by_name.setdefault(s[NAME], []).append(i)
        children: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            children.setdefault(s[PARENT], []).append(i)

        def dur(i):
            return self.spans[i][END] - self.spans[i][START]

        def median_ms(idxs):
            return statistics.median(dur(i) for i in idxs) * ms

        def named(*names):
            return [i for n in names for i in by_name.get(n, [])]

        out: dict[str, float] = {}
        for layer, madds in layer_madds.items():
            fwd = named(f"backbone.{layer}", f"backbone.{layer}.taped")
            taped = named(f"backbone.{layer}.taped")
            images = sum(self.spans[i][ITEMS] for i in fwd)
            taped_images = sum(self.spans[i][ITEMS] for i in taped)
            fwd_ns = sum(dur(i) for i in fwd)
            bwd_ns = sum(dur(i) for i in named(f"backbone.{layer}.bwd"))
            out[f"backbone.{layer}.fwd_ms"] = fwd_ns / images * ms
            out[f"backbone.{layer}.bwd_ms"] = bwd_ns / taped_images * ms
            out[f"backbone.{layer}.madds"] = madds
            out[f"backbone.{layer}.madds_per_s"] = madds * images / (fwd_ns * 1e-9)

        steps = named("training.train_step")
        n_steps = len(steps)
        synth = named("synthesis.synthesize")
        out["synthesis.synthesize_ms"] = median_ms(synth)
        out["synthesis.synthesize_calls"] = sum(
            self._has_ancestor(i, "training.train_step") for i in synth) / n_steps

        backward = named("tensor.backward")
        out["tensor.backward_ms"] = median_ms(backward)
        step_backward = [i for i in backward if self._has_ancestor(i, "training.train_step")]
        out["tensor.tape_records_per_step"] = sum(
            self.spans[i][ITEMS] for i in step_backward) / n_steps
        out["tensor.conv2d_calls_per_step"] = sum(
            self._has_ancestor(i, "training.train_step") for i in named("tensor.conv2d")) / n_steps

        out["training.data_ms"] = median_ms(named("training.sample_batch"))
        phases = {"training.forward_training": [], "training.total_loss": [],
                  "tensor.backward": [], "update": []}
        for i in steps:
            inside = 0
            for c in children.get(i, []):
                name = self.spans[c][NAME]
                if name in phases:
                    phases[name].append(dur(c))
                    inside += dur(c)
            phases["update"].append(dur(i) - inside)
        out["training.forward_ms"] = statistics.median(phases["training.forward_training"]) * ms
        out["training.loss_ms"] = statistics.median(phases["training.total_loss"]) * ms
        out["training.backward_ms"] = statistics.median(phases["tensor.backward"]) * ms
        out["training.update_ms"] = statistics.median(phases["update"]) * ms

        infer_lm = [i for i in named("pipeline.lm_forward")
                    if self.spans[self.spans[i][PARENT]][NAME].startswith("pipeline.infer")]
        out["pipeline.lm_forward_ms"] = median_ms(infer_lm)
        out["pipeline.infer_skip_ms"] = median_ms(named("pipeline.infer.skip"))
        out["pipeline.infer_full_ms"] = median_ms(named("pipeline.infer.full"))

        evals = named("experiment.eval")
        out["experiment.eval_ms"] = median_ms(evals)
        lm_images = sum(self.spans[i][ITEMS] for i in named("pipeline.lm_forward")
                        if self._has_ancestor(i, "experiment.eval"))
        out["experiment.lm_forward_calls_per_eval"] = lm_images / (len(evals) * eval_size)
        sweeps = named("cost.sweep")
        out["cost.sweep_ms"] = median_ms(sweeps)
        out["cost.infer_calls_per_sweep"] = sum(
            self._has_ancestor(i, "cost.sweep")
            for i in named("pipeline.infer.skip", "pipeline.infer.full")) / len(sweeps)
        out["disturbance.evaluate_ms"] = median_ms(named("disturbance.evaluate_disturbed"))

        saves = named("checkpoint.save_checkpoint")
        out["checkpoint.save_ms"] = median_ms(saves)
        out["checkpoint.load_ms"] = median_ms(named("checkpoint.load_checkpoint"))
        out["checkpoint.bytes"] = statistics.median(self.spans[i][ITEMS] for i in saves)
        out["data.sample_batch_ms"] = out["training.data_ms"]
        return out
