"""kernelblend benchmark: end-to-end workloads and an outside-in traced run.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a kernelblend checkout; it imports the package from
``src/`` and reads ``configs/synthetic-demo.json``. Scratch files (the
checkpoints each pass writes) go under ``.bench_build/`` and are removed on
exit. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a report with the machine, every named figure with its sample count, and
the checks made.

Workloads (closed loop, one caller, one process, BLAS capped at one thread):

  train        training passes of the demo config at batch 16, each from a
               fresh seeded state through the epsilon hold and decay windows
               and past them, ending with one checkpoint save.
  infer_gated  one image at a time through pipeline.infer over the 256-image
               eval set, at the median stage-one confidence, so exactly half
               the images stop after stage one.
  eval_sweep   per pass: load the checkpoint, evaluate at the default
               threshold, sweep the six thresholds, disturb once.

With ``--trace 0`` the metrics are the end-to-end ones. Each is defined on
the workload's own unit of work (a training step, an image, an eval pass):

  setup_s          median of several set-ups (data; for infer_gated and
                   eval_sweep also a short training run and its checkpoint).
  items_per_s      train samples/s, infer images/s, eval-set images per
                   second of eval_sweep passes; median over passes.
  latency_ms_p50   median step, image or pass latency. For infer_gated it is
                   the midpoint of the two path medians (see infer_metrics).

Timings are speed-normalised (see speed.py); the report line also carries
the raw ones and the tail percentiles (train p90, infer p99, eval_sweep
p90), which are reported but not gated: on a shared host their run-to-run
spread is near 10%.

With ``--trace 1`` the workload runs with every public layer function
wrapped (see tracer.py), followed by one traced pass of each other workload
so that every per-layer row is measured, a train-pass probe of the tracing
overhead, and an untraced timing of criterion 1 (``p*t_lm + (1-p)*t_total``).
"""

import os

BLAS_THREADS = 1
# Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedMeter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "infer_gated", "eval_sweep")
REQUIRED = ("BENCHMARK.json", "src/kernelblend/__init__.py", "configs/synthetic-demo.json")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="tiny passes and eval set, for the benchmark's self-test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_cap": BLAS_THREADS,
    }


def run_untraced(W, args, scale, workdir, outcome, info):
    root, seed, seconds = ROOT, args.seed, args.seconds
    with SpeedMeter() as meter:
        if args.workload == "train":
            model, setups = W.timed_setups(root, seed, scale, workdir, outcome, meter,
                                           with_model=False, with_threshold=False)
            outcome.attempted += model.cfg.schedule.total_steps
            reference = W.param_digest(W.train_pass(model.cfg, model.train, model.ckpt))
            figures = W.train_metrics(
                W.train_loop(model, seconds, outcome, reference, meter), meter)
        elif args.workload == "infer_gated":
            model, setups = W.timed_setups(root, seed, scale, workdir, outcome, meter,
                                           with_model=True, with_threshold=True)
            W.infer_pass(model, model.threshold)  # warm-up
            figures = W.infer_metrics(W.infer_loop(model, seconds, outcome, meter), meter)
        else:
            model, setups = W.timed_setups(root, seed, scale, workdir, outcome, meter,
                                           with_model=True, with_threshold=False)
            W.eval_loop(model, seed, 0, outcome, meter)  # warm-up, checked
            figures = W.eval_metrics(W.eval_loop(model, seed, seconds, outcome, meter), meter)
    named = figures.pop("named")
    figures["setup_s"] = statistics.median(meter.normalise(setups))
    named.update(setup_s=figures["setup_s"], setups=len(setups))
    named["raw"]["setup_s"] = statistics.median(u[2] * 1e-9 for u in setups)
    info["speed_probe"] = meter.summary()
    return figures, named


def run_traced(W, args, scale, workdir, outcome, info):
    from tracer import Tracer

    seed = args.seed
    model = W.set_up(ROOT, seed, scale, workdir, with_model=True, with_threshold=True)
    prefixes = {model.cfg.lm.trunk: "lm", model.cfg.bank_spec: "bank"}
    tracer = Tracer(prefixes)
    clock = SpeedMeter()  # not entered: a plain clock, no probes inside spans

    def run(workload: str, seconds: float) -> None:
        if workload == "train":
            W.train_loop(model, seconds, outcome, model.digest, clock)
        elif workload == "infer_gated":
            W.infer_loop(model, seconds, outcome, clock, quiet=tracer.paused)
        else:
            W.eval_loop(model, seed, seconds, outcome, clock, span=tracer.span)

    tracer.install()
    try:
        run(args.workload, args.seconds)
        for other in WORKLOADS:
            if other != args.workload:
                run(other, 0)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(W.layer_madds(model.state), len(model.evalset))

    with SpeedMeter() as meter:
        rates = {False: [], True: []}
        for _ in range(scale.probe_passes):
            for traced in (False, True):
                probe = Tracer(prefixes)
                if traced:
                    probe.install()
                try:
                    res = W.train_loop(model, 0, outcome, model.digest, meter)
                finally:
                    probe.uninstall()
                rates[traced].append(res["samples"] / meter.normalise(res["passes"])[0])
        metrics.update(W.calibrate(model, scale.calibration_reps, meter, outcome))
    delta = statistics.median(rates[True]) - statistics.median(rates[False])
    metrics["trace.samples_per_s_delta"] = delta
    info["trace_overhead"] = {
        "traced_minus_untraced_train_samples_per_s": delta,
        "untraced_train_samples_per_s": statistics.median(rates[False]),
        "passes_each": scale.probe_passes,
    }
    info["speed_probe"] = meter.summary()
    return metrics, {"spans": len(tracer.spans)}


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: {ROOT} is not a kernelblend checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W

    scale = W.TINY if args.tiny else W.FULL
    workdir = ROOT / ".bench_build" / f"kernelblend-{os.getpid()}"
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine()}
    outcome = W.Outcome()
    try:
        if args.trace:
            metrics, named = run_traced(W, args, scale, workdir, outcome, info)
        else:
            metrics, named = run_untraced(W, args, scale, workdir, outcome, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    named["ops_failed"] = outcome.failed / outcome.attempted
    info.update(named=named, checks=outcome.checks, failures=outcome.failures)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json")
    print(json.dumps({"report": info}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
