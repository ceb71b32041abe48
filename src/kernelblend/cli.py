"""Command-line entry points.

Every subcommand writes machine-readable output under the experiment's
output directory and a short human summary to stdout. Exit code 0 on
success; any failure prints a one-line reason to stderr and returns 1
(argparse itself rejects unknown flags with code 2).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import checkpoint as ck
from . import cost as co
from . import disturbance as di
from . import experiment as ex
from . import synthesis as syn
from .config import ConfigError, load_config, parse_config, read_threshold
from .data import DatasetError
from .training import TrainingDiverged


def _flag_value(text: str, kind, flag: str):
    """``text`` converted by ``kind`` (float or int); a bad value is a
    one-line error that names ``flag``."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{flag}: expected {kind.__name__}, got {text!r}") from None


def _load_from_checkpoint(path):
    """The checkpoint's state, the config it was trained from, and its eval set."""
    state, raw_config = ck.load_checkpoint(path)
    if raw_config is None:
        raise ck.CheckpointError(
            f"checkpoint {path} carries no experiment config; re-save it through `train`")
    cfg = parse_config(raw_config)
    _, evalset = ex.load_dataset(cfg)
    return state, cfg, evalset


def cmd_train(args) -> int:
    cfg = load_config(args.config)

    def log(row):
        print(f"step {row['step']}: loss {row['train_loss']:.4f} "
              f"acc_lm {row['eval_acc_lm']:.3f} acc_full {row['eval_acc_full']:.3f} "
              f"eps {row['epsilon']:.3f}")

    summary = ex.run_train(cfg, log=log)
    print(f"trained {summary['steps']} steps; checkpoint at {summary['checkpoint']}")
    print(f"metrics: {summary['metrics_csv']}")
    return 0


def cmd_eval(args) -> int:
    state, cfg, evalset = _load_from_checkpoint(args.ckpt)
    threshold = (cfg.default_threshold if args.threshold is None
                 else read_threshold(args.threshold, "--threshold"))
    result = ex.evaluate(state, evalset, threshold)
    out = cfg.output_dir / "eval.json"
    ck.write_atomically(out, json.dumps(result, indent=1).encode())
    print(f"threshold {threshold}: accuracy {result['accuracy']:.4f}, "
          f"skip rate {result['skip_rate']:.4f} -> {out}")
    return 0


def cmd_sweep(args) -> int:
    state, cfg, evalset = _load_from_checkpoint(args.ckpt)
    thresholds = cfg.eval_thresholds if args.thresholds is None else [
        read_threshold(_flag_value(t, float, "--thresholds"), "--thresholds")
        for t in args.thresholds.split(",") if t != ""]
    if not thresholds:
        raise ValueError("no thresholds given")
    points = co.sweep(state.lm, state.lm_params, state.bank, state.synth_cfg,
                      evalset, thresholds)
    out = cfg.output_dir / "sweep.csv"
    ck.write_csv(out, ["threshold", "skip_rate", "avg_madds", "accuracy"],
                 [[p.threshold, p.skip_rate, p.avg_madds, p.accuracy] for p in points])
    for p in points:
        print(f"threshold {p.threshold:g}: skip {p.skip_rate:.3f}, "
              f"avg madds {p.avg_madds:.1f}, accuracy {p.accuracy:.4f}")
    print(f"-> {out}")
    return 0


def cmd_disturb(args) -> int:
    state, cfg, evalset = _load_from_checkpoint(args.ckpt)
    model = (state.lm, state.lm_params, state.bank, state.synth_cfg)
    seeds = args.seeds if args.seeds is not None else cfg.disturbance_seeds
    if seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {seeds}")

    if args.layer == "all":
        layers = range(state.bank.spec.num_layers)
        labels = [f"L{layer}" for layer in layers]
    elif args.layer is None:
        layers, labels = [None], [args.kind]
    else:
        layers = [_flag_value(args.layer, int, "--layer")]
        labels = [f"{args.kind}@L{layers[0]}"]

    reference = di.evaluate_disturbed(*model, evalset, di.Disturbance("correct"))
    stats = di.seed_average(*model, evalset, args.kind, layers, seeds)
    rows = [("correct", reference, 0.0)] + [
        (label, accuracy, accuracy - reference) for label, (accuracy, _) in zip(labels, stats)]

    out = cfg.output_dir / "disturbance.csv"
    ck.write_csv(out, ["kind_or_layer", "accuracy", "delta_vs_correct"], rows)
    for name, acc, delta in rows:
        print(f"{name}: accuracy {acc:.4f} ({delta:+.4f})")
    print(f"-> {out}")
    return 0


def cmd_cost(args) -> int:
    cfg = load_config(args.config)
    bank = syn.build_bank(cfg.bank_spec, cfg.n_bases, cfg.shared_layers, cfg.seed)
    report = co.full_cost(cfg.lm, bank)
    text = json.dumps(dataclasses.asdict(report), indent=1)
    ck.write_atomically(cfg.output_dir / "cost.json", text.encode())
    print(text)
    return 0


def cmd_export_coeffs(args) -> int:
    state, cfg, evalset = _load_from_checkpoint(args.ckpt)
    count = ex.export_coefficients(state, evalset, args.out)
    print(f"wrote {count} coefficient rows for {len(evalset)} images -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelblend",
        description="Two-stage dynamic-convolution experiments: train, evaluate, "
                    "sweep termination thresholds, disturb coefficients, price configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint at one threshold")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="accuracy/cost across termination thresholds")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--thresholds", help="comma-separated list (default: eval.thresholds)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("disturb", help="corrupt coefficients and measure accuracy")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--kind", required=True, choices=list(di.KINDS))
    p.add_argument("--layer", default=None, help="layer index, or 'all' for a per-layer sweep")
    p.add_argument("--seeds", type=int, help="seeds to average (default: eval.disturbance_seeds)")
    p.set_defaults(fn=cmd_disturb)

    p = sub.add_parser("cost", help="print the itemized cost report for a config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("export-coeffs", help="dump per-image coefficients to CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export_coeffs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DatasetError, ck.CheckpointError, ValueError, OSError,
            TrainingDiverged, AssertionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
