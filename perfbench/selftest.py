"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Runs run.py with ``--tiny`` on each workload, untraced and traced, and
asserts that every metric BENCHMARK.json names is emitted with its unit,
that every named figure, machine field and correctness check is reported,
and that all checks passed. It also runs the benchmark in a directory that
holds only BENCHMARK.json and the benchmark's files, where it must fail
without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MACHINE = {"nproc", "cpu_model", "python", "numpy", "blas", "blas_threads_cap"}
NAMED = {
    "train": {"train.samples_per_s", "train.step_ms_p50", "train.step_ms_p90"},
    "infer_gated": {"infer.images_per_s", "infer.latency_ms_p50", "infer.latency_ms_p99",
                    "infer.accuracy"},
    "eval_sweep": {"eval_sweep.pass_s"},
}
CHECKS = {
    "train": {"train.same_seed_bitwise_params"},
    "infer_gated": {"infer.skip_rate_is_half", "infer.terminated_iff_confident",
                    "infer.madds_closed_form", "infer.logits_equal_batched_specialist"},
    "eval_sweep": {"eval.sweep_closed_form", "eval.sweep_at_0_is_lm_accuracy",
                   "eval.sweep_at_1.01_is_full_accuracy", "eval.skip_rate_non_increasing"},
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, report["failures"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m, got)
        if "bound" in m:
            assert got["value"] > 0, (m, got)

    assert MACHINE <= set(report["machine"]), report["machine"]
    assert report["named"]["ops_failed"] == 0
    if trace:
        assert "trace_overhead" in report
        for checks in CHECKS.values():  # the traced run covers every workload
            assert checks <= set(report["checks"]), report["checks"]
    else:
        assert NAMED[workload] <= set(report["named"]), report["named"]
        assert CHECKS[workload] <= set(report["checks"]), report["checks"]
    print(f"ok  {workload:12s} trace={trace}  attempted={result['attempted']}")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark's paths: must fail, print no result."""
    bare = ROOT / ".bench_build" / f"selftest-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "train", 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory fails without a result")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
