"""Machine-speed normalisation for timings taken on a noisy shared host.

On a small virtual machine the speed of a core drifts by tens of percent
over a few hundred milliseconds, as neighbours on the host come and go, so
raw timings of identical work differ by ~25% from one run to the next. The
meter runs a fixed reference kernel (pure numpy, no kernelblend code) from
an interval-timer signal every ``INTERVAL_S`` while the workload runs. A
unit of work is then reported twice: its raw time, and its time scaled by
``REFERENCE_PROBE_NS / probe time`` around it, i.e. the time it would take
on a machine where the probe takes exactly ``REFERENCE_PROBE_NS``. Time
spent inside the probe is subtracted from the unit it interrupted.

The kernel is benchmark code, but it runs in the workload's process and so
shares its caches, allocator and interpreter. Its working set is small and
warmed before it is timed, which keeps the cache state a workload leaves
behind out of the probe's time. Checked on a 2-vCPU Intel Xeon VM by adding
known extra work to every ``synthesis.synthesize`` call (calling it twice,
or streaming 16 MB through the caches first) in alternating passes of one
process: the normalised, raw and CPU-time slowdowns agreed (``train``:
1.075/1.075/1.072 and 1.60/1.58/1.56; ``infer_gated``: 1.054/1.048/1.070;
medians of 24 to 130 pass pairs). Across whole runs the normalised figures
showed the doubled synthesis at least at that size (``train`` step time
x1.10, ``infer_gated`` latency x1.05), while the raw ones, dominated by the
host's speed, even read it as a speed-up on ``train``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter_ns

import numpy as np

INTERVAL_S = 0.02
# About the probe's time at full speed on a 2-vCPU Intel Xeon VM (Python
# 3.11, numpy 2.4, one BLAS thread). It only sets the scale of the
# normalised figures, so it must never change.
REFERENCE_PROBE_NS = 500_000
WINDOW_NS = 60_000_000  # probes this close to a unit estimate its speed
_REPS = 5


class SpeedMeter:
    """Interleaves the reference probe with the workload while entered.

    Outside a ``with`` block no probe runs and ``clock``/``elapsed`` are a
    plain wall clock, which is what traced runs use."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((1, 3, 14, 14))
        self._k = rng.standard_normal((3, 3, 3, 3))
        self.starts: list[int] = []
        self.durations: list[int] = []
        self.probe_ns = 0  # total time spent probing, read by clock()
        self._previous = None

    def _kernel(self, reps: int) -> None:
        for _ in range(reps):
            w = np.lib.stride_tricks.sliding_window_view(self._x, (3, 3), axis=(2, 3))
            out = np.einsum("bcijkl,ockl->boij", w, self._k)
            np.maximum(out, 0.0, out=out)
            if not np.isfinite(out).all():
                raise FloatingPointError("speed probe produced a non-finite value")

    def _on_alarm(self, signum, frame) -> None:
        begin = perf_counter_ns()
        # The workload may have evicted the probe's small working set from
        # the caches; an untimed repetition brings it back, so the timed ones
        # measure the core's speed and not the cache state the workload left.
        self._kernel(1)
        t0 = perf_counter_ns()
        self._kernel(_REPS)
        end = perf_counter_ns()
        self.starts.append(t0)
        self.durations.append(end - t0)
        self.probe_ns += end - begin

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> tuple[int, int]:
        """A timestamp pair for ``elapsed``: (wall ns, probe ns so far)."""
        return perf_counter_ns(), self.probe_ns

    def elapsed(self, start: tuple[int, int]) -> tuple[int, int, int]:
        """(begin ns, end ns, work ns) of the unit begun at ``start``."""
        end = perf_counter_ns()
        return start[0], end, (end - start[0]) - (self.probe_ns - start[1])

    def normalise(self, units: list[tuple[int, int, int]]) -> list[float]:
        """Work seconds of each unit scaled to the reference probe time."""
        if not self.durations:
            raise RuntimeError("no speed probe ran; the measured work was too short")
        out = []
        for begin, end, work in units:
            lo = bisect.bisect_left(self.starts, begin - WINDOW_NS)
            hi = bisect.bisect_right(self.starts, end + WINDOW_NS)
            if lo == hi:  # no probe near the unit: take the closest one
                lo = min(max(lo - 1, 0), len(self.starts) - 1)
                hi = lo + 1
            # probes are evenly spaced in time, so the mean of their speeds is
            # the unit's mean speed even when the speed changed during it
            speed = statistics.fmean(1.0 / d for d in self.durations[lo:hi])
            out.append(work * 1e-9 * REFERENCE_PROBE_NS * speed)
        return out

    def summary(self) -> dict:
        return {"probes": len(self.durations),
                "probe_ms_p50": statistics.median(self.durations) * 1e-6 if self.durations else None,
                "interval_ms": INTERVAL_S * 1e3}
