"""
CPU-speed probe for the measured phases.

The benchmark runs on a few vCPUs of a shared host, whose speed changes by up
to 2x from one few-second stretch to the next.  No interval measured from
outside the process tracks that: a reference loop timed between phases, or
on the other vCPU during a phase, does not correlate with the phase.  So the
probe measures the speed where the work runs.  A CPU-time interval timer
(SIGPROF) interrupts the phase process, and each process it forks, every
`PERIOD` (a set-up: `SETUP_PERIOD`) seconds of CPU.  The handler times `reference()`, a fixed snippet of
pure-Python work in the style of grothpoly's hot loops.  One call takes about
`NOMINAL_S` at the host's nominal speed; taking longer means the vCPU is slow
at that moment.

`nominal_seconds` turns a wall interval plus these samples into the time the
interval would have taken at nominal speed: the integral of the speed factor
`NOMINAL_S / reference time`, averaged over the processes computing at that
moment.  With k workers on k vCPUs, throughput is the sum of their speeds,
so the mean factor rescales the wall time.

Samples of forked workers go to one file per process under `sink_dir`, a
record per sample, so that they survive however the worker ends.
"""
from __future__ import annotations

import os
import signal
import statistics
import struct
import time
from pathlib import Path
from typing import Dict, List, Tuple

# CPU seconds between two samples of one process; the probe costs ~1 % of it.
PERIOD = 0.05
# The same for set-ups, of which the shortest (an import) takes ~50 ms of CPU;
# the probe costs ~6 % of it.
SETUP_PERIOD = 0.01
# Duration of one reference() call at the host's nominal speed: its fast
# state on the 2-vCPU Xeon VM (2.1 GHz) the benchmark was written on, where a
# quiet loop of calls takes 0.56-0.58 ms each.
NOMINAL_S = 0.58e-3
# Width of the time bins over which the speed factor is integrated.
BIN_S = 0.5

_RECORD = struct.Struct("<dd")
_KEYS = tuple(tuple((i * 7 + j * 3) % 5 for j in range(6)) for i in range(24))


def reference() -> int:
    """Fixed interpreted work: componentwise comparisons of small integer
    tuples, dict counting and tuple construction."""
    counts: Dict[tuple, int] = {}
    for a in _KEYS:
        for b in _KEYS:
            if all(x <= y for x, y in zip(a, b)):
                key = tuple(x + y for x, y in zip(a, b))
                counts[key] = counts.get(key, 0) + 1
    return len(counts)


class Probe:
    """Samples (wall time, reference duration) in this process and in every
    process it forks, from start() until stop()."""

    def __init__(self, sink_dir: str, period: float = PERIOD):
        self.sink_dir = Path(sink_dir)
        self.period = period
        self.samples: List[Tuple[float, float]] = []
        self._fd = None
        self._active = False
        os.register_at_fork(after_in_child=self._start_child)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference()
        sample = (start, time.perf_counter() - start)
        if self._fd is None:
            self.samples.append(sample)
        else:
            os.write(self._fd, _RECORD.pack(*sample))

    def _start_child(self) -> None:
        # Interval timers are not inherited across fork; the handler is.
        if self._active:
            self.samples = []
            self._fd = os.open(
                self.sink_dir / f"probe-{os.getpid()}.bin", os.O_WRONLY | os.O_CREAT | os.O_APPEND
            )
            signal.setitimer(signal.ITIMER_PROF, self.period, self.period)

    def start(self) -> None:
        self.sink_dir.mkdir(parents=True, exist_ok=True)
        self._active = True
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._active = False

    def worker_samples(self) -> List[List[Tuple[float, float]]]:
        out = []
        for path in sorted(self.sink_dir.glob("probe-*.bin")):
            data = path.read_bytes()
            out.append([_RECORD.unpack_from(data, i) for i in range(0, len(data) - len(data) % 16, 16)])
        return out

    def measure(self, fn):
        """Run fn() under the probe; return (its result, wall seconds,
        nominal seconds, samples taken)."""
        self.start()
        start = time.perf_counter()
        try:
            result = fn()
            end = time.perf_counter()
        finally:
            self.stop()
        workers = self.worker_samples()
        nominal = nominal_seconds(start, end, self.samples, workers)
        return result, end - start, nominal, len(self.samples) + sum(map(len, workers))


def nominal_seconds(
    start: float,
    end: float,
    main: List[Tuple[float, float]],
    workers: List[List[Tuple[float, float]]] = (),
) -> float:
    """The interval [start, end] rescaled to nominal speed.

    It is cut into BIN_S bins.  In each bin the speed factor is the mean,
    over the workers that sampled in it, of NOMINAL_S / their median
    reference time; where no worker sampled, that of the main process; in a
    bin with no sample at all, that of the bin before.  With no sample in
    the whole interval the wall time is returned unchanged."""
    bins = max(1, int((end - start) / BIN_S + 0.5))
    width = (end - start) / bins

    def binned(samples) -> Dict[int, float]:
        per: Dict[int, List[float]] = {}
        for t, r in samples:
            if start <= t < end and r > 0:
                per.setdefault(min(int((t - start) / width), bins - 1), []).append(r)
        return {k: NOMINAL_S / statistics.median(v) for k, v in per.items()}

    main_f = binned(main)
    worker_f = [binned(w) for w in workers]
    known = [*main_f.values(), *(f for w in worker_f for f in w.values())]
    if not known:
        return end - start
    factor = statistics.median(known)  # until the first sampled bin
    total = 0.0
    for k in range(bins):
        active = [w[k] for w in worker_f if k in w]
        if active:
            factor = sum(active) / len(active)
        elif k in main_f:
            factor = main_f[k]
        total += width * factor
    return total
