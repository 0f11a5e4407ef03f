"""Host-speed reference and the segment clock that scales timings by it.

A shared 2-core VM drifts in speed by tens of percent, so raw timings of
identical code differ more between runs than the changes the benchmark must
see.  The remedy is to measure the host alongside the program: the timed
phase is cut into short segments, a fixed reference slice runs between
segments (outside every timing), and each segment's time is scaled by
``REF_NOMINAL_S / mean(reference slice before, reference slice after)``.  A
scaled second is a second on a host whose reference slice takes exactly
``REF_NOMINAL_S``.

The host's speed decorrelates within milliseconds (1 ms slices measured on
a 2-core VM: lag-1 correlation 0.63, 0.35 at 10 ms, 0.28 at 40 ms), so the
workloads cut segments of a few milliseconds and the slice is about 1 ms.

This module imports nothing from ``repro``: a change to the program cannot
move the reference.  The slice has a small fixed working set and runs under
whatever garbage-collector state the timed code runs under (the simulator
and the multiplexer pause the collector; the study_journal client does not).
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

#: What one reference slice is declared to take.  The loop below takes about
#: this long between workload segments on a 2-core x86-64 VM running CPython
#: 3.11 (it runs faster when repeated back to back, with warm caches).
REF_NOMINAL_S = 0.001
#: Fixed iteration count of the reference slice.
REF_ITERATIONS = 90
#: Reference slices run on each side of a single call that cannot be cut.
FLANK_SLICES = 8

_RECORD = {"kind": "tell", "job_id": 17, "loss": 2.5, "config": [1, 2, 3]}
_VALUES = tuple((i * 7919) % 101 for i in range(40))


class _Point:
    __slots__ = ("v",)

    def __init__(self, v: int) -> None:
        self.v = v

    def shifted(self, x: int) -> int:
        return self.v + x


def reference_slice() -> float:
    """Run the fixed reference work once; returns its raw duration in seconds.

    Each step runs a little of many kinds of code -- canonical JSON
    encoding, a sort, a dict build, an object with a method call, string
    formatting -- because the workloads' speed follows the host's only as
    closely as the reference's code resembles theirs: against the same
    simulator and multiplexer rounds in three processes on a 2-core VM, a
    tight integer loop left a 12-20% range between rounds after scaling,
    this mix 6-10%.  Every object it makes dies within its step.
    """
    dumps, values, record = json.dumps, _VALUES, _RECORD
    acc = 0
    start = perf_counter()
    for i in range(REF_ITERATIONS):
        acc += len(dumps(record, sort_keys=True))
        acc += sorted(values)[i % 40]
        table = {j: j * 2 for j in range(16)}
        acc += table[i % 16]
        acc += _Point(i).shifted(3)
        acc += len(f"{i}:{acc % 97}")
    elapsed = perf_counter() - start
    if acc < 0:  # keeps the result live; never true
        raise AssertionError("reference slice arithmetic broke")
    return elapsed


class SegmentClock:
    """Host-speed-scaled timing of a span cut into short segments.

    ``start(every)`` opens the first segment; ``poll()``, called by the
    workload between operations, closes the current segment after every
    ``every`` polls and opens the next after a reference slice; ``stop()``
    closes the last one and returns the span's per-segment scaled seconds.
    Each segment's raw time is multiplied by its factor ``REF_NOMINAL_S /
    mean(adjacent slices)``.

    Segments end after a fixed number of operations, not of seconds, so a
    workload that repeats the same seeded inputs cuts the same segments in
    every round, and a run can take, segment by segment, the median over its
    rounds: a preemption that hits one segment, or one of its reference
    slices, in one round then moves nothing.

    At every cut the clock records the length of each list from
    :meth:`sample_list`, so per-call samples (latencies) are scaled by the
    factor of the segment they fell in.
    """

    def __init__(self) -> None:
        #: Raw reference slice durations, in run order (diagnostic).
        self.refs: list[float] = []
        #: Per closed segment: (raw seconds, scale factor).
        self.segments: list[tuple[float, float]] = []
        #: Sample lists whose entries are scaled per segment.
        self.samples: dict[str, list[float]] = {}
        self._cuts: list[dict[str, int]] = []
        self._t0 = 0.0
        self._every = 0
        self._left = 0
        self._running = False
        #: Raw seconds spent in reference slices while the clock ran.
        self.excluded = 0.0
        #: Called at each span start and with each closed segment's factor
        #: (the traced ledger).
        self.on_start = None
        self.on_cut = None

    def sample_list(self, name: str) -> list[float]:
        """A list the caller appends raw per-call seconds to."""
        return self.samples.setdefault(name, [])

    def _ref(self) -> float:
        t = reference_slice()
        self.refs.append(t)
        return t

    def start(self, every: int) -> None:
        if self._running:
            raise RuntimeError("segment clock already running")
        self._first = len(self.segments)
        self._every = self._left = every
        self._before = self._ref()
        self._running = True
        if self.on_start is not None:
            self.on_start()
        self._t0 = perf_counter()

    def poll(self) -> None:
        self._left -= 1
        if not self._left:
            self._left = self._every
            self._cut(perf_counter())
            self._t0 = perf_counter()

    def _cut(self, now: float) -> None:
        raw = now - self._t0
        after = self._ref()
        factor = REF_NOMINAL_S / ((self._before + after) * 0.5)
        self.segments.append((raw, factor))
        self._cuts.append({name: len(lst) for name, lst in self.samples.items()})
        self._before = after
        self.excluded += perf_counter() - now
        if self.on_cut is not None:
            self.on_cut(factor)

    def stop(self) -> list[float]:
        """Close the last segment; returns this span's scaled segment seconds."""
        if not self._running:
            raise RuntimeError("segment clock not running")
        self._cut(perf_counter())
        self._running = False
        return [raw * factor for raw, factor in self.segments[self._first:]]

    def now(self) -> float:
        """Raw time with reference slices removed (for the tracer)."""
        return perf_counter() - self.excluded

    def factors(self) -> list[float]:
        return [factor for _, factor in self.segments]

    def scaled_samples(self, name: str) -> list[float]:
        """Every sample of ``name`` scaled by its segment's factor."""
        raw = self.samples.get(name, [])
        out: list[float] = []
        lo = 0
        for (_, factor), cut in zip(self.segments, self._cuts):
            hi = cut.get(name, 0)
            out.extend(value * factor for value in raw[lo:hi])
            lo = hi
        if lo < len(raw):
            # Samples taken after the final cut: scale by the last factor.
            factor = self.segments[-1][1] if self.segments else 1.0
            out.extend(value * factor for value in raw[lo:])
        return out

    def ref_stats(self) -> tuple[float, float]:
        """(median raw slice in µs, interquartile range as a share of it)."""
        if len(self.refs) < 2:
            only = self.refs[0] * 1e6 if self.refs else 0.0
            return only, 0.0
        q1, q2, q3 = statistics.quantiles(self.refs, n=4)
        return q2 * 1e6, (q3 - q1) / q2


def scaled_call(fn):
    """Run ``fn()``, which cannot be cut, between ``FLANK_SLICES`` reference
    slices on each side; returns (result, scaled seconds, raw seconds)."""
    refs = [reference_slice() for _ in range(FLANK_SLICES)]
    start = perf_counter()
    result = fn()
    raw = perf_counter() - start
    refs.extend(reference_slice() for _ in range(FLANK_SLICES))
    return result, raw * REF_NOMINAL_S / statistics.fmean(refs), raw
