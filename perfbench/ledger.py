"""Per-layer time ledger: class-level span wrappers installed from outside.

The traced run wraps the public methods (and the few module functions) each
layer exposes, at class level, and keeps for every wrapped callable its
call count, its self time (span time minus the time of the wrapped calls it
made) and, where a layer metric needs it, a count of units produced or the
list of span durations.  The wrappers' own cost is measured in the same
run on a no-op (:meth:`Tracer.calibrate`) and subtracted: ``c_in`` from
each span's self time, ``c_out`` from its caller's self time for each
wrapped call it made.

``inject`` adds a fixed busy-wait inside one wrapped method -- the
sensitivity self-check: a known slowdown placed in one layer must show in
that layer's ledger row and in ``jobs_per_s`` of a workload that uses the
layer, and nowhere on a workload that bypasses it.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter


def _count_jobs(result) -> int:
    if result is None:
        return 0
    return len(result) if isinstance(result, list) else 1


def _is_empty(result) -> int:
    return 1 if not result else 0


#: (module, class or None for module functions, callables, layer).  Module
#: functions are patched in every module listed after ``|`` too, because the
#: callers bound them by name at import.
SPANS = (
    ("repro.searchspace.space", "SearchSpace", ("sample", "sample_batch"), "searchspace"),
    (
        "repro.objectives.surrogate", "SurrogateObjective",
        ("train", "profile", "initial_state", "cost", "nominal_cost", "cost_multiplier"),
        "objectives",
    ),
    (
        "repro.core.asha", "ASHA",
        ("next_job", "next_job_batch", "report", "report_batch", "is_done",
         "on_job_failed", "on_job_requeued", "on_trial_abandoned", "state_dict", "load_state"),
        "core",
    ),
    (
        "repro.study.study", "Study",
        ("ask", "ask_batch", "tell", "tell_batch", "on_job_failed", "cached_loss",
         "has_cached_loss", "snapshot", "restore", "resume", "finalize"),
        "study",
    ),
    (
        "repro.study.journal", "Journal",
        ("append", "append_batch", "commit", "finalize", "close"),
        "journal",
    ),
    ("repro.study.journal|repro.study.study", None, ("read_journal", "encode_record"), "journal"),
    ("repro.study.journal", "JournalWriter", ("commit", "finalize_all"), "wal"),
    ("repro.study.journal", None, ("read_wal",), "wal"),
    ("repro.study.multiplex", "StudyMultiplexer", ("add", "run"), "multiplex"),
    (
        "repro.backend.events", "EventQueue",
        ("push", "pop", "peek", "peek_time", "discard_next"),
        "events",
    ),
    (
        "repro.backend.simulation", "SimRun",
        ("begin", "schedule_churn", "launch", "fill_round", "kill", "handle_failure",
         "dispatch", "close", "finish"),
        "simulation",
    ),
    ("repro.backend.simulation", "SimulatedCluster", ("run", "_duration", "_drop_time"), "simulation"),
    ("repro.backend.simulation", "_InlineExecution", ("collect", "discard"), "simulation"),
    ("repro.backend.simulation", None, ("drive_runs", "record_report"), "simulation"),
    (
        "repro.backend.checkpoint", "CheckpointStore",
        ("prepare", "starting_state", "run_job", "put", "start_resource", "job_cost",
         "discard", "seed_from_trials"),
        "checkpoint",
    ),
)

LAYERS = tuple(dict.fromkeys(layer for *_, layer in SPANS))

#: Units counted from a call's result, by span key.
UNITS = {
    "ASHA.next_job": _count_jobs,
    "ASHA.next_job_batch": _count_jobs,
    "read_journal": lambda result: len(result[0]),
}
#: Empty-result counts, by span key.
EMPTY = {"ASHA.next_job": _is_empty, "ASHA.next_job_batch": _is_empty}
#: Spans whose individual durations are kept.
DURATIONS = ("JournalWriter.commit", "read_journal", "StudyMultiplexer.add")


def _resolve(spec: str, owner: str | None, name: str):
    """(targets to patch, original callable, descriptor kind)."""
    modules = [importlib.import_module(m) for m in spec.split("|")]
    if owner is None:
        original = getattr(modules[0], name)
        return [m for m in modules if getattr(m, name, None) is original], original, None
    cls = getattr(modules[0], owner)
    for klass in cls.__mro__:
        if name in klass.__dict__:
            raw = klass.__dict__[name]
            break
    else:
        raise AttributeError(f"{owner}.{name} not found")
    if isinstance(raw, (classmethod, staticmethod)):
        return [cls], raw.__func__, type(raw)
    return [cls], raw, None


def busy_wait(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


class _Patches:
    """Installed attribute patches, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object, bool]] = []

    def set(self, target, name: str, value) -> None:
        had = name in vars(target)
        self._undo.append((target, name, vars(target).get(name), had))
        setattr(target, name, value)

    def undo(self) -> None:
        while self._undo:
            target, name, old, had = self._undo.pop()
            if had:
                setattr(target, name, old)
            else:
                delattr(target, name)


def find_span(key: str):
    """(module spec, class, name, layer) of the span named ``key``."""
    for spec, owner, names, layer in SPANS:
        for name in names:
            if (f"{owner}.{name}" if owner else name) == key:
                return spec, owner, name, layer
    raise KeyError(f"unknown span {key!r}; pick one of the ledger's spans")


def install_injection(key: str, seconds: float) -> _Patches:
    """Untraced runs: wrap only ``key`` with a busy-wait of ``seconds``."""
    spec, owner, name, _ = find_span(key)
    targets, original, kind = _resolve(spec, owner, name)

    def slowed(*args, **kwargs):
        busy_wait(seconds)
        return original(*args, **kwargs)

    patches = _Patches()
    value = kind(slowed) if kind is not None else slowed
    for target in targets:
        patches.set(target, name, value)
    return patches


#: Pseudo-span charged with the time no wrapped span is running.
UNATTRIBUTED = "unattributed"


class Tracer:
    """Class-level span wrappers with self-time accounting.

    Time is charged as it passes to the innermost running span (the time
    between two consecutive span entries or exits goes to whichever span
    was innermost), so a span's charge is exactly its self time, and the
    ledger can be closed at any instant: at every segment cut of the clock
    (:meth:`on_cut`) the time charged since the previous cut is scaled by
    that segment's host-speed factor, per layer.  Time outside every span
    is charged to ``UNATTRIBUTED``.

    ``now`` is the clock the spans read; the benchmark passes one that
    skips the host-reference slices so they never land in a span.
    """

    def __init__(self, now, inject: tuple[str, float] | None = None) -> None:
        self.now = now
        self.inject = inject
        #: key -> [calls, raw self seconds, wrapped calls made, units, empties]
        self.stats: dict[str, list] = {UNATTRIBUTED: [0, 0.0, 0, 0, 0]}
        self.layer_of: dict[str, str] = {UNATTRIBUTED: UNATTRIBUTED}
        self.durations: dict[str, list[float]] = {key: [] for key in DURATIONS}
        #: The innermost running span's stats, and when it was last charged.
        self._current = [self.stats[UNATTRIBUTED]]
        self._last = [0.0]
        #: Scaled seconds per layer (plus "unattributed" and "overhead"),
        #: one dict per segment cut since :meth:`reset`.
        self.segments: list[dict[str, float]] = []
        self._closed: dict[str, float] = {}
        self.c_in = 0.0
        self.c_out = 0.0
        self._patches = _Patches()

    def _wrap(self, original, key: str, delay: float):
        now = self.now
        current, last = self._current, self._last
        stat = self.stats.setdefault(key, [0, 0.0, 0, 0, 0])
        durations = self.durations.get(key)
        units = UNITS.get(key)
        empty = EMPTY.get(key)

        def span(*args, **kwargs):
            t0 = now()
            parent = current[0]
            parent[1] += t0 - last[0]
            parent[2] += 1
            current[0] = stat
            last[0] = t0
            try:
                if delay:
                    busy_wait(delay)
                result = original(*args, **kwargs)
            finally:
                t1 = now()
                stat[1] += t1 - last[0]
                stat[0] += 1
                current[0] = parent
                last[0] = t1
                if durations is not None:
                    durations.append(t1 - t0)
            if units is not None:
                stat[3] += units(result)
            if empty is not None:
                stat[4] += empty(result)
            return result

        return span

    def install(self) -> None:
        for spec, owner, names, layer in SPANS:
            for name in names:
                key = f"{owner}.{name}" if owner else name
                targets, original, kind = _resolve(spec, owner, name)
                delay = self.inject[1] if self.inject and self.inject[0] == key else 0.0
                wrapped = self._wrap(original, key, delay)
                value = kind(wrapped) if kind is not None else wrapped
                for target in targets:
                    self._patches.set(target, name, value)
                self.layer_of[key] = layer
        self.calibrate()
        self.reset()

    def uninstall(self) -> None:
        self._patches.undo()

    def calibrate(self, calls: int = 20_000, repeats: int = 7) -> None:
        """Measure the wrapper's own cost per call on a no-op, in this run.

        ``c_in``: what a span around no work reports as its self time.
        ``c_out``: what each wrapped call adds to its caller's self time,
        beyond the cost of the plain call.
        """

        def noop():
            return None

        child = self._wrap(noop, "_calib.child", 0.0)

        def loop_wrapped():
            for _ in range(calls):
                child()

        def loop_plain():
            for _ in range(calls):
                noop()

        parent = self._wrap(loop_wrapped, "_calib.parent", 0.0)
        c_in, c_out = [], []
        for _ in range(repeats):
            for key in ("_calib.child", "_calib.parent"):
                self.stats[key][:] = [0, 0.0, 0, 0, 0]
            self._last[0] = self.now()
            parent()
            start = self.now()
            loop_plain()
            plain = self.now() - start
            c_in.append(self.stats["_calib.child"][1] / calls)
            c_out.append((self.stats["_calib.parent"][1] - plain) / calls)
        self.c_in = statistics.median(c_in)
        self.c_out = statistics.median(c_out)
        del self.stats["_calib.child"], self.stats["_calib.parent"]

    def reset(self) -> None:
        """Zero every count and open a new accounting window."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0, 0, 0]
        for durations in self.durations.values():
            durations.clear()
        self.segments = []
        self._closed = dict.fromkeys((*LAYERS, UNATTRIBUTED, "overhead"), 0.0)
        self._current[0] = self.stats[UNATTRIBUTED]
        self._last[0] = self.now()

    def _totals(self) -> dict[str, float]:
        """Raw seconds charged per layer since :meth:`reset`, wrapper cost
        moved to ``overhead``."""
        current = self._current[0]
        t = self.now()
        current[1] += t - self._last[0]
        self._last[0] = t
        totals = dict.fromkeys(self._closed, 0.0)
        for key, (calls, self_s, child_calls, _, _) in self.stats.items():
            correction = self.c_in * calls + self.c_out * child_calls
            totals[self.layer_of[key]] += self_s - correction
            totals["overhead"] += correction
        return totals

    def on_start(self) -> None:
        """A timed span starts: what was charged since the last cut happened
        outside every timed span, so no segment gets it."""
        self._closed = self._totals()

    def on_cut(self, factor: float) -> None:
        """Close a segment: scale what was charged since the last cut."""
        totals = self._totals()
        closed = self._closed
        self.segments.append({k: (v - closed[k]) * factor for k, v in totals.items()})
        self._closed = totals

    def window(self) -> dict:
        """Counts, durations and per-segment charges since :meth:`reset`."""
        totals = self._totals()
        return {
            "raw": totals,
            "segments": self.segments,
            "calls": {key: stat[0] for key, stat in self.stats.items()},
            "units": {key: stat[3] for key, stat in self.stats.items()},
            "empties": {key: stat[4] for key, stat in self.stats.items()},
            "durations": {key: list(d) for key, d in self.durations.items()},
        }
