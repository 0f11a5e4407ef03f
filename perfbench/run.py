"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim_asha --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (host-speed-scaled, see
``hostclock.py``); ``--trace 1`` runs one untraced round and then traced
rounds, and prints the per-layer ledger (see ``ledger.py``).  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it (``# diagnostics ...``) carries raw, unscaled figures,
sample counts and input sizes.  ``--inject SPAN=MICROSECONDS`` adds a fixed
busy-wait inside one ledger span (the sensitivity self-check; off by
default).

``setup_s`` is measured in fresh child processes (``--setup-probe``), each
timing the imports plus the construction of one round's inputs between two
reference slices; the median of ``SETUP_PROBES`` children is reported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sim_asha", "study_journal", "mux_service")

#: Child processes timing import + construction; the median is reported.
SETUP_PROBES = 3
#: Fewest timed rounds per run, however long they take.  Every run first
#: plays one untimed warm-up round: the first round in a process pays for
#: growing the heap and is 5-10% slower than the rest.
MIN_ROUNDS = 3


def _metrics(values: dict, kind: str) -> dict:
    """The ``kind`` metrics of BENCHMARK.json (names and units), valued."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default=None, metavar="SPAN=MICROSECONDS")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.inject is not None:
        span, _, micros = args.inject.partition("=")
        try:
            args.inject = (span, float(micros) * 1e-6)
        except ValueError:
            parser.error("--inject takes SPAN=MICROSECONDS, e.g. EventQueue.pop=5")
    return args


def _import_program() -> None:
    """Put the checkout's sources on the path; fail loudly if they are absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"error: no program sources at {os.path.relpath(SRC)}; run from a full checkout")
    sys.path[:0] = [SRC, HERE]


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


# -------------------------------------------------------------- set-up time


def _setup_probe(workload: str, seed: int, workdir: str) -> None:
    """Child process: time imports plus one round's construction."""
    sys.path.insert(0, HERE)
    from hostclock import scaled_call

    def setup():
        _import_program()
        import workloads

        return workloads.WORKLOADS[workload](seed, workdir).build(0)

    _, scaled, raw = scaled_call(setup)
    print(json.dumps({"raw_s": raw, "scaled_s": scaled}))


def _measure_setup(workload: str, seed: int, workdir: str) -> list[dict]:
    samples = []
    for k in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe{k}")
        os.makedirs(probe_dir)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=probe_dir, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"setup probe {k} exited with {proc.returncode}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir)
    return samples


# ------------------------------------------------------------------- rounds


class Tally:
    """Checks across a whole run: each check is one attempted operation."""

    def __init__(self) -> None:
        self.jobs = 0
        self.checks = 0
        self.failures: list[str] = []

    def add_round(self, rnd) -> None:
        self.jobs += rnd.jobs
        self.checks += rnd.checks
        self.failures.extend(rnd.failures)

    def check(self, name: str, ok: bool) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(name)

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.jobs + self.checks,
            "failed": len(self.failures),
            "metrics": metrics,
        }


def _repeat_checks(tally: Tally, rounds, name: str) -> None:
    tally.check(f"{name}: outputs repeat exactly across rounds",
                len({(r.digest, r.jobs) for r in rounds}) == 1)
    tally.check(f"{name}: every round cut the same segments",
                len({(len(r.segments), len(r.recover)) for r in rounds}) == 1)


def combine(spans: list[list[float]]) -> float:
    """Scaled seconds of a span repeated in every round: the sum, over its
    segments, of each segment's median across the rounds."""
    return sum(statistics.median(column) for column in zip(*spans))


def _one_round(bench, clock, tally: Tally, index: int, hooks=None):
    """Build, run and verify one round.

    ``hooks`` (traced runs) is told when the inputs are built, when the
    timed phase starts, and when it and the recovery have ended, so the
    ledger's windows hold only the work it attributes.
    """
    inputs = bench.build(index)
    if hooks is not None:
        hooks.built()
    gc.collect()
    if hooks is not None:
        hooks.started()
    rnd = bench.run_round(inputs, clock)
    if hooks is not None:
        hooks.ran()
    del inputs
    bench.verify(rnd)
    rnd.ctx = {}
    tally.add_round(rnd)
    return rnd


def _run_untraced(bench, args, workdir: str, tally: Tally):
    from hostclock import SegmentClock

    setups = _measure_setup(args.workload, args.seed, workdir)
    patches = None
    if args.inject is not None:
        import ledger

        patches = ledger.install_injection(*args.inject)
    clock = SegmentClock()
    rounds = []
    try:
        warmup = _one_round(bench, SegmentClock(), tally, 0)
        deadline = perf_counter() + args.seconds
        while len(rounds) < MIN_ROUNDS or perf_counter() < deadline:
            rounds.append(_one_round(bench, clock, tally, len(rounds) + 1))
            if len(rounds) == 1:
                # After a fixed amount of work: the program keeps up to 64
                # finished studies alive (backend.trial_runner's report
                # plumbing cache), so the high-water mark grows with the
                # number of rounds, which depends on the host's speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if patches is not None:
            patches.undo()
    _repeat_checks(tally, [warmup, *rounds], args.workload)

    asks = clock.scaled_samples("ask")
    tells = clock.scaled_samples("tell")
    values = {
        "setup_s": statistics.median(s["scaled_s"] for s in setups),
        "jobs_per_s": rounds[0].jobs / combine([r.segments for r in rounds]),
        "peak_rss_mb": peak_rss_mb,
        "ask_p50_us": statistics.median(asks) * 1e6,
        "tell_p50_us": statistics.median(tells) * 1e6,
        "recover_s": combine([r.recover for r in rounds]),
    }
    ref_p50, ref_iqr = clock.ref_stats()
    diagnostics = {
        "rounds": len(rounds),
        "jobs_per_round": rounds[0].jobs,
        "raw_jobs_per_s": statistics.median(r.jobs / r.raw_s for r in rounds),
        "round_jobs_per_s": [round(r.jobs / sum(r.segments), 1) for r in rounds],
        "raw_setup_s": statistics.median(s["raw_s"] for s in setups),
        "setup_probes": [round(s["scaled_s"], 4) for s in setups],
        "ask_samples": len(asks),
        "tell_samples": len(tells),
        # Per-call tails: they repeat only within 10-25% between runs, so
        # they are not gated (see README.md).
        "ask_p99_us": _percentile(asks, 99) * 1e6,
        "tell_p99_us": _percentile(tells, 99) * 1e6,
        "segments": len(clock.segments),
        "ref_slice_us_p50": ref_p50,
        "ref_slice_iqr": ref_iqr,
        "scale_factor_range": [min(clock.factors()), max(clock.factors())],
        **rounds[0].info,
    }
    if args.inject is not None:
        diagnostics["inject"] = [args.inject[0], args.inject[1] * 1e6]
    metrics = _metrics(values, "end_to_end")
    return metrics, diagnostics


# ------------------------------------------------------------------- ledger


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ledger_counts(window: dict, build: dict, rnd, factor: float) -> dict:
    """The ledger's counts and per-call figures for one traced round."""
    jobs = rnd.jobs
    calls, units, empties = window["calls"], window["units"], window["empties"]
    asks = calls["ASHA.next_job"] + calls["ASHA.next_job_batch"]
    events = sum(calls[f"EventQueue.{op}"] for op in ("push", "pop", "peek", "peek_time", "discard_next"))
    commits = window["durations"]["JournalWriter.commit"]
    reads = sum(window["durations"]["read_journal"])
    adds = build["durations"]["StudyMultiplexer.add"]
    return {
        "searchspace.samples_per_job": calls["SearchSpace.sample"] / jobs,
        "objectives.train_calls_per_job": calls["SurrogateObjective.train"] / jobs,
        "core.jobs_per_ask_call": _ratio(units["ASHA.next_job"] + units["ASHA.next_job_batch"], asks),
        "core.empty_ask_ratio": _ratio(empties["ASHA.next_job"] + empties["ASHA.next_job_batch"], asks),
        "journal.bytes_per_job": rnd.info.get("journal_bytes", 0) / jobs,
        "journal.appends_per_job": (calls["Journal.append"] + calls["Journal.append_batch"]) / jobs,
        "journal.read_us_per_record": _ratio(reads * factor * 1e6, units["read_journal"]),
        "wal.commit_us_p50": statistics.median(commits) * factor * 1e6 if commits else 0.0,
        "wal.commits_per_kjob": len(commits) / jobs * 1000.0,
        "wal.bytes_per_commit": _ratio(rnd.info.get("wal_bytes", 0), len(commits)),
        "multiplex.add_us_per_study": _ratio(sum(adds) * factor * 1e6, len(adds)),
        "events.ops_per_job": events / jobs,
        "events.stale_ratio": _ratio(calls["EventQueue.discard_next"],
                                     calls["EventQueue.pop"] + calls["EventQueue.discard_next"]),
        "simulation.fill_rounds_per_job": calls["SimRun.fill_round"] / jobs,
        "simulation.failed_job_ratio": _ratio(calls["SimRun.handle_failure"], calls["SimRun.launch"]),
    }


def _ledger_times(windows: list[dict], jobs: int, traced_s: float, base_s: float) -> dict:
    """Per-layer self time per job from the traced rounds' scaled segment
    charges (per segment, the median across rounds), plus the accounting
    diagnostics against the untraced round's scaled time ``base_s``."""
    import ledger

    names = (*ledger.LAYERS, ledger.UNATTRIBUTED)
    charged = {
        name: combine([[seg[name] for seg in w["segments"]] for w in windows]) for name in names
    }
    accounted = sum(charged.values())
    row = {f"{layer}.self_us_per_job": charged[layer] / jobs * 1e6 for layer in ledger.LAYERS}
    row.update({
        "trace.overhead_x": traced_s / base_s,
        "trace.unattributed_share": charged[ledger.UNATTRIBUTED] / accounted,
        "trace.accounted_x": accounted / base_s,
    })
    return row


def _mean_factor(clock, first: int) -> float:
    factors = [f for _, f in clock.segments[first:]]
    return statistics.fmean(factors)


class _TracerWindows:
    """Round hooks: the tracer's window over the build, then over the
    timed phase and recovery."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def built(self) -> None:
        self.build = self.tracer.window()

    def started(self) -> None:
        self.tracer.reset()

    def ran(self) -> None:
        self.run = self.tracer.window()


def _run_traced(bench, args, tally: Tally):
    import ledger
    from hostclock import SegmentClock

    clock = SegmentClock()
    deadline = perf_counter() + args.seconds
    warmup = _one_round(bench, SegmentClock(), tally, 0)
    first = len(clock.segments)
    base = _one_round(bench, clock, tally, 1)
    base_s = combine([base.segments + base.recover])
    base_raw_jobs_per_s = base.jobs / base.raw_s

    tracer = ledger.Tracer(clock.now, inject=args.inject)
    tracer.install()
    clock.on_start, clock.on_cut = tracer.on_start, tracer.on_cut
    hooks = _TracerWindows(tracer)
    traced, windows, counts = [], [], []
    try:
        while not traced or perf_counter() < deadline:
            tracer.reset()
            first = len(clock.segments)
            rnd = _one_round(bench, clock, tally, len(traced) + 2, hooks)
            traced.append(rnd)
            windows.append(hooks.run)
            counts.append(_ledger_counts(hooks.run, hooks.build, rnd, _mean_factor(clock, first)))
    finally:
        clock.on_start = clock.on_cut = None
        tracer.uninstall()
    _repeat_checks(tally, [warmup, base, *traced], f"{args.workload} (traced and untraced)")

    ref_p50, ref_iqr = clock.ref_stats()
    values = {name: statistics.median(row[name] for row in counts) for name in counts[0]}
    traced_s = combine([r.segments + r.recover for r in traced])
    values.update(_ledger_times(windows, base.jobs, traced_s, base_s))
    values.update({
        "host.ref_slice_us_p50": ref_p50,
        "host.ref_slice_iqr": ref_iqr,
        "host.raw_jobs_per_s": base_raw_jobs_per_s,
    })
    metrics = _metrics(values, "per_layer")
    diagnostics = {
        "traced_rounds": len(traced),
        "jobs_per_round": base.jobs,
        "wrapper_c_in_ns": tracer.c_in * 1e9,
        "wrapper_c_out_ns": tracer.c_out * 1e9,
        "base_scaled_s": base_s,
        "traced_scaled_s": traced_s,
        "ledger_raw_s": hooks.run["raw"],
    }
    if args.inject is not None:
        diagnostics["inject"] = [args.inject[0], args.inject[1] * 1e6]
    return metrics, diagnostics


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, os.getcwd())
        return 0
    _import_program()
    import workloads

    if args.inject is not None:
        import ledger

        ledger.find_span(args.inject[0])  # an unknown span fails before any work

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tally = Tally()
    try:
        bench = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, diagnostics = _run_traced(bench, args, tally)
        else:
            metrics, diagnostics = _run_untraced(bench, args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is using it
    if tally.failures:
        diagnostics["failed_checks"] = tally.failures
    print("# diagnostics " + json.dumps(diagnostics, sort_keys=True))
    print(json.dumps(tally.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
