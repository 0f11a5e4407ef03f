"""The benchmark's three workloads, driven only through public entry points.

* ``sim_asha`` -- ASHA on the PTB-LSTM surrogate with 500 simulated
  workers, through ``SimulatedCluster.run``: the host cost of the paper's
  500-worker regime (search space, surrogate, scheduler, simulator, event
  queue; no journal).
* ``study_journal`` -- one closed-loop client keeping 64 jobs in flight on a
  journal-backed ``Study``, single ``ask``/``tell`` calls, then crash
  recovery with ``Study.resume(mode="restore")`` (study and journal; no
  simulator).
* ``mux_service`` -- 1,000 small journal-backed studies in one
  ``StudyMultiplexer`` with a group-commit write-ahead log (multiplexer,
  WAL, a deep shared event queue; trivial objective and space).

Every round of a run repeats the same seeded inputs, so a round's outputs
must repeat exactly; each workload also checks its outputs against an
independent statement of what they must be.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.backend.simulation import SimulatedCluster
from repro.core import ASHA
from repro.experiments.toys import toy_objective, toy_space
from repro.objectives import ptb_lstm
from repro.study import Journal, Study, StudyMultiplexer
from repro.study.journal import read_wal

from hostclock import SegmentClock

#: sim_asha: workers, horizon in multiples of R, eta and r = R / 64.
SIM_WORKERS = 500
SIM_HORIZON = 2.0
ETA = 4
#: study_journal: jobs the client keeps in flight, tells per round.
JOURNAL_IN_FLIGHT = 64
JOURNAL_TELLS = 10_000
#: mux_service: studies, workers and measurements per study, commit window.
MUX_STUDIES = 1_000
MUX_WORKERS = 2
MUX_MEASUREMENTS = 10
MUX_COMMIT_INTERVAL = 1024
#: mux_service: studies whose journals are checked against the WAL and a
#: solo run, per round.
MUX_CHECKED = 8
#: mux_service: WAL rebuilds timed per round (median reported).
MUX_RECOVERIES = 5
#: Operations per timed segment (see hostclock.SegmentClock): tells for
#: sim_asha and mux_service, client iterations for study_journal, scheduler
#: calls for the journal recovery.  Each makes segments of about 5 ms.
SIM_CUT = 64
JOURNAL_CUT = 64
MUX_CUT = 40
RECOVER_CUT = 256


class TimedStudy(Study):
    """A ``Study`` that times each public ask/tell call the backend makes.

    Timings go into the segment clock's sample lists, and every tell gives
    the clock a chance to cut a segment (between calls, never inside one).
    Told job ids are kept for the exactly-once check.
    """

    def bind(self, clock: SegmentClock, told: list[int]) -> "TimedStudy":
        self._clock = clock
        self._asks = clock.sample_list("ask")
        self._tells = clock.sample_list("tell")
        self._told = told
        return self

    def ask_batch(self, k):
        start = perf_counter()
        jobs = super().ask_batch(k)
        self._asks.append(perf_counter() - start)
        return jobs

    def tell(self, job, loss, *, time=0.0):
        start = perf_counter()
        super().tell(job, loss, time=time)
        self._tells.append(perf_counter() - start)
        self._told.append(job.job_id)
        self._clock.poll()


@dataclass
class Round:
    """What one round measured and produced."""

    jobs: int
    #: Scaled seconds of each timed segment, and of each recovery segment.
    segments: list[float]
    recover: list[float]
    raw_s: float
    digest: str
    #: Names of the checks that failed in this round.
    failures: list[str] = field(default_factory=list)
    checks: int = 0
    info: dict = field(default_factory=dict)
    #: What :meth:`verify` needs; dropped once the round is verified.
    ctx: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(name)


def _digest(measurements) -> str:
    h = hashlib.sha256()
    for m in measurements:
        h.update(repr((m.trial_id, m.resource, m.loss, m.time)).encode())
    return h.hexdigest()


def _on_ladder(resource: float, r_min: float, r_max: float, eta: int) -> bool:
    rung = r_min
    while rung <= r_max * (1 + 1e-12):
        if abs(resource - rung) <= 1e-9 * rung:
            return True
        rung *= eta
    return False


def _ptb_asha(seed: int, cls: type = ASHA) -> ASHA:
    r = ptb_lstm.R
    return cls(
        ptb_lstm.space(), np.random.default_rng(seed),
        min_resource=r / 64.0, max_resource=r, eta=ETA,
    )


class PollingASHA(ASHA):
    """ASHA that lets the segment clock cut between scheduler calls.

    Passed as the scheduler ``Study.resume`` drives, so the recovery, one
    call from the client's side, is timed in segments like everything else.
    """

    def bind(self, clock: SegmentClock) -> "PollingASHA":
        self._poll = clock.poll
        return self

    def next_job(self):
        job = super().next_job()
        self._poll()
        return job

    def report(self, job, loss):
        super().report(job, loss)
        self._poll()


class _PollingItems(dict):
    """The snapshot's trial table, letting the clock cut between trials.

    ``Scheduler.load_state`` restores trials by iterating ``items()``; this
    mapping yields the same items and polls the segment clock after each,
    so the restore, one call from the client's side, is timed in segments.
    """

    def __init__(self, trials: dict, poll) -> None:
        super().__init__(trials)
        self._poll = poll

    def items(self):
        poll = self._poll
        for item in super().items():
            yield item
            poll()


def _comparable(snapshot: dict) -> str:
    """A snapshot as canonical JSON, without the scheduler's class name."""
    state = dict(snapshot, scheduler=dict(snapshot["scheduler"], type=None))
    return json.dumps(state, sort_keys=True)


def _raw_of(clock: SegmentClock, first: int) -> float:
    return sum(raw for raw, _ in clock.segments[first:])


# ---------------------------------------------------------------- sim_asha


class SimAsha:
    name = "sim_asha"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def build(self, round_index: int):
        objective = ptb_lstm.make_objective(seed_salt=self.seed)
        cluster = SimulatedCluster(
            SIM_WORKERS, seed=self.seed, straggler_std=0.2, drop_probability=0.002
        )
        return TimedStudy(_ptb_asha(self.seed)), objective, cluster

    def run_round(self, inputs, clock: SegmentClock) -> Round:
        study, objective, cluster = inputs
        told: list[int] = []
        study.bind(clock, told)
        first = len(clock.segments)
        clock.start(SIM_CUT)
        result = cluster.run(study, objective, time_limit=SIM_HORIZON * ptb_lstm.R)
        segments = clock.stop()
        raw = _raw_of(clock, first)
        # Recovery for an unjournalled study: its JSON snapshot restored onto
        # a fresh same-seed scheduler (the stdlib JSON parse is not timed).
        snapshot = json.dumps(study.snapshot())
        state = json.loads(snapshot)
        scheduler_state = state["scheduler"]
        scheduler_state["trials"] = _PollingItems(scheduler_state["trials"], clock.poll)
        fresh = _ptb_asha(self.seed)
        clock.start(RECOVER_CUT)
        restored = Study.restore(state, scheduler=fresh)
        recover = clock.stop()
        rnd = Round(
            jobs=len(result.measurements), segments=segments, recover=recover,
            raw_s=raw, digest=_digest(result.measurements),
        )
        rnd.info = {"jobs_dispatched": result.jobs_dispatched}
        rnd.ctx = {"told": told, "result": result, "snapshot": snapshot, "restored": restored}
        return rnd

    def verify(self, rnd: Round) -> None:
        told, result = rnd.ctx["told"], rnd.ctx["result"]
        snapshot, restored = rnd.ctx["snapshot"], rnd.ctx["restored"]
        r = ptb_lstm.R
        rnd.check("sim_asha: told count equals measurements", len(told) == rnd.jobs)
        rnd.check("sim_asha: no job told twice", len(set(told)) == len(told))
        rnd.check(
            "sim_asha: every measured resource on the rung ladder",
            all(_on_ladder(m.resource, r / 64.0, r, ETA) for m in result.measurements),
        )
        rnd.check(
            "sim_asha: restored snapshot equals live snapshot",
            json.dumps(restored.snapshot()) == snapshot,
        )


# ----------------------------------------------------------- study_journal


def _loss(seed: int, trial_id: int, resource: float) -> float:
    """Cheap deterministic synthetic loss; the objective is not the subject."""
    h = (trial_id * 2654435761 + int(resource * 64) * 40503 + seed * 97) % 1_000_003
    return 1.0 + h / 1_000_003 + 1.0 / (1.0 + resource)


class StudyJournal:
    name = "study_journal"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def build(self, round_index: int):
        path = os.path.join(self.workdir, f"study_{round_index}.jsonl")
        study = Study(_ptb_asha(self.seed), journal=path)
        return study, path, _ptb_asha(self.seed, PollingASHA)

    def run_round(self, inputs, clock: SegmentClock) -> Round:
        study, path, fresh = inputs
        seed = self.seed
        order = random.Random(seed)
        asks = clock.sample_list("ask")
        tells = clock.sample_list("tell")
        ask, tell, poll = study.ask, study.tell, clock.poll
        told: list[int] = []
        in_flight = []
        first = len(clock.segments)
        clock.start(JOURNAL_CUT)
        for _ in range(JOURNAL_IN_FLIGHT):
            start = perf_counter()
            job = ask()
            asks.append(perf_counter() - start)
            in_flight.append(job)
        for _ in range(JOURNAL_TELLS):
            i = order.randrange(len(in_flight))
            job = in_flight[i]
            in_flight[i] = in_flight[-1]
            in_flight.pop()
            loss = _loss(seed, job.trial_id, job.resource)
            start = perf_counter()
            tell(job, loss)
            mid = perf_counter()
            nxt = ask()
            end = perf_counter()
            tells.append(mid - start)
            asks.append(end - mid)
            told.append(job.job_id)
            in_flight.append(nxt)
            poll()
        segments = clock.stop()
        raw = _raw_of(clock, first)
        study.finalize()
        live = _comparable(study.snapshot())
        fresh.bind(clock)
        clock.start(RECOVER_CUT)
        restored = Study.resume(path, scheduler=fresh, mode="restore")
        recover = clock.stop()
        rnd = Round(
            jobs=len(told), segments=segments, recover=recover, raw_s=raw,
            digest=hashlib.sha256(live.encode()).hexdigest(),
        )
        rnd.info = {
            "journal_bytes": os.path.getsize(path),
            "journal_records": 1 + JOURNAL_IN_FLIGHT + 2 * len(told),
        }
        rnd.ctx = {
            "study": study, "restored": restored, "path": path, "live": live,
            "told": told, "in_flight": in_flight,
        }
        return rnd

    def verify(self, rnd: Round) -> None:
        study, restored, path = rnd.ctx["study"], rnd.ctx["restored"], rnd.ctx["path"]
        live, told, in_flight = rnd.ctx["live"], rnd.ctx["told"], rnd.ctx["in_flight"]
        rnd.check("study_journal: every ask returned a job", None not in in_flight)
        rnd.check("study_journal: no job told twice", len(set(told)) == len(told))
        rnd.check(
            "study_journal: restored snapshot equals live snapshot",
            _comparable(restored.snapshot()) == live,
        )
        rnd.check(
            "study_journal: restore left the in-flight jobs orphaned",
            sorted(j.job_id for j in restored.orphaned_jobs)
            == sorted(j.job_id for j in in_flight),
        )
        restored.close()
        study.close()
        os.remove(path)


# ------------------------------------------------------------- mux_service


def _mux_asha(seed: int, i: int) -> ASHA:
    return ASHA(
        toy_space(), np.random.default_rng([seed, i]),
        min_resource=1.0, max_resource=9.0, eta=3,
    )


class MuxService:
    name = "mux_service"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def build(self, round_index: int):
        directory = os.path.join(self.workdir, f"mux_{round_index}")
        os.makedirs(directory, exist_ok=True)
        wal = os.path.join(directory, "journals.wal")
        mux = StudyMultiplexer(commit_interval=MUX_COMMIT_INTERVAL, wal_path=wal)
        objective = toy_objective()
        studies = []
        for i in range(MUX_STUDIES):
            study = TimedStudy(
                _mux_asha(self.seed, i),
                journal=Journal(os.path.join(directory, f"s{i}.jsonl"), writer=mux.journal_writer),
            )
            mux.add(
                study, objective,
                cluster=SimulatedCluster(MUX_WORKERS, seed=self.seed * 100_003 + i),
                time_limit=200.0, max_measurements=MUX_MEASUREMENTS,
            )
            studies.append(study)
        return mux, studies, directory, wal

    def run_round(self, inputs, clock: SegmentClock) -> Round:
        mux, studies, directory, wal = inputs
        told: list[int] = []
        for study in studies:
            study.bind(clock, told)
        first = len(clock.segments)
        clock.start(MUX_CUT)
        results = mux.run()
        segments = clock.stop()
        raw = _raw_of(clock, first)
        # Each rebuild is one segment; the round reports their median.
        clock.start(1)
        for _ in range(MUX_RECOVERIES):
            rebuilt = read_wal(wal)
            clock.poll()
        recover_s = statistics.median(clock.stop()[:MUX_RECOVERIES])
        h = hashlib.sha256()
        for result in results:
            h.update(_digest(result.measurements).encode())
        jobs = sum(len(result.measurements) for result in results)
        rnd = Round(
            jobs=jobs, segments=segments, recover=[recover_s], raw_s=raw, digest=h.hexdigest()
        )
        rnd.info = {
            "wal_bytes": os.path.getsize(wal),
            "journal_bytes": sum(os.path.getsize(s.journal.path) for s in studies),
            "journal_commits": results.journal_commits,
            "ticks": results.ticks,
        }
        rnd.ctx = {"told": told, "rebuilt": rebuilt, "studies": studies, "directory": directory}
        return rnd

    def verify(self, rnd: Round) -> None:
        told, rebuilt = rnd.ctx["told"], rnd.ctx["rebuilt"]
        studies, directory = rnd.ctx["studies"], rnd.ctx["directory"]
        rnd.check("mux_service: told count equals measurements", len(told) == rnd.jobs)
        rnd.check("mux_service: WAL names every journal", len(rebuilt) == MUX_STUDIES)
        picker = random.Random(self.seed)
        objective = toy_objective()
        for i in sorted(picker.sample(range(MUX_STUDIES), MUX_CHECKED)):
            path = studies[i].journal.path
            with open(path, "rb") as fh:
                on_disk = fh.read()
            rnd.check(f"mux_service: study {i} WAL rebuild byte-exact", rebuilt.get(path) == on_disk)
            solo_path = os.path.join(directory, f"solo{i}.jsonl")
            solo = Study(_mux_asha(self.seed, i), journal=solo_path)
            SimulatedCluster(MUX_WORKERS, seed=self.seed * 100_003 + i).run(
                solo, objective, time_limit=200.0, max_measurements=MUX_MEASUREMENTS
            )
            solo.close()
            with open(solo_path, "rb") as fh:
                rnd.check(f"mux_service: study {i} journal equals its solo run", fh.read() == on_disk)
        shutil.rmtree(directory)


WORKLOADS = {w.name: w for w in (SimAsha, StudyJournal, MuxService)}
