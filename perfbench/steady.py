"""Steadiness report: run workloads N times each and print each metric's spread.

Run from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--workloads sim_asha,mux_service] \
        [--trace 0] [--seed0 1] [--out results.json] \
        [-- --inject EventQueue.pop=5]

Runs are interleaved across workloads (one run of each in turn), run ``i``
with seed ``seed0 + i``.  For every metric the report gives the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread ``(q3 - q1) /
median`` against the metric's bound from ``BENCHMARK.json``: ``ok`` when the
spread is within a third of the bound, ``WIDE`` when it is within the bound,
``OVER`` beyond it.  ``--out`` saves every value and diagnostics line.
Arguments after ``--`` are passed to every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int, trace: int, extra: list[str]) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["diagnostics"] = json.loads(lines[-2].removeprefix("# diagnostics "))
    return result


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    extra: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, extra = argv[:cut], argv[cut + 1:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = args.workloads.split(",")

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.seed0 + i
        for workload in workloads:
            result = _run(workload, seed, args.seconds, args.trace, extra)
            runs[workload].append(result)
            status = "ok" if result["correct"] else f"FAILED {result['failed']}"
            print(f"[{i + 1}/{args.runs}] {workload} seed {seed}: {status}", flush=True)

    summary: dict[str, dict] = {}
    for workload, results in runs.items():
        print(f"\n{workload}  ({len(results)} runs)")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        summary[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
            print(f"  {name:34s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.2%} "
                  f"{'' if bound is None else f'{bound:.2f}':>6s} {verdict}")
            summary[workload][name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                                       "values": values}
        summary[workload]["diagnostics"] = [r["diagnostics"] for r in results]
        failed = sum(r["failed"] for r in results)
        print(f"  failed operations: {failed} of {sum(r['attempted'] for r in results)}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
