"""Run one workload of the oddcover benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src``.  The
inputs come from the seed alone.  The run takes about S seconds: after
set-up, whole rounds of the workload are drawn and timed until S seconds
have passed since the start (and at least the workload's minimum number of
instances ran), every witness is checked by the benchmark's own checker,
and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with no tracing.  With
``--trace 1`` every instance is solved once plain and once traced, and the
metrics are the per-layer ones; the spans go to ``perfbench/out``.  Any
failed instance makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_SAMPLES = 4  # before the timed loop, and as many after it

sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
from gen import fingerprint  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "edges_per_s": "edges/s",
    "instance_s_p50": "s",
    "instance_s_p90": "s",
    "count_over_lower": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

# Run in a fresh interpreter: import the package and finish its lazy set-up.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import oddcover, oddcover.cli
for entry, n, edges in json.loads(sys.argv[2]):
    getattr(oddcover, entry)(oddcover.Graph(n, [tuple(e) for e in edges]))
print(time.perf_counter() - t0)
"""


def measure_setup(calls: list, samples: int) -> list[float]:
    """Set-up times of fresh interpreters, each after one untimed start
    that fills the bytecode and file caches."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(calls)]
    times = []
    for i in range(samples + 1):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(done.stdout.split()[-1]))
    return times


def machine() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = done.stdout.strip() or sha
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


class Tally:
    """Outcomes of the instances run so far."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.times: list[float] = []
        self.edges = self.count = self.lower = 0

    def add(self, inst, outcome, timed: bool = True) -> None:
        self.attempted += 1
        if outcome.error is not None:
            self.failed += 1
            print(f"FAILED {inst.kind} n={inst.n} m={inst.m}: {outcome.error}", file=sys.stderr)
        if timed:
            self.times.append(outcome.seconds)
            self.edges += inst.m
            self.count += outcome.count
            self.lower += outcome.lower


def run_plain(workload, rounds, runner: Runner, deadline: float, tally: Tally) -> int:
    for done, rnd in enumerate(rounds, 1):
        for inst in rnd:
            tally.add(inst, runner.run(inst))
        if time.perf_counter() >= deadline and len(tally.times) >= workload.min_instances:
            return done


def run_traced(workload, rounds, runner: Runner, deadline: float, tally: Tally, tracer) -> float:
    """Solve each instance plain and traced, alternating which goes first;
    returns traced solve time / plain solve time - 1."""
    plain = traced = 0.0
    for rnd in rounds:
        for inst in rnd:
            tracer.instance = len(tally.times)
            order = (None, tracer) if tracer.instance % 2 == 0 else (tracer, None)
            for t in order:
                outcome = runner.run(inst, t)
                if t is None:
                    plain += outcome.seconds
                    tally.add(inst, outcome)
                else:
                    traced += outcome.seconds
                    tally.add(inst, outcome, timed=False)
        if time.perf_counter() >= deadline and len(tally.times) >= workload.min_instances:
            return traced / plain - 1.0


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "oddcover" / "__init__.py").is_file():
        print(f"oddcover sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    meta = {"workload": workload.name, "seed": args.seed, "fingerprint": fingerprint(workload.head(args.seed))}
    meta.update(machine())

    sys.path.insert(0, str(SRC))
    import oddcover
    import oddcover.cli  # noqa: F401  (the sparse_odd entry point)

    setup_calls = workload.setup_calls(oddcover, args.seed)
    setup_times: list[float] = []
    # Half of the set-up samples are taken after the timed loop, so that
    # setup_s sees the host over the whole run; the loop ends early by as
    # long as the first half took, to leave the second half room.
    t0 = time.perf_counter()
    if args.trace == 0:
        setup_times = measure_setup(setup_calls, SETUP_SAMPLES)
    setup_span = time.perf_counter() - t0

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    try:
        runner = Runner(oddcover, workdir)
        for inst in workload.warm_instances(args.seed):
            tally.add(inst, runner.run(inst), timed=False)
        rounds = workload.rounds(args.seed)
        deadline = start + args.seconds - setup_span
        if args.trace == 0:
            meta["rounds"] = run_plain(workload, rounds, runner, deadline, tally)
        else:
            tracer = spans.Tracer()
            overhead = run_traced(workload, rounds, runner, deadline, tally, tracer)
            spans_file = OUT / f"spans-{workload.name}-seed{args.seed}.csv"
            tracer.write(spans_file)
            meta["spans"] = str(spans_file.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta.update(instances=len(tally.times), failed_frac=tally.failed / tally.attempted)
    if args.trace == 0:
        setup_times += measure_setup(setup_calls, SETUP_SAMPLES)
        times = tally.times
        values = {
            "setup_s": statistics.median(setup_times),
            "edges_per_s": tally.edges / sum(times),
            "instance_s_p50": statistics.median(times),
            "instance_s_p90": statistics.quantiles(times, n=10)[8],
            "count_over_lower": tally.count / tally.lower,
            "ok_frac": 1.0 - tally.failed / tally.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        values = tracer.metrics(len(tally.times), tally.edges, overhead)
        units = spans.per_layer_units()
        if tracer.absent:
            meta["absent"] = tracer.absent
    print("# meta " + json.dumps(meta))
    for name, value in sorted(values.items(), key=lambda kv: (kv[0].count("."), kv[0])):
        print(f"# {name:48s} {value:14.6g} {units[name]}")
    if args.trace == 1:
        top = sorted(
            ((v, k.removesuffix(".self_s")) for k, v in values.items() if k.endswith(".self_s") and k.count(".") > 1),
            reverse=True,
        )
        print("# most self time per instance: " + ", ".join(f"{k} {v * 1e3:.3g} ms" for v, k in top[:5]))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
