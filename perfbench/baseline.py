"""Run every workload over several seeds, twice, and record the baseline.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 28

For each workload this runs ``run.py --trace 0`` once per seed, then the
same seeds again as a second set, then one ``--trace 1`` run on the first
seed.  For each end-to-end metric it prints the median and spread of each
set (the distance between the first and third quartiles as a share of the
median) and how far the second median is from the first, as a share of
the first, next to the metric's bound in ``BENCHMARK.json``.  Everything,
with the machine, the input fingerprints and the wall time of every run
and the traced per-layer table, goes to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "baseline.json"
SETS = 2
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    meta = json.loads(next(line for line in lines if line.startswith("# meta "))[7:])
    meta["wall_s"] = time.perf_counter() - start
    return meta, json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=28)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    doc: dict = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for name in WORKLOADS:
        sets = []
        for _ in range(SETS):
            metas, values = [], {}
            for seed in args.seeds:
                meta, result = run(name, seed, args.seconds, 0)
                metas.append(meta)
                for metric, v in result["metrics"].items():
                    values.setdefault(metric, []).append(v["value"])
            sets.append({"runs": metas, "end_to_end": {m: spread(v) for m, v in values.items()}})
        print(name)
        drift = {}
        for metric, first in sets[0]["end_to_end"].items():
            second = sets[1]["end_to_end"][metric]
            drift[metric] = (second["median"] - first["median"]) / first["median"]
            print(f"  {metric:18s} median {first['median']:11.5g} {second['median']:11.5g}"
                  f"  spread {first['spread']:.3f} {second['spread']:.3f}"
                  f"  drift {drift[metric]:+.3f}  bound {bounds[metric]}")
        meta, result = run(name, args.seeds[0], args.seconds, 1)
        traced = {"meta": meta, "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
        print(f"  trace.overhead_frac {traced['per_layer']['trace.overhead_frac']:+.4f}")
        doc["workloads"][name] = {"sets": sets, "median_drift": drift, "traced": traced}
        OUT.write_text(json.dumps(doc, indent=1) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
