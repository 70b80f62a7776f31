#!/usr/bin/env python3
"""Record a labelled baseline: every workload, timed and traced, plus the
gap-count scaling table.

    python3 perfbench/baseline.py --label 0

Writes ``perfbench/results/BENCH_<label>.json`` with:

* ``runs``: for each workload, the last output line of ``run.py`` with
  ``--trace 0`` and with ``--trace 1``, the tail percentile and sample
  count, per-class median wall times and the unscaled end-to-end times;
* ``scaling``: seconds of one ``herglotz_defect`` scan and of one
  ``sample_potential`` march to x = 0.5 (11 points), on aligned profiles
  with n = 1, 16 and 64 gaps of width 0.5 spaced 1.0 apart, centred at 0.

Run it from the root of a source checkout, on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import THREAD_VARS, child_env  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
SECONDS = 20  # run_seconds of BENCHMARK.json
SCALING_N = (1, 16, 64)
SCALING_REPEATS = 3

SCALING_CODE = """
import json, statistics, sys, time
import numpy as np
from kreindirac.finitegap import GapSet, KreinProfile
from kreindirac.herglotz import herglotz_defect, profile_m_function
from kreindirac.dirac import sample_potential

out = {}
for n in map(int, sys.argv[1].split(",")):
    gaps = tuple((1.5 * j - 0.75 * n, 1.5 * j - 0.75 * n + 0.5) for j in range(n))
    prof = KreinProfile.uniform(GapSet(gaps), 0.4)
    row = {}
    for name, call in (("herglotz_defect", lambda: herglotz_defect(profile_m_function(prof))),
                       ("sample_potential", lambda: sample_potential(prof, np.linspace(0.0, 0.5, 11)))):
        times = []
        for _ in range(int(sys.argv[2])):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        row[name] = statistics.median(times)
    out[str(n)] = row
print(json.dumps(out))
"""


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    summary_path = (ROOT / ".bench_build" / "perfbench"
                    / f"{workload}-seed{seed}-trace{trace}" / "summary.json")
    with open(summary_path) as fh:
        detail = json.load(fh)["detail"]
    keep = {k: detail[k] for k in ("env", "calibration_s", "class_median_s",
                                    "job_s_tail", "setup_s_samples", "unscaled",
                                    "edge", "edge_skipped", "bindings")
            if k in detail}
    return {"result": last, "detail": keep}


def scaling() -> dict:
    argv = [sys.executable, "-c", SCALING_CODE,
            ",".join(map(str, SCALING_N)), str(SCALING_REPEATS)]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()

    t0 = time.time()
    runs = {}
    for workload in WORKLOADS:
        runs[workload] = {f"trace{t}": run_workload(workload, SEED, SECONDS, t)
                          for t in (0, 1)}
    table = scaling()
    calib = [c for r in runs.values() for v in r.values()
             for c in v["detail"].get("calibration_s", [])]
    out = {
        "label": args.label,
        "seed": SEED,
        "seconds": SECONDS,
        "threads": {v: "1" for v in THREAD_VARS},
        "calibration_s_median": statistics.median(calib),
        "wall_s": time.time() - t0,
        "runs": runs,
        "scaling": table,
    }
    dest = HERE / "results" / f"BENCH_{args.label}.json"
    dest.parent.mkdir(exist_ok=True)
    with open(dest, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {dest.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
