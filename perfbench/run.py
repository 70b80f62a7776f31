#!/usr/bin/env python3
"""Benchmark of the kreindirac command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload {scan,march,verify-small} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout.  The package is imported from
``src/``; nothing is installed.  Scratch files go to ``.bench_build/perfbench``.

Workloads (``workloads.py``; configs drawn from the seed, then written):

scan
    ``construct`` at n = 1, 16 and 64 gaps and ``verify`` at n <= 16,
    aligned and mismatched-angle profiles, and non-Herglotz witnesses that
    must exit 1.  Nearly all time is ``finitegap.build_M`` under
    ``herglotz_defect`` and ``krein_xi``.
march
    ``evolve`` of single gaps centred at |c| in [10, 100], of two- and
    three-gap profiles to x of 2 to 10, a short 16-gap march and
    ``BoundViolation`` witnesses that must exit 3.  Nearly all time is
    ``dirac.sample_potential``.
verify-small
    Many ``verify`` jobs on 1- and 2-gap profiles and ``oracle`` jobs on
    constant potentials, about 0.1 s each: fixed per-call costs dominate.

Jobs run one after another in one worker process (a closed loop with one
client) with BLAS and OpenMP threads pinned to 1.  After a warm-up pass,
the timed phase is rounds (``workloads.schedule``) for ``--seconds``
seconds and at least one whole cycle of them.  Every round runs each light
job once, so its repeats are spread over the whole run; scan's five heavy
jobs (n = 16 and 64) take turns at the end of the rounds: the n = 64
construct every other round, the n = 16 jobs two at a time in between.  A
scan cycle, four rounds, outlasts ``--seconds``.

End-to-end metrics (``--trace 0``).  Every timed job runs pinned to one
CPU, in turn over the CPUs, between two host-speed probes, and its wall
time is scaled to seconds at a fixed host speed (``hostspeed.py``): the
host's speed changes by up to about 1.8x, in stretches from under a second
to minutes, and raw wall times of the same code spread by 10-30% between
runs.  A job's time is the median of its scaled repeats.  The job list,
not the number of repeats, fixes what each metric weighs.  The same
metrics from raw wall times are in the detail line (``unscaled``).

setup_s      median scaled wall time of fresh interpreters, run one at a
             time, that import ``kreindirac.cli`` and load the workload's
             first config
jobs_per_s   jobs of the list whose every repeat had the expected outcome,
             over the sum of the job times: one pass over the job list
job_s_p50    median over the job list of the ``cli.main`` time
job_s_tail   the highest percentile of the job times with at least ten
             jobs beyond it (percentile and sample count in the detail
             line)
ok_frac      repeats with the expected exit code and a correct report over
             repeats attempted (1 - fail_frac: fail_frac is 0 when all is
             well, and a metric here must never be 0)
peak_rss_mb  peak resident memory of the worker process

Per-layer metrics (``--trace 1``, a separate run): spans recorded around
the package's public functions (``tracer.py``), per pass, plus the import
split from ``python -X importtime``, the tracing overhead, the edge probe
of known defects and the calibration loop time.

Output: a detail JSON line (environment, calibration, per-class median
wall times, unscaled metrics, failures, edge outcomes), then as the last line
``{"correct", "attempted", "failed", "metrics"}``.  The full result is
kept in the run's scratch directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from workloads import WORKLOADS, make_jobs, schedule, warmup_ids  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("finitegap.build_M.calls", "count"),
    ("finitegap.build_M.self_s", "s"),
    ("finitegap.build_M.us_per_call", "us"),
    ("finitegap.build_M.gap_terms", "count"),
    ("herglotz.herglotz_defect.calls", "count"),
    ("herglotz.herglotz_defect.s", "s"),
    ("herglotz.herglotz_defect.self_s", "s"),
    ("mat2.mexp.calls", "count"),
    ("mat2.mexp.us_per_call", "us"),
    ("mat2.mlog_spectral.calls", "count"),
    ("mat2.mlog_spectral.us_per_call", "us"),
    ("herglotz.krein_xi.calls", "count"),
    ("herglotz.krein_xi.s", "s"),
    ("herglotz.krein_xi.self_s", "s"),
    ("herglotz.krein_xi.no_convergence", "count"),
    ("herglotz.krein_xi.distinct_ratio", "ratio"),
    ("numerics.extrapolate_schedule.calls", "count"),
    ("numerics.extrapolate_schedule.s", "s"),
    ("herglotz.asymptotic_W.calls", "count"),
    ("herglotz.asymptotic_W.s", "s"),
    ("finitegap.reflectionless_defect.s", "s"),
    ("finitegap.gap_realness.s", "s"),
    ("finitegap.weyl_from_M.calls", "count"),
    ("dirac.sample_potential.calls", "count"),
    ("dirac.sample_potential.s", "s"),
    ("dirac.sample_potential.self_s", "s"),
    ("dirac.sample_potential.s_per_x", "s/x"),
    ("dirac.ode_weyl.calls", "count"),
    ("dirac.ode_weyl.s", "s"),
    ("cli.load_config.s", "s"),
    ("cli.run.s", "s"),
    ("cli.render_s", "s"),
    ("import.numpy_s", "s"),
    ("import.scipy_s", "s"),
    ("import.kreindirac_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("cli.edge.ok", "count"),
    ("cli.edge.attempted", "count"),
    ("jobs.fail_frac", "ratio"),
    ("env.calib_s", "s"),
]

SETUP_RUNS = 3
IMPORTTIME_RUNS = 3
TAIL_BEYOND = 10
DEADLINE_S = 170.0
CHILD_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_CODE = ("import importlib, sys; "
              "cli = importlib.import_module('kreindirac.cli'); "
              "cli.load_config(sys.argv[1], sys.argv[2], {})")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def write_jobs(workload: str, seed: int, workdir: Path) -> dict:
    jobs = make_jobs(workload, seed)
    (workdir / "cfg").mkdir(parents=True)
    (workdir / "out").mkdir()
    for job in jobs:
        job["cfg_path"] = str(workdir / "cfg" / f"{job['id']:03d}.json")
        job["out_path"] = str(workdir / "out" / f"{job['id']:03d}.json")
        with open(job["cfg_path"], "w") as fh:
            json.dump(job["cfg"], fh, indent=1)
    spec = {"jobs": jobs, "warmup": warmup_ids(jobs), "schedule": schedule(jobs),
            "workdir": str(workdir)}
    with open(workdir / "jobs.json", "w") as fh:
        json.dump(spec, fh)
    return spec


def setup_times(first_job: dict, env: dict) -> list[tuple[float, list[float]]]:
    """(wall time, host-speed probes) of fresh interpreters run one at a
    time, each pinned with this process to one CPU, in turn, and probed
    right before and after on it; the first run (which may compile
    bytecode) is discarded."""
    argv = [sys.executable, "-c", SETUP_CODE, first_job["cfg_path"], first_job["cmd"]]
    all_cpus = os.sched_getaffinity(0)
    cpus = sorted(all_cpus)
    runs = []
    try:
        for k in range(SETUP_RUNS + 1):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})  # the child inherits it
            before = hostspeed.probe()
            t0 = time.perf_counter()
            subprocess.run(argv, env=env, check=True, cwd=ROOT, text=True,
                           timeout=CHILD_TIMEOUT_S,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            secs = time.perf_counter() - t0
            runs.append((secs, [before, hostspeed.probe()]))
    finally:
        os.sched_setaffinity(0, all_cpus)
    return runs[1:]


def scaled_repeats(rounds: list[dict]) -> tuple[dict, dict]:
    """({job id: wall times}, {job id: scaled times}) of every repeat.  A
    repeat is scaled by the median of the probes taken around it and
    around its neighbours in the round (``hostspeed``)."""
    raw: dict[int, list[float]] = {}
    scaled: dict[int, list[float]] = {}
    for rnd in rounds:
        jobs = rnd["jobs"]
        for i, j in enumerate(jobs):
            near = [p for k in range(max(0, i - 1), min(len(jobs), i + 2))
                    for p in jobs[k]["probes"]]
            raw.setdefault(j["id"], []).append(j["s"])
            scaled.setdefault(j["id"], []).append(hostspeed.scaled(j["s"], near))
    return raw, scaled


def job_metrics(repeats: dict, bad: set) -> tuple[dict, int]:
    """(jobs_per_s, job_s_p50, job_s_tail) over the job list, each job
    timed by the median of its repeats, and the tail's percentile."""
    times = [statistics.median(v) for v in repeats.values()]
    m = {"jobs_per_s": (len(times) - len(bad)) / sum(times),
         "job_s_p50": statistics.median(times)}
    m["job_s_tail"], pct = tail(times)
    return m, pct


def import_cumulative(lines: list[str], root: str) -> float:
    """Seconds of ``-X importtime`` cumulative time of the outermost imports
    of package ``root`` and its submodules."""
    rows = []
    for line in lines:
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        stripped = name.lstrip(" ")
        rows.append((len(name) - len(stripped), stripped.strip(), int(cum)))
    total = 0
    stack: list[tuple[int, bool]] = []  # (depth, is root) of enclosing imports
    # children are printed before their parent: walk backwards
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        mine = name == root or name.startswith(root + ".")
        if mine and not any(is_root for _, is_root in stack):
            total += cum
        stack.append((depth, mine))
    return total / 1e6


def import_split(first_job: dict, env: dict) -> dict:
    argv = [sys.executable, "-X", "importtime", "-c", SETUP_CODE,
            first_job["cfg_path"], first_job["cmd"]]
    runs = {"numpy": [], "scipy": [], "kreindirac": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(argv, env=env, check=True, cwd=ROOT, text=True,
                              timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        lines = proc.stderr.splitlines()
        for pkg in runs:
            runs[pkg].append(import_cumulative(lines, pkg))
    return {pkg: statistics.median(v) for pkg, v in runs.items()}


def tail(times: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile p whose
    nearest-rank value has at least TAIL_BEYOND samples above its rank."""
    xs = sorted(times)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], p
    return statistics.median(xs), 50


def run_worker(spec_path: Path, result_path: Path, seconds: int, trace: int,
               env: dict, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--jobs", str(spec_path),
            "--seconds", str(seconds), "--trace", str(trace),
            "--result", str(result_path)]
    log_path = result_path.with_suffix(".log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=log)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError("worker passed the run deadline; log in " + str(log_path))
        finally:
            # also on SIGTERM (see main): the worker never outlives the run
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited {code}: " + log_path.read_text()[-2000:])
    with open(result_path) as fh:
        return json.load(fh)


def summarize(spec: dict, res: dict, trace: int) -> tuple[dict, dict]:
    """(metric values, detail) from the worker's result."""
    by_id = {j["id"]: j for j in spec["jobs"]}
    jobs = [j for r in res["rounds"] for j in r["jobs"]]
    failures = [f"job {j['id']} ({by_id[j['id']]['cmd']}/{by_id[j['id']]['kind']}"
                f"/n{by_id[j['id']]['n']}): {j['fail']}" for j in jobs if j["fail"]]
    detail = {
        "env": res["env"],
        "calibration_s": res["calibration_s"],
        "rounds": [{"wall": r["wall"], "traced": r["traced"]} for r in res["rounds"]],
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures[:20],
        "warmup_failures": [j["fail"] for j in res["warmup"]["jobs"] if j["fail"]],
        "class_median_s": {},
    }
    per_class: dict[str, list[float]] = {}
    for j in jobs:
        job = by_id[j["id"]]
        per_class.setdefault(f"{job['cmd']}/{job['kind']}/n{job['n']}", []).append(j["s"])
    detail["class_median_s"] = {k: statistics.median(v) for k, v in sorted(per_class.items())}

    m: dict[str, float] = {}
    if not trace:
        bad = {j["id"] for j in jobs if j["fail"]}
        raw, scaled = scaled_repeats(res["rounds"])
        m, pct = job_metrics(scaled, bad)
        detail["job_s_tail"] = {"percentile": pct, "samples": len(scaled)}
        detail["unscaled"] = job_metrics(raw, bad)[0]
        m["ok_frac"] = 1.0 - len(failures) / len(jobs)
        m["peak_rss_mb"] = res["peak_rss_mb"]
    else:
        layers = res["layers"]
        m.update({name: layers[name] for name, _ in PER_LAYER if name in layers})
        walls = {flag: sum(r["wall"] for r in res["rounds"] if r["traced"] == flag)
                 for flag in (True, False)}
        m["trace.overhead_frac"] = walls[True] / walls[False]
        m["cli.edge.ok"] = sum(e["ok"] for e in res["edge"])
        m["cli.edge.attempted"] = len(res["edge"])
        m["jobs.fail_frac"] = len(failures) / len(jobs)
        m["env.calib_s"] = statistics.median(res["calibration_s"])
        detail.update(edge=res["edge"], edge_skipped=res["edge_skipped"],
                      selfcheck=res["selfcheck"], bindings=res["bindings"],
                      spans=res["spans"])
    return m, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "kreindirac" / "cli.py").is_file():
        print(f"no kreindirac sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workdir = SCRATCH / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    spec = write_jobs(args.workload, args.seed, workdir)
    env = child_env()
    first = spec["jobs"][0]
    try:
        if args.trace:
            imports = import_split(first, env)
        else:
            setups = setup_times(first, env)
        res = run_worker(workdir / "jobs.json", workdir / "result.json",
                         args.seconds, args.trace, env, deadline)
    except (subprocess.SubprocessError, RuntimeError) as exc:
        err = getattr(exc, "stderr", None)
        print(f"benchmark run failed: {exc}" + (f"\n{err[-2000:]}" if err else ""),
              file=sys.stderr)
        return 1

    metrics, detail = summarize(spec, res, args.trace)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace)
    if args.trace:
        for pkg, secs in imports.items():
            metrics[f"import.{pkg}_s"] = secs
        names = PER_LAYER
        correct = not detail["failures"] and not detail["selfcheck"]
    else:
        metrics["setup_s"] = statistics.median(hostspeed.scaled(t, p) for t, p in setups)
        detail["setup_s_samples"] = [t for t, _ in setups]
        detail["unscaled"]["setup_s"] = statistics.median(detail["setup_s_samples"])
        names = END_TO_END
        correct = not detail["failures"]
    with open(workdir / "summary.json", "w") as fh:
        json.dump({"metrics": metrics, "detail": detail}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    out = {"correct": correct, "attempted": detail["attempted"], "failed": detail["failed"],
           "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
