"""Runs one workload's job list in this process, one job after another: a
closed loop with one client.  Started by ``run.py`` with the BLAS and
OpenMP thread counts pinned to 1.

    python3 perfbench/worker.py --jobs JOBS.json --seconds S --trace 0|1 --result OUT.json

Timed mode (``--trace 0``): a warm-up pass (``workloads.warmup_ids``), then
the rounds of ``workloads.schedule``, cycle after cycle, each round in its
own fixed shuffled order, until ``S`` seconds have gone by and at least one
whole cycle has run.  Each timed job runs pinned to one CPU, between two
``hostspeed.probe`` calls on that CPU.

Traced mode (``--trace 1``): the edge probe, then pairs of one untraced and
one traced pass over the whole job list until ``S`` seconds have gone by.
Per-layer numbers are totals over the traced passes divided by their
number, so counts are per pass and repeat exactly.

Every job's report is checked by ``oracle.check`` after its round, outside
the round's wall time.
"""

from __future__ import annotations

import argparse
import collections
import importlib.metadata
import json
import os
import random
import resource
import statistics
import sys
import time

import hostspeed
import oracle
import tracer as tr
from workloads import EDGE_SKIPPED, edge_jobs

CALIBRATION_PROBES = 50


def calibrate() -> float:
    """Median of CALIBRATION_PROBES host-speed probes: recorded beside the
    metrics at the start and end of the run to show host speed drift."""
    return statistics.median(hostspeed.probe() for _ in range(CALIBRATION_PROBES))


def _version(pkg: str) -> str | None:
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_job(main, job, trace=None):
    """(exit code, seconds, error text) of one ``cli.main`` call."""
    argv = [job["cmd"], "--config", job["cfg_path"], "--out", job["out_path"]]
    error = None
    t0 = time.perf_counter()
    try:
        if trace is None:
            code = main(argv)
        else:
            trace.begin_job(job["id"])
            try:
                code = trace.call(tr.ROOT_SPAN, main, (argv,))
            finally:
                trace.end_job()
    except Exception as exc:  # a traceback from the CLI is a job outcome
        code = f"raised {type(exc).__name__}"
        error = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - t0, error


def run_pass(main, jobs, trace=None, cpus=None) -> dict:
    """Runs ``jobs`` in order.  With ``cpus``, the i-th job runs pinned to
    CPU ``cpus[i]`` between two host-speed probes on that CPU."""
    results = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        probes = None
        if cpus:
            os.sched_setaffinity(0, {cpus[i]})
            before = hostspeed.probe()
        code, secs, error = run_job(main, job, trace)
        if cpus:
            probes = [before, hostspeed.probe()]
        results.append((job, code, secs, error, probes))
    wall = time.perf_counter() - t0
    records = []
    for job, code, secs, error, probes in results:
        try:
            with open(job["out_path"]) as fh:
                text = fh.read()
        except OSError:
            text = ""
        reason = oracle.check(job, code, text) if error is None else error
        records.append({"id": job["id"], "s": secs, "probes": probes, "code": code,
                        "fail": reason})
        if os.path.exists(job["out_path"]):
            os.remove(job["out_path"])
    return {"wall": wall, "traced": trace is not None, "jobs": records}


def edge_probe(main, workdir) -> list[dict]:
    out = []
    for i, edge in enumerate(edge_jobs()):
        cfg_path = os.path.join(workdir, f"edge{i}.json")
        with open(cfg_path, "w") as fh:
            json.dump(edge["cfg"], fh)
        job = {"cmd": edge["cmd"], "cfg_path": cfg_path,
               "out_path": os.path.join(workdir, f"edge{i}.out")}
        code, secs, error = run_job(main, job)
        out.append({"name": edge["name"], "code": code, "want": edge["ok"],
                    "ok": code == edge["ok"], "s": secs, "error": error})
    return out


def layer_metrics(trace: tr.Tracer, passes: int) -> dict:
    total = trace.totals()

    def get(name):
        calls, s, self_s = total.get(name, (0, 0.0, 0.0))
        return calls / passes, s / passes, self_s / passes

    m = {}
    for name in [tr.ROOT_SPAN] + [f"{mod}.{f}" for mod, fs in tr.LAYERS.items() for f in fs]:
        calls, s, self_s = get(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = s
        m[f"{name}.self_s"] = self_s
        m[f"{name}.us_per_call"] = 1e6 * s / calls if calls else 0.0
    m["finitegap.build_M.gap_terms"] = trace.counts["gap_terms"] / passes
    m["herglotz.krein_xi.no_convergence"] = trace.counts["no_convergence"] / passes
    xi_calls = total.get("herglotz.krein_xi", (0,))[0]
    m["herglotz.krein_xi.distinct_ratio"] = (
        trace.counts["xi_distinct"] / xi_calls if xi_calls else 0.0)
    m["dirac.sample_potential.s_per_x"] = (
        m["dirac.sample_potential.s"] * passes / trace.x_marched if trace.x_marched else 0.0)
    # main minus load_config minus run: the render and file write
    m["cli.render_s"] = m[f"{tr.ROOT_SPAN}.self_s"]
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    with open(args.jobs) as fh:
        spec = json.load(fh)
    jobs = spec["jobs"]
    calib = [calibrate()]
    cli = tr.module("cli")
    result = {"env": environment(), "rounds": []}

    by_id = {j["id"]: j for j in jobs}
    result["warmup"] = run_pass(cli.main, [by_id[i] for i in spec["warmup"]])

    if args.trace:
        result["edge"] = edge_probe(cli.main, spec["workdir"])
        result["edge_skipped"] = EDGE_SKIPPED
        trace = tr.Tracer()
        t_start = time.perf_counter()
        traced = 0
        while traced == 0 or time.perf_counter() - t_start < args.seconds:
            result["rounds"].append(run_pass(cli.main, jobs))
            trace.install()
            problems = tr.selfcheck(trace)
            bindings = trace.bindings()
            try:
                result["rounds"].append(run_pass(cli.main, jobs, trace))
            finally:
                trace.uninstall()
            traced += 1
        result["selfcheck"] = problems
        result["bindings"] = bindings
        result["layers"] = layer_metrics(trace, traced)
        spans_path = os.path.join(spec["workdir"], "spans.csv")
        trace.write_spans(spans_path)
        result["spans"] = {"path": spans_path, "count": len(trace.spans)}
    else:
        cycle = [[by_id[i] for i in ids] for ids in spec["schedule"]]
        # Each CPU of the sandbox has slow stretches of its own: a job's
        # repeats take turns over the CPUs.
        all_cpus = os.sched_getaffinity(0)
        cpus = sorted(all_cpus)
        repeats = collections.Counter()
        t_start = time.perf_counter()
        while len(result["rounds"]) < len(cycle) or time.perf_counter() - t_start < args.seconds:
            k = len(result["rounds"])
            # a fixed shuffle per round, so the repeats of the jobs of one
            # class do not all run in the same stretch of host speed
            order = list(cycle[k % len(cycle)])
            random.Random(k).shuffle(order)
            place = [cpus[(j["id"] + repeats[j["id"]]) % len(cpus)] for j in order]
            repeats.update(j["id"] for j in order)
            result["rounds"].append(run_pass(cli.main, order, cpus=place))
        os.sched_setaffinity(0, all_cpus)

    calib.append(calibrate())
    result["calibration_s"] = calib
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
