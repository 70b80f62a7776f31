"""Time two source trees on one workload's jobs, interleaved in one process.

    python scripts/interleave.py OLD_SRC NEW_SRC --workload W --seed S --rounds R

OLD_SRC and NEW_SRC are directories that hold a ``kreindirac`` package
(a checkout's ``src``).  The two packages are loaded under different names
into this one process, so both see the same host, interpreter and numpy.
The jobs are those ``perfbench/workloads.py`` makes for the workload and
seed.  Each round runs every job once per tree through ``cli.main``, and
which tree goes first alternates from job to job and from round to round,
so a drift of the host's speed falls on both.  Every call is timed by
``time.process_time``, and writes a fresh report: the one the call before
it wrote is removed before the clock starts, as the benchmark's worker
removes each report after its pass.

The script prints, per class of job (command, kind and gap count), the
median time of one job on each tree and their ratio, then the median time
of a whole pass (every job once) on each tree, their ratio and how many
rounds NEW_SRC was the faster.  A job whose exit code differs between the trees is named.
Run with OLD_SRC and NEW_SRC the same directory, the ratios measure the
harness's own bias.  Standard library only, besides what the trees import.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_cli(src: str, name: str):
    """The ``cli`` module of the ``kreindirac`` package under ``src``,
    imported as the package ``name``."""
    pkg = Path(src).resolve() / "kreindirac"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def job_list(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The workload's jobs with their configs written to ``workdir``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    jobs = workloads.make_jobs(workload, seed)
    for job in jobs:
        path = workdir / f"job{job['id']}.json"
        path.write_text(json.dumps(job["cfg"]))
        job["argv"] = [job["cmd"], "--config", str(path), "--out", str(workdir / "out.json")]
    return jobs


def run_job(main, argv: list[str]) -> tuple[object, float]:
    """(exit code, process seconds) of one ``cli.main`` call, whose
    ``--out`` report does not exist when it starts."""
    Path(argv[argv.index("--out") + 1]).unlink(missing_ok=True)
    with contextlib.redirect_stderr(io.StringIO()):
        t0 = time.process_time()
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is an outcome to report
            code = f"raised {type(exc).__name__}"
        return code, time.process_time() - t0


def interleave(mains: tuple, jobs: list[dict], rounds: int):
    """Per-job times ``secs[tree][job id]`` (one entry per round), the
    pass times ``passes[tree]`` and the ids of jobs whose exit codes
    differ between the trees."""
    secs = [{job["id"]: [] for job in jobs} for _ in mains]
    passes = [[0.0] * rounds for _ in mains]
    differ = set()
    for r in range(rounds):
        for k, job in enumerate(jobs):
            order = (0, 1) if (r + k) % 2 == 0 else (1, 0)
            codes = {}
            for side in order:
                codes[side], dt = run_job(mains[side].main, job["argv"])
                secs[side][job["id"]].append(dt)
                passes[side][r] += dt
            if codes[0] != codes[1]:
                differ.add(job["id"])
    return secs, passes, sorted(differ)


def report(jobs: list[dict], secs, passes, differ) -> list[str]:
    classes: dict[tuple[str, str, int], list[int]] = {}
    for job in jobs:
        classes.setdefault((job["cmd"], job["kind"], job["n"]), []).append(job["id"])
    lines = [f"{'class':<26} {'jobs':>4} {'old ms':>9} {'new ms':>9} {'new/old':>8}"]
    for (cmd, kind, n), ids in sorted(classes.items()):
        old, new = (statistics.median(t for i in ids for t in side[i]) for side in secs)
        lines.append(f"{f'{cmd}:{kind}:n={n}':<26} {len(ids):>4} {1e3 * old:>9.3f} "
                     f"{1e3 * new:>9.3f} {new / old:>8.4f}")
    old, new = (statistics.median(p) for p in passes)
    faster = sum(b < a for a, b in zip(*passes))
    lines.append(f"{'pass':<26} {len(jobs):>4} {1e3 * old:>9.3f} {1e3 * new:>9.3f} "
                 f"{new / old:>8.4f}  (new faster in {faster} of {len(passes[0])} rounds)")
    for i in differ:
        lines.append(f"job {i} ({jobs[i]['cmd']}:{jobs[i]['kind']}): exit codes differ")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    mains = (load_cli(args.old_src, "_interleave_old"), load_cli(args.new_src, "_interleave_new"))
    with tempfile.TemporaryDirectory() as tmp:
        jobs = job_list(args.workload, args.seed, Path(tmp))
        # one untimed pass per tree: first calls pay for lazy imports
        for job in jobs:
            for cli in mains:
                run_job(cli.main, job["argv"])
        secs, passes, differ = interleave(mains, jobs, args.rounds)
    print("\n".join(report(jobs, secs, passes, differ)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
