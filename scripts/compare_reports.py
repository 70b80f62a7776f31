"""Compare the reports of two source trees on the benchmark's job configs.

    python scripts/compare_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``kreindirac`` package
(a checkout's ``src``).  The configs are the seed-1 and seed-2 jobs of
every workload in ``perfbench/workloads.py`` and its edge configs.  Each
tree runs all of them through ``cli.main`` in its own Python process.  The
script lists every job whose report, exit code or stderr differs between
the trees, and exits 1 if any does, 0 if none does.  For a report that
differs it also prints the largest relative difference among the report's
numbers and its JSON path, so round-off drift can be told from a real
change.  Standard library only.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)

# Runs in a child process with one tree first on sys.path: reads the job
# list on stdin, writes (exit code, report, stderr) per job to stdout.
_CHILD = r"""
import contextlib, io, json, sys
from kreindirac import cli
results = []
for job in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main([job["cmd"], "--config", job["cfg"], "--out", job["out"]])
        except Exception as exc:  # a traceback is an outcome to compare too
            code = f"raised {type(exc).__name__}: {exc}"
    try:
        with open(job["out"]) as fh:
            report = fh.read()
    except OSError:
        report = None
    results.append([code, report, err.getvalue()])
json.dump(results, sys.stdout)
"""


def job_list(workdir: Path) -> list[dict]:
    """Every job as its name, command and written config path."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    jobs = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for job in workloads.make_jobs(workload, seed):
                jobs.append((f"{workload}:{seed}:{job['id']}", job["cmd"], job["cfg"]))
    jobs += [(f"edge:{e['name']}", e["cmd"], e["cfg"]) for e in workloads.edge_jobs()]
    out = []
    for i, (name, cmd, cfg) in enumerate(jobs):
        path = workdir / f"job{i}.json"
        path.write_text(json.dumps(cfg))
        out.append({"name": name, "cmd": cmd, "cfg": str(path)})
    return out


def start(src: str, jobs: list[dict], workdir: Path, tag: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    todo = [dict(job, out=str(workdir / f"{tag}{i}.out")) for i, job in enumerate(jobs)]
    proc = subprocess.Popen([sys.executable, "-c", _CHILD], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    proc.stdin.write(json.dumps(todo))
    proc.stdin.close()
    return proc


def collect(proc: subprocess.Popen, src: str) -> list:
    text = proc.stdout.read()
    if proc.wait() != 0:
        raise SystemExit(f"the run of {src} failed with exit code {proc.returncode}")
    return json.loads(text)


def _leaves(x, y, path: str = "$"):
    # (path, x, y) for every number the two JSON trees hold at the same
    # place, and (path, None, None) where their shapes part
    if isinstance(x, dict) and isinstance(y, dict):
        if x.keys() != y.keys():
            yield path, None, None
        for key in x:
            if key in y:
                yield from _leaves(x[key], y[key], f"{path}.{key}")
    elif isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            yield path, None, None
        for i, (u, v) in enumerate(zip(x, y)):
            yield from _leaves(u, v, f"{path}[{i}]")
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
        yield path, x, y
    elif x != y:
        yield path, None, None


def largest_difference(old: str, new: str) -> tuple[float, str, tuple, list[str]]:
    """The largest relative difference |a - b| / max(|a|, |b|) among the
    numbers two JSON reports hold at the same place, with its JSON path and
    the pair (a, b) (0.0, "" and () if all agree), and the paths where the
    reports differ in shape or in a value that is not a number."""
    worst, where, pair, parted = 0.0, "", (), []
    for path, a, b in _leaves(json.loads(old), json.loads(new)):
        if a is None:
            parted.append(path)
        elif a != b:
            scale = max(abs(a), abs(b))
            rel = abs(a - b) / scale if 0.0 < scale < math.inf else math.inf
            if math.isnan(rel):  # a NaN on one side
                rel = math.inf
            if rel > worst:
                worst, where, pair = rel, path, (a, b)
    return worst, where, pair, parted


def _difference_line(old, new) -> str:
    # the size of a report difference, or why there is none to measure
    try:
        rel, path, pair, parted = largest_difference(old, new)
    except (TypeError, ValueError):
        return "    reports are not both JSON"
    line = (f"    largest relative difference {rel:.3g} at {path}: {pair[0]!r} -> {pair[1]!r}"
            if path else "    every number agrees")
    if parted:
        line += f"; shapes or other values differ at {len(parted)} paths, first {parted[0]}"
    return line


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/compare_reports.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = argv
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        jobs = job_list(workdir)
        # the two trees run side by side, one process each
        procs = [start(src, jobs, workdir, tag)
                 for src, tag in ((old_src, "old"), (new_src, "new"))]
        old, new = (collect(p, src) for p, src in zip(procs, (old_src, new_src)))
    differ = 0
    for job, a, b in zip(jobs, old, new):
        parts = [what for what, x, y in zip(("exit code", "report", "stderr"), a, b) if x != y]
        if parts:
            differ += 1
            print(f"{job['name']} ({job['cmd']}): {', '.join(parts)} differ"
                  f"; exit code {a[0]} -> {b[0]}")
            if "report" in parts:
                print(_difference_line(a[1], b[1]))
    print(f"{differ} of {len(jobs)} jobs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
