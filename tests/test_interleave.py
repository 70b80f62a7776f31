"""The interleaved timer: a smoke run of one tree against itself."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_interleave_times_a_tree_against_itself():
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "interleave.py"), src, src,
         "--workload", "verify-small", "--seed", "1", "--rounds", "1"],
        capture_output=True, text=True, timeout=300, check=True).stdout.splitlines()
    assert out[0].split() == ["class", "jobs", "old", "ms", "new", "ms", "new/old"]
    rows = {line.split()[0]: line.split() for line in out[1:]}
    # verify-small: 12 oracle jobs, 14 one-gap and 14 two-gap verifies
    assert {k: int(v[1]) for k, v in rows.items()} == {
        "oracle:constant:n=0": 12, "verify:aligned:n=1": 14, "verify:aligned:n=2": 14, "pass": 40}
    for row in rows.values():
        old, new, ratio = map(float, row[2:5])
        assert old > 0 and new > 0 and abs(ratio - new / old) < 1e-2
    # the same tree gives the same exit codes, so no job is named
    assert not any(line.startswith("job ") for line in out)


def test_every_call_writes_a_fresh_report(tmp_path):
    # every job writes the same report path; the benchmark's worker removes
    # each report after its pass, so a timed call must not overwrite one
    spec = importlib.util.spec_from_file_location("interleave", ROOT / "scripts" / "interleave.py")
    interleave = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(interleave)
    out = tmp_path / "out.json"

    def main(argv):
        path = Path(argv[argv.index("--out") + 1])
        assert not path.exists()
        path.write_text("{}\n")
        return 0

    argv = ["verify", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]
    for _ in range(3):
        code, secs = interleave.run_job(main, argv)
        assert code == 0 and secs >= 0.0
    assert out.exists()
