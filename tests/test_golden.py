"""Golden reports: one fixed config per command, run through ``cli.main``,
against the report stored next to it in ``tests/golden``.

Everything but the numbers must match exactly: the exit code, record names,
statuses, identities and tolerances, table names, columns and row counts.
Numbers must agree to 1e-10 relative; a value at round-off level (an
invariant's defect, a quadrature residual) is held to 1e-12 absolute, since
its digits are rounding noise that may differ between hosts' libm.

``witness`` is an ``evolve`` of a mismatched profile whose congruence march
crosses the sharp bound: it exits 3, and its report holds the W rows up to
the last good x, the ``last_good_x`` record and the ``numerical_failure``.

To regenerate a report after an intended change of the numbers:

    PYTHONPATH=src python -m kreindirac.cli CMD \\
        --config tests/golden/NAME.json --out tests/golden/NAME.report.json

``witness.march.json`` holds, as ``float.hex``, every (x, p, q, residual)
that the congruence march yields on the witness's grid, interior
acceptances and the steps past the bound crossing included, and each row's
on-grid flag.  They are held exactly: a change to the march's kernel that
only regroups its numpy calls must keep every bit.  The last bits follow
numpy's elementwise loops (log, arctan2 and sqrt), which may differ on a
host that dispatches them to other SIMD code; regenerate the file there, or
after an intended change of the numbers, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from kreindirac import cli, dirac

GOLDEN = Path(__file__).resolve().parent / "golden"
# golden config name -> expected exit code
CASES = {"construct": 0, "verify": 0, "evolve": 0, "oracle": 0, "witness": 3}

REL_TOL = 1e-10
ABS_TOL = 1e-12


def _same_number(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):  # inf as repr, from a failed probe
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


@pytest.mark.parametrize("name, code", CASES.items(), ids=CASES)
def test_report_matches_golden(tmp_path, name, code):
    config = GOLDEN / f"{name}.json"
    command = json.loads(config.read_text())["command"]
    out = tmp_path / "report.json"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == code
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / f"{name}.report.json").read_text())

    assert set(got) == set(want)
    assert got["command"] == want["command"] == command
    assert got.get("numerical_failure") == want.get("numerical_failure")
    keys = ("name", "status", "tolerance", "identity")
    assert [[r[k] for k in keys] for r in got["records"]] == \
        [[r[k] for k in keys] for r in want["records"]]
    for g, w in zip(got["records"], want["records"]):
        assert _same_number(g["value"], w["value"]), (g["name"], g["value"], w["value"])

    assert list(got["tables"]) == list(want["tables"])
    for name, table in want["tables"].items():
        mine = got["tables"][name]
        assert mine["columns"] == table["columns"]
        assert len(mine["rows"]) == len(table["rows"])
        for i, (g, w) in enumerate(zip(mine["rows"], table["rows"])):
            assert len(g) == len(w)
            bad = [(c, x, y) for c, x, y in zip(table["columns"], g, w)
                   if not _same_number(x, y)]
            assert not bad, (name, i, bad)


def _witness_march_rows() -> list:
    # the congruence march of the witness config at dirac.LOC_TOL,
    # every row it yields, as float.hex and the on-grid flag
    config = json.loads((GOLDEN / "witness.json").read_text())
    _, frame = dirac.co_rotating_frame(cli.profile_from_json(config["profile"]))
    xg = cli._xgrid(config["xgrid"])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return [[float(v).hex() for v in row[:4]] + [row[4]]
                for row in dirac._congruence_orbit(frame, xg, dirac.LOC_TOL)]


def test_witness_march_bits_are_frozen():
    want = json.loads((GOLDEN / "witness.march.json").read_text())
    got = _witness_march_rows()
    assert sum(not row[4] for row in want) >= 16  # interior acceptances
    assert got == want


if __name__ == "__main__":
    rows = ",\n".join("  " + json.dumps(row) for row in _witness_march_rows())
    (GOLDEN / "witness.march.json").write_text("[\n" + rows + "\n]\n")
