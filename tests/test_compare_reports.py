"""The report comparison script: the size of a difference between reports."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"
_SPEC = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)

REPORT = {"command": "evolve",
          "records": [{"name": "bound", "status": "pass", "value": 0.0},
                      {"name": "residual", "status": "pass", "value": 2.5e-12}],
          "tables": {"W": {"columns": ["x", "p"], "rows": [[0.0, 0.5], [0.1, -0.25]]}}}


def _edited(**paths):
    # REPORT with the values at the given paths replaced; a path is the
    # keyword with "__" between the keys and list indices
    rep = json.loads(json.dumps(REPORT))
    for path, value in paths.items():
        *head, last = [int(k) if k.isdigit() else k for k in path.split("__")]
        node = rep
        for key in head:
            node = node[key]
        node[last] = value
    return json.dumps(rep)


def test_identical_reports_have_no_difference():
    assert compare_reports.largest_difference(json.dumps(REPORT), _edited()) == (0.0, "", (), [])


def test_largest_relative_difference_and_its_path():
    new = _edited(tables__W__rows__1__1=-0.25 * (1 + 1e-6), records__1__value=2.5e-12 * (1 + 1e-3))
    rel, path, pair, parted = compare_reports.largest_difference(json.dumps(REPORT), new)
    assert path == "$.records[1].value"
    assert rel == pytest.approx(1e-3 / (1 + 1e-3), rel=1e-9)
    assert pair == (2.5e-12, 2.5e-12 * (1 + 1e-3))
    assert parted == []
    # a number that leaves zero is a relative difference of 1
    rel, path, pair, _ = compare_reports.largest_difference(json.dumps(REPORT),
                                                            _edited(records__0__value=1e-17))
    assert (rel, path, pair) == (1.0, "$.records[0].value", (0.0, 1e-17))


def test_shape_and_text_differences_are_listed_apart():
    rep = json.loads(json.dumps(REPORT))
    rep["tables"]["W"]["rows"].append([0.2, 0.0])
    rep["records"][0]["status"] = "fail"
    rel, path, _, parted = compare_reports.largest_difference(json.dumps(REPORT), json.dumps(rep))
    assert (rel, path) == (0.0, "")
    assert sorted(parted) == ["$.records[0].status", "$.tables.W.rows"]


def test_nan_and_unreadable_reports():
    rel, path, _, _ = compare_reports.largest_difference(json.dumps(REPORT),
                                                         _edited(tables__W__rows__0__1=math.nan))
    assert rel == math.inf
    assert path == "$.tables.W.rows[0][1]"
    assert compare_reports._difference_line(None, json.dumps(REPORT)) == \
        "    reports are not both JSON"
    line = compare_reports._difference_line(json.dumps(REPORT), _edited(records__1__value=5e-12))
    assert line == "    largest relative difference 0.5 at $.records[1].value: 2.5e-12 -> 5e-12"
