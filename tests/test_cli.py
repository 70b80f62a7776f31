"""Command line driver: exit codes, determinism, report formats."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kreindirac import cli

SINGLE_GAP = {"profile": {"gaps": [[-1, 1]], "uniform": math.pi / 4}}
STRICT_PAIR = {"profile": {"gaps": [[-2, -1], [1, 2]],
                           "angles": [0.0, math.pi / 2]}}
WITNESS = {"profile": {"gaps": [[-2, -1], [1, 2]], "angles": [0.3, 1.9]}}


def _write(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(tmp_path, command, cfg, *flags):
    out = tmp_path / "report.json"
    code = cli.main([command, "--config", _write(tmp_path, cfg),
                     "--out", str(out), *flags])
    text = out.read_text() if out.exists() else ""
    return code, text


def _records(text):
    return {r["name"]: r for r in json.loads(text)["records"]}


def test_construct_extremal_single_gap(tmp_path):
    code, text = _run(tmp_path, "construct", SINGLE_GAP)
    assert code == 0
    rec = _records(text)
    assert abs(rec["sharp_bound"]["value"] - 1.0) < 1e-12
    assert abs(rec["w0_norm"]["value"] - 1.0) < 1e-12
    assert rec["classification"]["identity"].startswith("extremal")
    assert "R0(E)" in rec["classification"]["identity"]
    tables = json.loads(text)["tables"]
    assert set(tables) == {"M", "xi"}
    # xi rows carry the projection at angle pi/4: all entries 1/2
    for row in tables["xi"]["rows"]:
        np.testing.assert_allclose(row[1:5], [0.5, 0.5, 0.5, 0.5], atol=1e-8)


def test_construct_strict_profile(tmp_path):
    code, text = _run(tmp_path, "construct", STRICT_PAIR)
    assert code == 0
    rec = _records(text)
    assert rec["w0_norm"]["value"] < 1e-12
    assert rec["classification"]["identity"].startswith("strict")
    # commuting projections: still a genuine Herglotz function
    assert rec["herglotz_defect"]["value"] > -1e-9


def test_construct_gapless_profile(tmp_path):
    code, text = _run(tmp_path, "construct", {"profile": {"gaps": []}})
    assert code == 0
    obj = json.loads(text)
    rec = _records(text)
    assert rec["sharp_bound"]["value"] == 0.0
    assert rec["w0_norm"]["value"] == 0.0
    # every tabulated M value is i I
    for row in obj["tables"]["M"]["rows"]:
        np.testing.assert_allclose(row[2:], [0, 1, 0, 0, 0, 0, 0, 1], atol=1e-12)
    assert obj["tables"]["xi"]["rows"] == []


def test_verify_uniform_all_pass(tmp_path):
    code, text = _run(tmp_path, "verify", SINGLE_GAP)
    assert code == 0
    statuses = {r["name"]: r["status"] for r in json.loads(text)["records"]}
    assert statuses and all(s == "pass" for s in statuses.values())
    assert "det" in statuses and "asymptotics" in statuses
    # a tgrid point in E is held to the density I/2 there
    code, text = _run(tmp_path, "verify", dict(SINGLE_GAP, tgrid=[0.0, 2.0]))
    assert code == 0
    assert _records(text)["gap_projection"]["value"] < 1e-8


def test_verify_det_corruption_hook(tmp_path):
    cfg = dict(SINGLE_GAP, inject_det_error=True)
    code, text = _run(tmp_path, "verify", cfg)
    assert code == 1
    assert _records(text)["det"]["status"] == "fail"


def test_verify_det_corruption_failures_are_frozen(tmp_path):
    # the negative control fails the same checks, with the same identities,
    # as the one-matrix-at-a-time probes did
    cfg = {"profile": {"gaps": [[-2, -1], [1, 2]], "uniform": 0.3},
           "inject_det_error": True}
    code, text = _run(tmp_path, "verify", cfg)
    assert code == 1
    failed = {r["name"]: r["identity"] for r in json.loads(text)["records"]
              if r["status"] == "fail"}
    assert failed == {
        "det": "det M = -1 on C+",
        "mj_spectrum": "eig(MJ) = {+1, -1}",
        "weyl_roundtrip": "raised NotAdmissible: det M = "
                          "(-1.0000020000009997+1.0928757898653885e-16j), expected -1",
        "asymptotics": "raised NoConvergence: large-z extrapolation: "
                       "residual 1.598e-05 exceeds 1.0e-06",
    }


@pytest.mark.parametrize("gaps", [[[0.0, 1e-2]], [[0.0, 1e-6]],
                                  [[5.0, 5.000001], [7.0, 8.0]]])
def test_narrow_gaps_construct_and_verify(tmp_path, gaps):
    # the limit schedule scales to the nearest endpoint, so gap-interior
    # densities converge however narrow the gap
    cfg = {"profile": {"gaps": gaps, "uniform": 0.3}}
    code, text = _run(tmp_path, "construct", cfg)
    assert code == 0
    rows = json.loads(text)["tables"]["xi"]["rows"]
    assert len(rows) == 7 * len(gaps)
    c, s = math.cos(0.3), math.sin(0.3)
    for row in rows:
        np.testing.assert_allclose(row[1:5], [c * c, s * c, s * c, s * s], atol=1e-6)
        assert row[5] <= 1e-6
    code, text = _run(tmp_path, "verify", cfg)
    assert code == 0
    assert all(r["status"] == "pass" for r in json.loads(text)["records"])


def test_verify_witness_fails_herglotz_only(tmp_path):
    code, text = _run(tmp_path, "verify", WITNESS)
    assert code == 1
    failed = [r["name"] for r in json.loads(text)["records"]
              if r["status"] == "fail"]
    assert failed == ["herglotz"]


def test_verify_random_batch_deterministic(tmp_path):
    cfg = {"random_profiles": 2, "seed": 5}
    code1, text1 = _run(tmp_path, "verify", cfg)
    code2, text2 = _run(tmp_path, "verify", cfg)
    assert code1 == code2 == 0
    assert text1 == text2
    _, text3 = _run(tmp_path, "verify", cfg, "--seed", "6")
    assert text3 != text1


def test_evolve_extremal_rows(tmp_path):
    code, text = _run(tmp_path, "evolve", SINGLE_GAP)
    assert code == 0
    obj = json.loads(text)
    cols, rows = obj["tables"]["W"]["columns"], obj["tables"]["W"]["rows"]
    assert cols == ["x", "p", "q", "norm", "bound", "residual"]
    assert len(rows) == 11
    for row in rows:
        assert abs(row[3] - 1.0) < 1e-9  # norm pinned at the bound
        assert row[4] == 1.0
    assert _records(text)["norm_constancy"]["status"] == "pass"


def test_evolve_gates_the_residual(tmp_path):
    code, text = _run(tmp_path, "evolve", SINGLE_GAP)
    assert code == 0
    rec = _records(text)["residual"]
    assert rec["status"] == "pass" and rec["tolerance"] == 1e-5
    # a two-gap march to x = 20 outruns the trace-formula quadrature: the
    # bound holds, but the residual at x = 20 is about 2e-3, so it fails
    cfg = {"profile": {"gaps": [[-2, -1], [1, 2]], "uniform": math.pi / 4},
           "xgrid": [0, 10, 20]}
    code, text = _run(tmp_path, "evolve", cfg)
    assert code == 1
    failed = [r["name"] for r in json.loads(text)["records"]
              if r["status"] == "fail"]
    assert failed == ["residual"]
    assert _records(text)["residual"]["value"] > 1e-4
    # a wide centred pair overflows the first march trials: they count as
    # rejected steps, and the march ends on the residual gate (about 0.14)
    # instead of a traceback
    cfg = {"profile": {"gaps": [[-20, -1], [1, 20]], "uniform": 0.3}, "xgrid": [0, 1]}
    code, text = _run(tmp_path, "evolve", cfg)
    assert code == 1
    failed = [r["name"] for r in json.loads(text)["records"]
              if r["status"] == "fail"]
    assert failed == ["residual"]
    assert 0.1 < _records(text)["residual"]["value"] < 0.2


def test_evolve_witness_exits_3_with_partial_rows(tmp_path):
    cfg = dict(WITNESS, xgrid={"start": 0.0, "stop": 0.8, "count": 17})
    out = tmp_path / "report.json"
    code = cli.main(["evolve", "--config", _write(tmp_path, cfg),
                     "--out", str(out)])
    assert code == 3
    obj = json.loads(out.read_text())
    assert "BoundViolation" in obj["numerical_failure"]
    assert "last good x = 0.5" in obj["numerical_failure"]
    xs = [row[0] for row in obj["tables"]["W"]["rows"]]
    assert xs[-1] == 0.5


def test_oracle_examples(tmp_path):
    for const, radius in (([0.0, 1.0], 1.0), ([3.0, 4.0], 5.0)):
        code, text = _run(tmp_path, "oracle", {"constant": const})
        assert code == 0
        rec = _records(text)
        assert rec["radius"]["value"] == radius
        for name in ("ode_route", "gap_route_m_plus", "gap_route_m_minus",
                     "assembled_matrix"):
            assert rec[name]["status"] == "pass"


def test_oracle_free_case_is_exact(tmp_path):
    code, text = _run(tmp_path, "oracle", {"constant": [0.0, 0.0]})
    assert code == 0
    rec = _records(text)
    assert rec["assembled_matrix"]["value"] <= 1e-12
    assert rec["assembled_matrix"]["tolerance"] == 1e-12


def test_config_errors_exit_2(tmp_path, capsys):
    bad_cases = [
        {"profil": SINGLE_GAP["profile"]},                    # unknown key
        {"profile": {"gaps": [[1, -1]]}},                     # bad gap
        {"random_profiles": 0},                               # needs profile
        dict(SINGLE_GAP, command="oracle"),                   # command clash
        dict(SINGLE_GAP, zgrid=[[0.0, -1.0]]),                # lower half z
        dict(SINGLE_GAP, xgrid={"start": 0, "count": 3}),     # missing stop
        dict(SINGLE_GAP, output={"path": "x", "mode": "w"}),  # bad output key
        dict(SINGLE_GAP, zgrid=[[math.nan, 1.0]]),            # non-finite z
        dict(SINGLE_GAP, xgrid={"start": 0, "stop": 1, "count": 0}),  # empty
        dict(SINGLE_GAP, xgrid=[0.0, 0.5, 0.25]),             # not increasing
        dict(SINGLE_GAP, xgrid=[0.1, 0.2]),                   # not starting at 0
        dict(SINGLE_GAP, ygrid=[1, 2, 3]),                    # below 4 radii
        {"random_profiles": 2, "ygrid": [1, 2, 3]},           # below 4 radii
        dict(SINGLE_GAP, ygrid=[8, 4, 16]),                   # not increasing
        dict(SINGLE_GAP, ygrid=[8, 16]),                      # too short
    ]
    for cfg in bad_cases:
        code = cli.main(["verify", "--config", _write(tmp_path, cfg)])
        assert code == 2, cfg
    assert cli.main(["verify", "--config", str(tmp_path / "nope.json")]) == 2
    # the same bad grids under the commands that use them
    for command, cfg in (("construct", dict(SINGLE_GAP, zgrid=[[math.nan, 1.0]])),
                         ("evolve", dict(SINGLE_GAP, xgrid={"start": 0, "stop": 1,
                                                           "count": 0})),
                         ("evolve", dict(SINGLE_GAP, ygrid=[1, 2, 3]))):
        assert cli.main([command, "--config", _write(tmp_path, cfg)]) == 2, cfg


def test_cli_import_leaves_scipy_out(tmp_path):
    # numpy is the only runtime dependency: the command line starts without
    # loading scipy, and with scipy blocked the package, mlog_integral and a
    # CLI run still work
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, kreindirac.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    cfg = _write(tmp_path, {"constant": [0.0, 1.0]})
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "import numpy as np, kreindirac",
        "from kreindirac import cli",
        "a = np.array([[1j, 0.5], [0.2, 2.0 + 1j]])",
        "d = np.abs(kreindirac.mlog_integral(a) - kreindirac.mlog_spectral(a)).max()",
        "assert d < 1e-9, d",
        f"sys.exit(cli.main(['oracle', '--config', {cfg!r}, '--out', {cfg + '.out'!r}]))",
    ])
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_csv_format_layout(tmp_path):
    out = tmp_path / "report.csv"
    code = cli.main(["construct", "--config", _write(tmp_path, SINGLE_GAP),
                     "--out", str(out), "--format", "csv"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# command: construct"
    assert "# table: records" in lines
    assert "# table: M" in lines and "# table: xi" in lines
    header = lines[lines.index("# table: M") + 1].split(",")
    assert header[:4] == ["z_re", "z_im", "M00_re", "M00_im"]
    # 17 significant digits survive a float round trip
    value_row = lines[lines.index("# table: M") + 2].split(",")
    for tok in value_row:
        assert float(tok) == float(format(float(tok), ".17g"))


def test_stdout_default_and_format_flag(tmp_path, capsys):
    code = cli.main(["oracle", "--config",
                     _write(tmp_path, {"constant": [0.0, 0.5]})])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["command"] == "oracle"


# ---------------------------------------------------------------------------
# every malformed config value or flag exits 2 with one line on stderr

_JSON_TYPES = {
    "str": st.text(max_size=4),
    "bool": st.booleans(),
    "null": st.none(),
    "int": st.integers(-3, 3),
    "float": st.floats(-3.0, 3.0),
    "list": st.lists(st.integers(0, 2), max_size=2),
    "dict": st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
}


def _other_than(*types):
    """JSON values of every type but ``types``."""
    return st.one_of(*[s for name, s in _JSON_TYPES.items() if name not in types])


# what no number slot takes: other types, non-finite floats and an int
# beyond float range
_NOT_A_NUMBER = st.one_of(_other_than("int", "float"),
                          st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400]))
_NOT_A_COUNT = st.one_of(_other_than("int"), st.floats(-3.0, 3.0), st.integers(-3, 0))
_BAD_GRID = st.one_of(
    _other_than("list", "dict"),
    st.just([]),
    _NOT_A_NUMBER.map(lambda v: [0.0, 1.0, v]),
    st.lists(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2), min_size=1, max_size=2),
    _NOT_A_NUMBER.map(lambda v: {"start": v, "stop": 1.0, "count": 3}),
    _NOT_A_COUNT.map(lambda v: {"start": 0.0, "stop": 1.0, "count": v}),
    st.just({"start": 0.0, "count": 3}),
    st.just({"start": 0.0, "stop": 1.0, "count": 3, "step": 1}),
)


def _not_an_upper_point(v) -> bool:
    """False for an [re, im] pair of numbers with im > 0, a valid z."""
    return not (isinstance(v, list) and len(v) == 2 and v[1] > 0)


_BAD_TOL = st.one_of(_NOT_A_NUMBER, st.floats(max_value=0.0), st.floats(min_value=1.0),
                     st.integers(max_value=0), st.integers(min_value=1))

BAD_VALUES = {
    "command": _other_than("str"),
    "profile": st.one_of(
        _other_than("dict"),
        _other_than("list").map(lambda v: {"gaps": v}),
        _other_than("list").map(lambda v: {"gaps": [[-1, 1]], "angles": v}),
        _NOT_A_NUMBER.map(lambda v: {"gaps": [[-1, v]], "uniform": 0.3}),
        _NOT_A_NUMBER.map(lambda v: {"gaps": [[-1, 1]], "angles": [v]}),
        _NOT_A_NUMBER.map(lambda v: {"gaps": [[-1, 1]], "uniform": v}),
        st.just({"gaps": [-1, 1]}),
        st.just({"gaps": [[-1, 1, 2]]}),
        st.just({"gaps": [[-1, 1]], "uniform": 0.3, "colour": 1}),
    ),
    "constant": st.one_of(
        _other_than("list"),
        st.lists(st.floats(-1.0, 1.0), max_size=4).filter(lambda v: len(v) != 2),
        _NOT_A_NUMBER.map(lambda v: [v, 1.0]),
        _NOT_A_NUMBER.map(lambda v: [0.0, v]),
    ),
    "zgrid": st.one_of(
        _other_than("list"),
        st.just([]),
        _NOT_A_NUMBER.map(lambda v: [[v, 1.0]]),
        # a drawn list can be a valid [re, im] pair with im > 0: not here
        st.one_of(_NOT_A_NUMBER.filter(_not_an_upper_point), st.floats(-1.0, 1.0),
                  st.just([1.0, 2.0, 3.0])).map(lambda v: [[0.0, 1.0], v]),
    ),
    "tgrid": _BAD_GRID,
    "xgrid": st.one_of(_BAD_GRID, st.just([0.5, 1.0]), st.just([0.0, 1.0, 0.5])),
    "ygrid": st.one_of(_BAD_GRID, st.just([-8.0, 16.0, 32.0]), st.just([8.0, 16.0])),
    "xi_tol": _BAD_TOL,
    "loc_tol": _BAD_TOL,
    "bound_slack": _BAD_TOL,
    "random_profiles": _NOT_A_COUNT,
    "inject_det_error": _other_than("bool"),
    "seed": st.one_of(_other_than("int"), st.integers(max_value=-1)),
    "output": st.one_of(
        _other_than("dict"),
        st.one_of(_other_than("str"), st.just("")).map(lambda v: {"path": v}),
        st.one_of(_other_than("str"), st.text(max_size=5)).filter(
            lambda v: v not in ("json", "csv")).map(lambda v: {"format": v}),
        st.just({"path": "report.json", "mode": "w"}),
    ),
}

BAD_FLAGS = st.one_of(
    st.tuples(st.just("--seed"), st.one_of(
        st.sampled_from(["x", "1.5", "nan", "inf", "", "1e3", "0x10", "true", "[1]"]),
        st.integers(max_value=-1).map(str))),
    st.tuples(st.just("--format"), st.text(max_size=5).filter(lambda v: v not in ("json", "csv"))),
    st.tuples(st.just("--out"), st.sampled_from(["", "a\0b"])),
)


def _assert_config_error(code, err):
    assert code == 2
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), err


@given(st.sampled_from(sorted(BAD_VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), BAD_VALUES[key])))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_bad_config_value_exits_2(tmp_path, capsys, case):
    key, value = case
    cfg = dict(SINGLE_GAP, **{key: value})
    code = cli.main(["verify", "--config", _write(tmp_path, cfg)])
    _assert_config_error(code, capsys.readouterr().err)


@given(BAD_FLAGS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_bad_flag_value_exits_2(tmp_path, capsys, flag):
    name, value = flag
    code = cli.main(["verify", "--config", _write(tmp_path, SINGLE_GAP), f"{name}={value}"])
    _assert_config_error(code, capsys.readouterr().err)


@st.composite
def evolve_scales(draw):
    # 1 to 4 gaps with widths and spacings from 1e-6 to 1e2, the first one
    # starting anywhere in [-1e6, 1e6], and a short march
    n = draw(st.integers(1, 4))
    decades = st.floats(-6.0, 2.0)
    left, gaps = draw(st.floats(-1e6, 1e6)), []
    for _ in range(n):
        width = 10.0 ** draw(decades)
        gaps.append([left, left + width])
        left += width + 10.0 ** draw(decades)
    angles = draw(st.lists(st.floats(0.0, math.pi), min_size=n, max_size=n))
    stop = draw(st.floats(1e-3, 0.2))
    return {"profile": {"gaps": gaps, "angles": angles}, "xgrid": [0.0, 0.5 * stop, stop]}


@given(evolve_scales())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_evolve_across_scales_keeps_the_exit_contract(tmp_path, capsys, cfg):
    # every scale either marches or fails with a typed line: exit 0 or 1
    # (failed checks, in the report) write nothing to stderr, exit 2 or 3
    # one line, and nothing escapes as a traceback
    code = cli.main(["evolve", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), cfg
    assert "Traceback" not in err
    assert len(err.splitlines()) == (code >= 2), (cfg, err)


@pytest.mark.parametrize("cfg,flags", [
    (dict(SINGLE_GAP, xi_tol="abc"), []),
    ({"constant": ["a", 1]}, []),
    (dict(SINGLE_GAP, seed="x"), []),
    ({"profile": {"gaps": [[-1, 1]], "angles": [math.nan]}}, []),
    ({"random_profiles": 1, "seed": -1}, []),
    ({"random_profiles": 1}, ["--seed", "-4"]),
    (dict(SINGLE_GAP, output={"path": 7}), []),
    (dict(SINGLE_GAP, inject_det_error="no"), []),
    ({"random_profiles": 1.5}, []),
    (dict(SINGLE_GAP, xgrid={"start": 0, "stop": 1, "count": "3"}), []),
    ({"profile": {"gaps": [[-1, 1]], "angles": ["0.3"]}}, []),
    ({"profile": dict(SINGLE_GAP["profile"], colour=1)}, []),
])
def test_reported_bad_inputs_exit_2(tmp_path, capsys, cfg, flags):
    # each of these ended in a traceback, ran on a wrong value, or wrote
    # into an open file descriptor
    command = "oracle" if "constant" in cfg else "verify"
    code = cli.main([command, "--config", _write(tmp_path, cfg), *flags])
    _assert_config_error(code, capsys.readouterr().err)


def test_unreadable_config_files_exit_2(tmp_path, capsys):
    # nesting too deep for the JSON parser, and bytes that are not UTF-8
    deep = tmp_path / "deep.json"
    deep.write_text('{"profile": ' + "[" * 100000 + "]" * 100000 + "}")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"seed": "\xff\xfe"}')
    for path in (deep, binary):
        code = cli.main(["verify", "--config", str(path)])
        _assert_config_error(code, capsys.readouterr().err)


def test_evolve_failed_seed_check_exits_3(tmp_path):
    # the x = 0 Weyl-law cross-check does not converge this far out; the
    # march reports it with no samples instead of a traceback
    cfg = {"profile": {"gaps": [[-1, 1]], "uniform": 0.3}, "ygrid": [1e10, 2e10, 4e10]}
    code, text = _run(tmp_path, "evolve", cfg)
    assert code == 3
    failure = json.loads(text)["numerical_failure"]
    assert failure.startswith("NoConvergence: large-z extrapolation")
    assert failure.endswith("(last good x = nan)")


@pytest.mark.parametrize("command", ["construct", "verify"])
@pytest.mark.parametrize("cfg", [
    {"profile": {"gaps": [[0, 1]], "uniform": 0.3}, "zgrid": [[1e308, 1e308]]},
    {"profile": {"gaps": [[0, 1e200]], "uniform": 0.3}, "zgrid": [[0, 1e-200]]},
])
def test_run_stage_value_error_exits_3(tmp_path, capsys, command, cfg):
    # the gap ratio (b - z)/(a - z) overflows at these points and the kernel
    # refuses the non-finite M: one typed line, and no overflow warning,
    # which this filter would turn into an escaping exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--config", _write(tmp_path, cfg)])
    assert code == 3
    assert capsys.readouterr().err == \
        "numerical failure: ValueError: matrix entries must be finite\n"


@pytest.mark.parametrize("point", [[1e308, 1e308], [1e200, 1e200]])
def test_oracle_far_zgrid_point_exits_3_without_warning(tmp_path, capsys, point):
    # lambda^2 = p^2 + q^2 - z^2 overflows: the dichotomy check refuses the
    # non-finite lambda with one typed line and no overflow warning
    cfg = {"constant": [0.3, 0.4], "zgrid": [point]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["oracle", "--config", _write(tmp_path, cfg)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: DegenerateDichotomy: Re lambda = inf")
    assert err.count("\n") == 1


def test_far_tgrid_point_warns_nothing(tmp_path):
    # the limit offsets of a point far from every gap are formed without
    # overflow: xi there is I/2, and no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = _run(tmp_path, "construct", dict(SINGLE_GAP, tgrid=[1e308]))
    assert code == 0
    row = json.loads(text)["tables"]["xi"]["rows"][0]
    np.testing.assert_allclose(row[1:5], [0.5, 0.0, 0.0, 0.5], atol=1e-12)


def test_main_builds_no_parser(tmp_path, monkeypatch):
    # the parser is built once, at import, not per call
    def refuse(*args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    code, text = _run(tmp_path, "oracle", {"constant": [0.0, 1.0]})
    assert code == 0 and json.loads(text)["command"] == "oracle"
