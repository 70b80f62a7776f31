"""Command line driver: exit codes, determinism, the JSON report."""

import argparse
import decimal
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kreindirac import cli, dirac, finitegap, herglotz
from kreindirac.errors import NoConvergence
from kreindirac.finitegap import build_M, e_interior_grid, gap_realness, gap_realness_points

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
    # commuting projections: still a genuine Herglotz function, with real
    # gap values, and both are checks
    assert rec["herglotz_defect"]["value"] > -1e-9
    for name, tol in (("gap_realness", 1e-9), ("commutator", 1e-10)):
        assert rec[name]["status"] == "pass" and rec[name]["tolerance"] == tol
    code, text = _run(tmp_path, "verify", STRICT_PAIR)
    assert code == 0
    assert _records(text)["gap_realness"]["status"] == "pass"


def test_construct_classification_is_relative_past_a_unit_bound(tmp_path):
    # one uniform gap attains the bound; at bound 5e7 its rounding is one
    # ulp, 7.45e-9, past an absolute 1e-9
    code, text = _run(tmp_path, "construct", {"profile": {"gaps": [[0, 1e8]], "uniform": 0.3}})
    assert code == 0
    rec = _records(text)["classification"]
    assert 0.0 < rec["value"] < 1e-8
    assert rec["identity"].startswith("extremal") and "R0(E)" in rec["identity"]
    # a mismatched pair 1e-4 apart in angle at bound 1e8 falls short by
    # 0.5, five times the tolerance 1e-9 * 1e8
    cfg = {"profile": {"gaps": [[-2e8, -1e8], [1e8, 2e8]], "angles": [0.3, 0.3001]}}
    code, text = _run(tmp_path, "construct", cfg)
    assert code == 0
    rec = _records(text)["classification"]
    assert rec["value"] == pytest.approx(0.5, rel=1e-6)
    assert rec["identity"].startswith("strict")


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


def test_verify_det_corruption_hook(tmp_path, corrupt_det):
    corrupt_det()
    code, text = _run(tmp_path, "verify", SINGLE_GAP)
    assert code == 1
    assert _records(text)["det"]["status"] == "fail"


def test_verify_det_corruption_failures_are_frozen(tmp_path, corrupt_det):
    # the negative control fails the same checks, with the same identities,
    # as the one-matrix-at-a-time probes did
    corrupt_det()
    cfg = {"profile": {"gaps": [[-2, -1], [1, 2]], "uniform": 0.3}}
    code, text = _run(tmp_path, "verify", cfg)
    assert code == 1
    failed = {r["name"]: r["identity"] for r in json.loads(text)["records"]
              if r["status"] == "fail"}
    assert failed == {
        "det": "det M = -1 on C+",
        "mj_spectrum": "eig(MJ) = {+1, -1}",
        "weyl_roundtrip": "raised NotAdmissible: det M = "
                          "(-1.0000020000009997-6.938893903907228e-17j), expected -1",
        "asymptotics": "raised NoConvergence: large-z extrapolation: "
                       "residual 1.598e-05 exceeds 1.0e-06",
    }


@pytest.mark.parametrize("gaps", [[[0.0, 1e-2]], [[0.0, 1e-6]],
                                  [[5.0, 5.000001], [7.0, 8.0]]])
def test_narrow_gaps_construct_and_verify(tmp_path, gaps):
    # the densities are read at the boundary values on the real points, so
    # they hold however narrow the gap; a row is t and the four entries
    cfg = {"profile": {"gaps": gaps, "uniform": 0.3}}
    code, text = _run(tmp_path, "construct", cfg)
    assert code == 0
    rows = json.loads(text)["tables"]["xi"]["rows"]
    assert len(rows) == 7 * len(gaps)
    c, s = math.cos(0.3), math.sin(0.3)
    for row in rows:
        assert len(row) == 5
        np.testing.assert_allclose(row[1:5], [c * c, s * c, s * c, s * s], atol=1e-6)
    code, text = _run(tmp_path, "verify", cfg)
    assert code == 0
    assert all(r["status"] == "pass" for r in json.loads(text)["records"])


def test_verify_passes_a_band_inside_the_endpoint_margins(tmp_path):
    # the band (1, 1.000001) lies inside both gaps' endpoint margins, so it
    # gives no band points; the probes read the six outer band points, and
    # verify failed xi_trace, xi_on_bands and re_m_on_bands on an
    # EndpointSingularity at t = 1.0000001
    profile = {"gaps": [[0, 1], [1.000001, 2]], "uniform": 0.3}
    gs = cli.profile_from_json(profile).gapset
    assert len(e_interior_grid(gs)) == 6 and gs.endpoint_errors(e_interior_grid(gs)) == {}
    code, text = _run(tmp_path, "verify", {"profile": profile})
    assert code == 0
    records = _records(text)
    assert len(records) == 11 and all(r["status"] == "pass" for r in records.values())


def test_verify_witness_fails_herglotz_only(tmp_path):
    code, text = _run(tmp_path, "verify", WITNESS)
    assert code == 1
    failed = [r["name"] for r in json.loads(text)["records"]
              if r["status"] == "fail"]
    assert failed == ["herglotz"]


@pytest.mark.parametrize("centre", [0.0, 100.0, 1000.0, -1e3])
def test_verify_witness_fails_herglotz_wherever_its_spectrum_sits(tmp_path, centre):
    # moving the spectrum only rotates the potential, and the boundary
    # points move with the gaps, so they find the witness's negative
    # Im M(t + i0) at every centre, as deep as at 0
    gaps = [[a + centre, b + centre] for a, b in WITNESS["profile"]["gaps"]]
    code, text = _run(tmp_path, "verify", {"profile": dict(WITNESS["profile"], gaps=gaps)})
    assert code == 1
    failed = {name: r["value"] for name, r in _records(text).items() if r["status"] == "fail"}
    assert list(failed) == ["herglotz"]
    assert failed["herglotz"] == pytest.approx(_records(_run(tmp_path, "verify", WITNESS)[1])
                                               ["herglotz"]["value"], rel=1e-9)


def _failed(tmp_path, profile):
    # the names of the records that fail verify on the profile
    code, text = _run(tmp_path, "verify", {"profile": profile})
    failed = {name for name, r in _records(text).items() if r["status"] == "fail"}
    assert code == (1 if failed else 0)
    return failed


def _herglotz_tolerance(profile):
    # 64 eps times the power of two above max(1, max |M_ij|) over the
    # certificate's points
    prof = cli.profile_from_json(profile)
    mats = build_M(prof, gap_realness_points(prof.gapset)[0])
    return 64.0 * np.finfo(float).eps * 2.0 ** math.frexp(max(1.0, float(np.abs(mats).max())))[1]


@pytest.mark.parametrize("s", [10.0, 100.0, 1000.0, 1e8, 1e9, 1e10])
def test_verify_separated_witness_fails_herglotz(tmp_path, s):
    # the witness's angles on gaps (-s - 1, -s), (s, s + 1): the negative
    # part of Im M sits on the gaps and falls like 1 / s, above the
    # tolerance at rounding level at these s (s = 1e8 to 1e10 passed an
    # absolute 1e-9)
    gaps = [[-s - 1, -s], [s, s + 1]]
    # on gaps 2e8 or more apart the large-z law loses its digits on the
    # uniform profile too (a known defect of its heights); up to s = 1000
    # herglotz is the only record that fails
    known = {"asymptotics"} if s >= 1e8 else set()
    assert _failed(tmp_path, {"gaps": gaps, "uniform": 0.3}) == known
    profile = {"gaps": gaps, "angles": [0.3, 1.9]}
    code, text = _run(tmp_path, "verify", {"profile": profile})
    assert code == 1
    records = _records(text)
    assert {name for name, r in records.items() if r["status"] == "fail"} == known | {"herglotz"}
    assert records["herglotz"]["tolerance"] == _herglotz_tolerance(profile)
    assert records["herglotz"]["value"] == pytest.approx(0.0113 / s, rel=0.05)


# four gap sets and the records that fail verify on their uniform
# profiles: the large-z law loses its digits on gaps near 1e6.  A band
# 1e-6 wide lies inside its gaps' endpoint margins and gives no band
# points, so it fails nothing
NEAR_DIAGONAL_GAPS = {
    "unit": ([[-2, -1], [1, 2]], set()),
    "near-1e6": ([[999800, 999900], [1000000, 1000100]], {"asymptotics"}),
    "touching": ([[0, 1], [1.000001, 2]], set()),
    "64-gaps": ([[3 * j, 3 * j + 1] for j in range(64)], set()),
}


@pytest.mark.parametrize("delta", [1e-10, 1e-11])
@pytest.mark.parametrize("gaps", sorted(NEAR_DIAGONAL_GAPS))
def test_verify_fails_herglotz_next_to_the_diagonal(tmp_path, gaps, delta):
    # angles (0.3, ..., 0.3, 0.3 + delta): the certificate reads about
    # -0.3 delta to -2 delta, at least 10 times its tolerance, and passed
    # an absolute 1e-9
    gs, known = NEAR_DIAGONAL_GAPS[gaps]
    assert _failed(tmp_path, {"gaps": gs, "uniform": 0.3}) == known
    cfg = {"profile": {"gaps": gs, "angles": [0.3] * (len(gs) - 1) + [0.3 + delta]}}
    code, text = _run(tmp_path, "verify", cfg)
    assert code == 1
    records = _records(text)
    assert {name for name, r in records.items() if r["status"] == "fail"} == known | {"herglotz"}
    assert records["herglotz"]["value"] > 10.0 * records["herglotz"]["tolerance"]


@pytest.mark.parametrize("turn", [0.0, math.pi / 2])
@pytest.mark.parametrize("gaps", sorted(NEAR_DIAGONAL_GAPS))
def test_verify_passes_herglotz_at_the_edge_of_commuting(tmp_path, gaps, turn):
    # is_commuting allows each angle 1e-14 from alpha or alpha + pi/2; a
    # profile at that edge passes the certificate, and the profile 1e-12
    # off the diagonal, which is not commuting, fails it
    gs, known = NEAR_DIAGONAL_GAPS[gaps]
    for angle, fails in ((0.3 + turn + 0.999e-14, set()), (0.3 + turn + 1e-12, {"herglotz"})):
        profile = {"gaps": gs, "angles": [0.3] * (len(gs) - 1) + [angle]}
        assert cli.profile_from_json(profile).is_commuting == (not fails)
        assert _failed(tmp_path, profile) == known | fails


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


def test_evolve_gates_the_residual(tmp_path, two_gap_norm):
    code, text = _run(tmp_path, "evolve", SINGLE_GAP)
    assert code == 0
    rec = _records(text)["residual"]
    assert rec["status"] == "pass" and rec["tolerance"] == 1e-5
    # uniform profiles march their divisor: a two-gap march to x = 20 and a
    # wide centred pair stay on the closed-form orbit and pass the gate
    for gaps, angle, xgrid in (([[-2, -1], [1, 2]], math.pi / 4, [0, 10, 20]),
                               ([[-20, -1], [1, 20]], 0.3, [0, 1])):
        cfg = {"profile": {"gaps": gaps, "uniform": angle}, "xgrid": xgrid}
        code, text = _run(tmp_path, "evolve", cfg)
        assert code == 0
        rows = json.loads(text)["tables"]["W"]["rows"]
        err = np.abs([row[3] for row in rows] - two_gap_norm(gaps, xgrid))
        assert err.max() < 1e-8
        assert all(row[5] >= e for row, e in zip(rows, err))
    # orthogonal angles commute and take the Abel route too: on the wide
    # pair, over a long march and on the wide orthogonal pair to x = 2 they
    # meet the closed form and pass the gate, with residuals that bound
    # the error
    for gaps, alpha, xgrid in (([[-20, -1], [1, 20]], 0.3, [0, 1]),
                               ([[-2, -1], [1, 2]], 0.0, [0, 10, 20]),
                               ([[-6, -1], [1, 6]], 0.3, np.linspace(0, 2, 21).tolist())):
        cfg = {"profile": {"gaps": gaps, "angles": [alpha, alpha + math.pi / 2]},
               "xgrid": xgrid}
        code, text = _run(tmp_path, "evolve", cfg)
        assert code == 0
        rows = json.loads(text)["tables"]["W"]["rows"]
        err = np.abs([row[3] for row in rows] - two_gap_norm(gaps, xgrid, start="bottom"))
        assert err.max() < 1e-8
        assert all(row[5] >= e for row, e in zip(rows, err))
        assert _records(text)["residual"]["value"] >= err.max()


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


def test_stalled_march_names_the_gap_realness(tmp_path, monkeypatch):
    # a tolerance no step can meet stalls the witness's congruence march;
    # the failure names the profile's gap_realness, which is far from 0
    monkeypatch.setattr(dirac, "LOC_TOL", 1e-300)
    code, text = _run(tmp_path, "evolve", dict(WITNESS, xgrid=[0, 0.2]))
    assert code == 3
    failure = json.loads(text)["numerical_failure"]
    assert failure.startswith("NoConvergence: x-march stalled near x = 6.4")
    profile = cli.profile_from_json(WITNESS["profile"])
    assert f"gap_realness is {gap_realness(profile):.3g} " in failure
    assert "gap_realness is 0.00959 " in failure


def test_commuting_march_past_its_digits_ends_in_no_convergence(tmp_path):
    # at x = 1e17 the Abel targets P theta - 2 c x keep no digit, and the
    # solved divisor reads sqrt(2) times the bound; a commuting orbit cannot
    # cross the bound, so the crossing is a numerical failure, not a
    # certificate
    cfg = {"profile": {"gaps": [[-2, -1], [1, 2.5]], "uniform": 0.3}, "xgrid": [0, 1e17]}
    code, text = _run(tmp_path, "evolve", cfg)
    assert code == 3
    obj = json.loads(text)
    failure = obj["numerical_failure"]
    assert failure.startswith("NoConvergence: ||W(1e+17)|| = 1.76776695 exceeds the sharp bound")
    assert "on a commuting profile" in failure
    assert "2 c x = 3.5e+17 and have lost 16 of a double's 16 digits" in failure
    assert [row[0] for row in obj["tables"]["W"]["rows"]] == [0.0]


@pytest.mark.parametrize("stop", [1e8, 1e9, 1e10])
def test_far_grid_end_does_not_stall_the_witness(tmp_path, monkeypatch, stop):
    # the step floor scales with the position, not with the end of the grid
    # interval: a first step of the whole interval shrinks by rejections
    # down to the witness's step, and the march crosses the sharp bound near
    # x = 0.53 whatever the grid's end (a floor of 1e-10 stop stalled it at
    # x = 0 from stop = 1e9 on)
    code, text = _run(tmp_path, "evolve", dict(WITNESS, xgrid=[0, stop]))
    assert code == 3
    failure = json.loads(text)["numerical_failure"]
    assert failure.startswith("BoundViolation: ||W(0.5")
    # a tolerance that no step meets above rounding level still stalls,
    # within the first hundredth of x
    monkeypatch.setattr(dirac, "LOC_TOL", 1e-15)
    code, text = _run(tmp_path, "evolve", dict(WITNESS, xgrid=[0, stop]))
    assert code == 3
    failure = json.loads(text)["numerical_failure"]
    assert failure.startswith("NoConvergence: x-march stalled near x = 0.0")
    assert float(failure.split("x = ")[1].split(";")[0]) < 0.01


@pytest.mark.parametrize("stop", [1e13, 1e15, 1e100, 1e300])
def test_far_grid_end_keeps_the_witness_certificate(tmp_path, stop):
    # the first trial steps of so long an interval have finite stage states
    # whose eigenvalue pairs overflow; the step control rejects them, and
    # the march crosses the sharp bound near x = 0.53 (the pairs read as
    # on the branch cut, and the march ended in SpectrumOnCut)
    code, text = _run(tmp_path, "evolve", dict(WITNESS, xgrid=[0, stop]))
    assert code == 3
    failure = json.loads(text)["numerical_failure"]
    assert failure.startswith("BoundViolation: ||W(0.5")
    assert failure.endswith("(last good x = 0)")


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
        {},                                                   # needs profile
        dict(SINGLE_GAP, command="oracle"),                   # command clash
        dict(SINGLE_GAP, xgrid={"start": 0, "count": 3}),     # missing stop
        dict(SINGLE_GAP, output={"path": "x", "mode": "w"}),  # bad output key
        dict(SINGLE_GAP, xgrid={"start": 0, "stop": 1, "count": 0}),  # empty
        dict(SINGLE_GAP, xgrid=[0.0, 0.5, 0.25]),             # not increasing
        dict(SINGLE_GAP, xgrid=[0.1, 0.2]),                   # not starting at 0
    ]
    for cfg in bad_cases:
        code = cli.main(["verify", "--config", _write(tmp_path, cfg)])
        assert code == 2, cfg
    assert cli.main(["verify", "--config", str(tmp_path / "nope.json")]) == 2
    # the same bad grid under the command that uses it
    cfg = dict(SINGLE_GAP, xgrid={"start": 0, "stop": 1, "count": 0})
    assert cli.main(["evolve", "--config", _write(tmp_path, cfg)]) == 2


@pytest.mark.parametrize("command", ["verify", "evolve"])
def test_ygrid_is_held_to_the_co_rotating_frame(tmp_path, command):
    # the large-z heights count from the hull midpoint 100, about which
    # the far gap (99, 101) has radius 1: its points are those of (-1, 1)
    # moved by 100, and the run passes
    profile = {"gaps": [[99, 101]], "uniform": 0.3}
    gs = cli.profile_from_json(profile).gapset
    assert np.array_equal(herglotz.asymptotic_points(gs), 100.0 + 1j * herglotz._YGRID)
    code, _ = _run(tmp_path, command, {"profile": profile})
    assert code == 0


def test_console_main_exits_with_the_code_of_main(tmp_path, monkeypatch):
    # the installed kreindirac script runs console_main on sys.argv
    golden = str(Path(__file__).resolve().parent / "golden" / "construct.json")
    bad = _write(tmp_path, dict(SINGLE_GAP, xgrid=[1.0]))
    for config, expected in ((golden, 0), (bad, 2)):
        monkeypatch.setattr(sys, "argv", ["kreindirac", "construct", "--config", config,
                                          "--out", str(tmp_path / "report.json")])
        with pytest.raises(SystemExit) as stop:
            cli.console_main()
        assert stop.value.code == expected


def test_cli_import_leaves_scipy_out(tmp_path):
    # numpy is the only runtime dependency: the command line starts without
    # loading scipy, and with scipy blocked the package, mlog_integral, an
    # oracle run and an Abel inversion of a uniform orbit still work.  Nor
    # does it load numpy.polynomial: the congruence march computes its
    # Gauss-Legendre rules on first use
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, kreindirac.cli; "
            "sys.exit('scipy' in sys.modules or 'numpy.polynomial' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    cfg = _write(tmp_path, {"constant": [0.0, 1.0]})
    march = _write(tmp_path, {"profile": {"gaps": [[-2, -1], [1, 2.5]], "uniform": 0.3},
                              "xgrid": [0, 1, 2]}, "march.json")
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "import numpy as np, kreindirac",
        "from kreindirac import cli",
        "a = np.array([[1j, 0.5], [0.2, 2.0 + 1j]])",
        "d = np.abs(kreindirac.mlog_integral(a) - kreindirac.mlog_spectral(a)).max()",
        "assert d < 1e-9, d",
        f"assert cli.main(['oracle', '--config', {cfg!r}, '--out', {cfg + '.out'!r}]) == 0",
        f"sys.exit(cli.main(['evolve', '--config', {march!r}, '--out', {march + '.out'!r}]))",
    ])
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _indented_dumps(rep):
    """The JSON report as json.dumps lays it out with indent=2."""
    obj = {
        "command": rep.command,
        "records": [{"name": r.name, "status": r.status,
                     "value": r.value if math.isfinite(r.value) else repr(r.value),
                     "tolerance": r.tolerance, "identity": r.identity}
                    for r in rep.records],
        "tables": {name: {"columns": cols, "rows": rows}
                   for name, (cols, rows) in rep.tables.items()},
    }
    if rep.numerical_failure:
        obj["numerical_failure"] = rep.numerical_failure
    return json.dumps(obj, indent=2, default=float) + "\n"


def test_json_render_matches_the_indented_dumps(tmp_path):
    def stall():
        raise NoConvergence("x-march stalled")

    empty = cli.Report("construct")
    full = cli.Report("verify")
    full.check("det", 1.5e-15, 1e-10, "det M = -1")
    full.check("far", 2.0, 1e-10, "fails")
    full.info("nan_value", math.nan, "a NaN record")
    full.info("spectrum", -math.inf, "Ω ≤ ½ sup ‖W‖, \"quoted\"\ttab")
    full.probe("march", 1e-9, "never reached", stall)
    full.tables["M"] = (["t", "M00_re"], [[0.5, np.float64(-0.25)], [math.nan, math.inf],
                                          [np.float32(0.1), -math.inf], [-0.0, 1e-320]])
    full.tables["none"] = ([], [])
    full.tables["no_rows"] = (["a", "b"], [])
    full.numerical_failure = "NoConvergence: stalled at x = 0.5\nsecond line"
    for rep in (empty, full):
        assert cli._render_json(rep) == _indented_dumps(rep)
    # and reports of the commands, numpy scalars in their rows included
    for cmd, cfg in (("construct", SINGLE_GAP), ("oracle", {"constant": [0.3, -0.4]})):
        rep = cli.run(cli.load_config(_write(tmp_path, cfg), cmd, {}))
        assert cli._render_json(rep) == _indented_dumps(rep)


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
    "xgrid": st.one_of(_BAD_GRID, st.just([0.5, 1.0]), st.just([0.0, 1.0, 0.5])),
}

BAD_FLAGS = st.tuples(st.just("--out"), st.sampled_from(["", "a\0b"]))


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


# a default value of each setting that configs no longer take
_REMOVED = {"xi_tol": 1e-6, "bound_slack": 1e-4, "inject_det_error": False,
            "output": {"format": "json"}, "random_profiles": 3, "seed": 7,
            "ygrid": [8, 16, 32, 64, 128], "loc_tol": 1e-8,
            "zgrid": [[0.0, 1.0]], "tgrid": [0.0]}


@pytest.mark.parametrize("command", ["construct", "verify", "evolve", "oracle"])
@pytest.mark.parametrize("key", ["zgrid", "tgrid"])
def test_the_grids_are_unknown_keys_under_every_command(tmp_path, capsys, command, key):
    # the M and xi points are each command's defaults
    base = {"constant": [0.3, 0.4]} if command == "oracle" else SINGLE_GAP
    code = cli.main([command, "--config", _write(tmp_path, dict(base, **{key: _REMOVED[key]}))])
    err = capsys.readouterr().err
    _assert_config_error(code, err)
    assert err == f"config error: unknown config keys: ['{key}']\n"


@pytest.mark.parametrize("key", sorted(_REMOVED))
def test_removed_settings_are_unknown_keys(tmp_path, capsys, key):
    # the verdicts' tolerances, the large-z heights and the march's step
    # tolerance are fixed, the negative control is a test's substitution,
    # --out alone says where the report goes, verify checks the profile
    # its config names, and every command computes M and xi on its default
    # grids
    cfg = dict(SINGLE_GAP, **{key: _REMOVED[key]})
    code = cli.main(["verify", "--config", _write(tmp_path, cfg)])
    err = capsys.readouterr().err
    _assert_config_error(code, err)
    assert err == f"config error: unknown config keys: ['{key}']\n"


@pytest.mark.parametrize("flag", [["--seed", "4"], ["--format", "csv"]])
def test_removed_flags_are_usage_errors(tmp_path, capsys, flag):
    # reports are JSON only, and no flag picks a random batch's seed
    with pytest.raises(SystemExit) as stop:
        cli.main(["verify", "--config", _write(tmp_path, SINGLE_GAP), *flag])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(flag)}" in err


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
    _assert_evolve_exit_contract(tmp_path, capsys, cfg)


def _assert_evolve_exit_contract(tmp_path, capsys, cfg):
    # every scale either marches or fails with a typed line: exit 0 or 1
    # (failed checks, in the report) write nothing to stderr, exit 2 or 3
    # one line, and nothing escapes as a traceback
    code = cli.main(["evolve", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), cfg
    assert "Traceback" not in err
    assert len(err.splitlines()) == (code >= 2), (cfg, err)


@st.composite
def evolve_many_gaps(draw):
    # 16, 32 or 64 gaps with widths and spacings from 1e-2 to 1e1, the
    # first one starting anywhere in [-1e6, 1e6], and either one angle for
    # all gaps (an Abel inversion) to x <= 20 or one per gap (a congruence
    # march) to x <= 0.05
    n = draw(st.sampled_from([16, 32, 64]))
    decades = st.floats(-2.0, 1.0)
    left, gaps = draw(st.floats(-1e6, 1e6)), []
    for _ in range(n):
        width = 10.0 ** draw(decades)
        gaps.append([left, left + width])
        left += width + 10.0 ** draw(decades)
    angle = st.floats(0.0, math.pi)
    if draw(st.booleans()):
        angles = [draw(angle)] * n
        stop = draw(st.floats(1e-3, 20.0))
    else:
        angles = draw(st.lists(angle, min_size=n, max_size=n))
        stop = draw(st.floats(1e-3, 0.05))
    return {"profile": {"gaps": gaps, "angles": angles}, "xgrid": [0.0, 0.5 * stop, stop]}


@given(evolve_many_gaps())
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_evolve_with_many_gaps_keeps_the_exit_contract(tmp_path, capsys, cfg):
    _assert_evolve_exit_contract(tmp_path, capsys, cfg)


@st.composite
def evolve_long_marches(draw):
    # 1 to 4 gaps under one angle (an Abel inversion) with widths and
    # spacings from 1e-3 to 3, the first one starting anywhere in
    # [-1e6, 1e6], and a march to x in [1, 20]
    n = draw(st.integers(1, 4))
    decades = st.floats(-3.0, 0.5)
    left, gaps = draw(st.floats(-1e6, 1e6)), []
    for _ in range(n):
        width = 10.0 ** draw(decades)
        gaps.append([left, left + width])
        left += width + 10.0 ** draw(decades)
    stop = draw(st.floats(1.0, 20.0))
    return {"profile": {"gaps": gaps, "uniform": draw(st.floats(0.0, math.pi))},
            "xgrid": [0.0, 0.5 * stop, stop]}


@given(evolve_long_marches())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_evolve_long_marches_keep_the_exit_contract(tmp_path, capsys, cfg):
    _assert_evolve_exit_contract(tmp_path, capsys, cfg)


def test_evolve_far_gap_seeds_on_the_frame(tmp_path):
    # a gap near 1e6: the x = 0 Weyl-law check stands at c + i ys above
    # the gap's centre, where the heights keep their digits, so the run
    # passes
    cfg = {"profile": {"gaps": [[999950, 1000050]], "uniform": 0.3}, "xgrid": [0, 0.2]}
    code, text = _run(tmp_path, "evolve", cfg)
    assert code == 0
    records = _records(text)
    assert records["residual"]["status"] == "pass"
    assert records["norm_constancy"]["status"] == "pass"


# pi to 50 digits, by which the exact rotation below reduces its angle
_PI = decimal.Decimal("3.1415926535897932384626433832795028841971693993751")


def _exactly_turned(p, q, c, x):
    """(p + iq) e^{2icx} for floats p, q, x and a rational c: the angle
    reduced to [-pi, pi] and its cosine and sine summed in 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        angle = 2 * c * Fraction(x)
        a = (decimal.Decimal(angle.numerator) / angle.denominator).remainder_near(2 * _PI)
        # the Taylor series of e^{ia}: a^k / k! into cos and sin by k mod 4
        parts, term = [decimal.Decimal(0)] * 4, decimal.Decimal(1)
        for k in range(80):
            parts[k % 4] += term
            term = term * a / (k + 1)
        cos, sin = parts[0] - parts[2], parts[1] - parts[3]
        p, q = decimal.Decimal(p), decimal.Decimal(q)
        return float(p * cos - q * sin), float(p * sin + q * cos)


@pytest.mark.parametrize("gap, x, code", [
    ([999950.123, 1000050.456], 1.8e6, 1),
    ([999950.123, 1000050.456], 1.2e4, 0),
    ([5.1234567, 6.7654321], 1.431e12, 1),
], ids=["c1e6-x1.8e6", "c1e6-x1.2e4", "c5.9-x1.431e12"])
def test_the_frame_rotation_rounding_is_in_the_residual(tmp_path, gap, x, code):
    # a single gap's W(x) is W(0) turned by 2 c x, c the exact midpoint of
    # the float endpoints; the rounded angle puts W(x) off by up to
    # eps |2 c x| ||W||, which the residual left out: the first and last
    # runs exited 0 with residuals 3.8e-6 and 2.8e-8 against deviations of
    # 2.4e-3 and 1.7e-4
    cfg = {"profile": {"gaps": [gap], "uniform": 0.3}, "xgrid": [0, x]}
    got, text = _run(tmp_path, "evolve", cfg)
    assert got == code
    (_, p0, q0, *_), (_, p, q, _, _, residual) = json.loads(text)["tables"]["W"]["rows"]
    want_p, want_q = _exactly_turned(p0, q0, (Fraction(gap[0]) + Fraction(gap[1])) / 2, x)
    assert residual >= math.hypot(p - want_p, q - want_q)
    assert _records(text)["residual"]["status"] == ("fail" if code else "pass")


def test_verify_far_gap_runs_the_asymptotics_on_the_frame(tmp_path):
    # the same gap near 1e6: verify's large-z probe stands above the
    # gap's centre too, where y (iI - M(c + iy)) keeps its digits
    code, text = _run(tmp_path, "verify", {"profile": {"gaps": [[999950, 1000050]], "uniform": 0.3}})
    assert code == 0
    assert _records(text)["asymptotics"]["status"] == "pass"


@pytest.mark.parametrize("cfg,flags", [
    (dict(SINGLE_GAP, xi_tol="abc"), []),
    ({"constant": ["a", 1]}, []),
    (dict(SINGLE_GAP, seed="x"), []),
    ({"profile": {"gaps": [[-1, 1]], "angles": [math.nan]}}, []),
    ({"random_profiles": 1, "seed": -1}, []),
    ({"random_profiles": 1}, []),
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


@pytest.mark.parametrize("command, key", [("evolve", "xgrid")])
def test_a_range_too_large_to_allocate_exits_2(tmp_path, capsys, command, key):
    # 10**15 points fail at once and allocate nothing; they ended in a
    # traceback, exit 1
    cfg = dict(SINGLE_GAP, **{key: {"start": 0, "stop": 1, "count": 10**15}})
    code = cli.main([command, "--config", _write(tmp_path, cfg)])
    err = capsys.readouterr().err
    _assert_config_error(code, err)
    assert err.startswith(f'config error: "{key}": ')


@pytest.mark.parametrize("command", ["construct", "verify"])
def test_a_run_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, command):
    # the real points of very many gaps can outgrow memory; a substitute
    # raises where both commands allocate them, as numpy does, and the run
    # ended in a traceback, exit 1
    def out_of_memory(gapset):
        raise MemoryError("Unable to allocate 7.11 PiB for an array")

    monkeypatch.setattr(finitegap, "gap_interior_grid", out_of_memory)
    code = cli.main([command, "--config", _write(tmp_path, SINGLE_GAP)])
    assert code == 3
    assert capsys.readouterr().err == (
        "numerical failure: MemoryError: Unable to allocate 7.11 PiB for an array\n")


def test_unreadable_config_files_exit_2(tmp_path, capsys):
    # nesting too deep for the JSON parser, and bytes that are not UTF-8
    deep = tmp_path / "deep.json"
    deep.write_text('{"profile": ' + "[" * 100000 + "]" * 100000 + "}")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"seed": "\xff\xfe"}')
    for path in (deep, binary):
        code = cli.main(["verify", "--config", str(path)])
        _assert_config_error(code, capsys.readouterr().err)


def test_evolve_failed_seed_check_exits_3(tmp_path, monkeypatch):
    # the x = 0 Weyl-law cross-check does not converge this far out; the
    # march reports it with no samples instead of a traceback
    monkeypatch.setattr(herglotz, "_YGRID", np.array([1e10, 2e10, 4e10]))
    code, text = _run(tmp_path, "evolve", {"profile": {"gaps": [[-1, 1]], "uniform": 0.3}})
    assert code == 3
    failure = json.loads(text)["numerical_failure"]
    assert failure.startswith("NoConvergence: large-z extrapolation")
    assert failure.endswith("(last good x = nan)")


def _grid_of(monkeypatch, name, points):
    # the command's default grid ``name`` replaced by ``points``: the
    # library functions take any point, and these reach the run's
    # evaluation and exit paths through the command
    monkeypatch.setattr(cli, name, lambda gapset: np.array(points))


@pytest.mark.parametrize("command", ["construct", "verify"])
@pytest.mark.parametrize("cfg", [
    ({"profile": {"gaps": [[0, 1]], "uniform": 0.3}}, 1e308 + 1e308j),
    ({"profile": {"gaps": [[0, 1e200]], "uniform": 0.3}}, 1e-200j),
])
def test_run_stage_value_error_exits_3(tmp_path, capsys, monkeypatch, command, cfg):
    # the gap ratio (b - z)/(a - z) overflows at these points and the kernel
    # refuses the non-finite M (test_finitegap has the library's side): one
    # typed line, and no overflow warning, which this filter would turn
    # into an escaping exception
    profile, point = cfg
    _grid_of(monkeypatch, "_default_zgrid", [point])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--config", _write(tmp_path, profile)])
    assert code == 3
    assert capsys.readouterr().err == \
        "numerical failure: ValueError: matrix entries must be finite\n"


@pytest.mark.parametrize("point", [[1e308, 1e308], [1e200, 1e200]])
def test_oracle_far_zgrid_point_exits_3_without_warning(tmp_path, capsys, monkeypatch, point):
    # lambda^2 = p^2 + q^2 - z^2 overflows: the dichotomy check refuses the
    # non-finite lambda (test_dirac has the library's side) with one typed
    # line and no overflow warning
    _grid_of(monkeypatch, "_default_zgrid", [complex(*point)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["oracle", "--config", _write(tmp_path, {"constant": [0.3, 0.4]})])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: DegenerateDichotomy: Re lambda = inf")
    assert err.count("\n") == 1


def test_far_tgrid_point_warns_nothing(tmp_path, monkeypatch):
    # the boundary value at a real point far from every gap is formed
    # without overflow: xi there is I/2, and no warning is raised
    # (test_herglotz has the library's side).  The point lies in E, where
    # Im M = I, so gap_realness, which reads the same points, fails
    monkeypatch.setattr(cli, "gap_realness_points", lambda gapset: (np.array([1e308]), {}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = _run(tmp_path, "construct", SINGLE_GAP)
    assert code == 1
    records = _records(text)
    assert [name for name, r in records.items() if r["status"] == "fail"] == ["gap_realness"]
    assert records["gap_realness"]["value"] == pytest.approx(1.0, abs=1e-12)
    row, = json.loads(text)["tables"]["xi"]["rows"]
    assert row[0] == 1e308
    np.testing.assert_allclose(row[1:5], [0.5, 0.0, 0.0, 0.5], atol=1e-12)


TINY_HEIGHT = {"profile": {"gaps": [[-1, 1]], "uniform": 0.3}}
FAR_WIDE_GAP = {"profile": {"gaps": [[1e300, 2e300]], "uniform": 0.3}}


@pytest.mark.parametrize("command, cfg", [("construct", TINY_HEIGHT), ("verify", TINY_HEIGHT),
                                          ("construct", FAR_WIDE_GAP)],
                         ids=["construct-tiny-height", "verify-tiny-height", "construct-far-gap"])
def test_a_point_past_the_renormalisation_range_warns_nothing(tmp_path, monkeypatch,
                                                              command, cfg):
    # at Im z = 1e-305 over a gap 2 wide (as the z grid, beside an ordinary
    # point; test_finitegap has the library's side), or at the boundary
    # heights of xi on a gap 1e300 wide, a Moebius ratio's modulus bound
    # spans more than the 1000 bits a class product may hold: that point
    # renormalises after every factor, and the ordinary points beside it in
    # the one evaluation of M keep their own periods
    if cfg is TINY_HEIGHT:
        _grid_of(monkeypatch, "_default_zgrid", [1e-305j, 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = _run(tmp_path, command, cfg)
    assert code == 0
    if command == "construct":
        # the xi rows of the gap's seven default interior points
        assert len(json.loads(text)["tables"]["xi"]["rows"]) == 7


@pytest.mark.parametrize("command, cfg", [
    ("construct", {"profile": {"gaps": [[-1e308, 1e308]], "uniform": 0.3}}),
    ("verify", {"profile": {"gaps": [[-1e308, 1e308]], "uniform": 0.3}}),
    ("evolve", {"profile": {"gaps": [[-1e308, 1e308]], "uniform": 0.3}}),
    ("construct", {"profile": {"gaps": [[-1e308, 0], [1, 1e308]], "uniform": 0.3}}),
    ("oracle", {"constant": [1e308, 1e308]}),
    ("construct", {"profile": {"gaps": [[0, 5e-324]], "uniform": 0.3}}),
    ("verify", {"profile": {"gaps": [[0, 5e-324]], "uniform": 0.3}}),
], ids=["construct-wide", "verify-wide", "evolve-wide", "construct-wide-hull",
        "oracle-wide", "construct-subnormal", "verify-subnormal"])
def test_gaps_at_the_edges_of_float_range_exit_2(tmp_path, capsys, command, cfg):
    # a width, the hull width or a default grid's extent past float range,
    # or a gap whose endpoint margin underflows to 0 (too narrow for its
    # interior points): the runs printed numpy overflow warnings and exited
    # 3 on an unrelated error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--config", _write(tmp_path, cfg)])
    err = capsys.readouterr().err
    _assert_config_error(code, err)
    assert err.startswith('config error: "constant": ' if command == "oracle"
                          else 'config error: "profile": ')


@pytest.mark.parametrize("command", ["construct", "verify", "evolve"])
@pytest.mark.parametrize("gap", [[1, 1.0000000000000002], [0, 3e-321]], ids=["ulp", "subnormal"])
def test_a_gap_too_narrow_for_its_interior_points_exits_2(tmp_path, capsys, command, gap):
    # the interior points of a gap one ulp wide round onto its endpoints,
    # and those of a subnormal gap have subnormal boundary heights:
    # construct exited 3, verify 1 or 3 and evolve 0
    cfg = {"profile": {"gaps": [gap], "uniform": 0.3}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--config", _write(tmp_path, cfg)])
    err = capsys.readouterr().err
    _assert_config_error(code, err)
    a, b = map(float, gap)
    assert err.startswith(f'config error: "profile": gap ({a}, {b}) is too narrow for its '
                          'interior points')


@pytest.mark.parametrize("command", ["construct", "verify", "evolve"])
@pytest.mark.parametrize("width", [1e-6, 1e-12])
def test_a_narrow_gap_with_room_for_its_interior_points_runs(tmp_path, command, width):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = _run(tmp_path, command, {"profile": {"gaps": [[0, width]], "uniform": 0.3}})
    assert code == 0


@pytest.mark.parametrize("width", [1e-15, 1e-14])
def test_a_narrow_gap_far_from_the_hull_midpoint_evolves(tmp_path, width):
    # the co-rotating frame moves the gap (0, width) by the hull midpoint
    # -50, where it keeps about an ulp of 50 or collapses to (50.0, 50.0):
    # the Abel route reads the frame's endpoints as they round, and the
    # runs exited 3 on the frame's gap set refusing them
    cfg = {"profile": {"gaps": [[-100, -99], [0, width]], "uniform": 0.3}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = _run(tmp_path, "evolve", cfg)
    assert code == 0
    rows = json.loads(text)["tables"]["W"]["rows"]
    assert len(rows) == 11
    for _, _, _, norm, bound, _ in rows:
        assert norm <= bound + dirac.BOUND_SLACK


def test_the_readme_lists_every_config_key():
    # a deleted key leaves no stale row in the README's table of keys, and
    # a new one is not left out of it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| key | type and range | meaning |\n")[1].split("\n\n")[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    keys = [line.split("`")[1] for line in rows]
    assert sorted(keys) == sorted({"command"} | set(cli._KEYS))


def test_a_far_narrow_gap_in_float_range_constructs(tmp_path):
    # 5 spectral radii and 128 hull half widths of (-1e307, -9e306) are finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = _run(tmp_path, "construct",
                       {"profile": {"gaps": [[-1e307, -9e306]], "uniform": 0.3}})
    assert code == 0


def test_main_builds_no_parser(tmp_path, monkeypatch):
    # the parser is built once, at import, not per call
    def refuse(*args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    code, text = _run(tmp_path, "oracle", {"constant": [0.0, 1.0]})
    assert code == 0 and json.loads(text)["command"] == "oracle"
