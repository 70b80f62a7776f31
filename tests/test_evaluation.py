"""One evaluation of M per profile in `construct` and `verify`.

The probes of both commands read slices of one evaluation, one call of
``build_M`` and so of ``build_logM``: each record must equal what the
library function of its probe computes on its own, and a probe must still
fail alone.  The boundary values M(t + i0) that
they read at real points must equal the library's limit from above.
"""

import json
import math

import numpy as np
import pytest

from kreindirac import cli, finitegap, herglotz
from kreindirac.dirac import co_rotating_frame
from kreindirac.errors import KreinDiracError
from kreindirac.finitegap import (
    GapSet,
    KreinProfile,
    assemble_M,
    build_M,
    commutator_reduce,
    e_interior_grid,
    gap_interior_grid,
    gap_realness,
    gap_realness_points,
    mj_eigenpairs,
    reflectionless_boundary_reduce,
    reflectionless_defect,
    trace_formula_W0,
    weyl_from_M,
)
from kreindirac.herglotz import (
    asymptotic_W,
    asymptotic_points,
    asymptotic_reduce,
    herglotz_defect,
    krein_xi,
    krein_xi_values,
)
from kreindirac.mat2 import I2, mlog_spectral, op_norm
from test_torus import TORUS_SETS

# two gaps 1.3e-5 apart: the narrow gap's interior and the band between
# lie inside the wide gap's endpoint margin
NARROW = {"gaps": [[-50.5, 49.5], [49.500013, 50.500013]], "uniform": 0.4}
PROFILES = {
    "one_gap": {"profile": {"gaps": [[-1, 1]], "uniform": 0.4}},
    "flipped": {"profile": {"gaps": [[-2, -1], [1, 2]],
                            "angles": [0.3, 0.3 + math.pi / 2]}},
    "witness": {"profile": {"gaps": [[-2, -1], [1, 2]], "angles": [0.3, 1.9]}},
    "gaps16": {"profile": {"gaps": [[3 * j, 3 * j + 1] for j in range(16)],
                           "uniform": 0.7}},
    # evaluated as (1 + 1e-6) M: the corrupt_det fixture
    "det_error": {"profile": {"gaps": [[-2, -1], [1, 2]], "uniform": 0.3}},
    "narrow": {"profile": NARROW},
}


def _load(tmp_path, corrupt_det, command, name):
    """The config of PROFILES[name], with the negative control switched on
    for the det_error case."""
    if name == "det_error":
        corrupt_det()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(PROFILES[name]))
    return cli.load_config(str(path), command, {})


def _calls(monkeypatch):
    """Record (profile, points) of every evaluation of a profile's M, and
    of every evaluation of its logarithm, in two lists."""
    calls, log_calls = [], []
    build_M, build_logM = herglotz.build_M, finitegap.build_logM

    def counting(profile, z):
        calls.append((profile, np.array(z, dtype=complex)))
        return build_M(profile, z)

    def counting_logs(profile, z):
        log_calls.append((profile, np.array(z, dtype=complex)))
        return build_logM(profile, z)

    monkeypatch.setattr(herglotz, "build_M", counting)
    monkeypatch.setattr(finitegap, "build_logM", counting_logs)
    return calls, log_calls


def _one_evaluation(calls, log_calls):
    """The (profile, points) of the one evaluation, with its one call of
    build_logM at the same points."""
    (profile, pts), = calls
    (log_profile, log_pts), = log_calls
    assert log_profile is profile and np.array_equal(log_pts, pts)
    return profile, pts


def _same_points(got, *sets):
    want = np.concatenate([np.ravel(s) for s in sets]).astype(complex)
    return got.shape == want.shape and np.array_equal(np.sort(got), np.sort(want))


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_verify_evaluates_the_profile_and_the_frame_once(tmp_path, monkeypatch, corrupt_det,
                                                         name):
    cfg = _load(tmp_path, corrupt_det, "verify", name)
    profile, gs = cfg.profile, cfg.profile.gapset
    calls = _calls(monkeypatch)
    point_sets = []

    def counting_points(gapset):
        point_sets.append(gapset)
        return gap_realness_points(gapset)

    monkeypatch.setattr(cli, "gap_realness_points", counting_points)
    cli.run(cfg)
    # one call, the large-z points c + i ys above the gaps' hull included
    first, pts = _one_evaluation(*calls)
    assert first is profile
    assert _same_points(pts, cli._default_zgrid(gs), gap_realness_points(gs)[0],
                        e_interior_grid(gs), asymptotic_points(gs))
    # the gap probes read one point set, made once for every profile; no
    # real point inside an endpoint margin enters the evaluation, and no
    # height above a real point does
    assert point_sets == [gs]
    assert gs.endpoint_errors(pts.real[pts.imag == 0]) == {}
    assert _same_points(pts[pts.imag != 0], cli._default_zgrid(gs), asymptotic_points(gs))


def _outcome(call):
    # a call's value, or the type and message of the KreinDiracError it raised
    try:
        return call()
    except KreinDiracError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("centre", [0.0, -3.7, 1e3, 1e6])
def test_the_frame_at_i_y_is_the_profile_at_c_plus_i_y(centre):
    # the large-z points rest on this: moving the gaps by -c and the point
    # by -c gives the same Moebius ratios, so the same M, bit for bit; so
    # a profile's W(0) from the large-z law is its co-rotating frame's at
    # i ys, value or failure
    rng = np.random.default_rng(int(centre) % 1000)
    failed = []
    for n in (1, 2, 3, 16, 64):
        widths = rng.uniform(0.05, 100.0 if centre >= 1e3 else 1.5, n)
        lefts = centre + np.cumsum(widths + rng.uniform(1e-6, 3.0, n)) - widths
        gs = GapSet(tuple((float(a), float(a + w)) for a, w in zip(lefts, widths)))
        for angles in ((0.4,) * n, tuple(rng.uniform(0.0, math.pi, n))):
            profile = KreinProfile(gs, angles)
            c, frame = co_rotating_frame(profile)
            zs = asymptotic_points(gs)
            # the points stand above the hull midpoint, at the frame's heights
            assert np.all(zs.real == c)
            assert np.array_equal(zs.imag,
                                  max(1.0, frame.gapset.spectral_radius) * herglotz._YGRID)
            ys = np.concatenate([zs.imag, zs.imag[0] * rng.uniform(1.0, 1e6, 20)])
            np.testing.assert_array_equal(build_M(profile, c + 1j * ys),
                                          build_M(frame, 1j * ys))
            frame_mats = build_M(frame, 1j * zs.imag)
            mfun = herglotz.profile_m_function(profile)
            for route in ("value", "log"):
                got = _outcome(lambda: asymptotic_reduce(zs, mfun(zs), (route,))[0])
                assert got == _outcome(lambda: asymptotic_reduce(1j * zs.imag, frame_mats,
                                                                 (route,))[0])
                if route == "value":
                    # asymptotic_W reads the value route
                    assert got == _outcome(lambda: asymptotic_W(mfun))
                if isinstance(got, tuple):
                    failed.append((n, len(set(angles)) == 1, route, got[0]))
    # the value route's trace test is an absolute 1e-6, which 5 of the 20
    # profiles of gaps up to 100 wide miss (|W(0)| up to 1828), in the
    # frame as on the axis (ROADMAP item 4); every other call converges
    want = [] if centre < 1e3 else [(3, True), (3, False), (16, True), (64, True), (64, False)]
    assert failed == [(n, uniform, "value", "NotTraceless") for n, uniform in want]


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_construct_evaluates_the_profile_once(tmp_path, monkeypatch, corrupt_det, name):
    cfg = _load(tmp_path, corrupt_det, "construct", name)
    gs = cfg.profile.gapset
    calls = _calls(monkeypatch)
    cli.run(cfg)
    # the xi table, gap_realness, the commutator and the Herglotz
    # certificate read the boundary values at the gap_realness points
    # clear of the endpoint margins, and their one logarithm
    first, pts = _one_evaluation(*calls)
    assert first is cfg.profile
    assert _same_points(pts, cli._default_zgrid(gs), gap_realness_points(gs)[0])


@pytest.mark.parametrize("command, gaps, count", [
    ("construct", [[3 * j, 3 * j + 1] for j in range(64)], 20 + 64 * 7),
    ("verify", [[-1, 1]], 20 + 7 + 6 + 5),
])
def test_the_one_evaluation_takes_one_point_per_boundary_value(tmp_path, monkeypatch, command,
                                                               gaps, count):
    # the z grid, 7 real points per gap, 6 band points per gap set and 5
    # large-z heights: no point takes heights above it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"profile": {"gaps": gaps, "uniform": 0.7}}))
    calls = _calls(monkeypatch)
    assert cli.run(cli.load_config(str(path), command, {})).failed is False
    _, pts = _one_evaluation(*calls)
    assert len(pts) == count


def _gap_points(gs):
    # the gap interior points clear of the margins; the first point inside
    # one raises
    ts, errors = gap_realness_points(gs)
    if errors:
        raise next(iter(errors.values()))
    return ts


def _reference_verify(cfg):
    """Each verify record's value as its probe's library function computes
    it, one call each, by name in report order; a KreinDiracError stands
    for a probe that raised it."""
    profile = cfg.profile
    gs = profile.gapset
    mfun = cli.profile_m_function(profile)
    zgrid, tgrid, egrid = cli._default_zgrid(gs), gap_interior_grid(gs), e_interior_grid(gs)
    mats = mfun(zgrid)
    j = gs.containing_gaps(tgrid)
    target = profile.projection_defects[j] + 0.5 * I2

    def mj_dev():
        _, lo, hi = mj_eigenpairs(mats)
        return max(np.abs(lo + 1.0).max(), np.abs(hi - 1.0).max())

    def trace_dev():
        xi = krein_xi_values(mfun(np.concatenate([_gap_points(gs), egrid])))
        return np.abs(xi[:, 0, 0] + xi[:, 1, 1] - 1.0).max()

    def asym_dev():
        w0 = trace_formula_W0(profile)
        value, zs = asymptotic_W(mfun), asymptotic_points(gs)
        log = asymptotic_reduce(zs, mfun(zs), ("log",))[0]
        return max(math.hypot(w.p - w0.p, w.q - w0.q) for w in (value, log))

    probes = {
        "det": lambda: np.abs(np.linalg.det(mats) + 1.0).max(),
        "symmetry": lambda: np.abs(mats[:, 0, 1] - mats[:, 1, 0]).max(),
        "herglotz": lambda: -herglotz_defect(mfun),
        "mj_spectrum": mj_dev,
        "weyl_roundtrip": lambda: op_norm(assemble_M(weyl_from_M(mats)) - mats).max(),
        "xi_trace": trace_dev,
        "xi_on_bands": lambda: op_norm(krein_xi_values(mfun(egrid)) - 0.5 * I2).max(),
        "re_m_on_bands": lambda: reflectionless_boundary_reduce(mfun(egrid)),
        "gap_projection": lambda: op_norm(krein_xi_values(mfun(_gap_points(gs)))
                                          - target).max(),
    }
    if profile.is_commuting:
        probes["gap_realness"] = lambda: gap_realness(profile)
    probes["asymptotics"] = asym_dev
    return {name: _value_or_error(fn) for name, fn in probes.items()}


def _value_or_error(call):
    # a call's value as a float, or the KreinDiracError it raised
    try:
        return float(call())
    except KreinDiracError as exc:
        return exc


def _assert_record(rec, ref):
    if isinstance(ref, KreinDiracError):
        assert rec.status == "fail" and rec.value == math.inf
        assert rec.identity == f"raised {type(ref).__name__}: {ref}"
    else:
        assert rec.value == ref


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_verify_records_equal_their_library_functions(tmp_path, corrupt_det, name):
    # exact: a point's M does not depend on the points evaluated beside it
    cfg = _load(tmp_path, corrupt_det, "verify", name)
    records = cli.run(cfg).records
    ref = _reference_verify(cfg)
    assert [r.name for r in records] == list(ref)
    for rec in records:
        if rec.name == "gap_realness" and name == "det_error":
            # the corrupted M is (1 + 1e-6) M, and every probe reads it
            assert rec.value == pytest.approx((1.0 + 1e-6) * ref[rec.name], rel=1e-12)
            continue
        _assert_record(rec, ref[rec.name])


def test_verify_fails_the_narrow_band_probes_alone(tmp_path):
    # three probes meet the margin of the wide gap at the narrow gap's
    # first interior point; the band between the gaps lies inside the
    # margin and gives no band points, so the others pass
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"profile": NARROW}))
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 1
    margin = "raised EndpointSingularity: t = {} is within the exclusion margin of gap (-50.5, 49.5)"
    failed = {r["name"]: r["identity"] for r in json.loads(out.read_text())["records"]
              if r["status"] == "fail"}
    assert failed == {
        "xi_trace": margin.format(49.550013),
        "gap_projection": margin.format(49.550013),
        "gap_realness": margin.format(49.550013),
    }


def test_construct_fails_the_narrow_gap_checks_alone(tmp_path):
    # the same margin point fails construct's two checks that read every
    # gap point; the xi table holds the 13 clear gap points
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"profile": NARROW}))
    out = tmp_path / "report.json"
    assert cli.main(["construct", "--config", str(path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    margin = ("raised EndpointSingularity: t = 49.550013 is within the exclusion margin of "
              "gap (-50.5, 49.5)")
    failed = {r["name"]: r["identity"] for r in report["records"] if r["status"] == "fail"}
    assert failed == {"gap_realness": margin, "commutator": margin}
    assert len(report["tables"]["xi"]["rows"]) == 13


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_construct_records_and_tables_equal_their_library_functions(tmp_path, corrupt_det,
                                                                    name):
    cfg = _load(tmp_path, corrupt_det, "construct", name)
    profile = cfg.profile
    gs = profile.gapset
    rep = cli.run(cfg)
    mfun = cli.profile_m_function(profile)
    records = {r.name: r for r in rep.records}
    realness = _value_or_error(lambda: gap_realness(profile))
    if name == "det_error":
        assert records.pop("gap_realness").value == pytest.approx((1.0 + 1e-6) * realness,
                                                                   rel=1e-12)
    else:
        _assert_record(records.pop("gap_realness"), realness)
    # sup ||[Re log M(t), P_j]|| over the gap points clear of the margins,
    # from the logarithm of their boundary values; the checks of a
    # commuting profile fail at the first point left out
    ts = gap_realness_points(gs)[0]
    projections = profile.projection_defects[gs.containing_gaps(ts)] + 0.5 * np.eye(2)
    _assert_record(records.pop("commutator"), _value_or_error(
        lambda: commutator_reduce(mlog_spectral(mfun(_gap_points(gs))), projections)))
    _assert_record(records.pop("herglotz_defect"), herglotz_defect(mfun))
    zgrid = cli._default_zgrid(gs)
    m = mfun(zgrid)
    mrows = np.column_stack([zgrid.real, zgrid.imag]
                            + [f(m[:, i, k]) for i in (0, 1) for k in (0, 1)
                               for f in (np.real, np.imag)])
    xrows = np.array([[t, *x.ravel()] for t, x in zip(ts, krein_xi_values(mfun(ts)))])
    for table, want in (("M", mrows), ("xi", xrows)):
        np.testing.assert_array_equal(np.array(rep.tables[table][1]), want)


# tier-1's gap sets: test_torus's eight, then gaps 1e-8 and 1.3e-5 apart,
# whose bands lie inside the endpoint margins, and gaps near 1e3 and 1e6
BOUNDARY_SETS = list(TORUS_SETS) + [
    ((-1.0, 0.0), (1e-8, 1.0)),
    tuple(map(tuple, NARROW["gaps"])),
    ((-1000.5, -999.5), (999.5, 1000.5)),
    ((1e6, 1e6 + 1.0), (1e6 + 2.0, 1e6 + 3.0)),
    ((999950.0, 1000050.0),),
]
# |xi(t) - krein_xi(t)| measured at most 2.7e-11 over these sets (gaps
# near -1e3), |re_m_on_bands - reflectionless_defect| at most 4.3e-13
# (16 gaps): the limit's extrapolation error, well inside its 1e-6
XI_LIMIT_TOL = 1e-9
RE_M_LIMIT_TOL = 1e-11
COMMUTATOR_FLOOR = 1e-15


@pytest.mark.parametrize("commuting", [True, False], ids=["commuting", "mismatched"])
@pytest.mark.parametrize("gaps", BOUNDARY_SETS, ids=range(len(BOUNDARY_SETS)))
def test_the_boundary_read_equals_the_limit_from_above(tmp_path, monkeypatch, gaps, commuting):
    # the commands read xi and Re M at M(t + i0) on the real points; the
    # library's limit route reaches the same values along heights above t
    angles = [0.7] * len(gaps) if commuting else [0.3 + 1.1 * j for j in range(len(gaps))]
    profile = {"gaps": [list(g) for g in gaps], "angles": angles}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"profile": profile}))
    read = []
    evaluate = cli._evaluate

    def spy(profile, bands):
        ev = evaluate(profile, bands)
        read.append(ev.xi)
        return ev

    monkeypatch.setattr(cli, "_evaluate", spy)
    gs = GapSet(gaps)
    gap_ts, errors = gap_realness_points(gs)
    egrid = e_interior_grid(gs)
    # construct's table holds the xi of the gap points clear of the
    # margins, as verify maps them; a gap point inside another gap's
    # margin fails the checks of a commuting profile that read it
    construct = cli.run(cli.load_config(str(path), "construct", {}))
    table = np.array(construct.tables["xi"][1])
    assert np.array_equal(table[:, 0], gap_ts)
    assert np.array_equal(table[:, 1:].reshape(-1, 2, 2), read[0])
    failed = {r.name: r.identity for r in construct.records if r.status == "fail"}
    margin = f"raised EndpointSingularity: {next(iter(errors.values()), '')}"
    assert failed == (dict.fromkeys(["gap_realness", "commutator"], margin)
                      if errors and commuting else {})
    if commuting and not errors:
        # Re log M(t) and the projections commute to rounding: measured at
        # most 2.2e-16 over these sets
        commutator = {r.name: r.value for r in construct.records}["commutator"]
        assert commutator <= COMMUTATOR_FLOOR
    verify = cli.run(cli.load_config(str(path), "verify", {}))
    assert len(read) == 2
    assert np.array_equal(read[0][:len(gap_ts)], read[-1][:len(gap_ts)])
    mfun = cli.profile_m_function(cli.profile_from_json(profile))
    ts = np.concatenate([gap_ts, egrid])
    dev = max(float(np.abs(x - krein_xi(mfun, t).xi).max()) for t, x in zip(ts, read[-1]))
    assert dev <= XI_LIMIT_TOL
    re_m = {r.name: r.value for r in verify.records}["re_m_on_bands"]
    assert abs(re_m - reflectionless_defect(mfun, egrid)) <= RE_M_LIMIT_TOL
