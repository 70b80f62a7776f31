"""One evaluation of M per profile in `construct` and `verify`.

The probes of both commands read slices of one evaluation: each record
must equal what the library function of its probe computes on its own,
and a probe must still fail alone.
"""

import json
import math

import numpy as np
import pytest

from kreindirac import cli, herglotz
from kreindirac.dirac import co_rotating_frame
from kreindirac.errors import KreinDiracError
from kreindirac.finitegap import (
    GapSet,
    KreinProfile,
    assemble_M,
    build_M,
    commutator_diag,
    e_interior_grid,
    gap_interior_grid,
    gap_realness,
    gap_realness_points,
    mj_eigenpairs,
    reflectionless_defect,
    trace_formula_W0,
    weyl_from_M,
)
from kreindirac.herglotz import (
    asymptotic_W,
    asymptotic_points,
    asymptotic_reduce,
    herglotz_defect,
    krein_xi_points,
    krein_xi_reduce,
)
from kreindirac.mat2 import I2, op_norm

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
    """Record (profile, points) of every evaluation of a profile's M."""
    calls = []
    build_M = herglotz.build_M

    def counting(profile, z):
        calls.append((profile, np.array(z, dtype=complex)))
        return build_M(profile, z)

    monkeypatch.setattr(herglotz, "build_M", counting)
    return calls


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
    assert len(calls) == 1
    (first, pts), = calls
    assert first is profile
    ts = np.concatenate([gap_interior_grid(gs), e_interior_grid(gs)])
    assert _same_points(pts, cli._default_zgrid(gs), gap_realness_points(gs)[0],
                        krein_xi_points(gs, ts)[2], asymptotic_points(gs))
    # the Herglotz certificate and gap_realness read one point set, made
    # once for every profile; no real point inside an endpoint margin
    # enters the evaluation
    assert point_sets == [gs]
    assert gs.endpoint_errors(pts.real[pts.imag == 0]) == {}


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


@pytest.mark.parametrize("name", sorted(set(PROFILES) - {"narrow"}))
def test_construct_evaluates_the_profile_once(tmp_path, monkeypatch, corrupt_det, name):
    cfg = _load(tmp_path, corrupt_det, "construct", name)
    gs = cfg.profile.gapset
    calls = _calls(monkeypatch)
    cli.run(cfg)
    assert len(calls) == 1
    tgrid = gap_interior_grid(gs)
    # the Herglotz certificate reads the gap_realness points
    assert _same_points(calls[0][1], cli._default_zgrid(gs), krein_xi_points(gs, tgrid)[2],
                        gap_realness_points(gs)[0])


def _xi_reduce(mfun, grid):
    # the points of grid, and their xi stack, residuals and failed points,
    # from one evaluation of mfun
    ts, errors, zs = krein_xi_points(mfun.gapset, grid)
    return ts, *krein_xi_reduce(ts, errors, mfun(zs.ravel()).reshape(zs.shape + (2, 2)))


def _xi(mfun, grid):
    # the xi stack of grid; its first failed point raises
    _, xi, _, failed = _xi_reduce(mfun, grid)
    if failed:
        raise next(iter(failed.values()))
    return xi


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
        xi = _xi(mfun, np.concatenate([tgrid, egrid]))
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
        "xi_on_bands": lambda: op_norm(_xi(mfun, egrid) - 0.5 * I2).max(),
        "re_m_on_bands": lambda: reflectionless_defect(mfun, egrid),
        "gap_projection": lambda: op_norm(_xi(mfun, tgrid) - target).max(),
    }
    if profile.is_commuting:
        probes["gap_realness"] = lambda: gap_realness(profile)
    probes["asymptotics"] = asym_dev
    out = {}
    for name, fn in probes.items():
        try:
            out[name] = float(fn())
        except KreinDiracError as exc:
            out[name] = exc
    return out


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
    # five probes meet the margin of the wide gap, each with its own first
    # point there; the others pass
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"profile": NARROW}))
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 1
    margin = "raised EndpointSingularity: t = {} is within the exclusion margin of gap (-50.5, 49.5)"
    failed = {r["name"]: r["identity"] for r in json.loads(out.read_text())["records"]
              if r["status"] == "fail"}
    assert failed == {
        "xi_trace": margin.format(49.550013),
        "xi_on_bands": margin.format(49.5000013),
        "re_m_on_bands": margin.format(49.5000013),
        "gap_projection": margin.format(49.550013),
        "gap_realness": margin.format(49.550013),
    }


@pytest.mark.parametrize("name", sorted(set(PROFILES) - {"narrow"}))
def test_construct_records_and_tables_equal_their_library_functions(tmp_path, corrupt_det,
                                                                    name):
    cfg = _load(tmp_path, corrupt_det, "construct", name)
    profile = cfg.profile
    gs = profile.gapset
    rep = cli.run(cfg)
    mfun = cli.profile_m_function(profile)
    records = {r.name: r for r in rep.records}
    realness = gap_realness(profile)
    if name == "det_error":
        assert records.pop("gap_realness").value == pytest.approx((1.0 + 1e-6) * realness,
                                                                   rel=1e-12)
    else:
        _assert_record(records.pop("gap_realness"), realness)
    assert records.pop("commutator").value == commutator_diag(profile)
    _assert_record(records.pop("herglotz_defect"), herglotz_defect(mfun))
    zgrid, tgrid = cli._default_zgrid(gs), gap_interior_grid(gs)
    m = mfun(zgrid)
    mrows = np.column_stack([zgrid.real, zgrid.imag]
                            + [f(m[:, i, k]) for i in (0, 1) for k in (0, 1)
                               for f in (np.real, np.imag)])
    ts, xi, residual, failed = _xi_reduce(mfun, tgrid)
    assert not failed
    xrows = np.array([[t, *x.ravel(), r] for t, x, r in zip(ts, xi, residual)])
    for table, want in (("M", mrows), ("xi", xrows)):
        np.testing.assert_array_equal(np.array(rep.tables[table][1]), want)
