"""Command line driver for constructing, verifying and evolving the
matrix Herglotz functions of finite gap reflectionless Dirac operators.

One run is one command and one JSON config file:

    kreindirac {construct,verify,evolve,oracle} --config FILE [--out FILE]

Commands:

construct
    Tabulate M on a grid of the upper half plane and the Krein density
    on the gap interiors, report the potential at the origin against the
    sharp bound and classify the profile (extremal versus strict).
verify
    Run the invariant suite (determinant, symmetry, Herglotz positivity,
    Krein density normalization, reflectionless boundary values, MJ
    spectrum, Weyl round trip, large-z asymptotics) on the profile from
    the config.
evolve
    March the potential W(x) along the shift orbit and tabulate it.
oracle
    Cross-check the three independent routes to the constant-potential
    Weyl functions (closed form, ODE transport from breakpoints at -l and
    l, gap construction).

construct and verify evaluate a profile's M once, at every point their
probes read (``_evaluate``).  They read the Krein density, and verify
reads Re M on E, from the boundary values M(t + i0), which the closed
form gives at real points clear of the gaps' endpoint margins, with no
limit taken; one matrix logarithm of those values gives xi and the
Re log M of construct's commutator [Re log M, xi].  A gap point inside
another gap's endpoint margin is left out of the evaluation and fails
each check that reads every gap point; the other records read the rest.

Reports are JSON and deterministic for a fixed config: no timestamps,
floats rendered with repr.  Exit codes: 0 all checks pass, 1 at least one
check failed, 2 bad config, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .dirac import _EPS, BOUND_SLACK, const_weyl, ode_weyl, sample_potential
from .errors import BoundViolation, KreinDiracError, NoConvergence
from .finitegap import (GapSet, KreinProfile, _weyl_pair, assemble_M, build_M, commutator_reduce,
                        e_interior_grid, gap_realness_points, gap_realness_reduce, json_number,
                        mj_eigenpairs, profile_from_json, reflectionless_boundary_reduce,
                        sharp_bound, trace_formula_W0, weyl_from_M)
from .herglotz import (XI_TOL, _krein_xi_of_logs, asymptotic_points, asymptotic_reduce,
                       herglotz_reduce, profile_m_function)
from .mat2 import mlog_spectral, op_norm

__all__ = ["RunConfig", "Record", "Report", "load_config", "run", "main", "console_main"]


class ConfigError(ValueError):
    """The config file does not satisfy the run contract (exit code 2)."""


@dataclass
class RunConfig:
    """Validated run description; built by load_config."""

    command: str
    profile: KreinProfile | None = None
    constant: tuple[float, float] | None = None
    xgrid: np.ndarray | None = None
    out: str | None = None


@dataclass
class Record:
    """One named check or diagnostic in a report.

    ``status`` is "pass"/"fail" for checks (value against tolerance) and
    "info" for diagnostics that carry no verdict.  ``identity`` names the
    law being measured.
    """

    name: str
    status: str
    value: float
    tolerance: float | None
    identity: str


@dataclass
class Report:
    command: str
    records: list[Record] = field(default_factory=list)
    # table name -> (column names, rows of floats)
    tables: dict[str, tuple[list[str], list[list[float]]]] = field(default_factory=dict)
    numerical_failure: str | None = None

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.records)

    def check(self, name: str, value: float, tol: float, identity: str) -> None:
        status = "pass" if value <= tol else "fail"
        self.records.append(Record(name, status, float(value), float(tol), identity))

    def info(self, name: str, value: float, identity: str) -> None:
        self.records.append(Record(name, "info", float(value), None, identity))

    def probe(self, name: str, tol: float, identity: str, fn) -> None:
        """Run one check; a numerical exception counts as a failure of it."""
        try:
            value = float(fn())
        except KreinDiracError as exc:
            self.records.append(Record(
                name, "fail", math.inf, float(tol),
                f"raised {type(exc).__name__}: {exc}"))
            return
        self.check(name, value, tol, identity)


# ---------------------------------------------------------------------------
# config parsing: one converter per key, built from json_number for a
# finite number and _integer, and _path for the --out flag that says where
# the report goes

def _integer(v, low: int) -> int:
    """A JSON integer no smaller than ``low``."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"{v!r} is not an integer")
    if v < low:
        raise ValueError(f"{v!r} is below {low}")
    return v


def _path(v) -> str:
    if not isinstance(v, str) or not v or "\0" in v:
        raise TypeError(f"{v!r} is not a file path")
    return v


def _equivalent_profile(p: float, q: float) -> KreinProfile:
    """The one-gap profile whose Weyl functions are those of the constant
    potential (p, q): the gap (-r, r), r = |p + iq|, at angle arg(p + iq)/2,
    and the gapless profile for p = q = 0."""
    r = math.hypot(p, q)
    if r > 0:
        return KreinProfile(GapSet(((-r, r),)), (0.5 * math.atan2(q, p),))
    return KreinProfile(GapSet(()), ())


def _constant(v) -> tuple[float, float]:
    """A [p, q] pair whose equivalent profile's gap set is a valid one."""
    if not (isinstance(v, list) and len(v) == 2):
        raise ValueError("must be a [p, q] pair")
    p, q = json_number(v[0]), json_number(v[1])
    _equivalent_profile(p, q)
    return p, q


def _xgrid(spec) -> np.ndarray:
    """A nonempty list of finite numbers or a {start, stop, count} range,
    increasing from 0."""
    if isinstance(spec, dict):
        if set(spec) != {"start", "stop", "count"}:
            raise ValueError("a range needs exactly start/stop/count")
        grid = np.linspace(json_number(spec["start"]), json_number(spec["stop"]),
                           _integer(spec["count"], 1))
    elif isinstance(spec, list) and spec:
        grid = np.array([json_number(v) for v in spec])
    else:
        raise TypeError("must be a nonempty list of numbers or a range object")
    if grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("must be increasing and start at 0")
    return grid


# the parse of each config key; "command" is checked against the invocation
_KEYS = {
    "profile": profile_from_json,
    "constant": _constant,
    "xgrid": _xgrid,
}


def _convert(name: str, parse, value):
    """``parse(value)``; a value of the wrong type or range (an int beyond
    float range, or a grid too large to allocate, included) is a
    ConfigError naming its key or flag."""
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError, MemoryError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def load_config(path: str, command: str, overrides: dict) -> RunConfig:
    """Read and validate a JSON config against the command's contract.

    A config names the profile (or, for "oracle", the constant potential)
    and the march's xgrid; the points of M and xi are each command's own
    (``_default_zgrid`` and ``gap_interior_grid`` of the gaps).
    ``overrides`` holds the command line flag "out" as typed (a string),
    None or absent when not given; it alone says where the report goes.
    """
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # malformed JSON, bytes that are not text, or nesting too deep to parse
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(obj) - set(_KEYS) - {"command"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "command" in obj and obj["command"] != command:
        raise ConfigError(
            f'config says command "{obj["command"]}" but "{command}" was invoked')

    cfg = RunConfig(command=command)
    for key, v in obj.items():
        if key != "command":
            setattr(cfg, key, _convert(f'"{key}"', _KEYS[key], v))
    if overrides.get("out") is not None:
        cfg.out = _convert("--out", _path, overrides["out"])

    if command != "oracle" and cfg.profile is None:
        raise ConfigError(f'"{command}" needs a "profile"')
    if command == "oracle" and cfg.constant is None:
        raise ConfigError('"oracle" needs a "constant" [p, q]')
    return cfg


# ---------------------------------------------------------------------------
# deterministic default grids, and the one evaluation of M that construct
# and verify reduce

def _default_zgrid(gapset: GapSet) -> np.ndarray:
    s = max(1.0, gapset.spectral_radius)
    res = np.linspace(-2.0 * s, 2.0 * s, 5)
    ims = s * np.array([0.3, 0.8, 2.0, 5.0])
    return np.array([complex(a, b) for b in ims for a in res])


@dataclass
class _Evaluation:
    """The one evaluation of a profile's M that every probe of construct
    and verify reduces (:func:`_evaluate`).

    ``mats`` holds M on ``zgrid`` and ``asym_mats`` M at the large-z points
    ``asym_zs``.  ``real_mats`` holds the boundary values M(t + i0) at the
    real points: first the gap interior points ``gap_ts`` clear of the
    endpoint margins, whose gaps' projections are ``projections``, then
    the band points.  ``gap_errors`` holds the margin error of each gap
    point left out, by index (``gap_realness_points``).  One matrix
    logarithm of ``real_mats`` gives ``logs`` and the Krein density
    ``xi``, or, where it raised, its error in place of both.
    """

    zgrid: np.ndarray
    mats: np.ndarray
    gap_ts: np.ndarray
    gap_errors: dict
    projections: np.ndarray
    real_mats: np.ndarray
    asym_zs: np.ndarray
    asym_mats: np.ndarray
    logs: np.ndarray | KreinDiracError
    xi: np.ndarray | KreinDiracError

    def read(self, values: np.ndarray | KreinDiracError, gaps: bool) -> np.ndarray:
        """``values``, a stack over the real points; the logarithm's error
        in its place raises, and then, for a read of every gap point
        (``gaps``), the first of ``gap_errors``."""
        if isinstance(values, KreinDiracError):
            raise values
        if gaps and self.gap_errors:
            raise next(iter(self.gap_errors.values()))
        return values


def _evaluate(profile: KreinProfile, bands: bool) -> _Evaluation:
    """M of ``profile`` at every point its command reads, by one call: the
    z grid, the gap interior points clear of the endpoint margins, and for
    ``bands`` (verify) the band points and the large-z points."""
    gs = profile.gapset
    zgrid = _default_zgrid(gs)
    gap_ts, gap_errors = gap_realness_points(gs)
    band_ts = e_interior_grid(gs) if bands else gap_ts[:0]
    asym_zs = asymptotic_points(gs) if bands else zgrid[:0]
    mats, real_mats, asym_mats = np.split(
        profile_m_function(profile)(np.concatenate([zgrid, gap_ts, band_ts, asym_zs])),
        np.cumsum([len(zgrid), len(gap_ts) + len(band_ts)]))
    try:
        logs = mlog_spectral(real_mats)
        xi = _krein_xi_of_logs(logs)
    except KreinDiracError as exc:
        logs = xi = exc
    projections = profile.projection_defects[gs.containing_gaps(gap_ts)] + 0.5 * np.eye(2)
    return _Evaluation(zgrid, mats, gap_ts, gap_errors, projections, real_mats, asym_zs,
                       asym_mats, logs, xi)


# ---------------------------------------------------------------------------
# subcommands

def run_construct(cfg: RunConfig) -> Report:
    rep = Report("construct")
    profile = cfg.profile
    gs = profile.gapset

    bound = sharp_bound(gs)
    w0 = trace_formula_W0(profile)
    rep.info("sharp_bound", bound, "(1/2) sum of gap widths")
    rep.info("w0_p", w0.p, "diagonal entry of W(0) from the trace formula")
    rep.info("w0_q", w0.q, "off-diagonal entry of W(0) from the trace formula")
    rep.info("w0_norm", w0.norm, "||W(0)||")
    if gs.n == 0:
        label = "free function M = iI; W = 0 attains the (empty) bound"
    elif abs(w0.norm - bound) <= 1e-9 * max(1.0, bound):
        # relative past 1: the rounding of a large bound is larger
        label = "extremal: ||W(0)|| attains the sharp bound"
        if profile.is_commuting:
            label += "; realized by an operator in R0(E)"
    else:
        label = "strict at x = 0: ||W(0)|| is below the sharp bound"
    rep.info("classification", bound - w0.norm, label)

    # one evaluation of M covers the z grid and the gap interiors clear of
    # the endpoint margins, whose boundary values M(t + i0) and their one
    # logarithm serve gap_realness, the commutator, the Herglotz
    # certificate and the xi table
    ev = _evaluate(profile, bands=False)
    if gs.n:
        # a commuting profile's checks read every gap point and fail at the
        # first one left out of the evaluation; any other profile's
        # diagnostics, like the Herglotz certificate and the xi table, read
        # the rest
        checked = profile.is_commuting
        for name, tol, law, reduce in (
                ("gap_realness", 1e-9, "Im M",
                 lambda: gap_realness_reduce(ev.read(ev.real_mats, checked))),
                ("commutator", 1e-10, "[Re log M, xi]",
                 lambda: commutator_reduce(ev.read(ev.logs, checked), ev.projections))):
            if checked:
                rep.probe(name, tol, f"{law} = 0 on the gaps", reduce)
            else:
                rep.info(name, reduce(), f"sup ||{law}|| on the gaps")
    rep.info("herglotz_defect", herglotz_reduce(ev.real_mats),
             "min eigenvalue of Im M(t + i0) on the gaps (minimum principle); "
             "negative refutes realizability")

    # the float view of a complex row is its (re, im) pairs, in column order
    rep.tables["M"] = (["z_re", "z_im",
                        "M00_re", "M00_im", "M01_re", "M01_im",
                        "M10_re", "M10_im", "M11_re", "M11_im"],
                       np.column_stack([ev.zgrid.real, ev.zgrid.imag,
                                        ev.mats.reshape(-1, 4).view(float)]).tolist())

    rep.tables["xi"] = (["t", "xi00", "xi01", "xi10", "xi11"],
                        np.column_stack([ev.gap_ts, ev.read(ev.xi, False).reshape(-1, 4)])
                        .tolist())
    return rep


def run_verify(cfg: RunConfig) -> Report:
    rep = Report("verify")
    profile = cfg.profile
    gs = profile.gapset
    # every probe reads a slice of one evaluation of M: the z grid, the
    # real points of the gap interiors and of the bands clear of the
    # endpoint margins, whose boundary values M(t + i0) serve the Herglotz
    # certificate, gap_realness, the xi probes and re_m_on_bands, and the
    # large-z points.  A gap point inside an endpoint margin is left out
    # and fails each probe that reads every gap point, the first in order;
    # an error of the xi map fails every xi probe
    ev = _evaluate(profile, bands=True)
    mats, n = ev.mats, len(ev.gap_ts)
    gap_mats = ev.real_mats[:n]
    rep.probe("det", 1e-10, "det M = -1 on C+",
              lambda: np.abs(np.linalg.det(mats) + 1.0).max())
    rep.probe("symmetry", 1e-12, "M = M^t",
              lambda: np.abs(mats[:, 0, 1] - mats[:, 1, 0]).max())
    # about ten times the certificate's rounding floor on commuting
    # profiles, measured at most 6.7 eps max(1, max |M_ij|) over its
    # points; the scale is the power of two above that max, so that an ulp
    # of M does not move the tolerance between hosts
    scale = math.ldexp(1.0, math.frexp(float(np.abs(gap_mats).max(initial=1.0)))[1])
    rep.probe("herglotz", 64.0 * _EPS * scale,
              "Im M(t + i0) >= 0 on the gaps (minimum principle)",
              lambda: -herglotz_reduce(gap_mats))

    # the eigenpairs of M J serve both the spectrum and the Weyl pair
    eig = mj_eigenpairs(mats)
    rep.probe("mj_spectrum", 1e-10, "eig(MJ) = {+1, -1}",
              lambda: max(np.abs(eig[1] + 1.0).max(), np.abs(eig[2] - 1.0).max()))
    rep.probe("weyl_roundtrip", 1e-9, "M -> (m+, m-) -> M is the identity",
              lambda: op_norm(assemble_M(_weyl_pair(mats, eig)) - mats).max())

    def trace_dev():
        xi = ev.read(ev.xi, True)
        return np.abs(xi[:, 0, 0] + xi[:, 1, 1] - 1.0).max()

    rep.probe("xi_trace", 1e-8, "tr xi = 1", trace_dev)
    rep.probe("xi_on_bands", XI_TOL, "xi = I/2 on the interior of E",
              lambda: op_norm(ev.read(ev.xi, False)[n:] - 0.5 * np.eye(2)).max())
    rep.probe("re_m_on_bands", 1e-6, "Re M(t + i0) = 0 on E",
              lambda: reflectionless_boundary_reduce(ev.real_mats[n:]))
    if gs.n:
        # the input boundary data at each t: its gap's projection
        rep.probe("gap_projection", XI_TOL,
                  "xi equals the input projection inside each gap",
                  lambda: op_norm(ev.read(ev.xi, True)[:n] - ev.projections).max())
        if profile.is_commuting:
            rep.probe("gap_realness", 1e-9, "Im M = 0 on the gaps",
                      lambda: gap_realness_reduce(ev.read(gap_mats, True)))

    def asym_dev():
        # both routes read one extrapolation
        w0 = trace_formula_W0(profile)
        return max(math.hypot(w.p - w0.p, w.q - w0.q)
                   for w in asymptotic_reduce(ev.asym_zs, ev.asym_mats, ("value", "log")))

    rep.probe("asymptotics", 1e-6,
              "large-z Weyl law recovers the trace formula W(0)", asym_dev)
    return rep


def run_evolve(cfg: RunConfig) -> Report:
    rep = Report("evolve")
    profile = cfg.profile
    gs = profile.gapset
    xgrid = cfg.xgrid if cfg.xgrid is not None else np.linspace(0.0, 0.5, 11)
    bound = sharp_bound(gs)
    cols = ["x", "p", "q", "norm", "bound", "residual"]

    try:
        samples = sample_potential(profile, xgrid)
    except (BoundViolation, NoConvergence) as exc:
        samples = exc.samples
        last = samples[-1].x if samples else math.nan
        rep.numerical_failure = f"{type(exc).__name__}: {exc} (last good x = {last:.6g})"
        rep.info("last_good_x", last, "march aborted; see numerical_failure")

    rep.tables["W"] = (cols, [[s.x, s.p, s.q, s.norm, bound, s.residual]
                              for s in samples])
    if samples:
        norms = [s.norm for s in samples]
        rep.info("norm_max", max(norms), "largest sampled ||W(x)||")
        rep.info("norm_min", min(norms), "smallest sampled ||W(x)||")
        rep.check("bound", max(norms) - bound, BOUND_SLACK,
                  "||W(x)|| <= (1/2) sum of gap widths")
        # commuting profiles solve for their divisor by Abel inversion, any
        # other profile marches its boundary matrices by congruence (see
        # sample_potential); the seed check of the Abel inversion includes
        # its start's distance from the trace formula W(0)
        source = ("seed check and last Newton correction of the Abel inversion"
                  if profile.is_commuting
                  else "seed check, trace formula quadrature and propagated "
                       "congruence march error estimate")
        rep.check("residual", max(s.residual for s in samples), 1e-5 * max(1.0, bound),
                  source + " stay small")
        if gs.n == 1 and rep.numerical_failure is None:
            # one gap: the orbit is a rotation, the norm stays pinned
            rep.check("norm_constancy", max(norms) - min(norms), 1e-6,
                      "single gap orbits keep ||W(x)|| at the bound")
    return rep


def _sphere_dev(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| over two arrays of Riemann-sphere values; equal
    entries, the point at infinity included, deviate by 0."""
    with np.errstate(invalid="ignore"):  # inf - inf, masked out
        return float(np.where(a == b, 0.0, np.abs(a - b)).max())


def run_oracle(cfg: RunConfig) -> Report:
    rep = Report("oracle")
    p, q = cfg.constant
    r = math.hypot(p, q)
    profile = _equivalent_profile(p, q)
    zgrid = _default_zgrid(profile.gapset)
    # the ODE route seeds the tails at -l and l and transports them through
    # the transfer matrix exp(l K), whose exponent is of order 1
    ell = 1.0 / max(1.0, r, float(np.abs(zgrid).max()))

    cw = const_weyl(p, q, zgrid)
    ow = ode_weyl(p, q, ell, zgrid)
    d_ode = max(_sphere_dev(cw.m_plus, ow.m_plus), _sphere_dev(cw.m_minus, ow.m_minus))
    rows = np.column_stack([zgrid.real, zgrid.imag, cw.m_plus.real, cw.m_plus.imag,
                            cw.m_minus.real, cw.m_minus.imag]).tolist()
    # the gap route: one Weyl extraction and one assembly over the grid
    mats = build_M(profile, zgrid)
    gw = weyl_from_M(mats)
    d_gap_p = _sphere_dev(cw.m_plus, gw.m_plus)
    d_gap_m = _sphere_dev(cw.m_minus, gw.m_minus)
    d_mat = float(op_norm(assemble_M(cw) - mats).max())

    rep.info("radius", r, "gap half width |p + iq| of the equivalent profile")
    rep.check("ode_route", d_ode, 1e-8,
              "closed form Weyl pair matches the ODE transport")
    rep.check("gap_route_m_plus", d_gap_p, 1e-8,
              "closed form m+ matches the gap construction")
    rep.check("gap_route_m_minus", d_gap_m, 1e-8,
              "closed form m- matches the gap construction")
    rep.check("assembled_matrix", d_mat, 1e-8 if r > 0 else 1e-12,
              "assembled M matches the gap construction"
              if r > 0 else "assembled M equals iI for the free operator")
    rep.tables["weyl"] = (
        ["z_re", "z_im", "m_plus_re", "m_plus_im", "m_minus_re", "m_minus_im"], rows)
    return rep


# ---------------------------------------------------------------------------
# rendering

_CONTAINERS = {dict, list, tuple}


@functools.lru_cache(maxsize=None)
def _flat_encoder(depth: int):
    """json's C encoder for a scalar, or a list of scalars laid out one per
    line at nesting ``depth``, as ``json.dumps(..., indent=2,
    default=float)`` writes them; ``indent`` would force the pure-Python
    encoder."""
    return json.encoder.c_make_encoder(
        None, float, json.encoder.encode_basestring_ascii, None, ": ",
        ",\n" + "  " * (depth + 1), False, False, True)


def _indented(obj, depth: int = 0) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, default=float)`` writes it:
    the C encoder writes scalars and the items of flat lists and dicts,
    and nested ones are laid out here."""
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return "".join(_flat_encoder(depth)(obj, 0))
    pad = "\n" + "  " * (depth + 1)
    items = obj.values() if isinstance(obj, dict) else obj
    if _CONTAINERS.isdisjoint(map(type, items)):
        inner = "".join(_flat_encoder(depth)(obj, 0))[1:-1]
    elif isinstance(obj, dict):
        key = _flat_encoder(depth)
        inner = ("," + pad).join(["".join(key(k, 0)) + ": " + _indented(v, depth + 1)
                                  for k, v in obj.items()])
    else:
        inner = ("," + pad).join([_indented(v, depth + 1) for v in obj])
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return brackets[0] + pad + inner + "\n" + "  " * depth + brackets[1]


def _render_json(rep: Report) -> str:
    def num(x):
        # inf from probe failures must survive strict JSON
        return x if math.isfinite(x) else repr(x)

    obj = {
        "command": rep.command,
        "records": [{"name": r.name, "status": r.status, "value": num(r.value),
                     "tolerance": r.tolerance, "identity": r.identity}
                    for r in rep.records],
        "tables": {name: {"columns": cols, "rows": rows}
                   for name, (cols, rows) in rep.tables.items()},
    }
    if rep.numerical_failure:
        obj["numerical_failure"] = rep.numerical_failure
    # float for stray numpy scalars in table rows, as json.dumps's default
    return _indented(obj) + "\n"


def run(cfg: RunConfig) -> Report:
    return {"construct": run_construct, "verify": run_verify,
            "evolve": run_evolve, "oracle": run_oracle}[cfg.command](cfg)


# Built once, at import: building it takes 0.1 to 0.2 ms, several percent of
# a small job.
# The flag values stay text, for load_config's converters.
_PARSER = argparse.ArgumentParser(
    prog="kreindirac",
    description="finite gap reflectionless Dirac operators: construct (tabulate M "
                "and xi, classify the profile), verify (run the invariant suite), "
                "evolve (march the potential along the shift orbit), oracle "
                "(cross-check the constant potential routes)")
_PARSER.add_argument("command", choices=("construct", "verify", "evolve", "oracle"))
_PARSER.add_argument("--config", required=True, help="JSON run description")
_PARSER.add_argument("--out", help="write the report here instead of stdout")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, {"out": args.out})
        rep = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (KreinDiracError, ValueError) as exc:
        # load_config raises only ConfigError, so a ValueError comes from
        # the run, such as a kernel refusing the non-finite M of a point
        # beyond float range
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # the arrays a run builds can outgrow memory where its config did
        # not, such as the points of very many gaps or a long xgrid's Abel
        # targets
        print(f"numerical failure: MemoryError: {exc}", file=sys.stderr)
        return 3

    text = _render_json(rep)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if rep.numerical_failure:
        print(f"numerical failure: {rep.numerical_failure}", file=sys.stderr)
        return 3
    return 1 if rep.failed else 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
