"""Correctness check of one job's report against closed forms.

Nothing here calls the program: every expected value is computed from the
job's own config with the formulas of the paper.

* ``sharp_bound`` = (1/2) sum of gap widths.
* ``W(0)`` = sum_j (b_j - a_j)(P_j - I/2), so with P(alpha) the projection
  onto (cos alpha, sin alpha): p = (1/2) sum w_j cos 2 alpha_j and
  q = (1/2) sum w_j sin 2 alpha_j.
* ``M(z)`` = exp((i pi/2) I + B) with B = sum_j log((b_j - z)/(a_j - z))
  (P_j - I/2), traceless and symmetric, so M = i (cosh d I + (sinh d / d) B)
  with d^2 = -det B: every row of the construct table is checked against
  it, and against det M = -1 and M = M^t.
* Aligned profiles: xi(t) = P(alpha) inside every gap, within ``xi_tol``.
* One gap centred at c: the orbit rotates, p + i q at x equals
  e^{+-2icx} (p + i q) at 0 (checked to 1e-6).
* Several gaps: ||W(x)|| = hypot(p, q) <= bound + ``bound_slack``.
* Constant potentials: the Weyl pair m+ = (p - z)/(q - lam),
  m- = -(p - z)/(q + lam) with lam = sqrt(p^2 + q^2 - z^2), Re lam > 0.
* The exit code equals the one stored with the job.
* The verify, oracle and construct check records: each ``value`` is within
  the tolerance the command used at the benchmark's first commit
  (``CHECK_TOL``), read from this table and never from the report's own
  ``status`` or ``tolerance``; a witness's ``herglotz`` value must exceed it.

``check(job, code, report_text)`` returns None when the report is correct,
else a one-line reason.
"""

from __future__ import annotations

import cmath
import json
import math

XI_TOL = 1e-6
BOUND_SLACK = 1e-4
ROTATION_TOL = 1e-6
W0_TOL = 1e-6
WEYL_TOL = 1e-9
M_TOL = 1e-9

# Tolerance of each check record, per command, as the program set them when
# this benchmark was written (``xi_tol`` at its default of 1e-6).
CHECK_TOL = {
    "verify": {"det": 1e-10, "symmetry": 1e-12, "herglotz": 1e-9, "mj_spectrum": 1e-10,
               "weyl_roundtrip": 1e-9, "xi_trace": 1e-8, "xi_on_bands": XI_TOL,
               "re_m_on_bands": 1e-6, "gap_projection": XI_TOL, "gap_realness": 1e-9,
               "asymptotics": 1e-6},
    "oracle": {"ode_route": 1e-8, "gap_route_m_plus": 1e-8, "gap_route_m_minus": 1e-8,
               "assembled_matrix": 1e-8},
    "construct": {"gap_realness": 1e-9, "commutator": 1e-10},
}


def _angles(profile: dict) -> list[float]:
    if "uniform" in profile:
        return [float(profile["uniform"])] * len(profile["gaps"])
    return [float(a) for a in profile["angles"]]


def closed_w0(profile: dict) -> tuple[float, float]:
    p = q = 0.0
    for (a, b), alpha in zip(profile["gaps"], _angles(profile)):
        p += 0.5 * (b - a) * math.cos(2.0 * alpha)
        q += 0.5 * (b - a) * math.sin(2.0 * alpha)
    return p, q


def closed_bound(profile: dict) -> float:
    return 0.5 * sum(b - a for a, b in profile["gaps"])


def closed_M(profile: dict, z: complex) -> list[list[complex]]:
    """M(z) of a piecewise-constant profile, for Im z > 0."""
    b00 = b01 = 0j
    for (a, b), alpha in zip(profile["gaps"], _angles(profile)):
        lg = cmath.log((b - z) / (a - z))
        # P(alpha) - I/2 = (1/2) [[cos 2a, sin 2a], [sin 2a, -cos 2a]]
        b00 += 0.5 * lg * math.cos(2.0 * alpha)
        b01 += 0.5 * lg * math.sin(2.0 * alpha)
    d = cmath.sqrt(b00 * b00 + b01 * b01)
    ch = cmath.cosh(d)
    sh = cmath.sinh(d) / d if abs(d) > 1e-8 else 1.0 + d * d / 6.0
    return [[1j * (ch + sh * b00), 1j * sh * b01], [1j * sh * b01, 1j * (ch - sh * b00)]]


def _close(value, expect, tol) -> bool:
    return isinstance(value, (int, float)) and abs(value - expect) <= tol


def _within(value, tol) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value <= tol


def _check_records(cmd, recs, names, witness=()):
    """None if every record in ``names`` is present and its value meets
    the seed tolerance (and exceeds it for the names in ``witness``)."""
    for name in names:
        if name not in recs:
            return f"no {name} record"
        value, tol = recs[name]["value"], CHECK_TOL[cmd][name]
        if name in witness:
            if not (isinstance(value, (int, float)) and value > tol):
                return f"{name} = {value!r} does not refute the property"
        elif not _within(value, tol):
            return f"{name} = {value!r} exceeds {tol:g}"
    return None


def _check_construct(job, rep, recs):
    prof = job["cfg"]["profile"]
    scale = 1.0 + sum(b - a for a, b in prof["gaps"])
    if not _close(recs["sharp_bound"]["value"], closed_bound(prof), 1e-12 * scale):
        return "sharp_bound differs from (1/2) sum of widths"
    p, q = closed_w0(prof)
    if not (_close(recs["w0_p"]["value"], p, 1e-12 * scale)
            and _close(recs["w0_q"]["value"], q, 1e-12 * scale)):
        return "w0 differs from sum (b - a)(P - I/2)"
    xi = rep["tables"]["xi"]["rows"]
    if len(xi) != 7 * len(prof["gaps"]) or len(rep["tables"]["M"]["rows"]) != 20:
        return "table sizes differ from the default grids"
    for row in rep["tables"]["M"]["rows"]:
        z = complex(row[0], row[1])
        if z.imag <= 0:
            return f"M table point {z} is not in the upper half plane"
        m = [[complex(row[2], row[3]), complex(row[4], row[5])],
             [complex(row[6], row[7]), complex(row[8], row[9])]]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        mag = 1.0 + max(abs(v) for r in m for v in r)
        if abs(det + 1.0) > M_TOL * mag * mag or abs(m[0][1] - m[1][0]) > M_TOL * mag:
            return f"M({z}) has det {det} or is not symmetric"
        want = closed_M(prof, z)
        if max(abs(m[i][k] - want[i][k]) for i in (0, 1) for k in (0, 1)) > M_TOL * mag:
            return f"M({z}) differs from the closed form"
    if "uniform" in prof:
        reason = _check_records("construct", recs, ("gap_realness", "commutator"))
        if reason:
            return reason
        if recs["herglotz_defect"]["value"] < -CHECK_TOL["verify"]["herglotz"]:
            return "herglotz_defect is negative on an aligned profile"
        alpha = _angles(prof)[0]
        c, s = math.cos(alpha), math.sin(alpha)
        proj = (c * c, s * c, s * c, s * s)
        for row in xi:
            if max(abs(v - e) for v, e in zip(row[1:5], proj)) > XI_TOL:
                return f"xi at t = {row[0]!r} differs from the projection"
    return None


def _check_verify(job, rep, recs):
    expected = set(CHECK_TOL["verify"])
    if "uniform" not in job["cfg"]["profile"]:
        expected.discard("gap_realness")
    if set(recs) != expected:
        return f"verify records {sorted(recs)}"
    witness = ("herglotz",) if job["kind"] == "witness" else ()
    return _check_records("verify", recs, sorted(expected), witness)


def _check_evolve(job, rep, recs):
    prof = job["cfg"]["profile"]
    rows = rep["tables"]["W"]["rows"]
    bound = closed_bound(prof)
    if not rows:
        return "no W rows"
    for x, p, q, *_ in rows:
        if math.hypot(p, q) > bound + BOUND_SLACK:
            return f"||W({x!r})|| exceeds the sharp bound"
    if job["kind"] == "witness":
        if "BoundViolation" not in rep.get("numerical_failure", ""):
            return "witness march did not end in BoundViolation"
        return None
    if len(rows) != job["cfg"]["xgrid"]["count"]:
        return "march stopped early"
    p0, q0 = closed_w0(prof)
    if math.hypot(rows[0][1] - p0, rows[0][2] - q0) > W0_TOL:
        return "W(0) differs from the closed form"
    if len(prof["gaps"]) == 1:
        a, b = prof["gaps"][0]
        c = 0.5 * (a + b)
        w0 = complex(rows[0][1], rows[0][2])
        for x, p, q, *_ in rows:
            dev = min(abs(complex(p, q) - cmath.exp(sign * 2j * c * x) * w0)
                      for sign in (1.0, -1.0))
            if dev > ROTATION_TOL:
                return f"W({x!r}) is off the rotation orbit by {dev:.2e}"
    return None


def const_weyl(p: float, q: float, z: complex) -> tuple[complex, complex]:
    lam = cmath.sqrt(p * p + q * q - z * z)
    if lam.real < 0:
        lam = -lam
    return (p - z) / (q - lam), -(p - z) / (q + lam)


def _check_oracle(job, rep, recs):
    p, q = job["cfg"]["constant"]
    if not _close(recs["radius"]["value"], math.hypot(p, q), 1e-12 * (1 + abs(p) + abs(q))):
        return "radius differs from |p + iq|"
    reason = _check_records("oracle", recs, sorted(CHECK_TOL["oracle"]))
    if reason:
        return reason
    rows = rep["tables"]["weyl"]["rows"]
    if len(rows) != 20:
        return "weyl table size differs from the default grid"
    for zr, zi, mpr, mpi, mmr, mmi in rows:
        mp, mm = const_weyl(p, q, complex(zr, zi))
        if (abs(complex(mpr, mpi) - mp) > WEYL_TOL * (1 + abs(mp))
                or abs(complex(mmr, mmi) - mm) > WEYL_TOL * (1 + abs(mm))):
            return f"Weyl pair at z = {complex(zr, zi)} differs from the closed form"
    return None


_CHECKS = {"construct": _check_construct, "verify": _check_verify,
           "evolve": _check_evolve, "oracle": _check_oracle}


def check(job: dict, code, text: str) -> str | None:
    """None if the job ended with its expected exit code and a correct report."""
    if code != job["expect"]:
        return f"exit {code!r}, expected {job['expect']}"
    try:
        rep = json.loads(text)
        recs = {r["name"]: r for r in rep["records"]}
        return _CHECKS[job["cmd"]](job, rep, recs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
