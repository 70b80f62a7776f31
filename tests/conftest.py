"""Shared test helpers."""

import math

import numpy as np
import pytest

from kreindirac import cli, herglotz
from kreindirac.herglotz import MFunction


def _two_gap_norm(gaps, x, start="top"):
    """||W(x)|| along the orbit of a two-gap profile, in closed form.

    The orbit is the genus-1 solution of the AKNS hierarchy (Kamchatnov,
    Nonlinear Periodic Waves and Their Modulations, 2000):
    ||W||^2 = A + B sn^2(kappa (x - x0) | m) with A = (w2 - w1)^2 / 4,
    B = w1 w2, kappa^2 = (b2 - b1)(a2 - a1) and m = B / kappa^2.  ``start``
    places the orbit at x = 0.  "top": a uniform profile is extremal at
    x = 0, so the orbit starts at the sharp bound (w1 + w2)/2:
    x0 = -K(m)/kappa (mod the period 2K/kappa), and sn(u + K) = cd(u).
    "bottom": an orthogonal profile (angles alpha, alpha + pi/2) starts at
    |w2 - w1|/2, so x0 = 0.
    """
    from scipy.special import ellipj, ellipk

    (a1, b1), (a2, b2) = gaps
    w1, w2 = b1 - a1, b2 - a2
    kappa = math.sqrt((b2 - b1) * (a2 - a1))
    m = w1 * w2 / kappa ** 2
    shift = {"top": ellipk(m), "bottom": 0.0}[start]
    sn, _, _, _ = ellipj(kappa * np.asarray(x, dtype=float) + shift, m)
    return np.sqrt((w2 - w1) ** 2 / 4 + w1 * w2 * sn ** 2)


@pytest.fixture
def two_gap_norm():
    """The closed-form ||W(x)|| of a two-gap profile, as a function of the
    gaps, an array of x and the orbit's start ("top" or "bottom")."""
    return _two_gap_norm


@pytest.fixture
def corrupt_det(monkeypatch):
    """The negative control, as a function that switches it on: from then
    on the commands evaluate (1 + 1e-6) M for every profile, a scalar
    factor that breaks det M = -1 (and the checks downstream of it)
    without touching symmetry."""
    def corrupted(profile):
        # herglotz.build_M read at call time, so a test that counts its
        # calls counts these too
        return MFunction(lambda z: (1.0 + 1e-6) * herglotz.build_M(profile, z), profile.gapset)

    return lambda: monkeypatch.setattr(cli, "profile_m_function", corrupted)
