"""The sharp bound over the whole isospectral torus, not only along orbits.

A point theta of the torus R^n / Z^n fixes one reflectionless operator
with the given gaps: its p-divisor solves A(phi) = P theta and its
q-divisor A(phi) = P (theta + 1/4), for A and P the Abel map and period
matrix of ``dirac._abel_map``, and the trace formula gives
W = (sum_j r_j cos phi_j) over each system.  The Abel route's batched
solve, ``dirac._abel_solve``, takes such targets as they are.  The
diagonal theta = t (1, ..., 1) holds the uniform profiles at x = 0, which
attain the bound; moving along it turns W by a phase.  Targets off it
are the points of a Kronecker sequence.
"""

import math

import numpy as np
import pytest

from kreindirac import GapSet, KreinProfile, sharp_bound
from kreindirac import dirac
from kreindirac.dirac import co_rotating_frame

# 2, 3, 4, 8 and 16 gaps: spacings from 1e-6 to 2, widths from 0.4 to 2,
# centres from -1e3 to 25
TORUS_SETS = [
    ((-2.0, -1.0), (1.0, 2.0)),
    ((0.0, 1.0), (1.000001, 2.0)),
    ((-1e3, -1e3 + 0.4), (-1e3 + 2.0, -1e3 + 3.0)),
    ((-3.0, -2.0), (-1.0, 0.5), (1.5, 2.0)),
    ((-2.0, -1.0), (0.0, 1.0), (1.000001, 2.5)),
    ((-3.0, -2.0), (-1.0, 0.5), (1.5, 2.0), (3.0, 4.5)),
    tuple((3.0 * j, 3.0 * j + 1.0 + (j % 3) / 2.0) for j in range(8)),
    tuple((3.0 * j, 3.0 * j + 1.0 + (j % 3) / 2.0) for j in range(16)),
]
KRONECKER_POINTS = 96
DIAGONAL_POINTS = 12


def _kronecker(n: int, count: int) -> np.ndarray:
    """The first ``count`` points past 0 of the additive recurrence
    theta_k = k g mod 1, g_j = x^-(j + 1) with x^(n + 1) = x + 1 (the
    generalized golden ratio), shifted by 1/2."""
    x = 2.0
    for _ in range(60):
        x = (1.0 + x) ** (1.0 / (n + 1))
    g = x ** -np.arange(1.0, n + 1.0)
    return (0.5 + np.arange(1, count + 1)[:, None] * g) % 1.0


def _torus_W(gaps, thetas):
    """(K, 2) values (p, q) of W at the torus points ``thetas``, all solved."""
    a, b = GapSet(gaps).endpoints
    r = 0.5 * (b - a)
    abel, period = dirac._abel_map(a, b)
    goals = np.stack((thetas, thetas + 0.25), axis=1) @ period.T
    phi = np.concatenate([phi for phi, _ in dirac._abel_solve(abel, period, goals, r)])
    assert len(phi) == len(thetas)
    return (r * np.cos(phi)).sum(axis=-1)


@pytest.mark.parametrize("gaps", TORUS_SETS)
def test_sharp_bound_holds_over_the_torus(gaps):
    bound = sharp_bound(GapSet(gaps))
    norms = np.hypot(*_torus_W(gaps, _kronecker(len(gaps), KRONECKER_POINTS)).T)
    assert (norms <= bound * (1.0 + 1e-12)).all()


@pytest.mark.parametrize("gaps", TORUS_SETS)
def test_diagonal_attains_the_bound_and_turns_w(gaps):
    # theta = (1/2 - alpha/pi) (1, ..., 1) is the uniform profile of
    # angle alpha at x = 0: ||W|| = bound, and W turns by e^{2i alpha}
    n, bound = len(gaps), sharp_bound(GapSet(gaps))
    t = np.arange(DIAGONAL_POINTS) / DIAGONAL_POINTS
    w = _torus_W(gaps, np.repeat(t[:, None], n, axis=1))
    norms = np.hypot(*w.T)
    assert np.abs(norms - bound).max() <= 1e-12
    assert np.ptp(norms) <= 1e-12
    turn = np.exp(2j * math.pi * (0.5 - t))
    np.testing.assert_allclose((w[:, 0] + 1j * w[:, 1]) / turn, bound, rtol=0, atol=1e-12)


def test_torus_points_on_an_orbit_reproduce_its_samples():
    # the shift orbit of a uniform profile is the line
    # theta(x) = (1/2 - alpha/pi) (1, ..., 1) - 2 P^{-1} c x of its frame
    gaps, alpha = TORUS_SETS[5], 0.7
    _, frame = co_rotating_frame(KreinProfile.uniform(GapSet(gaps), alpha))
    xg = np.linspace(0.0, 3.0, 7)
    a, b = frame.gapset.endpoints
    rows = np.array([row[1:3] for row in dirac._divisor_orbit(a, b, frame.angles, xg)])
    _, period = dirac._abel_map(a, b)
    thetas = (0.5 - alpha / math.pi) - 2.0 * np.outer(xg, np.linalg.solve(period, 0.5 * (a + b)))
    np.testing.assert_allclose(_torus_W(frame.gapset.gaps, thetas), rows, rtol=0, atol=1e-12)
