"""Exception taxonomy shared across the package.

Numerical failures are signalled with dedicated exception types so that
callers (and the command line driver) can distinguish "the input is outside
the contract" from "the algorithm did not converge" from "a mathematical
invariant was violated".
"""


class KreinDiracError(Exception):
    """Base class for all package specific errors."""


class SpectrumOnCut(KreinDiracError):
    """An eigenvalue lies on the excluded ray {-iy : y >= 0} of the log branch."""


class SpectrumNotUpper(KreinDiracError):
    """The integral logarithm requires all eigenvalues strictly in the upper half plane."""


class QuadratureFailure(KreinDiracError):
    """A quadrature did not reach its error target within the evaluation budget."""


class NoConvergence(KreinDiracError):
    """An extrapolation or iteration did not settle within tolerance."""


class NotTraceless(KreinDiracError):
    """An extracted potential matrix has a trace beyond tolerance."""


class EndpointSingularity(KreinDiracError):
    """Evaluation was requested too close to a gap endpoint (a logarithmic singularity)."""


class DegenerateEigenproblem(KreinDiracError):
    """An eigenvector extraction hit a (near-)defective matrix."""


class DegenerateDichotomy(KreinDiracError):
    """The constant-coefficient system has no exponential dichotomy (Re lambda ~ 0)."""


class PoleAt(KreinDiracError):
    """The Weyl functions satisfy m_plus + m_minus ~ 0, a pole of the matrix function."""


class BoundViolation(KreinDiracError):
    """A sampled potential exceeded the sharp norm bound beyond tolerance."""


class NotAdmissible(KreinDiracError):
    """The matrix is not in the admissible class of the requested operation."""

