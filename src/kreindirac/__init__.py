"""Matrix valued Herglotz and Krein functions of reflectionless Dirac
operators on finite-gap sets.

The package builds the explicit extremal M functions attached to a gap set
with per-gap projection data, extracts Krein densities and potentials from
them, cross-checks everything against closed-form and ODE oracles for Dirac
systems, and exposes the sharp potential bound together with its
equality/strictness diagnostics.
"""

from . import errors
from .mat2 import (
    J,
    I2,
    as_mat2,
    branch_log,
    mexp,
    mlog_spectral,
    mlog_integral,
    op_norm,
    op_norm_sym,
)
from .finitegap import (
    GapSet,
    KreinProfile,
    WeylPair,
    PotentialSample,
    projection_angle,
    profile_from_json,
    build_logM,
    build_M,
    weyl_from_M,
    assemble_M,
    trace_formula_W0,
    sharp_bound,
    reflectionless_defect,
    gap_realness,
    hull_norm,
)
from .herglotz import (
    MFunction,
    KreinSample,
    profile_m_function,
    krein_xi,
    asymptotic_W,
    herglotz_defect,
)
from .dirac import (
    const_weyl,
    ode_weyl,
    sample_potential,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "J",
    "I2",
    "as_mat2",
    "branch_log",
    "mexp",
    "mlog_spectral",
    "mlog_integral",
    "op_norm",
    "op_norm_sym",
    "GapSet",
    "KreinProfile",
    "WeylPair",
    "PotentialSample",
    "projection_angle",
    "profile_from_json",
    "build_logM",
    "build_M",
    "weyl_from_M",
    "assemble_M",
    "trace_formula_W0",
    "sharp_bound",
    "reflectionless_defect",
    "gap_realness",
    "hull_norm",
    "MFunction",
    "KreinSample",
    "profile_m_function",
    "krein_xi",
    "asymptotic_W",
    "herglotz_defect",
    "const_weyl",
    "ode_weyl",
    "sample_potential",
    "__version__",
]
