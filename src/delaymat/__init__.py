"""Closed-form solutions of linear matrix delay equations.

``delaymat`` solves first-order linear matrix equations with a single
pure delay,

    continuous:  X'(t)  = A0 X(t - sigma) + X(t - sigma) A1 + G(t)
    discrete:    ΔX(u)  = A0 X(u - m)     + X(u - m)     A1 + G(u),

for square coefficient matrices that need **not** commute with each
other, and any history and forcing.  Every solution, the fundamental
solutions included, is one exact repeated sum ``sum_r Theta_r`` of
delayed terms, ``Theta_{r+1}`` the running integral (continuous) or
cumulative sum (discrete) of ``A0 Theta_r + Theta_r A1`` (see
:mod:`delaymat.solve`): piecewise polynomial in time for the continuous
family, one matrix per index for the discrete one.  Independent
brute-force integrators (:mod:`delaymat.oracle`) cross-check every
closed form.
"""

from .errors import (
    DataMismatch,
    DegreeCapExceeded,
    DelayMatError,
    DimensionMismatch,
    NonFiniteOutput,
    SchemaError,
)
from .fundamental import DiscreteFundamental, build_q_table
from .oracle import IntegratorConfig, integrate_continuous, step_discrete
from .ppoly import MAX_DEGREE, PiecewiseMatrixPolynomial, convolve_kernel
from .solve import (
    HypothesisReport,
    build_fundamental_continuous,
    solve_continuous,
    solve_discrete,
    validate_hypotheses,
)
from .system import DelaySystem, ForcingSpec, HistorySpec, TrajectoryTable

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DelayMatError",
    "DimensionMismatch",
    "DegreeCapExceeded",
    "DataMismatch",
    "NonFiniteOutput",
    "SchemaError",
    # piecewise polynomials
    "MAX_DEGREE",
    "PiecewiseMatrixPolynomial",
    "convolve_kernel",
    # coefficient table
    "build_q_table",
    # fundamental solutions
    "DiscreteFundamental",
    "build_fundamental_continuous",
    # problem data
    "DelaySystem",
    "HistorySpec",
    "ForcingSpec",
    "TrajectoryTable",
    # solvers
    "HypothesisReport",
    "validate_hypotheses",
    "solve_continuous",
    "solve_discrete",
    # brute-force oracles
    "IntegratorConfig",
    "integrate_continuous",
    "step_discrete",
]
