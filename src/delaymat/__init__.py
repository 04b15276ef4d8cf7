"""Closed-form solutions of linear matrix delay equations.

``delaymat`` solves first-order linear matrix equations with a single
pure delay,

    continuous:  X'(t)  = A0 X(t - sigma) + X(t - sigma) A1 + G(t)
    discrete:    ΔX(u)  = A0 X(u - m)     + X(u - m)     A1 + G(u),

for square coefficient matrices that need **not** commute with each
other.  The fundamental solution is built exactly — piecewise
polynomial in time for the continuous family, integer combinations of a
coefficient table for the discrete one — and initial value problems are
assembled from it by an exact variation-of-constants formula (valid
when the data commutes with ``A1``; see
:func:`~delaymat.solve.validate_hypotheses`).  Independent brute-force
integrators (:mod:`delaymat.oracle`) cross-check every closed form.
"""

from .errors import (
    CommutationError,
    DataMismatch,
    DegreeCapExceeded,
    DelayMatError,
    DimensionMismatch,
    HypothesisViolation,
    NonFiniteOutput,
    SchemaError,
    UnsupportedHypothesisWarning,
)
from .fundamental import (
    DiscreteFundamental,
    build_fundamental_continuous,
    fundamental_commutative_continuous,
    fundamental_commutative_discrete,
)
from .linalg import binomial, commutes
from .oracle import IntegratorConfig, integrate_continuous, step_discrete
from .ppoly import (
    MAX_DEGREE,
    MatrixPolynomial,
    PiecewiseMatrixPolynomial,
    convolve_kernel,
)
from .qseq import QTable, build_q_table, q_commutative_closed_form
from .solve import (
    HypothesisReport,
    solve_continuous,
    solve_discrete,
    validate_hypotheses,
)
from .system import DelaySystem, ForcingSpec, HistorySpec, TrajectoryTable

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors and warnings
    "DelayMatError",
    "DimensionMismatch",
    "DegreeCapExceeded",
    "CommutationError",
    "HypothesisViolation",
    "DataMismatch",
    "NonFiniteOutput",
    "SchemaError",
    "UnsupportedHypothesisWarning",
    # linear algebra helpers
    "binomial",
    "commutes",
    # piecewise polynomials
    "MAX_DEGREE",
    "MatrixPolynomial",
    "PiecewiseMatrixPolynomial",
    "convolve_kernel",
    # coefficient table
    "QTable",
    "build_q_table",
    "q_commutative_closed_form",
    # fundamental solutions
    "DiscreteFundamental",
    "build_fundamental_continuous",
    "fundamental_commutative_continuous",
    "fundamental_commutative_discrete",
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
