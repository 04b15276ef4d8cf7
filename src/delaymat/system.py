"""Problem data carriers: systems, history/forcing specifications, and
sampled trajectories.

The two equation families share one coefficient layout::

    continuous:  X'(t)    = A0 X(t - sigma) + X(t - sigma) A1 + G(t)
    discrete:    ΔX(u)    = A0 X(u - m)     + X(u - m)     A1 + G(u)

with noncommutative ``A0``, ``A1`` allowed throughout.  ``DelaySystem``
bundles the coefficients with the delay; ``HistorySpec``/``ForcingSpec``
wrap the initial segment and inhomogeneity in the shape each family
needs (a piecewise polynomial, or per-index matrices); and
``TrajectoryTable`` is the common sampled-output type shared by the
discrete solvers and the brute-force integrators.

:func:`continuous_data` and :func:`discrete_data` decide, once for the
solvers and the oracles alike, whether data fits a system and a
horizon, and hand it back in the one shape the arithmetic reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataMismatch, DimensionMismatch
from .linalg import as_square_matrix
from .ppoly import PiecewiseMatrixPolynomial

__all__ = [
    "DelaySystem",
    "HistorySpec",
    "ForcingSpec",
    "TrajectoryTable",
    "continuous_data",
    "discrete_data",
]

@dataclass(frozen=True)
class DelaySystem:
    """A delay equation's coefficients ``(a0, a1)`` plus its delay.

    ``kind`` is ``"continuous"`` (positive real delay ``sigma``) or
    ``"discrete"`` (integer delay ``m >= 1``).
    """

    a0: np.ndarray
    a1: np.ndarray
    delay: float
    kind: str

    def __post_init__(self):
        a0 = as_square_matrix(self.a0, "a0")
        a1 = as_square_matrix(self.a1, "a1")
        if a0.shape != a1.shape:
            raise DimensionMismatch(
                f"a0 and a1 must match, got {a0.shape} and {a1.shape}"
            )
        if self.kind not in ("continuous", "discrete"):
            raise ValueError(f"kind must be 'continuous' or 'discrete', got {self.kind!r}")
        if self.kind == "continuous":
            delay = float(self.delay)
            if not np.isfinite(delay) or delay <= 0:
                raise ValueError(f"continuous delay must be positive, got {self.delay}")
        else:
            delay = int(self.delay)
            if delay != self.delay or delay < 1:
                raise ValueError(f"discrete delay must be an integer >= 1, got {self.delay}")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "delay", delay)

    @property
    def dim(self):
        return self.a0.shape[0]

    @property
    def is_continuous(self):
        return self.kind == "continuous"

    @property
    def sigma(self):
        if not self.is_continuous:
            raise ValueError("sigma is only defined for continuous systems")
        return self.delay

    @property
    def m(self):
        if self.is_continuous:
            raise ValueError("m is only defined for discrete systems")
        return self.delay


@dataclass(frozen=True)
class HistorySpec:
    """Initial data on the delay window.

    Continuous: a matrix-valued piecewise polynomial, jumps allowed,
    whose domain must cover ``[-sigma, 0]`` at solve time.  Discrete:
    matrices for ``u = -m .. 0`` stacked as ``values[(u + m)]``.
    """

    kind: str
    ppoly: PiecewiseMatrixPolynomial | None = None
    values: np.ndarray | None = None

    @classmethod
    def from_ppoly(cls, ppoly):
        return cls(kind="continuous", ppoly=ppoly)

    @classmethod
    def from_values(cls, values):
        """Wrap per-index matrices for ``u = -m .. 0`` (``m = len - 1``)."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise DimensionMismatch(
                f"values must have shape (m + 1, d, d), got {values.shape}"
            )
        if values.shape[0] < 2:
            raise ValueError("discrete history needs at least two indices (m >= 1)")
        if not np.all(np.isfinite(values)):
            raise ValueError("history values contain non-finite entries")
        return cls(kind="discrete", values=values)


@dataclass(frozen=True)
class ForcingSpec:
    """Inhomogeneity ``G``.

    Continuous: a piecewise polynomial covering ``[0, T]`` at solve time.
    Discrete: matrices for ``u = 0, 1, ...`` as a stack.
    """

    kind: str
    ppoly: PiecewiseMatrixPolynomial | None = None
    values: np.ndarray | None = None

    @classmethod
    def from_ppoly(cls, ppoly):
        return cls(kind="continuous", ppoly=ppoly)

    @classmethod
    def from_values(cls, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise DimensionMismatch(
                f"values must have shape (n, d, d), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("forcing values contain non-finite entries")
        return cls(kind="discrete", values=values)

    def table(self, n, dim):
        """Discrete forcing values for ``u = 0 .. n-1`` as ``(n, d, d)``."""
        if self.kind != "discrete":
            raise ValueError("table() is only defined for discrete forcing")
        if n == 0:
            return np.zeros((0, dim, dim))
        if self.values.shape[0] < n:
            raise DataMismatch(
                "forcing", f"table has {self.values.shape[0]} entries, need {n}"
            )
        return self.values[:n]


@dataclass(frozen=True)
class TrajectoryTable:
    """Sampled matrix trajectory: ``values[i]`` at ``times[i]``.

    ``times`` is strictly increasing — integer-valued for discrete
    solutions (one row per index) and a uniform fine grid for the
    continuous integrator's dense output.
    """

    kind: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise DimensionMismatch(
                f"values must have shape (n, d, d), got {values.shape}"
            )
        if times.shape[0] != values.shape[0]:
            raise ValueError(
                f"{times.shape[0]} times vs {values.shape[0]} matrices"
            )
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dim(self):
        return self.values.shape[1]

    def at_time(self, t, tol=1e-9):
        """The matrix stored at time ``t`` (exact grid lookup)."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > tol:
            raise KeyError(f"no sample at t={t} (nearest: {self.times[idx]})")
        return self.values[idx]


def _check_kind(data, spec, role, kind):
    """Refuse a ``spec`` of the other family; anything else passes."""
    if isinstance(data, spec) and data.kind != kind:
        raise DataMismatch(role, f"is {data.kind} data, the system is {kind}")


def _continuous_ppoly(data, spec, role, dim):
    _check_kind(data, spec, role, "continuous")
    if isinstance(data, spec):
        data = data.ppoly
    elif not isinstance(data, PiecewiseMatrixPolynomial):
        raise TypeError(f"unsupported {role} type {type(data).__name__}")
    if data.dim != dim:
        raise DataMismatch(role, f"dimension {data.dim} does not match system {dim}")
    return data


def continuous_data(sys, history, forcing, horizon=None):
    """The data of a continuous problem as piecewise polynomials ``(psi,
    g)``, with ``g`` ``None`` when there is no forcing.

    ``history`` is a continuous :class:`HistorySpec` or a bare
    :class:`~delaymat.ppoly.PiecewiseMatrixPolynomial` (taken as it is,
    jumps and all) and must cover ``[-sigma, 0]``.  ``forcing`` is
    ``None``, a continuous :class:`ForcingSpec` or a bare piecewise
    polynomial, and must cover ``[0, horizon]`` unless its last piece
    extends to the right (``right_extension``).  Without a horizon the
    forcing must only start at 0.  Domains may fall short by
    ``1e-12 sigma``.
    """
    if not sys.is_continuous:
        raise ValueError("continuous data needs a continuous system")
    if horizon is not None and not 0 < float(horizon) < np.inf:
        raise ValueError(f"horizon must be positive, got {horizon}")
    sigma = sys.sigma
    tiny = 1e-12 * sigma
    psi = _continuous_ppoly(history, HistorySpec, "history", sys.dim)
    if psi.start > -sigma + tiny or psi.end < -tiny:
        raise DataMismatch(
            "history", f"domain [{psi.start}, {psi.end}] does not cover [-{sigma}, 0]"
        )
    if forcing is None:
        return psi, None
    g = _continuous_ppoly(forcing, ForcingSpec, "forcing", sys.dim)
    end = g.end if horizon is None or g.right_extension else float(horizon)
    if g.start > tiny or g.end < end - tiny:
        raise DataMismatch(
            "forcing", f"domain [{g.start}, {g.end}] does not cover [0, {end}]"
        )
    return psi, g


def discrete_data(sys, history, forcing, n_steps=None):
    """The data of a discrete problem as matrix stacks ``(hist, g)``:
    ``hist`` holds ``u = -m .. 0`` and ``g`` holds ``u = 0 .. n_steps - 1``
    (zeros when there is no forcing).

    ``history`` is a discrete :class:`HistorySpec` or an ``(m + 1, d, d)``
    array; ``forcing`` is ``None``, a discrete :class:`ForcingSpec` or an
    array of at least ``n_steps`` matrices.  Without ``n_steps`` a forcing
    table is taken at its own length.
    """
    if sys.is_continuous:
        raise ValueError("discrete data needs a discrete system")
    if n_steps is not None:
        n_steps = int(n_steps)
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    m, d = sys.m, sys.dim
    _check_kind(history, HistorySpec, "history", "discrete")
    if isinstance(history, HistorySpec):
        history = history.values
    hist = np.asarray(history, dtype=float)
    if hist.shape != (m + 1, d, d):
        raise DataMismatch(
            "history", f"must have shape ({m + 1}, {d}, {d}), got {hist.shape}"
        )
    _check_kind(forcing, ForcingSpec, "forcing", "discrete")
    if forcing is None:
        return hist, np.zeros((n_steps or 0, d, d))
    if isinstance(forcing, ForcingSpec):
        forcing = forcing.values if n_steps is None else forcing.table(n_steps, d)
    g = np.asarray(forcing, dtype=float)[:n_steps]
    want = (g.shape[0] if n_steps is None else n_steps, d, d)
    if g.shape != want:
        raise DataMismatch(
            "forcing", f"must have shape {want} for u = 0 .. {want[0] - 1}, "
            f"got {g.shape}"
        )
    return hist, g
