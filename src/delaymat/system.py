"""Problem data carriers: systems, history/forcing specifications, and
sampled trajectories.

The two equation families share one coefficient layout::

    continuous:  X'(t)    = A0 X(t - sigma) + X(t - sigma) A1 + G(t)
    discrete:    ΔX(u)    = A0 X(u - m)     + X(u - m)     A1 + G(u)

with noncommutative ``A0``, ``A1`` allowed throughout.  ``DelaySystem``
bundles the coefficients with the delay; ``HistorySpec``/``ForcingSpec``
carry the initial segment and inhomogeneity as given (a piecewise
polynomial, or per-index matrices); and ``TrajectoryTable`` is the
common sampled-output type shared by the discrete solvers and the
brute-force integrators.

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
class _DataSpec:
    """History or forcing data as it was given: a piecewise polynomial
    (``ppoly``) or a stack of per-index matrices (``values``).  Whether it
    fits a system and a horizon is for :func:`continuous_data` and
    :func:`discrete_data` to decide."""

    ppoly: PiecewiseMatrixPolynomial | None = None
    values: np.ndarray | None = None

    @classmethod
    def from_ppoly(cls, ppoly):
        return cls(ppoly=ppoly)

    @classmethod
    def from_values(cls, values):
        return cls(values=np.asarray(values, dtype=float))


class HistorySpec(_DataSpec):
    """Initial data on the delay window.

    Continuous: a matrix-valued piecewise polynomial, jumps allowed,
    covering ``[-sigma, 0]``.  Discrete: matrices for ``u = -m .. 0``
    stacked as ``values[u + m]``.
    """


class ForcingSpec(_DataSpec):
    """Inhomogeneity ``G``.

    Continuous: a piecewise polynomial covering ``[0, T]``.  Discrete:
    matrices for ``u = 0, 1, ...`` as a stack.
    """


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
        # compared, not subtracted: a difference of finite times can overflow
        if not np.all(times[1:] > times[:-1]):
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


def _unwrap(data, role, sys):
    """``data`` out of its spec, refused when it is not of ``sys``'s
    family: a piecewise polynomial for a continuous system, anything
    else (a matrix table) for a discrete one."""
    if isinstance(data, _DataSpec):
        data = data.ppoly if data.ppoly is not None else data.values
    if isinstance(data, PiecewiseMatrixPolynomial) != sys.is_continuous:
        need = "a piecewise polynomial" if sys.is_continuous else "a table of matrices"
        raise DataMismatch(
            role, f"is {type(data).__name__}; a {sys.kind} system takes {need}"
        )
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
    psi = _unwrap(history, "history", sys)
    g = None if forcing is None else _unwrap(forcing, "forcing", sys)
    for role, data in (("history", psi), ("forcing", g)):
        if data is not None and data.dim != sys.dim:
            raise DataMismatch(
                role, f"dimension {data.dim} does not match system {sys.dim}"
            )
    if psi.start > -sigma + tiny or psi.end < -tiny:
        raise DataMismatch(
            "history", f"domain [{psi.start}, {psi.end}] does not cover [-{sigma}, 0]"
        )
    if g is None:
        return psi, None
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

    ``history`` is a :class:`HistorySpec` or an ``(m + 1, d, d)`` array;
    ``forcing`` is ``None``, a :class:`ForcingSpec` or an array of at
    least ``n_steps`` matrices, of which the first ``n_steps`` are read.
    Without ``n_steps`` a forcing table is taken at its own length.  The
    matrices read must be finite.
    """
    if sys.is_continuous:
        raise ValueError("discrete data needs a discrete system")
    if n_steps is not None:
        n_steps = int(n_steps)
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    m, d = sys.m, sys.dim
    hist = _table(history, "history", sys, -m, m + 1, exact=True)
    if forcing is None:
        return hist, np.zeros((n_steps or 0, d, d))
    return hist, _table(forcing, "forcing", sys, 0, n_steps, exact=False)


def _table(data, role, sys, first, rows, exact):
    """``data`` as finite ``d x d`` matrices for ``u = first ..``: exactly
    ``rows`` of them when ``exact``, else the first ``rows`` of at least
    that many (all of them for ``rows=None``)."""
    data, d = _unwrap(data, role, sys), sys.dim
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise DataMismatch(role, "is not a table of numbers") from None
    fits = arr.ndim == 3 and arr.shape[1:] == (d, d)
    if fits and rows is not None:
        fits = len(arr) == rows if exact else len(arr) >= rows
    if not fits:
        need = "" if rows is None else f"{'' if exact else 'at least '}{rows} "
        span = f" for u = {first} .. {first + rows - 1}" if rows else ""
        raise DataMismatch(
            role, f"must hold {need}{d}x{d} matrices{span}, got shape {arr.shape}"
        )
    arr = arr[:rows]
    if not np.isfinite(arr).all():
        u = first + int(np.argmin(np.isfinite(arr).all(axis=(1, 2))))
        raise DataMismatch(role, f"holds a non-finite entry at u = {u}")
    return arr
