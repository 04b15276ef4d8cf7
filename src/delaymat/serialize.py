"""On-disk formats: JSON problem descriptions, CSV/JSON trajectories.

Every reader validates against the documented schemas (see
``docs/formats.md``) and raises :class:`~delaymat.errors.SchemaError`
with a location — ``path:line:col`` for malformed JSON, ``path: /json/
pointer`` for a well-formed document with a bad shape — so the
command-line front end can print one anchored message and exit 2.

Readers accept any JSON layout. Files delaymat writes put each
top-level key on its own line, and a value that is a stack of matrices
(a trajectory's ``values``, a q table's ``mats``, a ppoly's ``pieces``)
one element per line. Every JSON line and every CSV row comes from
:func:`orjson.dumps`, which takes numpy arrays as they are and writes
each float as the shortest decimal that parses back to the identical
float (Ryū), with compact separators; trajectory files therefore
round-trip bit-identically (integer-valued data reads back as exact
integers). JSON has no NaN or Infinity, so the writers refuse
non-finite numbers with :class:`~delaymat.errors.NonFiniteOutput`, a
:class:`ValueError`.

A file is written under a temporary name in its own directory and
renamed over its path only once it is complete (:func:`replace_on_success`),
so a writer that fails leaves no partial file behind.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import orjson

from .errors import NonFiniteOutput, SchemaError, UnwritablePath
from .ppoly import PiecewiseMatrixPolynomial
from .system import DelaySystem, ForcingSpec, HistorySpec, TrajectoryTable

__all__ = [
    "load_json",
    "load_system",
    "load_history",
    "load_forcing",
    "ppoly_from_node",
    "ppoly_to_node",
    "qtable_to_node",
    "trajectory_to_node",
    "trajectory_from_node",
    "write_trajectory_csv",
    "write_json",
    "dump_json",
    "replace_on_success",
]


# ---------------------------------------------------------------------------
# Generic JSON plumbing
# ---------------------------------------------------------------------------


def load_json(path):
    """Parse a UTF-8 JSON file; malformed input fails with
    ``path:line:col``, and a file that cannot be read, is not UTF-8 or
    nests too deeply to parse fails located at ``path``."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read file: {exc}", location=str(path)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"invalid JSON: {exc.msg}", location=f"{path}:{exc.lineno}:{exc.colno}"
        ) from exc
    except RecursionError as exc:
        raise SchemaError("invalid JSON: nested too deeply", location=str(path)) from exc


def _all_finite(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind != "f" or bool(np.isfinite(value).all())
    if isinstance(value, (list, tuple)):
        return all(map(_all_finite, value))
    if isinstance(value, dict):
        return all(map(_all_finite, value.values()))
    return True


def _encode(value, where):
    """``value`` (numpy arrays C-contiguous) as compact JSON text.
    orjson writes NaN and ±inf as ``null``, so a ``null`` that does not
    come from ``None`` is refused, naming ``where``."""
    text = orjson.dumps(value, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"null" in text and not _all_finite(value):
        raise NonFiniteOutput(f"{where}: cannot write a non-finite number")
    return text.decode()


def _is_stack(value):
    """A non-empty stack of matrices or deeper: an array with at least
    three axes, or a list nested at least three deep."""
    if isinstance(value, np.ndarray):
        return value.ndim >= 3 and len(value) > 0
    return (
        isinstance(value, list)
        and bool(value)
        and isinstance(value[0], list)
        and bool(value[0])
        and isinstance(value[0][0], list)
    )


def dump_json(node, fh):
    """Write the JSON object ``node`` to the open text file ``fh``: one
    top-level key per line, and a stack of matrices one element per line,
    each line one call of :func:`orjson.dumps` (see the module
    docstring).  A non-finite number raises
    :class:`~delaymat.errors.NonFiniteOutput` naming its key (and stack
    element); the lines before it are already written."""
    fh.write("{\n")
    last = len(node) - 1
    for n, (key, value) in enumerate(node.items()):
        end = ",\n" if n < last else "\n"
        head = f"  {_encode(key, key)}: "
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value)
        if not _is_stack(value):
            fh.write(head + _encode(value, repr(key)) + end)
            continue
        fh.write(head + "[\n")
        tail = len(value) - 1
        for k, elem in enumerate(value):
            text = _encode(elem, f"{key!r}[{k}]")
            fh.write(f"    {text}{',' if k < tail else ''}\n")
        fh.write("  ]" + end)
    fh.write("}\n")


@contextmanager
def replace_on_success(path):
    """Open a UTF-8 text file for writing that becomes ``path`` only if
    the block succeeds.

    The file is written under a temporary name in the directory of
    ``path`` and renamed over it with :func:`os.replace` at the end of the
    block; if the block raises, the temporary file is removed and ``path``
    is left as it was.  A symbolic link (such as ``/dev/stdout``) or an
    existing path that is not a regular file (a device or a pipe) is
    written in place, since renaming over it would replace the link or
    the device itself.  A path that cannot be opened (a missing
    directory, or a directory) raises
    :class:`~delaymat.errors.UnwritablePath` naming ``path``.
    """
    path = os.fspath(path)
    in_place = os.path.islink(path) or (
        os.path.exists(path) and not os.path.isfile(path)
    )
    head, name = os.path.split(path)
    target = path if in_place else os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(target, "w" if in_place else "x", encoding="utf-8")
    except OSError as exc:
        raise UnwritablePath(f"cannot write {path}: {exc.strerror or exc}") from exc
    if in_place:
        with fh:
            yield fh
        return
    try:
        with fh:
            yield fh
        os.replace(target, path)
    except BaseException:
        os.remove(target)
        raise


def write_json(node, path):
    """Write the JSON object ``node`` to the file ``path`` (see
    :func:`dump_json`); a failed write leaves no file (see
    :func:`replace_on_success`)."""
    with replace_on_success(path) as fh:
        dump_json(node, fh)


def _fail(msg, path, ptr):
    raise SchemaError(msg, location=f"{path}: {ptr or '/'}")


def _get(doc, key, path, ptr):
    if not isinstance(doc, dict):
        _fail(f"expected a JSON object, got {type(doc).__name__}", path, ptr)
    if key not in doc:
        _fail(f"missing required key {key!r}", path, ptr)
    return doc[key]


def _as_number(node, path, ptr):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(f"expected a number, got {type(node).__name__}", path, ptr)
    return float(node)


def _as_int(node, path, ptr):
    if isinstance(node, bool) or not isinstance(node, int):
        _fail(f"expected an integer, got {type(node).__name__}", path, ptr)
    return int(node)


def _as_matrix(node, d, path, ptr):
    if not isinstance(node, list) or len(node) != d:
        _fail(f"expected a {d}x{d} matrix (list of {d} rows)", path, ptr)
    out = np.empty((d, d))
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != d:
            _fail(f"expected a row of {d} numbers", path, f"{ptr}/{i}")
        for j, val in enumerate(row):
            out[i, j] = _as_number(val, path, f"{ptr}/{i}/{j}")
    if not np.all(np.isfinite(out)):
        _fail("matrix entries must be finite", path, ptr)
    return out


_type_of = np.frompyfunc(type, 1, 1)


def _float_array(node, shape):
    """``node`` as a finite float array of ``shape`` if it is one, made
    without a Python-level walk; ``None`` otherwise (the caller then walks
    it to name the first bad entry)."""
    arr = np.array(node, dtype=object)  # ragged lists give another shape
    if arr.shape != shape or not set(_type_of(arr).ravel().tolist()) <= {int, float}:
        return None  # also rejects bool, str, None and nested lists
    out = arr.astype(float)
    return out if np.isfinite(out).all() else None


def _as_matrix_stack(node, d, path, ptr, what="matrices"):
    if not isinstance(node, list) or not node:
        _fail(f"expected a non-empty list of {what}", path, ptr)
    fast = _float_array(node, (len(node), d, d))
    if fast is not None:
        return fast
    return np.stack(
        [_as_matrix(mat, d, path, f"{ptr}/{k}") for k, mat in enumerate(node)]
    )


# ---------------------------------------------------------------------------
# Problem data
# ---------------------------------------------------------------------------


def load_system(path):
    """Read a system file::

        { "d": 2, "A0": [[...]], "A1": [[...]],
          "kind": "continuous" | "discrete", "delay": number }
    """
    doc = load_json(path)
    d = _as_int(_get(doc, "d", path, ""), path, "/d")
    if d < 1:
        _fail(f"d must be >= 1, got {d}", path, "/d")
    kind = _get(doc, "kind", path, "")
    if kind not in ("continuous", "discrete"):
        _fail(f"kind must be 'continuous' or 'discrete', got {kind!r}", path, "/kind")
    delay = _as_number(_get(doc, "delay", path, ""), path, "/delay")
    a0 = _as_matrix(_get(doc, "A0", path, ""), d, path, "/A0")
    a1 = _as_matrix(_get(doc, "A1", path, ""), d, path, "/A1")
    try:
        return DelaySystem(a0=a0, a1=a1, delay=delay, kind=kind)
    except ValueError as exc:
        _fail(str(exc), path, "/delay")


def ppoly_from_node(node, d, path, ptr=""):
    """Read a piecewise-polynomial payload::

        { "kind": "ppoly", "basis": "local", "breakpoints": [t0, ..., tK],
          "pieces": [ [ [[...]], ... ], ... ],   # pieces[k][j]: coeff of
                                                  # (t - tk)**j
          "left_value": [[...]],                  # optional, default zero
          "right_extension": bool }               # optional, default false

    Without ``basis`` (or with ``"global"``) ``pieces[k][j]`` is the
    coefficient of ``t**j``; such pieces are converted once on reading.
    """
    bks = _get(node, "breakpoints", path, ptr)
    basis = node.get("basis", "global")
    if basis not in ("local", "global"):
        _fail(f"basis must be 'local' or 'global', got {basis!r}", path, f"{ptr}/basis")
    if not isinstance(bks, list) or len(bks) < 2:
        _fail("breakpoints must list at least two numbers", path, f"{ptr}/breakpoints")
    breakpoints = [
        _as_number(b, path, f"{ptr}/breakpoints/{k}") for k, b in enumerate(bks)
    ]
    pieces_node = _get(node, "pieces", path, ptr)
    if not isinstance(pieces_node, list) or len(pieces_node) != len(breakpoints) - 1:
        _fail(
            f"pieces must list {len(breakpoints) - 1} segment polynomials",
            path,
            f"{ptr}/pieces",
        )
    pieces = [
        _as_matrix_stack(c, d, path, f"{ptr}/pieces/{k}", what="coefficient matrices")
        for k, c in enumerate(pieces_node)
    ]
    left_value = None
    if "left_value" in node:
        left_value = _as_matrix(node["left_value"], d, path, f"{ptr}/left_value")
    right_extension = node.get("right_extension", False)
    if not isinstance(right_extension, bool):
        _fail("right_extension must be a boolean", path, f"{ptr}/right_extension")
    build = (
        PiecewiseMatrixPolynomial
        if basis == "local"
        else PiecewiseMatrixPolynomial.from_global
    )
    try:
        return build(
            breakpoints, pieces, left_value=left_value, right_extension=right_extension
        )
    except ValueError as exc:
        _fail(str(exc), path, f"{ptr}/breakpoints")


def _load_data(path, sys, spec):
    """Read a history or forcing file into ``spec``: a ``ppoly`` payload
    for a continuous system, a ``table`` payload ``{"kind": "table",
    "values": [...]}`` of finite ``d x d`` matrices for a discrete one.
    Whether the data fits the system and the horizon is decided later,
    by :func:`~delaymat.system.continuous_data` and
    :func:`~delaymat.system.discrete_data`."""
    doc = load_json(path)
    want = "ppoly" if sys.is_continuous else "table"
    kind = _get(doc, "kind", path, "")
    if kind != want:
        msg = f"a {sys.kind} system needs a {want!r} payload, got {kind!r}"
        _fail(msg, path, "/kind")
    if sys.is_continuous:
        return spec.from_ppoly(ppoly_from_node(doc, sys.dim, path))
    return spec.from_values(
        _as_matrix_stack(_get(doc, "values", path, ""), sys.dim, path, "/values")
    )


def load_history(path, sys):
    """Read a history file (see :func:`_load_data`), ``u = -m .. 0``."""
    return _load_data(path, sys, HistorySpec)


def load_forcing(path, sys):
    """Read a forcing file (see :func:`_load_data`), ``u = 0, 1, ...``."""
    return _load_data(path, sys, ForcingSpec)


# ---------------------------------------------------------------------------
# Writers / dump payloads
# ---------------------------------------------------------------------------


def ppoly_to_node(ppoly):
    """Piecewise polynomial as a ``ppoly`` payload (inverse of
    :func:`ppoly_from_node`)."""
    return {
        "kind": "ppoly",
        "basis": "local",
        "breakpoints": [float(b) for b in ppoly.breakpoints],
        "pieces": [c.tolist() for c in ppoly.pieces],
        "left_value": ppoly.left_value.tolist(),
        "right_extension": ppoly.right_extension,
    }


def qtable_to_node(mats):
    """The ``(depth + 1, d, d)`` table of
    :func:`~delaymat.fundamental.build_q_table` as ``{"kind": "qtable",
    "mats": [...]}``."""
    return {"kind": "qtable", "mats": mats.tolist()}


def trajectory_to_node(table):
    """Trajectory payload; ``times`` and ``values`` stay arrays, which
    :func:`dump_json` writes one matrix at a time."""
    return {
        "kind": "trajectory",
        "trajectory_kind": table.kind,
        "times": table.times,
        "values": table.values,
    }


def trajectory_from_node(doc, path="<node>"):
    if _get(doc, "kind", path, "") != "trajectory":
        _fail("expected kind 'trajectory'", path, "/kind")
    tkind = _get(doc, "trajectory_kind", path, "")
    if tkind not in ("continuous", "discrete"):
        _fail("trajectory_kind must be 'continuous' or 'discrete'", path, "/trajectory_kind")
    times_node = _get(doc, "times", path, "")
    if not isinstance(times_node, list) or not times_node:
        _fail("times must be a non-empty list", path, "/times")
    times = _float_array(times_node, (len(times_node),))
    if times is None:
        times = np.array(
            [_as_number(t, path, f"/times/{k}") for k, t in enumerate(times_node)]
        )
    values_node = _get(doc, "values", path, "")
    if not isinstance(values_node, list) or len(values_node) != times.size:
        _fail(f"values must list {times.size} matrices", path, "/values")
    first = values_node[0]
    if not isinstance(first, list) or not first:
        _fail("values entries must be matrices", path, "/values/0")
    d = len(first)
    values = _as_matrix_stack(values_node, d, path, "/values")
    return TrajectoryTable(kind=tkind, times=times, values=values)


def write_trajectory_csv(table, fh):
    """Write ``t, x11, x12, ..., xdd`` rows (row-major entries) to an
    open text file.  Each row is one :func:`orjson.dumps` call with the
    brackets stripped, so floats are the shortest round-trip decimals; a
    row with a non-finite number raises
    :class:`~delaymat.errors.NonFiniteOutput` naming the row (the rows
    before it are already written)."""
    d = table.dim
    header = ["t"] + [f"x{i + 1}{j + 1}" for i in range(d) for j in range(d)]
    fh.write(",".join(header) + "\n")
    rows = np.column_stack((table.times, table.values.reshape(-1, d * d)))
    for k, row in enumerate(rows):
        fh.write(_encode(row, f"row {k}")[1:-1] + "\n")
