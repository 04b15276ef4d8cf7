"""Spans recorded around the public calls into each delaymat layer.

The tracer wraps functions from outside the library: it replaces a
module or class attribute with a wrapper for the duration of a ``with
tracer.installed():`` block and restores the original afterwards, so the
library itself carries no timing code.  Each span stores its name,
start, end and parent in flat arrays (hundreds of thousands of spans per
run stay cheap to keep); they are written out once, when the run ends.

A *root* span is opened by the benchmark itself around one op (or one
oracle check).  :func:`summarize` turns the spans under a root into
per-name inclusive time, self time (duration minus direct child spans),
call counts, and the union of time covered by a set of names.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: Serialize functions imported by ``delaymat.cli`` that count as
#: ``serialize.load`` and ``serialize.write``.
SERIALIZE_READ = ("load_system", "load_history", "load_forcing")
SERIALIZE_WRITE = ("trajectory_to_node", "write_json", "ppoly_to_node",
                   "qtable_to_node", "write_trajectory_csv")


class Tracer:
    """In-memory span recorder plus per-root counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.counts = {}
        self.distinct_u = set()
        #: Per root index: its counters once the root closed.
        self.root_counts = {}

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, name, fn, counter=None):
        """``fn`` wrapped so that each call records one span (and, when
        given, ``counter(tracer, args, result)`` after it returns)."""
        nid = self._intern(name)
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                counter(self, args, out)
            return out

        return traced

    @contextmanager
    def root(self, name):
        """A top-level span opened by the benchmark; yields its index.
        Counters restart at every root."""
        self.counts = {}
        self.distinct_u = set()
        idx = self._open(self._intern(name))
        self.start[idx] = time.perf_counter()
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self.counts["distinct_u"] = len(self.distinct_u)
            self.root_counts[idx] = self.counts

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def installed(self):
        """Patch every traced boundary for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counter in _boundaries():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def save(self, path, roots):
        """Write every span (and the root list) as one ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            roots=np.asarray(roots, dtype=np.int64),
        )


def _count_value(tracer, args, out):
    tracer.distinct_u.add(int(args[1]))


def _count_pieces(tracer, args, out):
    tracer.add("ppoly.convolve_kernel.out_pieces", len(out.pieces))


def _count_points(tracer, args, out):
    tracer.add("ppoly.eval.points", int(np.size(args[1])))


def _count_grid(tracer, args, out):
    tracer.add("oracle.integrate_continuous.grid_points", int(out.times.size))


def _count_bytes(tracer, args, out):
    tracer.add("serialize.bytes_written", os.path.getsize(args[1]))


def _boundaries():
    """``(owner, attribute, span name, counter)`` for every traced call.

    Functions are patched in the namespace that looks them up: the solver
    module for its own building blocks, ``delaymat.cli`` for the names it
    imported.
    """
    mod = importlib.import_module
    cli = mod("delaymat.cli")
    solve = mod("delaymat.solve")
    fundamental = mod("delaymat.fundamental")
    oracle = mod("delaymat.oracle")
    ppoly = mod("delaymat.ppoly")
    serialize = mod("delaymat.serialize")
    out = [
        (solve, "validate_hypotheses", "solve.validate_hypotheses", None),
        (cli, "validate_hypotheses", "solve.validate_hypotheses", None),
        (solve, "solve_continuous", "solve.solve_continuous", None),
        (cli, "solve_continuous", "solve.solve_continuous", None),
        (solve, "solve_discrete", "solve.solve_discrete", None),
        (cli, "solve_discrete", "solve.solve_discrete", None),
        (solve, "build_fundamental_continuous",
         "fundamental.build_fundamental_continuous", None),
        (solve, "convolve_kernel", "ppoly.convolve_kernel", _count_pieces),
        (fundamental, "build_q_table", "qseq.build_q_table", None),
        (fundamental.DiscreteFundamental, "value",
         "fundamental.DiscreteFundamental.value", _count_value),
        (ppoly.PiecewiseMatrixPolynomial, "eval", "ppoly.eval", _count_points),
        (oracle, "integrate_continuous", "oracle.integrate_continuous", _count_grid),
        (oracle, "step_discrete", "oracle.step_discrete", None),
        (cli, "main", "cli.main", None),
    ]
    for attr, obj in sorted(vars(cli).items()):
        if callable(obj) and getattr(obj, "__module__", None) == serialize.__name__:
            counter = _count_bytes if attr == "write_json" else None
            out.append((cli, attr, f"serialize.{attr}", counter))
    return out


class RootSummary:
    """Per-name totals over the spans under one root span."""

    def __init__(self, tracer, root, stop):
        names = np.asarray(tracer.names)
        nid = np.frombuffer(tracer.name_id, dtype=np.uint16)[root:stop]
        start = np.frombuffer(tracer.start, dtype=np.float64)[root:stop]
        end = np.frombuffer(tracer.end, dtype=np.float64)[root:stop]
        parent = np.frombuffer(tracer.parent, dtype=np.int64)[root:stop] - root
        parent[0] = -1
        dur = end - start
        child = np.bincount(parent[1:], weights=dur[1:], minlength=dur.size)
        self.duration = float(dur[0])
        self._names = names[nid]
        self._dur = dur
        self._self = dur - child
        self._parent = parent

    def _mask(self, names):
        return np.isin(self._names, list(names))

    def calls(self, name):
        return int(np.count_nonzero(self._names == name))

    def total(self, *names):
        """Summed inclusive time of every span with one of ``names``."""
        return float(self._dur[self._mask(names)].sum())

    def self_time(self, name):
        return float(self._self[self._names == name].sum())

    def cover(self, *names):
        """Time inside spans named ``names`` counted once: spans nested
        in another span of the set are skipped."""
        inset = self._mask(names)
        nested = np.zeros_like(inset)
        anc = self._parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            nested[live] |= inset[anc[live]]
            anc[live] = self._parent[anc[live]]
        return float(self._dur[inset & ~nested].sum())


def summarize(tracer, roots):
    """One :class:`RootSummary` per root index (roots in record order)."""
    bounds = list(roots) + [len(tracer.start)]
    return [RootSummary(tracer, a, b) for a, b in zip(bounds, bounds[1:])]
