"""The names other code reaches for: every name an ``__all__`` lists,
and every library attribute the benchmark's tracer patches."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import delaymat

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

MODULES = [delaymat] + [
    importlib.import_module(f"delaymat.{info.name}")
    for info in pkgutil.iter_modules(delaymat.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_exists(module):
    listed = getattr(module, "__all__", ())
    missing = [name for name in listed if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists missing names {missing}"


def test_tracer_boundaries_resolve():
    # the benchmark patches each boundary by name: a deleted one fails here
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    boundaries = spans._boundaries()
    originals = [getattr(owner, attr) for owner, attr, _, _ in boundaries]
    with spans.Tracer().installed():
        patched = [getattr(owner, attr) for owner, attr, _, _ in boundaries]
    assert all(a is not b for a, b in zip(patched, originals))
    assert [getattr(owner, attr) for owner, attr, _, _ in boundaries] == originals
