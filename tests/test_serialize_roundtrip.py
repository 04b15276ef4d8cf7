"""Property sweep of the writers' float formatting: any finite float,
subnormals, ±0.0 and the float extremes included, reads back with the
identical bit pattern from a JSON trajectory file and from a CSV file."""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from delaymat import TrajectoryTable  # noqa: E402
from delaymat.serialize import (  # noqa: E402
    load_json,
    read_trajectory_csv,
    trajectory_from_node,
    trajectory_to_node,
    write_json,
    write_trajectory_csv,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)

#: ±0.0, the smallest subnormal, the largest subnormal, the smallest
#: normal, ±max, and numbers orjson spells unlike ``repr`` (1e16, 0.00001)
SPECIAL = TrajectoryTable(
    kind="continuous",
    times=np.array([-0.0, 5e-324, 1.7976931348623157e308]),
    values=np.array([
        0.0, -0.0, 5e-324, -5e-324,
        2.225073858507201e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308,
        1e16, 1e-05, 0.1, -123456.789e-300,
    ]).reshape(3, 2, 2),
)


@st.composite
def tables(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    times = sorted(draw(st.lists(FINITE, min_size=n, max_size=n, unique=True)))
    values = draw(hnp.arrays(np.float64, (n, d, d), elements=FINITE))
    return TrajectoryTable(kind="continuous", times=np.array(times), values=values)


def assert_same_bits(back, table):
    """Equal bit patterns, so ``-0.0`` differs from ``0.0``."""
    assert np.array_equal(back.times.view(np.int64), table.times.view(np.int64))
    assert np.array_equal(back.values.view(np.int64), table.values.view(np.int64))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


@settings(max_examples=100, deadline=None)
@given(table=tables())
@example(table=SPECIAL)
def test_json_file_reads_back_bit_identically(out_dir, table):
    path = out_dir / "x.json"
    write_json(trajectory_to_node(table), path)
    assert_same_bits(trajectory_from_node(load_json(path), str(path)), table)


@settings(max_examples=100, deadline=None)
@given(table=tables())
@example(table=SPECIAL)
def test_csv_file_reads_back_bit_identically(out_dir, table):
    path = out_dir / "x.csv"
    with open(path, "w") as fh:
        write_trajectory_csv(table, fh)
    assert_same_bits(read_trajectory_csv(path, kind="continuous"), table)
