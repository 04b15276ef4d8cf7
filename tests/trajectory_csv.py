"""A reader for the trajectory CSV that ``delaymat`` writes, so tests
can check the rows it wrote."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from delaymat.system import TrajectoryTable


def read_trajectory_csv(path, kind):
    """The table in the CSV file ``path``: a ``t, x11, .., xdd`` header,
    then one row per time.  Each cell is parsed with :class:`float`, which
    reads the shortest round-trip decimal back to the identical float."""
    header, *rows = Path(path).read_text().splitlines()
    d = round((len(header.split(",")) - 1) ** 0.5)
    cells = np.array([[float(c) for c in row.split(",")] for row in rows])
    return TrajectoryTable(
        kind=kind, times=cells[:, 0], values=cells[:, 1:].reshape(-1, d, d)
    )
