"""CSV tables written from pre-formatted text fields.

Every table of the package goes through ``write_rows``.  No field holds a
comma, quote or line break, so fields are joined as they are, unquoted.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def fmt(values, spec: str = ".12g") -> list:
    """The values, flattened, as text in the given format."""
    return [f"{v:{spec}}" for v in np.ravel(values).tolist()]


def write_rows(path, header, rows) -> None:
    """Write the header and the rows (sequences of text fields) line by line
    from a generator, so a long table is never held whole."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_grid_csv(path, header, ts, xs, values, spec: str = ".12g") -> None:
    """CSV of values[i, j] at (ts[i], xs[j]), t slowest."""
    cells = product(fmt(ts), fmt(xs))
    write_rows(path, header,
               ((t, x, v) for (t, x), v in zip(cells, fmt(values, spec))))
