"""Output files: CSV tables from pre-formatted text fields, and JSON documents.

Tables of (t, x) grids go through ``write_grid_csv``, and every other
table but the oracle's (``OracleResult.write_csv``) through ``write_rows``.  No field holds a comma, quote or line break, so
fields are joined as they are, unquoted.  Every JSON document goes
through ``write_json``, which writes it whole in one call.
"""

from __future__ import annotations

import json

import numpy as np


def fmt(values, spec: str = ".12g") -> list:
    """The values, flattened, as text in the given format."""
    return [f"{v:{spec}}" for v in np.ravel(values).tolist()]


def write_json(path, doc) -> None:
    """The document with two-space indents and a closing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def write_rows(path, header, rows) -> None:
    """Write the header and the rows (sequences of text fields) line by line
    from a generator, so a long table is never held whole."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_grid_csv(path, header, ts, xs, values, spec: str = ".12g") -> None:
    """CSV of values[i, j] at (ts[i], xs[j]), t slowest, one time row per
    write: each row's values fill a template of its t and x fields."""
    ts, xs = fmt(ts), fmt(xs)
    rows = np.reshape(values, (len(ts), len(xs)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for t, row in zip(ts, rows):
            fh.write("".join(f"{t},{x},%{spec}\n" for x in xs)
                     % tuple(row.tolist()))
