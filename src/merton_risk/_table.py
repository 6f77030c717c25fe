"""Output files: one CSV writer, ``write_table``, and one JSON writer,
``write_json``.

A table is a header and equal-length columns, each with a %-conversion:
numbers in ``.12g``, ``.6g`` or ``d``, or text in ``s``, written as it is.
``write_table`` fills one row template per block of ``_BLOCK_ROWS`` rows,
so a long table is never held whole as text; a table too long to hold
even as columns comes as an iterator of row blocks, each a list of
columns built when it is written.  No field holds a comma,
quote or line break, so fields are written unquoted.  The axes of a grid
are formatted once by ``grid_axes`` and passed as text columns.  Every
JSON document is written whole in one call.  oracle.csv, whose rho and
level fields repeat from line to line, has its own writer
(``oracle.OracleResult.write_csv``), which formats each distinct number
once.
"""

from __future__ import annotations

import json

import numpy as np

_BLOCK_ROWS = 4096


def write_json(path, doc) -> None:
    """The document with two-space indents and a closing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def write_table(path, header, columns, specs) -> None:
    """Write the header, then row i of the columns: columns[j][i] in
    %-conversion specs[j] ("s": text as it is).  No columns: header only.

    columns is a list of equal-length columns, or an iterator of such
    lists whose rows follow one another."""
    width = len(specs)
    row = ",".join("%" + spec for spec in specs) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for block in [columns] if isinstance(columns, list) else columns:
            n = len(block[0]) if block else 0
            for lo in range(0, n, _BLOCK_ROWS):
                hi = min(lo + _BLOCK_ROWS, n)
                fields = [None] * (width * (hi - lo))
                for j, column in enumerate(block):
                    part = column[lo:hi]
                    fields[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
                fh.write(row * (hi - lo) % tuple(fields))


def grid_axes(slow, fast) -> list:
    """The two text columns (slow, fast) of a grid's rows, slow axis first;
    each axis value is formatted ('.12g') once."""
    slow, fast = (["%.12g" % v for v in np.ravel(a).tolist()] for a in (slow, fast))
    return [[s for s in slow for _ in fast], fast * len(slow)]
