"""Deterministic CSV/JSON formatting shared by the CLI.

CSV cells hold floats at 17 significant digits and JSON floats are
Python's shortest round-trip repr; both read back as the same float64,
with '.' as the decimal separator and no locale dependence.  Data files
never contain timestamps, so equal inputs give byte-identical output.

:func:`csv_text` joins columns of cell strings into rows, and
:func:`floats` and :func:`flags` make those columns from plain Python
sequences; a caller holding numpy arrays hands over ``.tolist()``.  The
module imports no numpy.
"""

from __future__ import annotations

import json


def floats(values) -> list[str]:
    """Each float at 17 significant digits."""
    return [format(x, ".17g") for x in values]


def flags(values) -> list[str]:
    """Each truth value as 1 or 0."""
    return ["1" if x else "0" for x in values]


def csv_text(header: list[str], *columns: list[str]) -> str:
    """CSV text with header, row i made of cell i of each column; columns
    of unequal length raise ValueError."""
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*columns, strict=True)))
    return "\n".join(lines) + "\n"


def _json_default(obj):
    """A complex number as [real, imag]."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_dumps(obj) -> str:
    """Deterministic JSON text; floats are their shortest repr, which is
    exact, and inf or nan, which JSON lacks, raise ValueError."""
    return json.dumps(obj, indent=2, default=_json_default, allow_nan=False) + "\n"


def matrix_to_json_dict(m: np.ndarray) -> dict:
    """Matrix as {"n": ..., "rows": [[...], ...]}."""
    rows = m.tolist()
    return {"n": len(rows), "rows": rows}
