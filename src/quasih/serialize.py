"""Deterministic CSV/JSON formatting shared by the CLI.

CSV cells hold floats at 17 significant digits and JSON floats are
Python's shortest round-trip repr; both read back as the same float64,
with '.' as the decimal separator and no locale dependence.  Data files
never contain timestamps, so equal inputs give byte-identical output.

:func:`csv_text` joins columns of cell strings into rows, and
:func:`floats` and :func:`flags` make those columns from plain Python
sequences; a caller holding numpy arrays hands over ``.tolist()``, but
arrays to :func:`grid_csv`, one printf-style pass that alone imports numpy,
inside the call.  :func:`json_dumps` writes what ``json.dumps(obj, indent=2)``
does, faster: ``indent`` keeps Python 3.11 off its C encoder.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote


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


def grid_csv(header: list[str], a_values, b_values, inside, margin) -> str:
    """:func:`csv_text` of the rows a_i, b_j, inside[i, j] as 1 or 0, margin[i, j],
    a major; inside or margin not of shape (len(a), len(b)) raise ValueError."""
    import numpy as np

    rows = np.array([f"\n{x:.17g}," for x in np.asarray(a_values).tolist()], dtype=object)
    cols = np.array([f"{y:.17g},{f}," for y in np.asarray(b_values).tolist() for f in "01"], object)
    cells = np.empty((len(rows), len(cols) // 2, 3), dtype=object)
    if np.shape(inside) != cells.shape[:2] or np.shape(margin) != cells.shape[:2]:
        raise ValueError(f"inside and margin must have shape {cells.shape[:2]}")
    cells[..., 0], cells[..., 2] = rows[:, None], margin  # %.17g: the digits of format(x, ".17g")
    cells[..., 1] = cols[2 * np.arange(len(cols) // 2) + inside]
    return (",".join(header) + "%s%s%.17g" * np.size(margin) + "\n") % tuple(cells.ravel().tolist())


def _json_default(obj):
    """A complex number as [real, imag]."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(x, nl: str) -> str:
    """x's JSON text, where nl is a newline and the indent of x's line."""
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    if isinstance(x, str):
        return _quote(x)
    if x is None or isinstance(x, int):  # bool is an int
        return "null" if x is None else str(x).lower() if type(x) is bool else int.__repr__(x)
    inner = nl + "  "
    if isinstance(x, (list, tuple)):
        items, ends = [_emit(v, inner) for v in x], "[]"
    elif isinstance(x, dict):  # a key that is no str raises TypeError
        items, ends = [f"{_quote(k)}: {_emit(v, inner)}" for k, v in x.items()], "{}"
    else:
        return _emit(_json_default(x), nl)
    return ends[0] + inner + ("," + inner).join(items) + nl + ends[1] if items else ends


def json_dumps(obj) -> str:
    """Deterministic JSON text; inf or nan raise ValueError, a key not str TypeError."""
    return _emit(obj, "\n") + "\n"


def matrix_to_json_dict(m: np.ndarray) -> dict:
    """Matrix as {"n": ..., "rows": [[...], ...]}."""
    rows = m.tolist()
    return {"n": len(rows), "rows": rows}
