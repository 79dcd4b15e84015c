"""Deterministic CSV/JSON formatting shared by the CLI.

CSV cells hold floats at 17 significant digits and JSON floats are
Python's shortest round-trip repr; both read back as the same float64,
with '.' as the decimal separator and no locale dependence.  Data files
never contain timestamps, so equal inputs give byte-identical output.

:func:`csv_text` is the one CSV writer: the caller gives a printf-style
template for one row and the cells of every row in order, and one ``%``
pass writes the text.  In a template ``%.17g`` writes a float as
``format(x, ".17g")`` does (both call ``PyOS_double_to_string``), ``%d``
a flag, true or 1.0 as 1 and false or 0.0 as 0, and ``%s`` a label the
caller formatted itself.  :func:`json_dumps` writes what
``json.dumps(obj, indent=2)`` does, faster: ``indent`` keeps Python 3.11
off its C encoder.  The module imports only the standard library.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote


def csv_text(header: list[str], row: str, cells) -> str:
    """CSV text with header, then template row filled by each run of
    row.count("%") cells; cells that do not fill whole rows raise ValueError."""
    rows, rest = divmod(len(cells), row.count("%"))
    if rest:
        raise ValueError(f"{len(cells)} cells do not fill rows of {row.count('%')}")
    return (",".join(header) + row * rows + "\n") % tuple(cells)


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


def matrix_to_json_dict(m) -> dict:
    """Matrix as {"n": ..., "rows": [[...], ...]}."""
    rows = m.tolist()
    return {"n": len(rows), "rows": rows}
