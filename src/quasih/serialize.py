"""Deterministic CSV/JSON formatting shared by the CLI.

CSV cells hold floats at 17 significant digits and JSON floats are
Python's shortest round-trip repr; both read back as the same float64,
with '.' as the decimal separator and no locale dependence.  Data files
never contain timestamps, so equal inputs give byte-identical output.

:func:`csv_rows` writes rows given one by one.  :func:`grid_csv` writes
a membership grid over an (a, b) rectangle in a-major order (all b
values for the first a, then the next a), with inside flags as 1/0; it
formats each axis value and each margin once, and its text equals
:func:`csv_rows` applied to the per-cell rows (a, b, inside, margin).

JSON of plain Python values loads no numpy; the JSON ``default`` hook and
the array helpers import it when they are called.
"""

from __future__ import annotations

import itertools
import json


#: Format spec of every float cell: 17 significant digits.
FLOAT_FORMAT = ".17g"


def fmt(x: float) -> str:
    """A float at 17 significant digits."""
    return format(float(x), FLOAT_FORMAT)


def _json_default(obj):
    """A numpy array or scalar as JSON values, a complex number as [real, imag]."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_dumps(obj) -> str:
    """Deterministic JSON text; floats are their shortest repr, which is
    exact, and inf or nan, which JSON lacks, raise ValueError."""
    return json.dumps(obj, indent=2, default=_json_default, allow_nan=False) + "\n"


def matrix_to_json_dict(m: np.ndarray) -> dict:
    """Matrix as {"n": ..., "rows": [[...], ...]}."""
    import numpy as np

    m = np.asarray(m, dtype=float)
    return {"n": int(m.shape[0]), "rows": m.tolist()}


def csv_rows(header: list[str], rows) -> str:
    """CSV text with header; numeric cells at full precision."""
    import numpy as np

    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (bool, np.bool_)):
                cells.append("1" if v else "0")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(fmt(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _formatted(values) -> list[str]:
    import numpy as np

    return [format(x, FLOAT_FORMAT) for x in np.asarray(values, dtype=float).ravel().tolist()]


def grid_csv(header: list[str], a_values, b_values, inside, margin) -> str:
    """CSV text of a grid, one row (a, b, inside, margin) per cell, a-major.

    ``inside`` and ``margin`` have shape (len(a_values), len(b_values));
    cell [i, j] belongs to (a_values[i], b_values[j]).
    """
    import numpy as np

    a_cells, b_cells = _formatted(a_values), _formatted(b_values)
    inside = np.asarray(inside, dtype=bool)
    margin = np.asarray(margin, dtype=float)
    shape = (len(a_cells), len(b_cells))
    if inside.shape != shape or margin.shape != shape:
        raise ValueError(f"grid cells must have shape {shape}")
    flags = ["1" if flag else "0" for flag in inside.ravel().tolist()]
    rows = zip(itertools.product(a_cells, b_cells), flags, _formatted(margin))
    lines = [",".join(header)]
    lines.extend(f"{a},{b},{flag},{m}" for (a, b), flag, m in rows)
    return "\n".join(lines) + "\n"
