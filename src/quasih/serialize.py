"""Deterministic CSV/JSON formatting shared by the CLI.

Floats are written with 17 significant digits ('.' decimal separator,
no locale dependence), which round-trips float64 exactly; data files
never contain timestamps, so equal inputs give byte-identical output.
"""

from __future__ import annotations

import json

import numpy as np


def fmt(x: float) -> str:
    """A float at 17 significant digits."""
    return format(float(x), ".17g")


def _jsonable(obj):
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, (np.floating,)):
        return float(fmt(float(obj)))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [float(fmt(obj.real)), float(fmt(obj.imag))]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def json_dumps(obj) -> str:
    """Deterministic JSON text with full float precision."""
    return json.dumps(_jsonable(obj), indent=2, sort_keys=False) + "\n"


def matrix_to_json_dict(m: np.ndarray) -> dict:
    """Matrix as {"n": ..., "rows": [[...], ...]}."""
    m = np.asarray(m, dtype=float)
    return {"n": int(m.shape[0]), "rows": [[float(v) for v in row] for row in m]}


def csv_rows(header: list[str], rows) -> str:
    """CSV text with header; numeric cells at full precision."""
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
