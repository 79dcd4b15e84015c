import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quasih.serialize import csv_text, flags, floats, json_dumps, matrix_to_json_dict

FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def bits(x) -> bytes:
    return struct.pack("<d", x)


@given(st.one_of(FLOATS, FLOATS.map(np.float64)))
@example(-0.0)
@example(5e-324)
@example(np.float64(-2.2250738585072014e-308))
@example(0.1334452934332549)
def test_json_floats_are_their_repr_and_read_back_bit_for_bit(x):
    text = json_dumps({"x": x})
    back = json.loads(text)["x"]
    written = json.loads(text, parse_float=str)["x"]  # each float literal as written
    assert bits(back) == bits(x)
    assert written == repr(float(x))


def test_json_complex_is_a_pair_and_matrices_are_rows():
    doc = {"z": 1.5 - 0.25j, "m": matrix_to_json_dict(np.eye(2, dtype=int))}
    assert json.loads(json_dumps(doc)) == {
        "z": [1.5, -0.25],
        "m": {"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]},
    }


def test_json_rejects_other_objects():
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        json_dumps({"x": object()})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_never_holds_infinity_or_nan(value):
    # json.dumps writes them as Infinity and NaN, which JSON does not have.
    with pytest.raises(ValueError):
        json_dumps({"max_imag": value})


def per_row_csv(header, rows) -> str:
    """Reference: each row written on its own, a truth value as 1 or 0 and
    any other cell at 17 significant digits."""
    text = ",".join(header) + "\n"
    for row in rows:
        cells = [("1" if v else "0") if isinstance(v, bool) else format(v, ".17g") for v in row]
        text += ",".join(cells) + "\n"
    return text


@given(st.lists(st.tuples(FLOATS | st.just(math.nan), st.booleans(), FLOATS), max_size=8))
@example([(-0.0, True, 0.0), (5e-324, False, 1e300)])
def test_csv_text_equals_per_row_reference(rows):
    xs, inside, margin = ([row[k] for row in rows] for k in range(3))
    text = csv_text(["x", "inside", "margin"], floats(xs), flags(inside), floats(margin))
    assert text == per_row_csv(["x", "inside", "margin"], rows)
    assert [bits(float(line.split(",")[2])) for line in text.splitlines()[1:]] == list(
        map(bits, margin)
    )


def test_csv_text_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match="zip"):
        csv_text(["a", "b"], floats([0.0, 1.0]), flags([True]))
