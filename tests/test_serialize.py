import json
import math
import struct
from http import HTTPStatus

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quasih.serialize import _json_default, csv_text, json_dumps, matrix_to_json_dict

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


def stdlib_json(doc) -> str:
    """Reference: the standard library's writer with json_dumps's settings."""
    return json.dumps(doc, indent=2, default=_json_default, allow_nan=False) + "\n"


# Scalars of every kind quasih writes: floats include +-0.0 and subnormals,
# strings non-ASCII characters and ones JSON escapes.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    FLOATS,
    FLOATS.map(np.float64),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.text(),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    )


DOCS = st.recursive(SCALARS, containers, max_leaves=24)


@given(DOCS)
@example({"z": [], "e": {}, "t": (), "n": [None, True, False, -7, 2**70]})
@example([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, np.float64(0.1), 1e300])
@example({"\u00e9\u2603\U0001f600": "tab\t quote\" backslash\\ nul\x00 \ud800"})
@example({"a": [1.5 - 0.25j, {"b": [[], {}, ()]}], "c": ((1,), [2.0])})
@example("top-level string")
@example([HTTPStatus.OK, np.float64(-0.0)])  # subclasses of int and float
def test_json_dumps_writes_what_the_stdlib_writes(doc):
    assert json_dumps(doc) == stdlib_json(doc)


BAD_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"), complex(0.0, math.inf)]
)


def with_one_bad_leaf(children):
    """A container holding a document with a bad float somewhere inside."""
    return st.one_of(
        st.tuples(DOCS, children, DOCS).map(list),
        st.builds(
            lambda doc, key, child: {**doc, key: child},
            st.dictionaries(st.text(), DOCS, max_size=3),
            st.text(),
            children,
        ),
    )


@given(st.recursive(BAD_FLOATS, with_one_bad_leaf, max_leaves=6))
def test_json_rejects_nan_or_infinity_anywhere(doc):
    with pytest.raises(ValueError):
        json_dumps(doc)
    with pytest.raises(ValueError):
        stdlib_json(doc)


@pytest.mark.parametrize("doc", [[1.0, {"a": object()}], {"m": np.eye(2)}, np.int64(3)])
def test_json_rejects_what_default_cannot_write(doc):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json_dumps(doc)


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
def test_json_keys_must_be_strings(key):
    # The standard library writes int, float, bool and None keys as strings;
    # no quasih document has one, and json_dumps refuses them.
    with pytest.raises(TypeError):
        json_dumps({"ok": 0, key: 1.0})


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
    cells = [cell for row in rows for cell in row]
    text = csv_text(["x", "inside", "margin"], "\n%.17g,%d,%.17g", cells)
    assert text == per_row_csv(["x", "inside", "margin"], rows)
    assert [bits(float(line.split(",")[2])) for line in text.splitlines()[1:]] == [
        bits(row[2]) for row in rows
    ]


def test_csv_text_rejects_columns_of_unequal_length():
    # Cells that do not fill whole rows leave the last row short of a column.
    for row, cells in [
        ("\n%.17g,%d", [0.0, True, 1.0]),
        ("\n%.17g,%.17g,%d", [0.0]),
        ("%s%s%.17g", ["\n1,", "2,0,", 3.0, "\n4,"]),
    ]:
        with pytest.raises(ValueError, match="do not fill rows"):
            csv_text(["a", "b"], row, cells)
