import json
import math
import struct
from http import HTTPStatus

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quasih.serialize import (
    _json_default,
    csv_text,
    flags,
    floats,
    grid_csv,
    json_dumps,
    matrix_to_json_dict,
)

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
    xs, inside, margin = ([row[k] for row in rows] for k in range(3))
    text = csv_text(["x", "inside", "margin"], floats(xs), flags(inside), floats(margin))
    assert text == per_row_csv(["x", "inside", "margin"], rows)
    assert [bits(float(line.split(",")[2])) for line in text.splitlines()[1:]] == list(
        map(bits, margin)
    )


def test_csv_text_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match="zip"):
        csv_text(["a", "b"], floats([0.0, 1.0]), flags([True]))


# Finite floats and the values a grid can hold at its edges: signed zeros,
# the least subnormal, huge magnitudes, nan and both infinities.
CELLS = FLOATS | st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf])


@st.composite
def grids(draw):
    """a and b values and numpy inside and margin arrays of shape (len(a), len(b))."""
    na, nb = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    a = draw(st.lists(CELLS, min_size=na, max_size=na))
    b = draw(st.lists(CELLS, min_size=nb, max_size=nb))
    inside = draw(st.lists(st.booleans(), min_size=na * nb, max_size=na * nb))
    margin = draw(st.lists(CELLS, min_size=na * nb, max_size=na * nb))
    shape = (na, nb)
    return np.array(a), np.array(b), np.reshape(inside, shape), np.reshape(margin, shape)


def grid_rows(a, b, inside, margin):
    """The rows a_i, b_j, inside[i, j], margin[i, j] of a grid, a major."""
    return [
        (x, y, bool(inside[i, j]), float(margin[i, j]))
        for i, x in enumerate(a.tolist())
        for j, y in enumerate(b.tolist())
    ]


@given(grids())
@example((np.array([-0.0]), np.array([5e-324]), np.array([[True]]), np.array([[math.nan]])))
@example(
    (np.array([1e300]), np.linspace(-1, 1, 7), np.eye(1, 7, dtype=bool), np.full((1, 7), -math.inf))
)
@example(
    (np.linspace(-1e300, 1e300, 6), np.array([0.0]), np.ones((6, 1), bool), np.full((6, 1), -0.0))
)
def test_grid_csv_equals_per_row_reference(grid):
    header = ["a", "b", "inside", "margin"]
    text = grid_csv(header, *grid)
    assert text == per_row_csv(header, grid_rows(*grid))
    margins = [bits(float(line.rsplit(",", 1)[1])) for line in text.splitlines()[1:]]
    assert margins == list(map(bits, grid[3].ravel().tolist()))


@pytest.mark.parametrize(
    "na, nb, inside_shape, margin_shape",
    [
        (2, 3, (2, 3), (3, 2)),
        (2, 3, (2, 2), (2, 3)),
        (2, 3, (6,), (6,)),
        (2, 3, (1, 3), (2, 3)),
        (2, 3, (2, 3), (1, 3)),
        (1, 1, (1, 1), ()),
    ],
)
def test_grid_csv_rejects_arrays_of_another_shape(na, nb, inside_shape, margin_shape):
    a, b = np.linspace(0.0, 1.0, na), np.linspace(0.0, 1.0, nb)
    inside, margin = np.ones(inside_shape, bool), np.zeros(margin_shape)
    with pytest.raises(ValueError, match="shape"):
        grid_csv(["a", "b", "inside", "margin"], a, b, inside, margin)
