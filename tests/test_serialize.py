import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quasih.serialize import json_dumps, matrix_to_json_dict

FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def bits(x) -> bytes:
    return struct.pack("<d", x)


@given(
    st.one_of(
        FLOATS,
        FLOATS.map(np.float64),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        hnp.arrays(np.float64, st.integers(0, 5), elements=FLOATS),
    )
)
@example(-0.0)
@example(5e-324)
@example(np.float64(-2.2250738585072014e-308))
@example(0.1334452934332549)
def test_json_floats_are_their_repr_and_read_back_bit_for_bit(x):
    text = json_dumps({"x": x})
    back = json.loads(text)["x"]
    written = json.loads(text, parse_float=str)["x"]  # each float literal as written
    if isinstance(x, np.ndarray):
        assert [bits(v) for v in back] == [bits(v) for v in x.tolist()]
        assert written == [repr(v) for v in x.tolist()]
    elif isinstance(x, np.integer):
        assert type(back) is int and back == x
    else:
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
