import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import multiset_max_distance
from quasih.spectrum import REALITY_TOL
from quasih import (
    ParamPoint,
    Reality,
    band_closed_energies,
    build_alpha,
    build_full,
    build_reordered,
    build_two_state,
    classify_reality,
    closed_form_energies,
    metric_nullspace,
    numeric_energies,
    quartic_energies,
    secular_coeffs,
)

finite4 = st.floats(min_value=-4, max_value=4, allow_nan=False)


def test_closed_form_unperturbed():
    s = closed_form_energies(0, 0, 0)
    np.testing.assert_allclose([e.real for e in s.energies], [-3, -1, 1, 3], atol=1e-14)
    assert s.classification is Reality.ALL_REAL


def test_closed_form_vertex_quadruple_zero():
    s = closed_form_energies(2.0, 0.0, math.sqrt(3.0))
    assert max(abs(e) for e in s.energies) < 1e-6
    assert s.classification is Reality.REAL_DEGENERATE


def test_closed_form_all_complex():
    # A = 5 - 9 = -4 < 0: all four energies complex
    s = closed_form_energies(0.0, 0.0, 3.0)
    assert s.classification is Reality.COMPLEX_PAIRS
    assert all(abs(e.imag) > 1e-3 for e in s.energies)


@settings(max_examples=150)
@given(a=finite4, b=finite4, d=finite4)
def test_closed_form_agrees_with_numeric(a, b, d):
    closed = closed_form_energies(a, b, d)
    numeric = numeric_energies(build_reordered(ParamPoint(a, b, d, d)))
    # double roots amplify rounding by a square root (~1e-8); away from
    # degeneracies the agreement is far tighter (see the acceptance gate)
    assert multiset_max_distance(closed.energies, numeric.energies) < 1e-6


def test_band_closed_unperturbed():
    s = band_closed_energies(0.0)
    np.testing.assert_allclose([e.real for e in s.energies], [-3, -1, 1, 3], atol=1e-14)


def test_band_closed_critical_value():
    s = band_closed_energies(math.sqrt(2.0 / 5.0))
    e = math.sqrt(13.0 / 5.0)
    assert e == pytest.approx(1.612451550, abs=5e-10)
    mags = sorted(abs(x) for x in s.energies)
    np.testing.assert_allclose(mags, [e] * 4, atol=1e-7)


def test_band_closed_matches_numeric():
    s = band_closed_energies(0.2)
    n = numeric_energies(build_alpha(0.2))
    assert multiset_max_distance(s.energies, n.energies) < 1e-12


def test_numeric_diagonal():
    s = numeric_energies(np.diag([-3.0, -1.0, 1.0, 3.0]))
    np.testing.assert_allclose([e.real for e in s.energies], [-3, -1, 1, 3], atol=1e-14)


@settings(max_examples=50)
@given(b=st.floats(min_value=-0.999, max_value=0.999))
def test_two_state_real_iff_subcritical(b):
    s = numeric_energies(build_two_state(b))
    expected = math.sqrt(1.0 - b * b)
    np.testing.assert_allclose(
        sorted(e.real for e in s.energies), [-expected, expected], atol=1e-9
    )


def test_two_state_complex_beyond_unit_coupling():
    s = numeric_energies(build_two_state(1.5))
    assert s.classification is Reality.COMPLEX_PAIRS


def test_two_state_jordan_block_at_unit_coupling():
    # At |b| = 1 the matrix has a double eigenvalue 0 but rank 1: a
    # non-trivial Jordan block, so H ceases to be diagonalizable.
    for b in (1.0, -1.0):
        h = build_two_state(b)
        assert np.linalg.matrix_rank(h) == 1


def test_numeric_full_all_ones_biquadratic():
    # secular_coeffs(1,1,1,1) gives E^4 - 6 E^2 + 5 = 0: roots +-1, +-sqrt(5)
    s = numeric_energies(build_full(ParamPoint(1, 1, 1, 1)))
    expected = [-math.sqrt(5), -1.0, 1.0, math.sqrt(5)]
    np.testing.assert_allclose([e.real for e in s.energies], expected, atol=1e-10)
    np.testing.assert_allclose([e.imag for e in s.energies], 0.0, atol=1e-10)


@settings(max_examples=50)
@given(a=finite4, b=finite4, c=finite4, d=finite4)
def test_numeric_cross_validated_by_companion(a, b, c, d):
    p = ParamPoint(a, b, c, d)
    inv = secular_coeffs(p)
    companion = quartic_energies(inv.e2, inv.e1, inv.e0)
    numeric = numeric_energies(build_full(p))
    # square-root sensitivity at double roots caps the attainable accuracy
    assert multiset_max_distance(companion.energies, numeric.energies) < 1e-6


@settings(max_examples=100)
@given(a=finite4, b=finite4, c=finite4, d=finite4)
def test_spectrum_invariants(a, b, c, d):
    s = numeric_energies(build_full(ParamPoint(a, b, c, d)))
    assert abs(sum(s.energies)) < 1e-9 * max(1.0, max(abs(e) for e in s.energies))
    # complex roots come in conjugate pairs
    conj = sorted(
        (e.conjugate() for e in s.energies), key=lambda z: (z.real, z.imag)
    )
    assert multiset_max_distance(s.energies, conj) < 1e-9


def test_classify_trivial_cases():
    assert classify_reality([-3, -1, 1, 3]) is Reality.ALL_REAL
    assert classify_reality([0, 0, 0, 0]) is Reality.REAL_DEGENERATE
    assert classify_reality([1j, -1j, 2j, -2j]) is Reality.COMPLEX_PAIRS


@settings(max_examples=150)
@given(a=finite4, b=finite4, d=finite4)
def test_reality_iff_domain_conditions(a, b, d):
    from quasih import reduced_AB

    tol = REALITY_TOL
    s = closed_form_energies(a, b, d)
    A, B = reduced_AB(a, b, d)
    conditions = A >= -tol and A * A >= B - tol and B >= -tol
    real = s.classification in (Reality.ALL_REAL, Reality.REAL_DEGENERATE)
    if real != conditions:
        # disagreement allowed only in the boundary fuzz band
        assert min(A, A * A - B, B) <= 10 * tol


def test_numeric_rejects_bad_input():
    with pytest.raises(ValueError):
        numeric_energies(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        numeric_energies(np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        numeric_energies(np.eye(65))


@pytest.mark.parametrize("entry_point", [numeric_energies, metric_nullspace])
def test_empty_matrix_is_rejected_by_name(entry_point):
    # Both used to fail inside max() with "max() arg is an empty sequence".
    with pytest.raises(ValueError, match="^matrix must be square, of dimension at least 1$"):
        entry_point(np.zeros((0, 0)))
