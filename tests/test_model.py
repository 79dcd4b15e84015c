import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import char_poly_coeffs, multiset_max_distance
from quasih import (
    ParamPoint,
    build_alpha,
    build_band,
    build_full,
    build_reordered,
    build_two_state,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def test_two_state_decoupled():
    np.testing.assert_array_equal(build_two_state(0.0), [[-1, 0], [0, 1]])


def test_two_state_unit_coupling():
    np.testing.assert_array_equal(build_two_state(1.0), [[-1, 1], [-1, 1]])


def test_two_state_eigenvalues_quadratic_oracle():
    # det(H - E) = E^2 - (1 - b^2): roots +-sqrt(1 - b^2) by the quadratic
    # formula, independent of any eigenvalue solver.
    b = 0.5
    expected = math.sqrt(1.0 - b * b)
    eigs = sorted(np.linalg.eigvals(build_two_state(b)).real)
    assert eigs[0] == pytest.approx(-expected, abs=1e-13)
    assert eigs[1] == pytest.approx(expected, abs=1e-13)
    assert expected == pytest.approx(math.sqrt(0.75))


def test_two_state_rejects_non_finite():
    with pytest.raises(ValueError):
        build_two_state(float("nan"))
    with pytest.raises(ValueError):
        ParamPoint(1.0, float("inf"), 0.0, 0.0)


def test_full_unperturbed():
    np.testing.assert_array_equal(
        build_full(ParamPoint(0, 0, 0, 0)), np.diag([-3.0, 1.0, -1.0, 3.0])
    )


def test_full_matches_printed_layout():
    h = build_full(ParamPoint(1, 2, 3, 4))
    np.testing.assert_array_equal(
        h,
        [
            [-3, 0, 3, 2],
            [0, 1, 1, 4],
            [-3, -1, -1, 0],
            [-2, -4, 0, 3],
        ],
    )


@given(a=finite, b=finite, c=finite, d=finite)
def test_full_antisymmetric_off_diagonal(a, b, c, d):
    h = build_full(ParamPoint(a, b, c, d))
    np.testing.assert_array_equal(h + h.T, np.diag([-6.0, 2.0, -2.0, 6.0]))


def test_reordered_unperturbed():
    np.testing.assert_array_equal(
        build_reordered(ParamPoint(0, 0, 0, 0)), np.diag([-3.0, -1.0, 1.0, 3.0])
    )


def test_reordered_is_tridiagonal_plus_corner():
    # Diagonal (-3, -1, 1, 3), the couplings c, a, d on the first
    # off-diagonals, b in the corners, each with its negative mirrored.
    np.testing.assert_array_equal(
        build_reordered(ParamPoint(2.0, 3.0, 5.0, 7.0)),
        [
            [-3.0, 5.0, 0.0, 3.0],
            [-5.0, -1.0, -2.0, 0.0],
            [0.0, 2.0, 1.0, 7.0],
            [-3.0, 0.0, -7.0, 3.0],
        ],
    )


@settings(max_examples=50)
@given(a=finite, b=finite, c=finite, d=finite)
def test_reordered_isospectral_to_full(a, b, c, d):
    p = ParamPoint(a, b, c, d)
    e_full = np.linalg.eigvals(build_full(p))
    e_reord = np.linalg.eigvals(build_reordered(p))
    # degenerate roots amplify rounding by a square root (~1e-8)
    assert multiset_max_distance(e_full, e_reord) < 1e-6 * max(1.0, np.max(np.abs(e_full)))


@settings(max_examples=50)
@given(a=finite, b=finite, c=finite, d=finite)
def test_char_polys_agree_coefficientwise(a, b, c, d):
    p = ParamPoint(a, b, c, d)
    cf = char_poly_coeffs(build_full(p))
    cr = char_poly_coeffs(build_reordered(p))
    scale = np.maximum(1.0, np.abs(cf))
    # the Vieta oracle rebuilds coefficients from eigenvalues, which costs
    # a few digits at large couplings
    np.testing.assert_allclose(cf / scale, cr / scale, atol=1e-9)


@given(a=finite, c=finite)
def test_band_equals_reordered_exactly(a, c):
    np.testing.assert_array_equal(build_band(a, c), build_reordered(ParamPoint(a, 0.0, c, c)))


def test_band_unperturbed():
    np.testing.assert_array_equal(build_band(0, 0), np.diag([-3.0, -1.0, 1.0, 3.0]))


def test_band_pmn_quadruple_zero():
    eigs = np.linalg.eigvals(build_band(2.0, math.sqrt(3.0)))
    # quadruple root: rounding of size eps surfaces as roots of size
    # eps^(1/4) ~ 1e-4, so only this coarse bound is attainable here
    assert np.max(np.abs(eigs)) < 5e-4


def test_alpha_unperturbed():
    np.testing.assert_array_equal(build_alpha(0.0), np.diag([-3.0, -1.0, 1.0, 3.0]))


def test_alpha_matches_band_up_to_middle_sign():
    # The printed band matrices differ in the sign of the middle coupling:
    # entrywise equality holds at a = -2*alpha, isospectrality at +2*alpha.
    alpha = 0.37
    np.testing.assert_array_equal(build_alpha(alpha), build_band(-2 * alpha, 2 * alpha))
    e1 = np.linalg.eigvals(build_alpha(alpha))
    e2 = np.linalg.eigvals(build_band(2 * alpha, 2 * alpha))
    assert multiset_max_distance(e1, e2) < 1e-12


def test_alpha_critical_double_pairs():
    alpha = math.sqrt(2.0 / 5.0)
    eigs = np.sort(np.linalg.eigvals(build_alpha(alpha)).real)
    e = math.sqrt(13.0 / 5.0)
    assert abs(eigs[0] + e) < 1e-6 and abs(eigs[1] + e) < 1e-6
    assert abs(eigs[2] - e) < 1e-6 and abs(eigs[3] - e) < 1e-6


def test_alpha_small_matches_closed_forms():
    alpha = 0.1
    disc = math.sqrt(5 * alpha**4 - 12 * alpha**2 + 4)
    e1 = math.sqrt(-6 * alpha**2 + 5 - 2 * disc)
    e3 = math.sqrt(-6 * alpha**2 + 5 + 2 * disc)
    eigs = np.sort(np.linalg.eigvals(build_alpha(alpha)).real)
    np.testing.assert_allclose(eigs, [-e3, -e1, e1, e3], atol=1e-12)
