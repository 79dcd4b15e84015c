import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import char_poly_coeffs
from quasih import (
    ParamPoint,
    build_full,
    constant_term,
    hyperbola_factors,
    reduced_AB,
    secular_coeffs,
)

finite10 = st.floats(min_value=-10, max_value=10, allow_nan=False)


def test_unperturbed_coeffs():
    inv = secular_coeffs(ParamPoint(0, 0, 0, 0))
    assert (inv.e4, inv.e3, inv.e2, inv.e1, inv.e0) == (1.0, 0.0, -10.0, 0.0, 9.0)
    # (E^2 - 1)(E^2 - 9) = E^4 - 10 E^2 + 9
    np.testing.assert_allclose(np.poly([-3, -1, 1, 3]), [1, 0, -10, 0, 9], atol=1e-13)


def test_all_ones_coeffs_hand_evaluated():
    inv = secular_coeffs(ParamPoint(1, 1, 1, 1))
    assert inv.e2 == -6.0
    assert inv.e1 == 0.0
    # C = 9 - 9 - 1 + 3 + 3 + 1 + 1 - 2
    assert inv.e0 == 5.0


@settings(max_examples=100)
@given(a=finite10, b=finite10, c=finite10, d=finite10)
def test_coeffs_match_char_poly_oracle(a, b, c, d):
    p = ParamPoint(a, b, c, d)
    inv = secular_coeffs(p)
    oracle = char_poly_coeffs(build_full(p))
    mine = np.array([inv.e4, inv.e3, inv.e2, inv.e1, inv.e0])
    scale = np.maximum(1.0, np.abs(oracle))
    np.testing.assert_allclose(mine / scale, oracle / scale, atol=1e-10)


def test_reduced_AB_trivial():
    assert reduced_AB(0, 0, 0) == (5.0, 9.0)


def test_reduced_AB_vertex():
    A, B = reduced_AB(2.0, 0.0, np.sqrt(3.0))
    assert abs(A) < 1e-12
    assert abs(B) < 1e-12


@settings(max_examples=100)
@given(a=finite10, b=finite10, d=finite10)
def test_B_is_constant_term_at_c_equals_d(a, b, d):
    _, B = reduced_AB(a, b, d)
    C = constant_term(a, b, d, d)
    assert abs(B - C) <= 1e-12 * max(1.0, abs(B), abs(C))


def test_hyperbola_factor_through_a_equals_one():
    for b in (-5.0, 0.0, 3.7):
        assert hyperbola_factors(1.0, b)[0] == 0.0


def test_hyperbola_factors_direct_values():
    alpha_hyp, beta_hyp = hyperbola_factors(-1.0, 3.0)
    assert alpha_hyp == (3 + 3) * (-1 - 1) == -12.0
    assert beta_hyp == 0.0
    # cross-check the factorization at d = 0 against C(a, b, 0, 0)
    assert alpha_hyp * beta_hyp == pytest.approx(constant_term(-1, 3, 0, 0), abs=1e-12)


def test_hyperbola_centers():
    # each factor vanishes on both asymptotes through its own center:
    # (b+3)(a-1) at (1, -3), (b-3)(a+1) at (-1, 3)
    assert hyperbola_factors(1.0, -3.0)[0] == 0.0
    assert hyperbola_factors(-1.0, 3.0)[1] == 0.0


@settings(max_examples=200)
@given(a=finite10, b=finite10, d=finite10)
def test_factorization_identity(a, b, d):
    alpha_hyp, beta_hyp = hyperbola_factors(a, b)
    lhs = (d * d - alpha_hyp) * (d * d - beta_hyp)
    rhs = constant_term(a, b, d, d)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=100)
@given(a=finite10, b=finite10, c=finite10, d=finite10)
def test_vieta_against_eigenvalues(a, b, c, d):
    p = ParamPoint(a, b, c, d)
    inv = secular_coeffs(p)
    roots = np.linalg.eigvals(build_full(p))
    s1 = np.sum(roots)
    s2 = sum(roots[i] * roots[j] for i in range(4) for j in range(i + 1, 4))
    scale = max(1.0, float(np.max(np.abs(roots))) ** 2)
    assert abs(s1) <= 1e-9 * scale
    assert abs(s2 - inv.e2) <= 1e-9 * max(1.0, abs(inv.e2), scale)


@given(a=finite10, b=finite10, c=finite10, d=finite10)
def test_full_sign_flip_invariance_exact(a, b, c, d):
    assert constant_term(a, b, c, d) == constant_term(-a, -b, -c, -d)
