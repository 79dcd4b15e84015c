import functools
import math
import random
import warnings

import mpmath
import numpy as np
import pytest

import quasih.perturb
from quasih import (
    Reality,
    SpikeAnsatz,
    band_closed_energies,
    band_series_E1,
    band_series_E3,
    critical_strength,
    in_domain,
    series_scaling_check,
    spike_band_edges,
    spike_membership,
    spike_point,
)


def exact_band_mags(alpha):
    mags = sorted(abs(e) for e in band_closed_energies(alpha).energies)
    return mags[0], mags[-1]


def test_series_values_at_zero():
    assert band_series_E3(0.0, 6) == 3.0
    assert band_series_E1(0.0, 6) == 1.0


def test_series_no_quadratic_term_in_E1():
    assert band_series_E1(0.1, 2) == 1.0


def test_series_small_alpha_against_closed_form():
    alpha = 0.1
    e1_exact, e3_exact = exact_band_mags(alpha)
    assert abs(band_series_E3(alpha, 6) - e3_exact) <= 5e-8
    assert abs(band_series_E1(alpha, 6) - e1_exact) <= 5e-8
    assert band_series_E3(alpha, 6) == pytest.approx(
        3 - 0.02 - 1e-4 - (7 / 6) * 1e-6, abs=1e-15
    )


@pytest.mark.parametrize("which", [1, 3])
@pytest.mark.parametrize("order", [2, 4, 6])
def test_series_error_order_scaling(which, order):
    series = band_series_E1 if which == 1 else band_series_E3

    def err(alpha):
        exact = exact_band_mags(alpha)[0 if which == 1 else 1]
        return abs(series(alpha, order) - exact)

    # halving alpha shrinks the error by >= 2^(order+1), within 20%
    ratio = err(0.2) / err(0.1)
    assert ratio >= 0.8 * 2 ** (order + 1)


def test_series_scaling_check_window():
    for which in (1, 3):
        chk = series_scaling_check(which, 6)
        assert chk.window == (0.0, 0.25)
        # next omitted term is O(alpha^8): coefficient of modest size
        assert chk.max_abs_error_over_window < 1e-3


def test_series_rejects_unsupported_order():
    with pytest.raises(ValueError):
        band_series_E3(0.1, 5)


def test_series_scaling_check_rejects_a_level_other_than_1_or_3():
    with pytest.raises(ValueError, match="which must be 1 or 3"):
        series_scaling_check(2, 6)


def test_critical_strength_values():
    alpha_cs, e_cs = critical_strength()
    assert abs(alpha_cs**2 - 0.4) <= 1e-12
    assert abs(5.0 * alpha_cs**4 - 12.0 * alpha_cs**2 + 4.0) <= 1e-12
    assert abs(e_cs - 1.612451550) <= 5e-10


def test_discriminant_factorization():
    # 5 (x - 2/5)(x - 2) = 5 x^2 - 12 x + 4 with x = alpha^2
    for alpha in np.linspace(0.0, 2.0, 41):
        x = alpha * alpha
        lhs = 5.0 * (x - 0.4) * (x - 2.0)
        rhs = 5.0 * x * x - 12.0 * x + 4.0
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_complexification_just_past_critical():
    alpha_cs, _ = critical_strength()
    spec = band_closed_energies(alpha_cs + 1e-3)
    assert spec.classification is Reality.COMPLEX_PAIRS


def test_spike_point_at_vertex():
    ansatz = SpikeAnsatz(t=0.0, coef_a=0.0, coef_c=0.0)
    a, c = spike_point(ansatz)
    assert (a, c) == (-2.0, -math.sqrt(3.0))


def test_spike_point_linear_term_only():
    ansatz = SpikeAnsatz(t=0.05, coef_a=0.0, coef_c=0.0)
    a, c = spike_point(ansatz)
    assert a == pytest.approx(-2.0 * 0.95, abs=1e-15)
    assert c == pytest.approx(-math.sqrt(3.0) * 0.95, abs=1e-15)


def test_spike_vertex_saturates_sphere():
    assert 2.0**2 + 2.0 * (math.sqrt(3.0)) ** 2 == pytest.approx(10.0, abs=1e-12)


def test_spike_ansatz_validation():
    with pytest.raises(ValueError):
        SpikeAnsatz(t=-0.01, coef_a=0.0, coef_c=0.0)
    with pytest.raises(ValueError):
        SpikeAnsatz(t=0.01, coef_a=0.0, coef_c=0.0, corner=(0, 1))
    with pytest.warns(UserWarning) as record:
        SpikeAnsatz(t=0.5, coef_a=0.0, coef_c=0.0)
    # The warning names the caller, not the dataclass's generated __init__.
    assert [w.filename for w in record] == [__file__]


def test_spike_policy_bound_is_on_t_times_coef_c():
    # The first-order edge terms scale with coef_c t: at (1e300, 1e300, 0.01)
    # the leading-order verdict read inside beside an exact outside, and
    # no warning said that the expansion no longer holds.
    with pytest.warns(UserWarning, match=r"^t=0.01 times \|coef_c\|=1e\+300 exceeds the policy"):
        a, c = spike_point(SpikeAnsatz(t=0.01, coef_a=1e300, coef_c=1e300))
    assert spike_membership(1e300, 1e300, 0.01) and not in_domain(a, 0.0, c).inside
    with pytest.warns(UserWarning, match=r"^t=0.05 times \|coef_c\|=5.0 exceeds the policy"):
        SpikeAnsatz(t=0.05, coef_a=0.0, coef_c=-5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SpikeAnsatz(t=0.2, coef_a=0.0, coef_c=-1.0)
        SpikeAnsatz(t=0.1, coef_a=0.0, coef_c=2.0)


def test_spike_membership_leading_order():
    assert spike_membership(0.0, 0.0, 0.01)
    assert spike_membership(0.3, 0.3, 0.0)  # vertex inside by convention
    assert not spike_membership(1.0, 0.0, 0.01)  # 1 > 8/9
    assert not spike_membership(-0.6, 0.0, 0.01)  # -0.6 < -1/2
    assert not spike_membership(0.0, 0.0, -0.01)


def test_spike_predictor_agrees_away_from_edges():
    coef_c, t = 0.3, 0.02
    lower, upper = spike_band_edges(coef_c, t)
    for coef_a in np.linspace(coef_c - 1.0, coef_c + 1.5, 51):
        predicted = spike_membership(coef_a, coef_c, t)
        a, c = spike_point(SpikeAnsatz(t=t, coef_a=coef_a, coef_c=coef_c))
        exact = in_domain(a, 0.0, c).inside
        # disagreement only inside the O(t) fuzz bands around the edges
        near_edge = (
            abs(coef_a - (coef_c + 8.0 / 9.0)) < 5 * t
            or abs(coef_a - (coef_c - 0.5)) < 5 * t
        )
        if predicted != exact:
            assert near_edge
        assert exact == (lower <= coef_a <= upper)


def test_spike_edges_converge_linearly():
    coef_c = 0.3
    upper_offsets, lower_offsets = [], []
    for t in (0.02, 0.01, 0.005):
        lower, upper = spike_band_edges(coef_c, t)
        upper_offsets.append(upper - (coef_c + 8.0 / 9.0))
        lower_offsets.append((coef_c - 0.5) - lower)
    for offsets in (upper_offsets, lower_offsets):
        assert all(o > 0 for o in offsets)
        assert offsets[0] / offsets[1] == pytest.approx(2.0, rel=0.3)
        assert offsets[1] / offsets[2] == pytest.approx(2.0, rel=0.3)
    # linear fit through (t, offset) has negligible intercept
    ts = np.array([0.02, 0.01, 0.005])
    slope, intercept = np.polyfit(ts, np.array(upper_offsets), 1)
    assert abs(intercept) <= 1e-3
    assert math.isfinite(slope)


def test_spike_edges_need_positive_t():
    with pytest.raises(ValueError):
        spike_band_edges(0.0, 0.0)
    with pytest.raises(ValueError, match="t must be finite"):
        spike_band_edges(0.3, math.inf)
    with pytest.raises(ValueError, match="coef_c must be finite"):
        spike_band_edges(math.nan, 0.1)


def test_spike_edges_refuse_a_t_where_coef_a_equals_coef_c_is_outside():
    # At t = 10 the spike point of coef_a = coef_c = 0 is (a, b, d) =
    # (18, 0, 9 sqrt(3)), where A = -400 < 0: no interval around coef_c.
    # Only the refusal is pinned, not its class: RuntimeError (today's) is
    # the numerical-failure class, and an input error would be a ValueError.
    with pytest.raises((RuntimeError, ValueError), match="outside the domain"):
        spike_band_edges(0.0, 10.0)


def test_spike_edges_do_not_warn_past_the_policy_bound():
    # They built a SpikeAnsatz for their inside check, which warned that
    # second-order accuracy degrades at t > 0.2; the edges are exact at any t.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lower, upper = spike_band_edges(0.3, 0.3)
    assert lower < 0.3 < upper


def _mp_margin(coef_c, t, coef_a):
    """Domain margin at the spike point, evaluated at the current mpmath
    precision straight from the definitions of A and B."""
    t = mpmath.mpf(t)
    a = -2 * (1 - t - coef_a * t * t)
    c = -mpmath.sqrt(3) * (1 - t - mpmath.mpf(coef_c) * t * t)
    A = 5 - c * c - a * a / 2
    B = (c * c + 3) ** 2 - 9 * a * a
    return min(A, A * A - B, B)


@pytest.mark.parametrize("coef_c, t", [(-0.5, 2.0), (-1.0, 1.0), (-0.25, 4.0)])
def test_spike_edges_where_the_interval_is_one_point(coef_c, t):
    # At coef_c t = -1 the roots of g, p and p^2 - 9gh all fall on coef_c,
    # which was neither below nor above itself: max() of an empty sequence.
    assert spike_band_edges(coef_c, t) == (coef_c, coef_c)
    with mpmath.workdps(50):
        assert _mp_margin(coef_c, t, mpmath.mpf(coef_c)) == 0
        for outside in (coef_c - 1e-6, coef_c + 1e-6):
            assert _mp_margin(coef_c, t, mpmath.mpf(outside)) < -1e-5


@pytest.mark.parametrize("coef_c", [0.3, -0.6, 0.0, 0.75])
@pytest.mark.parametrize("t", [0.2, 0.05, 0.02, 0.005, 0.001])
def test_spike_edges_match_50_digit_roots(coef_c, t):
    # The bisection of the membership verdict erred by 5.6e-7 at t = 0.005
    # and 1.4e-5 at t = 0.001: in_domain admits margins down to -1e-9.
    f = functools.partial(_mp_margin, coef_c, t)
    with mpmath.workdps(50):
        for edge in spike_band_edges(coef_c, t):
            lo, hi = mpmath.mpf(edge) - 1e-12, mpmath.mpf(edge) + 1e-12
            assert f(lo) * f(hi) < 0, "no membership flip within 1e-12 of the edge"
            exact = mpmath.findroot(f, (lo, hi), solver="anderson")
            assert abs(edge - exact) <= 1e-14


@pytest.mark.parametrize("coef_c", [0.3, -0.6, 0.0, 0.75])
def test_spike_edge_slopes(coef_c):
    t = 1e-4
    lower, upper = spike_band_edges(coef_c, t)
    assert abs((lower - (coef_c - 0.5)) / t - (-coef_c)) <= 1e-3
    assert abs((upper - (coef_c + 8.0 / 9.0)) / t - (16.0 * coef_c / 9.0 + 80.0 / 81.0)) <= 1e-3
    # The lower edge is exact in closed form.
    assert lower == pytest.approx(coef_c - 0.5 - coef_c * t - coef_c**2 * t * t / 2, abs=1e-15)


def test_spike_edges_do_not_depend_on_the_blas_product(monkeypatch):
    # np.polymul goes through the BLAS dot kernel, whose bits can depend on the
    # CPU (on general 3x3 inputs it differs from a left-to-right sum in the
    # degree-1 and degree-3 coefficients); the spike factors give the same bits
    # either way, so the edges equal those of the numpy products.
    rng = random.Random(16)
    pairs = [(rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-3.0, -0.5)) for _ in range(1200)]
    pairs += [(-0.5, 2.0), (-1.0, 1.0), (-0.25, 4.0)]
    edges = [spike_band_edges(coef_c, t) for coef_c, t in pairs]
    calls = []

    def numpy_product(p, q):
        calls.append((p, q))
        return np.polymul(p, q).tolist()

    monkeypatch.setattr(quasih.perturb, "polymul", numpy_product)
    assert [spike_band_edges(coef_c, t) for coef_c, t in pairs] == edges
    assert len(calls) == 2 * len(pairs)
