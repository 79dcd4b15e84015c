import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasih import (
    Reality,
    boundary_trace_ray,
    closed_form_energies,
    constant_term,
    figure1_geometry,
    hyperbola_factors,
    in_domain,
    pmn_points,
    quartic_energies,
    reduced_AB,
    scan_grid,
    spike_band_edges,
)
import quasih.cli
import quasih.domain
import quasih.exact
from quasih.cli import main
from quasih.domain import DomainVerdict, GridScan, _margin_bound
from quasih.exact import brentq, real_roots
from quasih.model import ParamPoint, build_full
from quasih.spectrum import REALITY_TOL, numeric_energies

finite4 = st.floats(min_value=-4, max_value=4, allow_nan=False)


def test_origin_is_inside():
    v = in_domain(0, 0, 0)
    assert v.inside and not v.on_boundary
    assert (v.A, v.B) == (5.0, 9.0)
    assert v.margin == 5.0  # min(5, 25 - 9, 9)


def test_vertex_is_on_boundary():
    v = in_domain(2.0, 0.0, math.sqrt(3.0))
    assert v.on_boundary
    assert abs(v.A) < 1e-12 and abs(v.B) < 1e-12


@pytest.mark.parametrize("name", ["a", "b", "d"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_in_domain_names_a_non_finite_argument(name, value):
    args = {"a": 0.5, "b": -0.25, "d": 0.75, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        in_domain(**args)
    # The guard is one test of a + b + d.  Terms that cancel there, as in
    # (inf, -inf, 0.0), make it nan, and the first non-finite term is named.
    if later := {"a": "b", "b": "d"}.get(name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            in_domain(**{"a": 0.0, "b": 0.0, "d": 0.0, name: value, later: -value})


def test_in_domain_accepts_integers():
    assert in_domain(1, -1, 1) == in_domain(1.0, -1.0, 1.0)
    assert in_domain(2, 0, 0) == in_domain(2.0, 0.0, 0.0)


def verdict_points(rng: random.Random, count: int) -> list[tuple]:
    """Seeded (a, b, d): floats in [-4, 4], small integers, -0.0 and
    couplings of either sign up to 1e150."""
    def coordinate():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.uniform(-4.0, 4.0)
        if kind == 1:
            return rng.randint(-5, 5)
        if kind == 2:
            return rng.choice((-0.0, 0.0))
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 150.0)

    return [(coordinate(), coordinate(), coordinate()) for _ in range(count)]


def test_verdict_is_the_margins_tuple_bit_for_bit():
    def bits(values):
        return [x.hex() if isinstance(x, float) else x for x in values]

    # Finite arguments whose sum a + b + d overflows pass the guard.
    overflowing_sums = [(1e308, 1e308, 0.5), (-1.7e308, -1.7e308, 1e308), (1e308, 1, 1e308)]
    for a, b, d in verdict_points(random.Random(27), 2000) + overflowing_sums:
        v = in_domain(a, b, d)
        assert [type(x) for x in v] == [float, float, float, bool, bool], (a, b, d)
        assert bits(tuple(v)) == bits(quasih.domain._margins(a, b, d, min)), (a, b, d)


def test_verdict_fields_are_the_scan_arrays():
    arrays = [field.name for field in dataclasses.fields(GridScan)]
    assert arrays[:2] == ["a_values", "b_values"]
    assert DomainVerdict._fields == tuple(arrays[2:])


def test_verdicts_are_read_only_values():
    for a, b, d in verdict_points(random.Random(28), 200):
        v = in_domain(a, b, d)
        assert v == in_domain(a, b, d), (a, b, d)
        for name in ("A", "B", "margin", "inside", "on_boundary"):
            with pytest.raises(AttributeError):
                setattr(v, name, 0.0)


def test_large_d_is_outside():
    v = in_domain(0.0, 0.0, 3.0)
    assert not v.inside
    assert v.A == -4.0
    # cross-check: the spectrum there is entirely complex
    assert closed_form_energies(0, 0, 3).classification is Reality.COMPLEX_PAIRS


def test_rotated_origin_condition():
    # At sigma = delta = 0 the rotated form of A^2 >= B reads 4 >= 4 d^2.
    A, B = reduced_AB(0, 0, 0.99)
    assert A * A >= B
    A, B = reduced_AB(0, 0, 1.01)
    assert A * A < B


@settings(max_examples=200)
@given(a=finite4, b=finite4, d=finite4)
def test_rotated_equivalent_to_second_condition(a, b, d):
    # sigma = (a+b)/2, delta = (a-b)/2: then 4*[(2 + sigma*delta)^2
    # - d^2 (4 - sigma^2)] == A^2 - B identically.
    sigma, delta = 0.5 * (a + b), 0.5 * (a - b)
    A, B = reduced_AB(a, b, d)
    lhs = 4.0 * ((2.0 + sigma * delta) ** 2 - d * d * (4.0 - sigma * sigma))
    rhs = A * A - B
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
    if abs(lhs) > 1e-9:
        assert (lhs >= 0) == (rhs >= 0)


@settings(max_examples=150)
@given(a=finite4, b=finite4, d=finite4)
def test_membership_iff_spectral_reality(a, b, d):
    tol = REALITY_TOL
    v = in_domain(a, b, d)
    real = closed_form_energies(a, b, d).classification in (
        Reality.ALL_REAL,
        Reality.REAL_DEGENERATE,
    )
    if v.inside != real:
        assert abs(v.margin) <= 10 * tol


def test_pmn_points_reference_value():
    points = pmn_points(8.0 / 5.0)
    assert len(points) == 4
    for p in points:
        assert abs(p.a * p.a + p.b * p.b + 2 * p.d * p.d - 10.0) <= 1e-9
        assert abs(constant_term(p.a, p.b, p.d, p.d)) <= 1e-9


def test_pmn_quartic_is_numpys_product_bit_for_bit(monkeypatch):
    # The quartic's products are summed left to right in plain floats; the
    # points equal those from np.polymul's products, bit for bit.
    rng = random.Random(16)
    d2s = [rng.uniform(0.001, 4.999) for _ in range(500)] + [0.13616, 1.6, 3.0]
    points = [pmn_points(d2) for d2 in d2s]
    calls = []

    def numpy_product(p, q):
        calls.append((p, q))
        return np.polymul(p, q).tolist()

    monkeypatch.setattr(quasih.domain, "polymul", numpy_product)
    assert [pmn_points(d2) for d2 in d2s] == points
    assert len(calls) == len(d2s)


def test_pmn_points_include_axis_points_at_d2_3():
    points = pmn_points(3.0)
    on_axis = [p for p in points if abs(p.b) < 1e-9]
    assert {round(p.a) for p in on_axis} >= {-2, 2}
    assert abs(constant_term(2.0, 0.0, math.sqrt(3.0), math.sqrt(3.0))) < 1e-12


def test_pmn_count_matches_angular_sign_scan():
    # independent oracle: count sign changes of C around the circle; the
    # half-step offset keeps grid angles off the roots themselves (at
    # d^2 = 3 the roots sit at special angles), and the count is cyclic
    for d2 in (0.5, 1.6, 3.0, 4.9):
        r = math.sqrt(10 - 2 * d2)
        n = 20000
        thetas = np.linspace(0, 2 * math.pi, n, endpoint=False) + math.pi / n
        c_vals = [
            constant_term(r * math.cos(t), r * math.sin(t), math.sqrt(d2), math.sqrt(d2))
            for t in thetas
        ]
        crossings = sum(
            1 for u, v in zip(c_vals, c_vals[1:] + c_vals[:1]) if u * v < 0
        )
        assert len(pmn_points(d2)) == crossings


def test_pmn_counts_and_mirror_symmetry():
    # The mirror pair of 1.6 was (1.3042950014883101, ...) and
    # (-1.3042950014883095, ...): each hyperbola was searched on its own.
    for d2 in (0.5, 1.6, 3.0, 4.9):
        points = pmn_points(d2)
        assert len(points) in (0, 2, 4)
        coords = {(p.a, p.b) for p in points}
        assert {(-a, -b) for a, b in coords} == coords


def exact_product(*factors) -> list[float]:
    """Coefficients of a product of polynomials with dyadic coefficients,
    checked to be exact in floating point."""
    coeffs = functools.reduce(np.polymul, (np.array(f, dtype=object) for f in factors))
    assert all(isinstance(c, Fraction) for c in coeffs)
    floats = [float(c) for c in coeffs]
    assert [Fraction(f) for f in floats] == list(coeffs)
    return floats


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["separated", "close pair", "complex pair", "double root"]),
    eighths=st.lists(st.integers(-16, 16).filter(bool), min_size=4, max_size=4, unique=True),
    lead=st.sampled_from([Fraction(-8), Fraction(-1), Fraction(1, 4), Fraction(1), Fraction(32)]),
)
def test_real_roots_of_quartics_built_from_known_roots(kind, eighths, lead):
    # Roots are multiples of 1/8 in [-2, 2], the close pair is 2^-20 (9.5e-7)
    # apart, and every coefficient is exact, so these are the true roots.
    x, y, z, w = (Fraction(k, 8) for k in eighths)
    if kind == "separated":
        simple, factors = [x, y, z, w], []
    elif kind == "close pair":
        simple, factors = [x, x + Fraction(1, 2**20), y, z], []
    elif kind == "complex pair":
        simple, factors = [x, y], [[1, -2 * z, z * z + w * w]]
    else:
        simple, factors = [y, z], [[1, -2 * x, x * x]]
    coeffs = exact_product([lead], *([1, -r] for r in simple), *factors)
    roots = real_roots(coeffs, -math.inf, math.inf)
    if kind == "double root":
        at_double = [r for r in roots if abs(r - x) < 1e-6]
        assert len(at_double) <= 1
        roots = [r for r in roots if abs(r - x) >= 1e-6]
    assert len(roots) == len(simple)
    for got, want in zip(roots, sorted(simple)):
        assert abs(got - want) <= 1e-9 * abs(want)


def test_real_roots_refuse_roots_beyond_the_float_range():
    with pytest.raises(RuntimeError, match="polynomial coefficients or roots overflow"):
        real_roots([1e-300, 1e300, 1.0], -math.inf, math.inf)


def test_real_roots_strip_leading_zeros_and_find_none_for_a_constant():
    assert real_roots([0.0, 1.0, 0.0, -1.0], -2.0, 2.0) == [-1.0, 1.0]
    assert real_roots([3.0], -1.0, 1.0) == []
    assert real_roots([0.0, 0.0, 3.0], -math.inf, math.inf) == []


def test_real_roots_report_a_root_at_the_upper_end():
    # x^2 - 1 on [-0.5, 1]: the last piece, [0, 1], ends on an exact zero.
    assert real_roots([1.0, 0.0, -1.0], -0.5, 1.0) == [1.0]


def brentq_brackets(source: str, rng: random.Random) -> list:
    """The (f, a, b, fa, fb) that quasih hands to brentq on one seeded input.

    "pmn", "spike" and "quartic" record what real_roots passes, with its
    exact-integer f and the end values fa, fb it already holds; "ray"
    records what boundary_trace_ray passes, its margin along the ray and
    the march's last two margins; "near double" is a plain float
    polynomial with roots 2^-40 ... 2^-1 apart, bracketed around the lower
    one.
    """
    if source == "near double":
        r, e, lead = rng.uniform(-3, 3), 2.0 ** -rng.randint(1, 40), rng.choice([-8.0, 1.0])
        a, b = r - rng.random(), r + e / 2

        def f(x):
            return lead * (x - r) * (x - r - e) * (x * x + 1.0)

        return [(f, a, b, f(a), f(b))]
    calls = []

    def record(f, a, b, fa, fb):
        calls.append((f, a, b, fa, fb))
        return brentq(f, a, b, fa, fb)

    with pytest.MonkeyPatch.context() as patch:
        # Each caller looks brentq up in its own module.
        patch.setattr(quasih.domain if source == "ray" else quasih.exact, "brentq", record)
        if source == "pmn":
            pmn_points(rng.uniform(0.01, 4.99))
        elif source == "spike":
            spike_band_edges(rng.uniform(-2.0, 2.0), rng.uniform(1e-4, 0.5))
        elif source == "ray":
            angle, d = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 0.9)
            center = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            boundary_trace_ray(center, (math.cos(angle), math.sin(angle)), d)
        else:
            r = rng.uniform(-3, 3)
            close = [r, r + 2.0 ** -rng.randint(1, 20)]
            real_roots(np.poly(close + [rng.uniform(-3, 3) for _ in range(2)]), -math.inf, math.inf)
    assert calls, source
    return calls


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    source=st.sampled_from(["pmn", "spike", "ray", "quartic", "near double"]),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-300, 150),
)
def test_brentq_takes_scipys_steps_bit_for_bit(source, seed, exponent):
    # Scaled by 1e-300, f's values are subnormal: a product of two of them
    # underflows, and equal values make the interpolation divide by zero.
    from scipy.optimize import brentq as scipy_brentq

    scale = 10.0**exponent
    for f, a, b, *_ in brentq_brackets(source, random.Random(seed)):
        for g in (f, lambda x, f=f: f(x) * scale):
            want = scipy_brentq(g, a, b, xtol=1e-300, maxiter=2200)
            assert brentq(g, a, b, g(a), g(b)).hex() == want.hex()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    source=st.sampled_from(["pmn", "spike", "ray", "quartic", "near double"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_brentq_is_handed_the_true_end_values(source, seed):
    # brentq does not evaluate f at a and b; the end values it is handed
    # must be exactly what f gives there.
    for f, a, b, fa, fb in brentq_brackets(source, random.Random(seed)):
        assert (fa.hex(), fb.hex()) == (float(f(a)).hex(), float(f(b)).hex())


def evaluated_points(run) -> list:
    """Each point at which boundary_trace_ray's margin, or the exact
    evaluator of a real_roots call, is evaluated while run() runs, tagged
    with the ray or the polynomial.  A ray's center counts as t = 0."""
    inner = {
        code: name
        for fn, name in ((boundary_trace_ray, "margin"), (real_roots, "f"))
        for code in fn.__code__.co_consts
        if getattr(code, "co_name", None) == name
    }
    ray, center = boundary_trace_ray.__code__, in_domain.__code__
    points = []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is center and frame.f_back.f_code is ray:
            points.append(("margin", 0.0))
        elif inner.get(frame.f_code) == "margin":
            points.append(("margin", frame.f_locals["t"]))
        elif inner.get(frame.f_code) == "f":
            poly = (frame.f_locals["lead"], *frame.f_locals["rest"])
            points.append((poly, frame.f_locals["x"]))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return points


def test_no_point_is_evaluated_twice():
    # brentq used to evaluate both bracket ends again, though the march and
    # the root isolation had just evaluated them.
    rng = random.Random(26)
    runs = [functools.partial(pmn_points, rng.uniform(0.01, 4.99)) for _ in range(10)]
    runs += [
        functools.partial(spike_band_edges, rng.uniform(-2.0, 2.0), rng.uniform(1e-4, 0.5))
        for _ in range(10)
    ]
    for _ in range(20):
        angle, d = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 0.9)
        center = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        direction = (math.cos(angle), math.sin(angle))
        runs.append(functools.partial(boundary_trace_ray, center, direction, d))
    for run in runs:
        points = evaluated_points(run)
        assert len(points) > 8
        assert len(set(points)) == len(points), run


def test_brentq_raises_past_its_step_limit_and_without_a_sign_change():
    from scipy.optimize import brentq as scipy_brentq

    # b - a overflows to inf, so the bracket never closes.
    def cbrt(x):
        return math.copysign(abs(x) ** (1 / 3), x)

    def ours(f, a, b):
        return brentq(f, a, b, f(a), f(b))

    for solver in (ours, functools.partial(scipy_brentq, xtol=1e-300, maxiter=2200)):
        with pytest.raises(RuntimeError, match="after 2200 iterations"):
            solver(cbrt, -1e308, 1.7e308)
        with pytest.raises(ValueError, match="different signs"):
            solver(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brentq_returns_an_end_whose_value_is_zero_without_calling_f():
    def f(x):
        raise AssertionError(f"f called at {x}")

    assert brentq(f, -1.0, 2.0, -3.0, 0.0) == 2.0
    assert brentq(f, -1.0, 2.0, 3.0, 0.0) == 2.0
    assert brentq(f, -1.0, 2.0, 3.0, -0.0) == 2.0
    assert brentq(f, -1.0, 2.0, -3.0, -0.0) == 2.0
    assert brentq(f, -1.0, 2.0, 0.0, 5.0) == -1.0


#: Where the circle a^2 + b^2 = 10 - 2 d^2 touches the hyperbolas:
#: d^2 = (207 -+ 33 sqrt(33))/128, correctly rounded.
D2_MINUS = 0.1361674426894145
D2_PLUS = 3.0982075573105856


def test_tangency_literals_are_the_closed_form():
    with mpmath.workdps(50):
        for literal, sign in ((D2_MINUS, -1), (D2_PLUS, 1)):
            exact = (207 + sign * 33 * mpmath.sqrt(33)) / 128
            assert abs(literal - exact) <= 0.5 * math.ulp(literal)


@pytest.mark.parametrize(
    "d2, count",
    [
        # The sign scan at 4096 angles found 4 at both points below D2_MINUS.
        (D2_MINUS * (1 - 1e-9), 8),
        (D2_MINUS * (1 - 1e-6), 8),
        (D2_MINUS * (1 + 1e-6), 4),
        (D2_PLUS * (1 - 1e-6), 4),
        (D2_PLUS * (1 + 1e-6), 0),
    ],
)
def test_pmn_count_on_each_side_of_the_tangencies(d2, count):
    assert len(pmn_points(d2)) == count


def mp_pmn_points(d2: float) -> list:
    """PMN points at 50 digits, from the quartic in a that the hyperbola
    b = d^2/(a - 1) - 3 makes of the circle, and their mirror images."""
    with mpmath.workdps(50):
        d2 = mpmath.mpf(d2)
        # a^2 (a-1)^2 + (d^2 - 3(a-1))^2 - (10 - 2 d^2)(a-1)^2 = 0
        coeffs = [1, -2, 2 * d2, 2 - 10 * d2, d2 * d2 + 8 * d2 - 1]
        points = []
        for a in mpmath.polyroots(coeffs, maxsteps=200, extraprec=200):
            if abs(mpmath.im(a)) < mpmath.mpf(10) ** -40:
                a = mpmath.re(a)
                b = d2 / (a - 1) - 3
                points += [(a, b), (-a, -b)]
        return sorted(points)


def assert_pmn_points_match_mpmath(d2: float, tol: float):
    got = pmn_points(d2)
    want = mp_pmn_points(d2)
    assert len(got) == len(want)
    for p, (a, b) in zip(got, want):
        assert abs(p.a - a) <= tol and abs(p.b - b) <= tol


def test_pmn_points_match_50_digit_roots():
    rng = np.random.default_rng(20070303)
    checked = 0
    for d2 in rng.uniform(0.01, 3.09, 60):
        if min(abs(d2 - t) / t for t in (D2_MINUS, D2_PLUS)) >= 1e-3:
            assert_pmn_points_match_mpmath(float(d2), 1e-13)
            checked += 1
    assert checked >= 55


@pytest.mark.parametrize("offset", [1e-9, 1e-6])
def test_pmn_points_below_the_tangency_match_50_digit_roots(offset):
    assert_pmn_points_match_mpmath(D2_MINUS * (1 - offset), 1e-9)


@pytest.mark.parametrize("d2, count", [(0.05, 8), (0.1, 8), (1.6, 4)])
def test_pmn_point_count_up_to_eight(d2, count):
    # below the tangency near d^2 = 0.136 the circle cuts each hyperbola
    # branch twice more, giving 8 genuine points
    points = pmn_points(d2)
    assert len(points) == count
    for p in points:
        assert abs(p.a * p.a + p.b * p.b + 2.0 * d2 - 10.0) <= 1e-12
        assert abs(constant_term(p.a, p.b, p.d, p.d)) <= 1e-12
    gaps = [
        math.hypot(p.a - q.a, p.b - q.b)
        for i, p in enumerate(points)
        for q in points[i + 1 :]
    ]
    assert min(gaps) > 1e-3


def test_pmn_quadruple_merger_energy_scale():
    # Quadruple roots amplify coefficient rounding by a fourth root, so
    # double precision cannot push |E| below ~1e-4; assert the
    # fourth-power residual instead.
    for p in pmn_points(1.6):
        A, B = reduced_AB(p.a, p.b, p.d)
        s = quartic_energies(-2.0 * A, 0.0, B)
        assert max(abs(e) for e in s.energies) ** 4 <= 1e-12


def test_pmn_rejects_bad_d2():
    with pytest.raises(ValueError):
        pmn_points(0.0)
    with pytest.raises(ValueError):
        pmn_points(5.0)


def test_boundary_ray_flat_model():
    # at d = 0, B(a, 0, 0) = 9 - 9 a^2 changes sign at a = 1
    a, b = boundary_trace_ray((0.0, 0.0), (1.0, 0.0), 0.0)
    assert b == 0.0
    assert abs(a - 1.0) <= math.ulp(1.0)


def test_boundary_ray_at_moderate_d():
    # at d = 0.5 the first constraint to fail along b = 0 is B:
    # (0.25 + 3)^2 - 9 a^2 = 0 at a = 3.25/3
    a, b = boundary_trace_ray((0.0, 0.0), (1.0, 0.0), 0.5)
    assert b == 0.0
    assert abs(a - 13.0 / 12.0) <= math.ulp(13.0 / 12.0)
    assert abs(in_domain(a, b, 0.5).margin) <= 1e-9


@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
def test_boundary_ray_from_a_center_just_outside(direction):
    # Four ulps past the exit at 13/12 the float margin is negative but within
    # its rounding bound, so the center counts as inside; the first step is
    # outside too, and the center is its own crossing.
    a = 13.0 / 12.0
    for _ in range(4):
        a = math.nextafter(a, 2.0)
    center = (a, 0.0)
    v = in_domain(*center, 0.5)
    assert v.inside and v.on_boundary
    assert -_margin_bound(*center, 0.5)[2] <= v.margin == v.B < 0.0
    assert boundary_trace_ray(center, direction, 0.5) == center


def test_point_outside_by_more_than_rounding_is_outside():
    # The margin B is -5e-10: far beyond its rounding bound of about 2.1e-14,
    # and the spectrum there is complex (|Im E| ~ 7.7e-6).  A fixed tolerance
    # of 1e-9 called the point inside and the ray started from it.
    center = (13.0 / 12.0 + 2.56e-11, 0.0)
    v = in_domain(*center, 0.5)
    assert not v.inside and not v.on_boundary
    assert closed_form_energies(*center, 0.5).classification is Reality.COMPLEX_PAIRS
    with pytest.raises(ValueError, match="ray center lies outside the domain"):
        boundary_trace_ray(center, (1.0, 0.0), 0.5)


def exact_slacks(a: float, b: float, d: float) -> tuple[Fraction, Fraction, Fraction]:
    """A, A^2 - B and B at the float inputs, in exact rationals."""
    a, b, dd = Fraction(a), Fraction(b), Fraction(d) ** 2
    A = 5 - dd - (a * a + b * b) / 2
    B = (dd - a * b + 3) ** 2 - (b - 3 * a) ** 2
    return A, A * A - B, B


def assert_margin_within_bound(a: float, b: float, d: float):
    # Each float slack is within its own bound of the exact one, so the
    # margin, their minimum, is within the largest.
    v = in_domain(a, b, d)
    slacks = (v.A, v.A * v.A - v.B, v.B)
    for got, want, bound in zip(slacks, exact_slacks(a, b, d), _margin_bound(a, b, d)):
        assert abs(Fraction(got) - want) <= Fraction(bound)


unit = st.floats(min_value=-1.0, max_value=1.0)
scale = st.sampled_from([10.0**k for k in range(-3, 4)])


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(a=unit, b=unit, d=unit, sa=scale, sb=scale, sd=scale)
def test_margin_bound_covers_the_rounding_error(a, b, d, sa, sb, sd):
    assert_margin_within_bound(a * sa, b * sb, d * sd)


def fig2_points(argv) -> list[tuple[float, float]]:
    """The (a, c) points of a fig2 CSV."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return [tuple(map(float, row.split(",")[:2])) for row in out.getvalue().splitlines()[1:]]


def test_margin_bound_covers_the_rounding_error_near_the_boundary():
    # Every cell within 1e-6 of the boundary in four 401^2 scans and in the
    # fig2 grids, where the float margin cancels most.
    cells = []
    for d2 in (1.6, 0.3, 0.01, 1.0):
        grid = scan_grid((-4.0, 4.0), (-4.0, 4.0), math.sqrt(d2), (401, 401))
        i, j = np.nonzero(np.abs(grid.margin) <= 1e-6)
        cells += [(grid.a_values[k], grid.b_values[m], math.sqrt(d2)) for k, m in zip(i, j)]
    for argv in (["fig2"], ["fig2", "--t-steps", "3", "--res-a", "11"]):
        rows = fig2_points(argv)
        cells += [(a, 0.0, c) for a, c in rows if abs(in_domain(a, 0.0, c).margin) <= 1e-6]
    assert len(cells) >= 40
    for a, b, d in cells:
        assert_margin_within_bound(float(a), float(b), float(d))


@pytest.mark.parametrize("point", [(1e200, 0.0, 0.0), (0.0, 0.0, 1e160)])
def test_overflowing_bound_is_outside_and_off_the_boundary(point):
    # A is -inf here; an unguarded abs(-inf) <= inf put the point on the boundary.
    v = in_domain(*point)
    assert not v.inside and not v.on_boundary


@pytest.mark.parametrize(
    "point", [(0.0, 1e8, 0.5), (0.0, 0.0, 1e8), (1e9, 0.0, 1.0), (2e77, 0.0, 0.0)]
)
def test_a_slack_far_below_its_own_rounding_is_outside(point):
    # A is about -5e15, -1e16, -5e17 and -2e154 here, far below its own
    # rounding, but each point was called inside (and on the boundary): the
    # whole margin was tested against the rounding bound of A^2 - B, which
    # grows as the fourth power of the couplings.
    v = in_domain(*point)
    assert not v.inside and not v.on_boundary
    assert exact_slacks(*point)[0] < 0
    a, b, d = point
    assert numeric_energies(build_full(ParamPoint(a, b, d, d))).max_imag > 1e7


@pytest.mark.parametrize("x", [0.0, 1e-3, -0.25, 1.5, 2.0])
def test_points_whose_exact_margin_is_zero_are_on_the_boundary(x):
    # At d = 1, A^2 - B = 16 (1 - d^2) vanishes on the whole line b = -a, and
    # A = 4 - x^2 and B = (x^2 - 4)^2 are non-negative for |x| <= 2.
    assert min(exact_slacks(x, -x, 1.0)) == 0
    v = in_domain(x, -x, 1.0)
    assert v.inside and v.on_boundary


def gamma(k: int) -> Fraction:
    u = Fraction(1, 2**53)
    return k * u / (1 - k * u)


def exact_rounding_bounds(a: float, b: float, d: float) -> tuple[Fraction, Fraction, Fraction]:
    """gamma_3 A~, gamma_9 s^2 and gamma_8 (p~^2 + q~^2) of _margin_bound, exactly."""
    a, b, dd = Fraction(a), Fraction(b), Fraction(d) ** 2
    A_abs = 5 + dd + (a * a + b * b) / 2
    p_abs = 3 + dd + abs(a * b)
    q_abs = abs(b) + 3 * abs(a)
    s = A_abs + p_abs + q_abs
    return gamma(3) * A_abs, gamma(9) * s * s, gamma(8) * (p_abs * p_abs + q_abs * q_abs)


def near_a_slack_zero(rng: random.Random) -> tuple[float, float, float]:
    """A seeded (a, b, d) a few ulps from A = 0, from A^2 = B or from B = 0,
    the last two with couplings up to about 1e150, or anywhere at that scale."""
    kind = rng.randrange(4)
    scale = 10.0 ** rng.uniform(0.0, 150.0)
    if kind == 0:  # A = 0: the circle a^2 + b^2 = 10 - 2 d^2
        d, theta = rng.uniform(0.0, math.sqrt(5.0)), rng.uniform(0.0, 2.0 * math.pi)
        r = math.sqrt(10.0 - 2.0 * d * d)
        a, b = r * math.cos(theta), r * math.sin(theta)
    elif kind == 1:  # A^2 = B: (2 + sigma delta)^2 = d^2 (4 - sigma^2)
        sigma, d = rng.uniform(-2.0, 2.0), scale * rng.random()
        delta = (-2.0 + rng.choice((-1.0, 1.0)) * d * math.sqrt(4.0 - sigma * sigma)) / sigma
        a, b = sigma + delta, sigma - delta
    elif kind == 2:  # B = 0: d^2 = (b + 3)(a - 1), or its mirror (-a, -b)
        a, d = 1.0 + scale * rng.uniform(-1.0, 1.0), scale * rng.random()
        a, b = rng.choice((-1.0, 1.0)) * a, rng.choice((-1.0, 1.0)) * (d * d / (a - 1.0) - 3.0)
    else:
        a, b, d = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 150.0) for _ in range(3))
    point = []
    for x in (a, b, d):
        for _ in range(rng.randint(0, 8)):
            x = math.nextafter(x, rng.choice((-math.inf, math.inf)))
        point.append(x)
    return tuple(point)


def test_verdicts_agree_with_the_exact_slacks():
    # Outside means some exact slack is negative, and inside off the boundary
    # means all are positive.  A slack below minus twice its rounding bound
    # makes the point outside, and each float slack is within its bound.
    rng = random.Random(26)
    for _ in range(3000):
        a, b, d = near_a_slack_zero(rng)
        v = in_domain(a, b, d)
        exact = exact_slacks(a, b, d)
        if not v.inside:
            assert min(exact) < 0, (a, b, d)
        elif not v.on_boundary:
            assert min(exact) > 0, (a, b, d)
        slacks = (v.A, v.A * v.A - v.B, v.B)
        for got, want, bound, gamma_bound in zip(
            slacks, exact, _margin_bound(a, b, d), exact_rounding_bounds(a, b, d)
        ):
            if want < -2 * gamma_bound:
                assert not v.inside, (a, b, d)
            if math.isfinite(bound):
                assert gamma_bound <= Fraction(bound) <= 2 * gamma_bound
            if math.isfinite(got):
                assert abs(Fraction(got) - want) <= gamma_bound, (a, b, d)


def mp_ray_exit(ux: float, uy: float, d: float):
    """First exit from D along t -> (t ux, t uy) at 50 digits.

    Each of the margin's three pieces A, A^2 - B and B is a polynomial of
    degree <= 2 in tau = t^2, so its roots are exact square roots.  Returns
    the exit, the length of the outside stretch after it (up to t = 1000)
    and how far the rounding of the float margin can move the exit: 8 unit
    roundoffs of the binding piece evaluated on absolute values (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1) over
    the piece's slope.
    """
    with mpmath.workdps(50):
        u, v, dd = mpmath.mpf(ux), mpmath.mpf(uy), mpmath.mpf(d) ** 2
        n, s, w, k, e = u * u + v * v, u * v, v - 3 * u, dd + 3, 5 - dd
        pieces = [
            [0, -n / 2, e],
            [n * n / 4 - s * s, 2 * s * k + w * w - n * e, e * e - k * k],
            [s * s, -2 * s * k - w * w, k * k],
        ]
        knots = [mpmath.mpf(0), mpmath.mpf(1000)]
        for p2, p1, p0 in pieces:
            disc = p1 * p1 - 4 * p2 * p0
            if p2 == 0:
                taus = [-p0 / p1]
            elif disc >= 0:
                taus = [(-p1 + sign * mpmath.sqrt(disc)) / (2 * p2) for sign in (1, -1)]
            else:
                taus = []
            knots += [mpmath.sqrt(tau) for tau in taus if 0 < tau < 10**6]
        knots.sort()

        def outside(i):
            tau = ((knots[i] + knots[i + 1]) / 2) ** 2
            return min(mpmath.polyval(p, tau) for p in pieces) < 0

        first = next(i for i in range(len(knots) - 1) if outside(i))
        last = next((i for i in range(first, len(knots) - 1) if not outside(i)), -1)
        t = knots[first]
        piece = min(pieces, key=lambda p: abs(mpmath.polyval(p, t * t)))
        slope = 2 * t * mpmath.polyval([2 * piece[0], piece[1]], t * t)
        a, b = t * u, t * v
        A_abs = 5 + dd + (a * a + b * b) / 2
        B_abs = (dd + abs(a * b) + 3) ** 2 + (abs(b) + 3 * abs(a)) ** 2
        terms = [A_abs, A_abs**2 + B_abs, B_abs][pieces.index(piece)]
        return t, knots[last] - t, 8 * terms * mpmath.mpf(2) ** -53 / abs(slope)


def test_boundary_ray_is_the_50_digit_first_exit(monkeypatch):
    # The ray reports the parameter t that brentq returns.  Brent stops a
    # couple of ulps from where the float margin changes sign, and that
    # sign change sits within the margin's rounding of the exact exit;
    # on about one ray in ten the rounding moves it by more than 2 ulps.
    found = []

    def recording_brentq(f, a, b, fa, fb):
        found.append(brentq(f, a, b, fa, fb))
        return found[-1]

    monkeypatch.setattr(quasih.domain, "brentq", recording_brentq)
    rng = np.random.default_rng(20070315)
    checked = 0
    for angle, d in zip(rng.uniform(0.0, 2.0 * math.pi, 200), rng.uniform(0.1, 0.9, 200)):
        direction = (math.cos(angle), math.sin(angle))
        norm = math.hypot(*direction)
        ux, uy = direction[0] / norm, direction[1] / norm
        exit_t, stretch, slack = mp_ray_exit(ux, uy, d)
        if stretch <= 0.25:
            continue
        found.clear()
        a, b = boundary_trace_ray((0.0, 0.0), direction, d)
        (t,) = found
        assert (a, b) == (t * ux, t * uy)
        assert abs(t - exit_t) <= 2 * math.ulp(t) + slack
        checked += 1
    assert checked >= 190


def test_boundary_ray_outside_center_rejected():
    with pytest.raises(ValueError, match="ray center lies outside the domain"):
        boundary_trace_ray((0.0, 0.0), (1.0, 0.0), 3.0)
    # at d = sqrt(3) the slice b = 0 of the domain is just the two
    # vertices a = +-2; the origin itself lies outside
    with pytest.raises(ValueError, match="ray center lies outside the domain"):
        boundary_trace_ray((0.0, 0.0), (1.0, 0.0), math.sqrt(3.0))


@pytest.mark.parametrize("direction", [(1.7e308, 1.7e308), (-1.7976931348623157e308, 1e308)])
@pytest.mark.parametrize("center, d", [((0.0, 0.0), 0.5), ((0.3, -0.2), 0.9)])
def test_boundary_ray_direction_whose_norm_overflows(direction, center, d):
    # hypot overflowed to inf, the unit direction came out as (0, 0) and the
    # march never moved.  Quartering is exact, so the ray is that of the
    # quartered direction bit for bit.
    quartered = (0.25 * direction[0], 0.25 * direction[1])
    assert math.isfinite(math.hypot(*quartered))
    assert boundary_trace_ray(center, direction, d) == boundary_trace_ray(center, quartered, d)


def test_boundary_ray_ends_in_the_disk_within_100_margins(monkeypatch):
    # The margin is negative outside the disk A >= 0 of radius
    # sqrt(10 - 2 d^2), so a march from an inside center ends in it, however
    # small or large the direction's components: no length guard is needed.
    calls = 0

    def counting_in_domain(a, b, d):
        nonlocal calls
        calls += 1
        return in_domain(a, b, d)

    monkeypatch.setattr(quasih.domain, "in_domain", counting_in_domain)
    rng = random.Random(20070316)
    extremes = (5e-324, 1e-300, 1.0, 1.7e308, 1.7976931348623157e308)

    def component():
        magnitude = rng.choice(extremes) if rng.random() < 0.4 else 10.0 ** rng.uniform(-323, 308)
        return rng.choice((-1.0, 1.0)) * magnitude

    rays = 0
    while rays < 2000:
        d = rng.uniform(0.0, 2.2)
        center = (rng.uniform(-3.2, 3.2), rng.uniform(-3.2, 3.2))
        if not in_domain(*center, d).inside:
            continue
        calls = 0
        a, b = boundary_trace_ray(center, (component(), component()), d)
        assert a * a + b * b <= 10.0 - 2.0 * d * d
        assert calls < 100
        rays += 1


#: Pinned geometry: (d^2, (coef_c, t) of a spike) per case.  The 16 ray
#: directions have exact components, and at these d^2 no ray from the
#: origin re-enters D after its first exit, so the march's known overshoot
#: of thin outside slivers plays no part.
GEOMETRY_CASES = (
    (0.25, (-0.75, 0.1)), (0.45, (-0.25, 0.05)), (0.65, (0.3, 0.15)), (0.85, (0.8, 0.02))
)
PIN_DIRECTIONS = (
    (2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1),
    (3, 1), (1, 3), (-1, 3), (-3, 1), (-3, -1), (-1, -3), (1, -3), (3, -1),
)
GEOMETRY_PINS = Path(__file__).resolve().parent / "geometry_pins.json"


def geometry_pins() -> dict:
    """PMN points, ray exits from the origin and spike edges of each
    GEOMETRY_CASES entry, every float as float.hex.  After an intended
    change, write json.dumps(geometry_pins(), indent=1) to GEOMETRY_PINS."""
    pins = {}
    for d2, spike in GEOMETRY_CASES:
        d = math.sqrt(d2)
        pins[repr(d2)] = {
            "pmn_points": [
                [x.hex() for x in (p.a, p.b, p.d, *p.residuals)] for p in pmn_points(d2)
            ],
            "ray_exits": [
                [x.hex() for x in boundary_trace_ray((0.0, 0.0), u, d)] for u in PIN_DIRECTIONS
            ],
            "spike_band_edges": [x.hex() for x in spike_band_edges(*spike)],
        }
    return pins


def test_geometry_outputs_are_pinned_bit_for_bit():
    assert geometry_pins() == json.loads(GEOMETRY_PINS.read_text())


def test_scan_grid_small_inside():
    grid = scan_grid((-0.5, 0.5), (-0.5, 0.5), 0.0, (3, 3))
    assert grid.inside.shape == (3, 3)
    assert grid.inside.all()


def test_scan_grid_single_point_matches_in_domain():
    grid = scan_grid((0.3, 0.3), (-0.2, -0.2), 0.5, (1, 1))
    v = in_domain(0.3, -0.2, 0.5)
    assert (grid.A[0, 0], grid.B[0, 0], grid.margin[0, 0]) == (v.A, v.B, v.margin)
    assert grid.inside[0, 0] == v.inside
    assert grid.on_boundary[0, 0] == v.on_boundary


def test_scan_grid_inside_region_contained_in_circle_and_B_region():
    d2 = 8.0 / 5.0
    d = math.sqrt(d2)
    grid = scan_grid((-4, 4), (-4, 4), d, (41, 41))
    a, b = np.meshgrid(grid.a_values, grid.b_values, indexing="ij")
    inside = grid.inside
    assert inside.sum() > 0
    assert np.all(a[inside] ** 2 + b[inside] ** 2 <= 10 - 2 * d2 + 1e-9)
    assert np.all(grid.B[inside] >= -1e-9)


@settings(max_examples=200, deadline=None)
@given(
    a_range=st.tuples(finite4, finite4),
    b_range=st.tuples(finite4, finite4),
    d=st.floats(min_value=0, max_value=2.5),
    resolution=st.tuples(st.integers(1, 6), st.integers(1, 6)),
)
def test_scan_grid_cells_equal_scalar_in_domain(a_range, b_range, d, resolution):
    grid = scan_grid(a_range, b_range, d, resolution)
    for i, a in enumerate(grid.a_values.tolist()):
        for j, b in enumerate(grid.b_values.tolist()):
            v = in_domain(a, b, d)
            cell = (grid.A[i, j], grid.B[i, j], grid.margin[i, j])
            assert [float(x).hex() for x in cell] == [x.hex() for x in (v.A, v.B, v.margin)]
            assert grid.inside[i, j] == v.inside
            assert grid.on_boundary[i, j] == v.on_boundary


def per_cell_csv(grid) -> str:
    """Reference: one row (a, b, inside, margin) per cell, a-major, each
    cell formatted on its own."""
    lines = ["a,b,inside,margin"]
    for i, a in enumerate(grid.a_values.tolist()):
        for j, b in enumerate(grid.b_values.tolist()):
            inside = "1" if grid.inside[i, j] else "0"
            lines.append(f"{a:.17g},{b:.17g},{inside},{float(grid.margin[i, j]):.17g}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(
    a_range=st.tuples(finite4, finite4),
    b_range=st.tuples(finite4, finite4),
    d=st.floats(min_value=0, max_value=2.5),
    resolution=st.tuples(st.integers(1, 9), st.integers(1, 9)),
)
# Axes through -0.0 and 0.0, which print as "-0" and "0".
@example(a_range=(2.0, -0.0), b_range=(-1.0, 1.0), d=0.5, resolution=(3, 5))
@example(a_range=(0.0, -0.0), b_range=(-0.0, 0.0), d=0.0, resolution=(2, 2))
def test_scan_csv_equals_per_cell_rows(a_range, b_range, d, resolution):
    args = argparse.Namespace(d2=d * d, range=(*a_range, *b_range), res=resolution)
    grid = scan_grid(a_range, b_range, math.sqrt(d * d), resolution)
    assert quasih.cli._cmd_scan(args) == per_cell_csv(grid)


def test_scan_grid_rejects_zero_size():
    with pytest.raises(ValueError):
        scan_grid((-1, 1), (-1, 1), 0.0, (0, 3))


def test_scan_grid_rejects_non_finite_inputs():
    with pytest.raises(ValueError, match="a must be finite"):
        scan_grid((-math.inf, 1), (-1, 1), 0.0, (3, 3))
    with pytest.raises(ValueError, match="b must be finite"):
        scan_grid((-1, 1), (-1, math.nan), 0.0, (3, 3))
    with pytest.raises(ValueError, match="d must be finite"):
        scan_grid((-1, 1), (-1, 1), math.inf, (3, 3))


def test_figure1_geometry_reference_case():
    geo = figure1_geometry(1.6)
    assert geo["circle_radius"] == pytest.approx(math.sqrt(6.8), abs=1e-15)
    centers = {h["center"] for h in geo["hyperbolas"]}
    assert centers == {(1.0, -3.0), (-1.0, 3.0)}
    assert len(geo["intersections"]) == 4
    for p in geo["intersections"]:
        assert abs(p.a * p.a + p.b * p.b - 6.8) <= 1e-9
        ah, bh = hyperbola_factors(p.a, p.b)
        assert min(abs(1.6 - ah), abs(1.6 - bh)) <= 1e-9


def test_figure1_branches_lie_on_their_locus():
    geo = figure1_geometry(0.9)
    for hyp, which in zip(geo["hyperbolas"], (0, 1)):
        for branch in hyp["branches"]:
            for a, b in branch[::50]:
                assert abs(hyperbola_factors(a, b)[which] - 0.9) < 1e-9


@pytest.mark.parametrize("d2", [0.05, 0.9, 1.6, 2.5, 4.9])
def test_figure1_polylines_take_numpy_geomspace_steps(d2):
    # The same operations as np.geomspace in plain floats: equal up to the
    # last-bit differences of numpy's SIMD log10 and power, exact at the ends.
    u = np.geomspace(d2 / 18.0, 8.0, 400).tolist()
    for hyp in figure1_geometry(d2)["hyperbolas"]:
        a0, b0 = hyp["center"]
        for s, branch in zip((1.0, -1.0), hyp["branches"]):
            assert len(branch) == 400
            assert branch[0] == [a0 + s * u[0], b0 + d2 / (s * u[0])]
            assert branch[-1] == [a0 + s * u[-1], b0 + d2 / (s * u[-1])]
            for (a, _), x in zip(branch, u):
                # u off by an ulp of u, then each sum rounded once.
                assert abs(a - (a0 + s * x)) <= math.ulp(x) + 2.0 * math.ulp(a0 + s * x)
