import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasih import (
    Reality,
    boundary_trace_ray,
    closed_form_energies,
    constant_term,
    figure1_geometry,
    hyperbola_factors,
    in_domain,
    in_domain_rotated,
    pmn_points,
    quartic_energies,
    reduced_AB,
    scan_grid,
)
from quasih.domain import DEFAULT_MARGIN_TOL, BoundaryTraceError

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


def test_large_d_is_outside():
    v = in_domain(0.0, 0.0, 3.0)
    assert not v.inside
    assert v.A == -4.0
    # cross-check: the spectrum there is entirely complex
    assert closed_form_energies(0, 0, 3).classification is Reality.COMPLEX_PAIRS


def test_rotated_origin_condition():
    # at sigma = delta = 0 the condition reads 4 >= 4 d^2
    assert in_domain_rotated(0, 0, 0.99)
    assert in_domain_rotated(0, 0, 1.0)
    assert not in_domain_rotated(0, 0, 1.01)
    # matches the A^2 >= B slack of in_domain(0, 0, d)
    A, B = reduced_AB(0, 0, 0.99)
    assert A * A >= B
    A, B = reduced_AB(0, 0, 1.01)
    assert A * A < B


@given(sigma=st.floats(min_value=2, max_value=10), delta=finite4, d=finite4)
def test_rotated_always_true_for_large_sigma(sigma, delta, d):
    assert in_domain_rotated(sigma, delta, d)
    assert in_domain_rotated(-sigma, delta, d)


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
        assert in_domain_rotated(sigma, delta, d) == (rhs >= 0)


@settings(max_examples=150)
@given(a=finite4, b=finite4, d=finite4)
def test_membership_iff_spectral_reality(a, b, d):
    tol = 1e-9
    v = in_domain(a, b, d, tol)
    real = closed_form_energies(a, b, d, tol).classification in (
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
    for d2 in (0.5, 1.6, 3.0, 4.9):
        points = pmn_points(d2)
        assert len(points) in (0, 2, 4)
        for p in points:
            mirror = min(
                math.hypot(q.a + p.a, q.b + p.b) for q in points
            )
            assert mirror < 1e-9


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
    assert a == pytest.approx(1.0, abs=1e-6)


def test_boundary_ray_at_moderate_d():
    # at d = 0.5 the first constraint to fail along b = 0 is B:
    # (0.25 + 3)^2 - 9 a^2 = 0 at a = 3.25/3
    a, b = boundary_trace_ray((0.0, 0.0), (1.0, 0.0), 0.5)
    assert b == 0.0
    assert a == pytest.approx(3.25 / 3.0, abs=1e-6)
    assert abs(in_domain(a, b, 0.5).margin) <= 1e-9


def test_boundary_ray_outside_center_rejected():
    with pytest.raises(BoundaryTraceError):
        boundary_trace_ray((0.0, 0.0), (1.0, 0.0), 3.0)
    # at d = sqrt(3) the slice b = 0 of the domain is just the two
    # vertices a = +-2; the origin itself lies outside
    with pytest.raises(BoundaryTraceError):
        boundary_trace_ray((0.0, 0.0), (1.0, 0.0), math.sqrt(3.0))


def test_scan_grid_small_inside():
    grid = scan_grid((-0.5, 0.5), (-0.5, 0.5), 0.0, (3, 3))
    assert grid.inside.shape == (3, 3)
    assert grid.inside.all()


def test_scan_grid_single_point_matches_in_domain():
    grid = scan_grid((0.3, 0.3), (-0.2, -0.2), 0.5, (1, 1))
    v = in_domain(0.3, -0.2, 0.5)
    assert (grid.A[0, 0], grid.B[0, 0], grid.margin[0, 0]) == (v.A, v.B, v.margin)
    assert grid.inside[0, 0] == v.inside
    assert (abs(grid.margin[0, 0]) <= DEFAULT_MARGIN_TOL) == v.on_boundary


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
    tol=st.sampled_from([1e-12, DEFAULT_MARGIN_TOL, 1e-3]),
)
def test_scan_grid_cells_equal_scalar_in_domain(a_range, b_range, d, resolution, tol):
    grid = scan_grid(a_range, b_range, d, resolution, tol)
    for i, a in enumerate(grid.a_values.tolist()):
        for j, b in enumerate(grid.b_values.tolist()):
            v = in_domain(a, b, d, tol)
            cell = (grid.A[i, j], grid.B[i, j], grid.margin[i, j])
            assert [float(x).hex() for x in cell] == [x.hex() for x in (v.A, v.B, v.margin)]
            assert grid.inside[i, j] == v.inside


def test_scan_grid_rejects_zero_size():
    with pytest.raises(ValueError):
        scan_grid((-1, 1), (-1, 1), 0.0, (0, 3))


def test_scan_grid_rejects_bad_tolerance_and_non_finite_inputs():
    with pytest.raises(ValueError, match="tolerance must be positive"):
        scan_grid((-1, 1), (-1, 1), 0.0, (3, 3), tol=0.0)
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
