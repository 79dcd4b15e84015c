"""Quasi-Hermiticity domain of the c^2 = d^2 model.

Membership is decided by the two reality conditions A >= 0 and
A^2 >= B >= 0 on the biquadratic invariants; the margin reported by
:func:`in_domain` is the smallest of the three slacks, so the boundary is
the margin's zero set.  The points of maximal non-Hermiticity (PMN), where
all four energies merge at zero, are the intersections of the circle
a^2 + b^2 = 10 - 2 d^2 with the two hyperbolas d^2 = (b+3)(a-1) and
d^2 = (b-3)(a+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quasih.model import _require_finite, _require_positive
from quasih.secular import _reduced_AB, constant_term, hyperbola_factors, reduced_AB

#: Default absolute tolerance on the membership margin.
DEFAULT_MARGIN_TOL = 1e-9

#: Hard cap on bisection steps in boundary tracing.
BISECTION_MAX_STEPS = 200


class BoundaryTraceError(RuntimeError):
    """Raised when a boundary ray search finds no sign change."""


@dataclass(frozen=True)
class DomainVerdict:
    """Membership verdict with the constraint slacks behind it."""

    inside: bool
    A: float
    B: float
    margin: float
    on_boundary: bool


@dataclass(frozen=True)
class PMNPoint:
    """A point of maximal non-Hermiticity in the a-b plane at fixed d.

    ``residuals`` collects the defects of the sphere condition
    a^2 + b^2 + 2 d^2 - 10, of the linear-term condition c^2 - d^2
    (identically zero here since c = d), and of C(a, b, d, d).
    """

    a: float
    b: float
    d: float
    residuals: tuple[float, float, float]


@dataclass(frozen=True)
class GridScan:
    """Membership over an (a, b) rectangle at fixed d, as arrays.

    ``A``, ``B``, ``margin`` and ``inside`` have shape (len(a_values),
    len(b_values)); cell [i, j] holds the :func:`in_domain` verdict at
    (a_values[i], b_values[j]).
    """

    a_values: np.ndarray
    b_values: np.ndarray
    A: np.ndarray
    B: np.ndarray
    margin: np.ndarray
    inside: np.ndarray


def in_domain(
    a: float, b: float, d: float, tol: float = DEFAULT_MARGIN_TOL
) -> DomainVerdict:
    """Decide whether (a, b, d) lies in the quasi-Hermiticity domain.

    Inside means A >= -tol, A^2 - B >= -tol and B >= -tol; the margin is
    min(A, A^2 - B, B) and |margin| <= tol flags a boundary point.
    """
    _require_positive(tolerance=tol)
    A, B = reduced_AB(a, b, d)
    margin = min(A, A * A - B, B)
    return DomainVerdict(
        inside=margin >= -tol,
        A=A,
        B=B,
        margin=margin,
        on_boundary=abs(margin) <= tol,
    )


def in_domain_rotated(sigma: float, delta: float, d: float) -> bool:
    """The A^2 >= B condition in rotated coordinates.

    Returns (2 + sigma*delta)^2 >= d^2 (4 - sigma^2).  With
    sigma = (a+b)/2 and delta = (a-b)/2 this is exactly A^2 - B >= 0
    (the two sides differ by the positive factor 4).  For |sigma| >= 2
    the right side is non-positive and the condition always holds.
    """
    _require_finite(sigma=sigma, delta=delta, d=d)
    return (2.0 + sigma * delta) ** 2 >= d * d * (4.0 - sigma * sigma)


def brentq(f, a, b, **kwargs):
    """scipy.optimize.brentq, imported on first use: the module takes
    longer to import than a grid scan takes to run."""
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(f, a, b, **kwargs)


def _circle_branch_roots(f, n_scan: int = 4096) -> list[float]:
    """Angles where f(theta) changes sign on [0, 2*pi)."""
    thetas = np.linspace(0.0, 2.0 * math.pi, n_scan, endpoint=False)
    vals = np.array([f(t) for t in thetas])
    roots = []
    for i in range(n_scan):
        j = (i + 1) % n_scan
        t0, t1 = thetas[i], thetas[i] + 2.0 * math.pi / n_scan
        v0, v1 = vals[i], vals[j]
        if v0 == 0.0:
            roots.append(t0)
        elif v0 * v1 < 0.0:
            roots.append(brentq(f, t0, t1, xtol=1e-14))
    return roots


def pmn_points(d2: float, n_scan: int = 4096) -> list[PMNPoint]:
    """All PMN points in the a-b plane for a fixed d^2 in (0, 5).

    Intersects the centered circle of radius sqrt(10 - 2 d^2) with each
    hyperbola branch by a 1-D angular root search; the list may be empty
    when the circle misses both hyperbolas.  There are up to 8 points
    (8 for small d^2, e.g. d^2 = 0.1; 4 at d^2 = 1.6), and the set is
    symmetric under (a, b) -> (-a, -b).
    """
    if not 0.0 < d2 < 5.0:
        raise ValueError("d2 must lie in (0, 5)")
    r = math.sqrt(10.0 - 2.0 * d2)
    d = math.sqrt(d2)

    def factor(theta: float, which: int) -> float:
        a, b = r * math.cos(theta), r * math.sin(theta)
        return d2 - hyperbola_factors(a, b)[which]

    points = []
    for which in (0, 1):
        for theta in _circle_branch_roots(lambda t: factor(t, which), n_scan):
            a, b = r * math.cos(theta), r * math.sin(theta)
            points.append(
                PMNPoint(
                    a=a,
                    b=b,
                    d=d,
                    residuals=(
                        a * a + b * b + 2.0 * d2 - 10.0,
                        0.0,
                        constant_term(a, b, d, d),
                    ),
                )
            )
    return sorted(points, key=lambda p: (p.a, p.b))


def boundary_trace_ray(
    center: tuple[float, float],
    direction: tuple[float, float],
    d: float,
    tol: float = DEFAULT_MARGIN_TOL,
    max_length: float = 100.0,
) -> tuple[float, float]:
    """First boundary crossing along a ray from an interior point.

    Marches outward until the membership margin changes sign, then
    bisects (at most ``BISECTION_MAX_STEPS`` steps) to |margin| <= tol.
    Raises :class:`BoundaryTraceError` if the center is not inside or no
    sign change occurs within ``max_length``.
    """
    a0, b0 = center
    dx, dy = direction
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise ValueError("direction must be non-zero")
    dx, dy = dx / norm, dy / norm

    def margin(t: float) -> float:
        return in_domain(a0 + t * dx, b0 + t * dy, d, tol).margin

    if margin(0.0) < -tol:
        raise BoundaryTraceError("ray center lies outside the domain")

    # Bracket the first sign change by outward marching.
    step, t_lo = max_length / 400.0, 0.0
    t_hi = None
    t = step
    while t <= max_length:
        if margin(t) < 0.0:
            t_hi = t
            break
        t_lo = t
        t += step
    if t_hi is None:
        raise BoundaryTraceError("no boundary crossing within ray length")

    for _ in range(BISECTION_MAX_STEPS):
        t_mid = 0.5 * (t_lo + t_hi)
        m = margin(t_mid)
        if abs(m) <= tol:
            t_lo = t_hi = t_mid
            break
        if m < 0.0:
            t_hi = t_mid
        else:
            t_lo = t_mid
    t_star = 0.5 * (t_lo + t_hi)
    return (a0 + t_star * dx, b0 + t_star * dy)


def scan_grid(
    a_range: tuple[float, float],
    b_range: tuple[float, float],
    d: float,
    resolution: tuple[int, int],
    tol: float = DEFAULT_MARGIN_TOL,
) -> GridScan:
    """Membership grid over a rectangle in the a-b plane at fixed d.

    Rows run over a, columns over b.  The grid is evaluated in one numpy
    broadcast, and every cell equals the scalar :func:`in_domain` verdict
    bit for bit.
    """
    na, nb = resolution
    if na < 1 or nb < 1:
        raise ValueError("resolution counts must be >= 1")
    _require_positive(tolerance=tol)
    _require_finite(a=a_range[0], b=b_range[0], d=d)
    _require_finite(a=a_range[1], b=b_range[1])
    a_values = np.linspace(a_range[0], a_range[1], na)
    b_values = np.linspace(b_range[0], b_range[1], nb)
    A, B, margin = _margins(a_values[:, None], b_values[None, :], d)
    return GridScan(a_values, b_values, A, B, margin, margin >= -tol)


def _margins(a, b, d):
    """A, B and :func:`in_domain`'s margin over arrays, cell for cell bit-identical."""
    A, B = _reduced_AB(a, b, d)
    return A, B, np.minimum(np.minimum(A, A * A - B), B)


def _hyperbola_polyline(
    center: tuple[float, float], d2: float, n: int, u_max: float
) -> list[np.ndarray]:
    """Two branches of the locus d^2 = (b - b0)(a - a0) as polylines.

    Parameterized as a = a0 + u, b = b0 + d2/u with branch parameter
    u != 0; the two signs of u give the two branches.
    """
    a0, b0 = center
    u_min = d2 / (u_max + 10.0)
    branches = []
    for s in (1.0, -1.0):
        u = s * np.geomspace(u_min, u_max, n)
        a = a0 + u
        b = b0 + d2 / u
        branches.append(np.column_stack([a, b]))
    return branches


def figure1_geometry(d2: float, n_samples: int = 400) -> dict:
    """Geometry of the PMN construction at fixed d^2.

    Returns the circle radius sqrt(10 - 2 d^2), polyline samples of the
    two hyperbola loci d^2 = (b+3)(a-1) and d^2 = (b-3)(a+1) (centers
    (-1, 3) and (1, -3)), and the circle-hyperbola intersections.
    """
    if not 0.0 < d2 < 5.0:
        raise ValueError("d2 must lie in (0, 5)")
    radius = math.sqrt(10.0 - 2.0 * d2)
    # d^2 = (b+3)(a-1) has asymptote crossing (1, -3); d^2 = (b-3)(a+1)
    # has (-1, 3).
    hyperbolas = [
        {
            "locus": "alpha_hyp",
            "center": (1.0, -3.0),
            "branches": _hyperbola_polyline((1.0, -3.0), d2, n_samples, 8.0),
        },
        {
            "locus": "beta_hyp",
            "center": (-1.0, 3.0),
            "branches": _hyperbola_polyline((-1.0, 3.0), d2, n_samples, 8.0),
        },
    ]
    return {
        "circle_radius": radius,
        "hyperbolas": hyperbolas,
        "intersections": pmn_points(d2),
    }
