"""Quasi-Hermiticity domain of the c^2 = d^2 model.

Membership is decided by the two reality conditions A >= 0 and
A^2 >= B >= 0 on the biquadratic invariants, each slack tested against
its own rounding bound; the margin reported by :func:`in_domain` is the
smallest of the three slacks, so the boundary is the margin's zero set.
The points of maximal non-Hermiticity (PMN), where all four energies
merge at zero, are the intersections of the circle
a^2 + b^2 = 10 - 2 d^2 with the two hyperbolas d^2 = (b+3)(a-1) and
d^2 = (b-3)(a+1).  They are the real roots of one quartic, found by
:func:`quasih.exact.real_roots`; a boundary ray's march brackets its exit,
which :func:`quasih.exact.brentq` refines.  All of this, the figure
polylines included, is plain float and integer arithmetic; only the grid
scan uses numpy, which it imports when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from quasih.exact import brentq, polymul, real_roots
from quasih.model import _require_finite
from quasih.secular import _reduced_AB, constant_term


class DomainVerdict(NamedTuple):
    """Verdict of :func:`in_domain`: the slacks and flags as a named tuple, in
    the order of :func:`_margins` and of :class:`GridScan`'s arrays."""

    A: float
    B: float
    margin: float
    inside: bool
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

    ``A``, ``B``, ``margin``, ``inside`` and ``on_boundary`` have shape
    (len(a_values), len(b_values)); cell [i, j] holds the :func:`in_domain`
    verdict at (a_values[i], b_values[j]).
    """

    a_values: np.ndarray
    b_values: np.ndarray
    A: np.ndarray
    B: np.ndarray
    margin: np.ndarray
    inside: np.ndarray
    on_boundary: np.ndarray


def in_domain(a: float, b: float, d: float) -> DomainVerdict:
    """Decide whether (a, b, d) lies in the quasi-Hermiticity domain.

    Outside only if one of the float slacks A, A^2 - B and B is below minus
    its own rounding bound (:func:`_margin_bound`), so that exact slack is
    negative; on the boundary if it is inside and some slack is within its
    bound, so the exact margin min(A, A^2 - B, B) may be zero.  One test
    guards the arguments: a + b + d is not finite if any of them is not.
    """
    if not math.isfinite(a + b + d):
        _require_finite(a=a, b=b, d=d)
    return tuple.__new__(DomainVerdict, _margins(a, b, d, min))


def _margins(a, b, d, minimum):
    """A, B, margin, inside, on_boundary of :func:`in_domain` at floats (with
    min) or arrays (np.minimum), bit for bit.  Where the bound on A^2 - B
    overflows, A is negative far beyond its rounding: outside."""
    A, B = _reduced_AB(a, b, d)
    AB = A * A - B
    bound_A, bound_AB, bound_B = _margin_bound(a, b, d)
    inside = (A >= -bound_A) & (AB >= -bound_AB) & (B >= -bound_B) & (bound_AB < math.inf)
    near = (A <= bound_A) | (AB <= bound_AB) | (B <= bound_B)  # within the bound, if inside
    return A, B, minimum(minimum(A, AB), B), inside, inside & near


def _margin_bound(a, b, d):
    """Bounds on the rounding errors of the float slacks A, A^2 - B and B of
    :func:`in_domain` at floats or arrays a, b, d (only +, * and abs: the
    same bits for both).

    A result of +, - and * with at most k roundings on any path is off by
    at most gamma_k = k u / (1 - k u), u = 2^-53, times the same sums and
    products of absolute values (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, sec. 3.1, Lemma 3.3; a product adds its
    operands' counts and 1, a sum takes the larger and 1).  In the order of
    :func:`quasih.secular._reduced_AB`, A takes 3 roundings with
    A~ = 5 + d^2 + (a^2 + b^2)/2, p = d^2 - ab + 3 takes 3 with
    p~ = 3 + d^2 + |ab| and q = b - 3a takes 2 with q~ = |b| + 3|a|, so
    B = p^2 - q^2 takes 8 and A^2 - B takes 9.  The slacks A, A^2 - B and
    B are off by at most gamma_3 A~, gamma_9 s^2 with s = A~ + p~ + q~, and
    gamma_8 (p~^2 + q~^2).  In floats (at most 12 roundings of non-negative
    terms) 4 u A~, 10 u s^2 and 9 u (p~^2 + q~^2) exceed 3.99 u A~,
    9.99 u s^2 and 8.99 u (p~^2 + q~^2), and the spares, at least 4 u,
    cover underflow.  Each slack needs its own bound: gamma_9 s^2 grows as
    the fourth power of the couplings, so against it alone a point with
    A = -5e15, at (a, b, d) = (0, 1e8, 0.5), counted as inside.
    """
    dd = d * d
    A_abs = 5.0 + dd + 0.5 * (a * a + b * b)
    p_abs = 3.0 + dd + abs(a * b)
    q_abs = abs(b) + 3.0 * abs(a)
    s = A_abs + p_abs + q_abs
    return (
        4.0 * 2.0**-53 * A_abs,
        10.0 * 2.0**-53 * s * s,
        9.0 * 2.0**-53 * (p_abs * p_abs + q_abs * q_abs),
    )


def pmn_points(d2: float) -> list[PMNPoint]:
    """All PMN points in the a-b plane for a fixed d^2 in (0, 5).

    On the circle of radius r = sqrt(10 - 2 d^2), written rationally as
    a = r (1 - u^2)/(1 + u^2), b = 2 r u/(1 + u^2), the hyperbola
    d^2 = (b+3)(a-1) is the quartic
    (3u^2 + 2ru + 3)((-r-1)u^2 + r - 1) - d^2 (1 + u^2)^2 = 0, whose real
    roots :func:`quasih.exact.real_roots` isolates; its leading coefficient
    -3(r+1) - d^2 never vanishes, so no point sits at u = inf.  The points
    on d^2 = (b-3)(a+1) are the exact negations (-a, -b).  The circle
    touches the hyperbolas at d^2 = (207 -+ 33 sqrt(33))/128 (0.1361674
    and 3.0982076): there are 8 points below the first, 4 between them
    and none above the second.  A point of tangency is reported only if
    the quartic vanishes there in floating point.
    """
    if not 0.0 < d2 < 5.0:
        raise ValueError("d2 must lie in (0, 5)")
    r = math.sqrt(10.0 - 2.0 * d2)
    d = math.sqrt(d2)
    product = polymul([3.0, 2.0 * r, 3.0], [-r - 1.0, 0.0, r - 1.0])
    quartic = [x - y for x, y in zip(product, [d2, 0.0, 2.0 * d2, 0.0, d2])]
    points = []
    for u in real_roots(quartic, -math.inf, math.inf):
        a, b = r * (1.0 - u * u) / (1.0 + u * u), 2.0 * r * u / (1.0 + u * u)
        for a, b in ((a, b), (-a, -b)):
            residuals = (a * a + b * b + 2.0 * d2 - 10.0, 0.0, constant_term(a, b, d, d))
            points.append(PMNPoint(a=a, b=b, d=d, residuals=residuals))
    return sorted(points, key=lambda p: (p.a, p.b))


def boundary_trace_ray(
    center: tuple[float, float], direction: tuple[float, float], d: float
) -> tuple[float, float]:
    """First boundary crossing along a ray from an interior point.

    Marches outward in steps of 0.25 until the membership margin changes
    sign and refines that bracket with :func:`quasih.exact.brentq`; a
    center inside by the rounding bound but with a negative margin is its
    own crossing if the first step is outside too.  The margin is negative
    outside the disk A >= 0, a^2 + b^2 <= 10 - 2 d^2 of radius at most
    sqrt(10), so the march ends within about 27 steps.  A direction whose
    norm overflows is quartered first, exactly.  Raises ValueError if the
    center is outside.
    """
    a0, b0 = center
    dx, dy = direction
    _require_finite(dx=dx, dy=dy)
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise ValueError("direction must be non-zero")
    if norm == math.inf:
        dx, dy = 0.25 * dx, 0.25 * dy
        norm = math.hypot(dx, dy)
    dx, dy = dx / norm, dy / norm

    verdict = in_domain(a0, b0, d)
    if not verdict.inside:
        raise ValueError("ray center lies outside the domain")
    m0 = verdict.margin

    def margin(t: float) -> float:
        return in_domain(a0 + t * dx, b0 + t * dy, d).margin

    # Bracket the first sign change by outward marching.  a0 + 0.0 * dx
    # equals a0, so m0 is the margin at t = 0.
    t_lo, t_hi, m_lo = 0.0, 0.25, m0
    while not (m_hi := margin(t_hi)) < 0.0:
        t_lo, t_hi, m_lo = t_hi, t_hi + 0.25, m_hi

    t_star = 0.0 if t_lo == 0.0 and m0 < 0.0 else brentq(margin, t_lo, t_hi, m_lo, m_hi)
    return (a0 + t_star * dx, b0 + t_star * dy)


def scan_grid(
    a_range: tuple[float, float],
    b_range: tuple[float, float],
    d: float,
    resolution: tuple[int, int],
) -> GridScan:
    """Membership grid over a rectangle in the a-b plane at fixed d.

    Rows run over a, columns over b.  The grid is evaluated in one numpy
    broadcast, and every cell equals the scalar :func:`in_domain` verdict
    bit for bit.
    """
    import numpy as np

    na, nb = resolution
    if na < 1 or nb < 1:
        raise ValueError("resolution counts must be >= 1")
    _require_finite(a=a_range[0], b=b_range[0], d=d)
    _require_finite(a=a_range[1], b=b_range[1])
    a_values = np.linspace(a_range[0], a_range[1], na)
    b_values = np.linspace(b_range[0], b_range[1], nb)
    cells = _margins(a_values[:, None], b_values[None, :], d, np.minimum)
    return GridScan(a_values, b_values, *cells)


def _hyperbola_polyline(center: tuple[float, float], d2: float) -> list[list[list[float]]]:
    """Two branches of the locus d^2 = (b - b0)(a - a0) as polylines.

    Parameterized as a = a0 + u, b = b0 + d2/u with branch parameter
    u != 0; the two signs of u give the two branches, each a list of 400
    [a, b] points with |u| geometric from d2/18 to 8.  The steps are those
    of numpy.geomspace (10 ** (k * step + log10(d2/18)), exact ends) in
    plain floats, so the bits do not depend on numpy's SIMD kernels.
    """
    a0, b0 = center
    lo, hi = d2 / 18.0, 8.0
    log_lo = math.log10(lo)
    step = (math.log10(hi) - log_lo) / 399
    u = [lo, *(10.0 ** (k * step + log_lo) for k in range(1, 399)), hi]
    return [[[a0 + s * x, b0 + d2 / (s * x)] for x in u] for s in (1.0, -1.0)]


def figure1_geometry(d2: float) -> dict:
    """Geometry of the PMN construction at fixed d^2.

    Returns the circle radius sqrt(10 - 2 d^2), 400-point polylines
    (lists of [a, b] pairs) of each branch of the two hyperbola loci
    d^2 = (b+3)(a-1) and d^2 = (b-3)(a+1) (asymptotes crossing at (1, -3)
    and (-1, 3)), and the circle-hyperbola intersections, which are
    :func:`pmn_points`.
    """
    intersections = pmn_points(d2)
    hyperbolas = [
        {"locus": locus, "center": center, "branches": _hyperbola_polyline(center, d2)}
        for locus, center in (("alpha_hyp", (1.0, -3.0)), ("beta_hyp", (-1.0, 3.0)))
    ]
    return {
        "circle_radius": math.sqrt(10.0 - 2.0 * d2),
        "hyperbolas": hyperbolas,
        "intersections": intersections,
    }
