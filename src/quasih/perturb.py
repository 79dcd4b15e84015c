"""Small-coupling series of the band model and the spike expansion of the
domain boundary near its vertex.

The band energies admit the even series

    |E_3| = 3 - 2 alpha^2 - alpha^4 - (7/6) alpha^6 + O(alpha^8),
    |E_1| = 1 + alpha^4 + (3/2) alpha^6 + O(alpha^8),

which collide at the critical strength alpha = sqrt(2/5) where both pairs
merge at +-sqrt(13/5).

Near a vertex (a, c) = (+-2, +-sqrt(3)) of the two-parameter band model's
reality domain, the admissible parameters follow the ansatz

    a = a_vertex * (-1 + t + coef_a t^2 + O(t^3)),
    c = c_vertex * (-1 + t + coef_c t^2 + O(t^3)),   t >= 0,

and membership reduces to the band lower <= coef_a <= upper with

    lower = coef_c - 1/2 - coef_c t - coef_c^2 t^2 / 2        (exact),
    upper = coef_c + 8/9 + (16 coef_c / 9 + 80/81) t + O(t^2):

the domain is a narrow spike with the vertex at its tip.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

from quasih.domain import in_domain
from quasih.exact import polymul, real_roots
from quasih.model import _require_finite

#: Supported truncation orders of the band series.
SERIES_ORDERS = (2, 4, 6)

#: Coupling window of :func:`series_scaling_check` and its number of samples,
#: evenly spaced with the left end left out.
SERIES_WINDOW = (0.0, 0.25)
SERIES_SAMPLES = 50

#: Default policy bound on t max(1, |coef_c|) of the spike expansion.
SPIKE_T_MAX = 0.2

#: Magnitudes of the vertex coordinates (a, c) = (+-2, +-sqrt(3)).
A_VERTEX = 2.0
C_VERTEX = math.sqrt(3.0)

_E3_COEFFS = {2: -2.0, 4: -1.0, 6: -7.0 / 6.0}
_E1_COEFFS = {2: 0.0, 4: 1.0, 6: 1.5}


@dataclass(frozen=True)
class SeriesCheck:
    """Truncation-error summary of a series over a coupling window."""

    order: int
    coefficients: tuple[float, ...]
    max_abs_error_over_window: float
    window: tuple[float, float]


@dataclass(frozen=True)
class SpikeAnsatz:
    """Second-order boundary ansatz near one vertex of the spike.

    ``corner`` is the sign pair (sign of a, sign of c) selecting one of
    the four vertices; the default (-1, -1) is the lower-left one.  The
    expansion parameter t must be non-negative, and a t max(1, |coef_c|)
    beyond the policy bound only draws a warning (the series degrades
    gracefully).
    """

    t: float
    coef_a: float
    coef_c: float
    corner: tuple[int, int] = (-1, -1)

    def __post_init__(self):
        _require_finite(t=self.t, coef_a=self.coef_a, coef_c=self.coef_c)
        if self.t < 0.0:
            raise ValueError("spike parameter t must be non-negative")
        if self.corner[0] not in (-1, 1) or self.corner[1] not in (-1, 1):
            raise ValueError("corner must be a pair of signs (+-1, +-1)")
        # The first-order edge terms scale with coef_c t, so the bound is on
        # t max(1, |coef_c|).
        scale = max(1.0, abs(self.coef_c))
        if self.t * scale > SPIKE_T_MAX:
            times = "" if scale == 1.0 else f" times |coef_c|={scale}"
            # Level 3 is the caller of the dataclass's generated __init__.
            warnings.warn(
                f"t={self.t}{times} exceeds the policy bound {SPIKE_T_MAX}; "
                "second-order accuracy degrades",
                stacklevel=3,
            )


def _series(alpha: float, base: float, coeffs: dict, order: int) -> float:
    if order not in SERIES_ORDERS:
        raise ValueError(f"order must be one of {SERIES_ORDERS}")
    _require_finite(alpha=alpha)
    value = base
    try:
        for k in SERIES_ORDERS:
            if k > order:
                break
            value += coeffs[k] * alpha**k
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"alpha={alpha} overflows the order-{order} series")
    return value


def band_series_E3(alpha: float, order: int) -> float:
    """Truncated series for |E_3|: 3 - 2a^2 - a^4 - (7/6)a^6."""
    return _series(alpha, 3.0, _E3_COEFFS, order)


def band_series_E1(alpha: float, order: int) -> float:
    """Truncated series for |E_1|: 1 + a^4 + (3/2)a^6 (no quadratic term)."""
    return _series(alpha, 1.0, _E1_COEFFS, order)


def _band_exact(alpha: float, which: int) -> float:
    from quasih.spectrum import band_closed_energies

    energies = band_closed_energies(alpha).energies
    mags = sorted(abs(e) for e in energies)
    # Two +- pairs: small pair |E_1|, large pair |E_3|.
    return mags[0] if which == 1 else mags[-1]


def series_scaling_check(which: int, order: int) -> SeriesCheck:
    """Measure the truncation error of a band series over SERIES_WINDOW.

    The next omitted term is O(alpha^(order+2)), so halving alpha should
    shrink the error by about 2^(order+2).
    """
    import numpy as np

    if which not in (1, 3):
        raise ValueError("which must be 1 or 3")
    series = band_series_E1 if which == 1 else band_series_E3
    coeffs = _E1_COEFFS if which == 1 else _E3_COEFFS
    alphas = np.linspace(*SERIES_WINDOW, SERIES_SAMPLES + 1)[1:]
    err = max(abs(series(al, order) - _band_exact(al, which)) for al in alphas)
    return SeriesCheck(
        order=order,
        coefficients=tuple(coeffs[k] for k in SERIES_ORDERS if k <= order),
        max_abs_error_over_window=err,
        window=SERIES_WINDOW,
    )


def critical_strength() -> tuple[float, float]:
    """Critical band coupling and collision energy (sqrt(2/5), sqrt(13/5)).

    Self-checks that the discriminant 5a^4 - 12a^2 + 4 vanishes there.  The
    spectrum at that coupling, two doubly degenerate levels at
    +-sqrt(13/5), is a fixed matrix's and is checked by the test suite, not
    on each call, so this loads no numpy.
    """
    alpha_cs = math.sqrt(0.4)
    disc = 5.0 * alpha_cs**4 - 12.0 * alpha_cs**2 + 4.0
    if abs(disc) > 1e-12:
        raise RuntimeError(f"discriminant check failed: {disc}")
    return alpha_cs, math.sqrt(2.6)


def _spike_coords(t, coef_a, coef_c, corner):
    """(a, c) of the spike ansatz at the vertex with signs ``corner``; t and
    coef_a may be numpy arrays, which broadcast."""
    s_a, s_c = corner
    a = s_a * A_VERTEX * (1.0 - t - coef_a * t * t)
    c = s_c * C_VERTEX * (1.0 - t - coef_c * t * t)
    return a, c


def spike_point(ansatz: SpikeAnsatz) -> tuple[float, float]:
    """Parameter-plane point (a, c) of the spike ansatz.

    At t = 0 this is the chosen vertex itself, e.g. (-2, -sqrt(3)) for
    the default lower-left corner.
    """
    return _spike_coords(ansatz.t, ansatz.coef_a, ansatz.coef_c, ansatz.corner)


def spike_membership(coef_a: float, coef_c: float, t: float) -> bool:
    """Leading-order membership predictor for the spike ansatz.

    True iff t >= 0 and coef_c - 1/2 <= coef_a <= coef_c + 8/9; this
    approximates the exact verdict at the spike point with O(t)-wide
    fuzz bands around both edges.  t = 0 (the vertex itself) is inside
    by convention: the vertex belongs to the closed domain.
    """
    _require_finite(coef_a=coef_a, coef_c=coef_c, t=t)
    if t < 0.0:
        return False
    return coef_c - 0.5 <= coef_a <= coef_c + 8.0 / 9.0


def spike_band_edges(coef_c: float, t: float) -> tuple[float, float]:
    """Exact admissible coef_a interval at fixed coef_c and t > 0.

    At b = 0, d = c, with x = coef_a and s = 1 + coef_c t, A = t p(x) and
    B = 9 t^2 g(x) h(x), where

        p = 4 - 2t + 6s - 3ts^2 + 4t(1 - t) x - 2t^3 x^2,
        g = 2x + s^2 - 2 coef_c,   h = 4 - 2t - 2ts + t^2 s^2 - 2t^2 x,

    and A^2 - B = t^2 (p^2 - 9gh).  The edges are the nearest real roots
    of g, h, p and p^2 - 9gh below and above coef_c (which is inside),
    found by :func:`quasih.exact.real_roots`; without the powers of t
    they stay well conditioned as t -> 0.  At coef_c t = -1 the interval
    is the single point coef_c, where g, p and p^2 - 9gh vanish.  The
    lower edge, the root of g, is coef_c - 1/2 - coef_c t - coef_c^2 t^2 / 2;
    the upper one is coef_c + 8/9 + (16 coef_c / 9 + 80/81) t + O(t^2).
    """
    if t <= 0.0:
        raise ValueError("edge measurement needs t > 0")
    _require_finite(t=t, coef_c=coef_c)
    a, c = _spike_coords(t, coef_c, coef_c, (-1, -1))
    if not in_domain(a, 0.0, c).inside:
        raise RuntimeError("coef_a = coef_c is unexpectedly outside the domain")
    s = 1.0 + coef_c * t
    p = [-2.0 * t**3, 4.0 * t * (1.0 - t), 4.0 - 2.0 * t + 6.0 * s - 3.0 * t * s * s]
    g = [2.0, s * s - 2.0 * coef_c]
    h = [-2.0 * t * t, 4.0 - 2.0 * t - 2.0 * t * s + t * t * s * s]
    gh = polymul(g, h)
    quartic = [x - 9.0 * y for x, y in zip(polymul(p, p), [0.0, 0.0, *gh])]
    roots = [x for f in (g, h, p, quartic) for x in real_roots(f, -math.inf, math.inf)]
    below = [x for x in roots if x < coef_c]
    above = [x for x in roots if x > coef_c]
    if coef_c in roots:
        # A root at coef_c bounds the side where the margin turns negative.  No
        # factor changes sign between coef_c and the next root, so a sample
        # halfway there tells; past the last root any point does.
        for side, nearest, step in ((below, max, -1.0), (above, min, 1.0)):
            x = (coef_c + nearest(side, default=coef_c + step)) / 2
            if min(reduce(lambda y, ck: y * x + ck, f, 0.0) for f in (p, quartic, gh)) < 0.0:
                side.append(coef_c)
    return max(below), min(above)
