"""Quartic secular polynomial of the 4x4 model and its invariants.

The characteristic polynomial of the shifted model is

    E^4 + e2*E^2 + e1*E + e0 = 0

(the cubic term vanishes because the matrix is traceless), with

    e2 = -(10 - a^2 - b^2 - c^2 - d^2),
    e1 = -4*(c^2 - d^2),
    e0 = C(a,b,c,d) = 9 - 9a^2 - b^2 + 3c^2 + 3d^2 + a^2 b^2 + c^2 d^2 - 2abcd.

Under the symmetry c^2 = d^2 the linear term drops and the quartic becomes
biquadratic, E^4 - 2A E^2 + B = 0, with

    A = 5 - d^2 - (a^2 + b^2)/2,
    B = (d^2 - ab + 3)^2 - (b - 3a)^2 = C(a, b, d, d).

At fixed d^2 the locus C(a,b,d,d) = 0 factorizes into the two hyperbolas
d^2 = (b+3)(a-1) and d^2 = (b-3)(a+1) in the a-b plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from quasih.model import ParamPoint, _require_finite


@dataclass(frozen=True)
class SecularInvariants:
    """Coefficients of the quartic and derived reduced quantities.

    ``A`` and ``B`` are the biquadratic invariants computed from
    (a, b, d); they characterize the spectrum only when c^2 = d^2 (the
    ``reduced_valid`` flag records whether that holds for the source
    point, to |c^2 - d^2| <= 1e-12 * max(1, c^2, d^2)).  ``alpha_hyp``
    and ``beta_hyp`` are the hyperbola factors (b+3)(a-1) and (b-3)(a+1).
    """

    e4: float
    e3: float
    e2: float
    e1: float
    e0: float
    A: float
    B: float
    alpha_hyp: float
    beta_hyp: float
    reduced_valid: bool


def constant_term(a: float, b: float, c: float, d: float) -> float:
    """The constant term C(a,b,c,d) of the secular quartic."""
    return (
        9.0
        - 9.0 * a * a
        - b * b
        + 3.0 * c * c
        + 3.0 * d * d
        + a * a * b * b
        + c * c * d * d
        - 2.0 * a * b * c * d
    )


def secular_coeffs(p: ParamPoint) -> SecularInvariants:
    """Quartic coefficients and invariants for a parameter point."""
    a, b, c, d = p.as_tuple()
    e2 = -(10.0 - a * a - b * b - c * c - d * d)
    e1 = -4.0 * (c * c - d * d)
    e0 = constant_term(a, b, c, d)
    A, B = reduced_AB(a, b, d)
    ah, bh = hyperbola_factors(a, b)
    return SecularInvariants(
        e4=1.0,
        e3=0.0,
        e2=e2,
        e1=e1,
        e0=e0,
        A=A,
        B=B,
        alpha_hyp=ah,
        beta_hyp=bh,
        reduced_valid=abs(c * c - d * d) <= 1e-12 * max(1.0, c * c, d * d),
    )


def reduced_AB(a: float, b: float, d: float) -> tuple[float, float]:
    """Biquadratic invariants A, B of the c^2 = d^2 model.

    A = 5 - d^2 - (a^2 + b^2)/2 and B = (d^2 - ab + 3)^2 - (b - 3a)^2;
    B coincides with C(a, b, d, d).
    """
    _require_finite(a=a, b=b, d=d)
    return _reduced_AB(a, b, d)


def _reduced_AB(a, b, d):
    """Unchecked :func:`reduced_AB` for floats or broadcastable arrays.

    Only +, - and * are used, so an array cell and the same point as
    Python floats give bit-identical results.
    """
    dd = d * d
    p = dd - a * b + 3.0
    q = b - 3.0 * a
    return 5.0 - dd - 0.5 * (a * a + b * b), p * p - q * q


def hyperbola_factors(a: float, b: float) -> tuple[float, float]:
    """Hyperbola factors (b+3)(a-1) and (b-3)(a+1).

    For any d, (d^2 - alpha_hyp)*(d^2 - beta_hyp) = C(a, b, d, d), so at
    fixed d^2 the zero set of the constant term consists of the two
    hyperbolas with centers (a, b) = (-1, 3) and (1, -3).
    """
    _require_finite(a=a, b=b)
    return (b + 3.0) * (a - 1.0), (b - 3.0) * (a + 1.0)
