"""Exact arithmetic on floats: the shared algebra under quasih's geometry.

A float is an integer over a power of two, so a list of floats is a list
of integers over one power of two (:func:`dyadic_integers`), and a
polynomial with float coefficients takes exact integer values at a float,
rounded once.  :func:`real_roots` isolates a polynomial's real roots
between the real roots of its derivatives and refines them with
:func:`brentq`, which also refines the exit that a boundary ray's march
brackets in :mod:`quasih.domain`.  Each caller already holds the values
at the bracket ends (the isolation's end values, the march's last two
margins) and hands them to :func:`brentq`, which uses them as f(a) and
f(b) and does not evaluate f there again.  Everything here is plain float
and integer arithmetic from :mod:`math`; no numpy.
"""

from __future__ import annotations

import math


def dyadic_integers(values) -> tuple[list[int], int]:
    """Integers n_i and one power of two q with values[i] == n_i / q exactly;
    q is the largest denominator of the values, so each n_i is exact."""
    ratios = [x.as_integer_ratio() for x in values]
    q = max(den for _, den in ratios)
    return [num * (q // den) for num, den in ratios], q


def brentq(f, a, b, fa, fb) -> float:
    """Root of f in [a, b], where fa = f(a) and fb = f(b) differ in sign,
    by Brent's method (Brent 1973, ch. 4).

    The caller hands over the end values it already holds; they are used
    as f(a) and f(b), and f is called only inside the bracket.  It takes
    the steps of scipy.optimize.brentq(f, a, b, xtol=1e-300, maxiter=2200)
    bit for bit: the same bracket updates, the same order of floating-point
    operations.  The tolerances make it stop only when the bracket is a few
    ulps wide; about 2,100 halvings close the widest float bracket, and a
    RuntimeError is raised past 2,200 steps.  f must return finite floats.
    The loop, the geometry workload's hottest Python, spells abs and min
    (min's rule) as conditional expressions, not calls; the bits are scipy's.
    """
    xtol, rtol, inf = 1e-300, 4.0 * math.ulp(1.0), math.inf
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(fa), float(fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # Signs are compared, as C's signbit does, never by the product fpre * fcur,
    # which underflows to 0 for tiny values.
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(2200):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        afcur, afblk = (fcur if fcur >= 0.0 else -fcur), (fblk if fblk >= 0.0 else -fblk)
        if afblk < afcur:
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            afcur = afblk
        delta = (xtol + rtol * (xcur if xcur >= 0.0 else -xcur)) / 2
        sbis = (xblk - xcur) / 2
        asbis, aspre = (sbis if sbis >= 0.0 else -sbis), (spre if spre >= 0.0 else -spre)
        if fcur == 0.0 or asbis < delta:
            return xcur
        stry, lim = inf, 3 * asbis - delta
        if aspre > delta and afcur < (fpre if fpre >= 0.0 else -fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # C gets inf or nan, which fails the test below, as inf does
        if 2 * (stry if stry >= 0.0 else -stry) < (lim if lim < aspre else aspre):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if scur > delta or -scur > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"Failed to converge after 2200 iterations, value is {xcur}")


def polymul(p, q) -> list[float]:
    """Coefficients of the product of two polynomials, each coefficient
    summed left to right, so its bits do not depend on a BLAS kernel."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def real_roots(coeffs, lo: float, hi: float) -> list[float]:
    """Real roots in [lo, hi] of the polynomial with ``coeffs`` (highest
    power first), ascending.

    Isolation by differentiation (Collins & Loos 1976): the real roots of
    the derivative, found the same way down to a linear formula, cut
    [lo, hi] into monotone pieces, and :func:`brentq` refines each piece
    whose ends differ in sign; an exact zero at a piece end is reported
    once.  Values are exact in integers, rounded once, so every sign is
    right and each simple root is found once, however close to another;
    a root of even multiplicity is found only as an exact zero.  Infinite
    ends are clamped to Fujiwara's bound on the root moduli.  Raises
    RuntimeError if the coefficients or that bound overflow the float range.
    """
    c = [float(x) for x in coeffs]
    while c and c[0] == 0.0:
        del c[0]
    if len(c) < 2:
        return []
    bound = 2.0 * max(abs(ck / c[0]) ** (1.0 / k) for k, ck in enumerate(c[1:], 1))
    if not (math.isfinite(bound) and all(map(math.isfinite, c))):
        raise RuntimeError("polynomial coefficients or roots overflow")
    lo, hi = max(lo, -bound), min(hi, bound)
    if len(c) == 2:
        return [x] if lo <= (x := -c[1] / c[0]) <= hi else []
    (lead, *rest), q = dyadic_integers(c)

    def f(x: float) -> float:
        # p(num/2^k) * q * 2^(kn) by Horner in integers: a float's
        # denominator is a power of two, so its powers are shifts.
        num, den = x.as_integer_ratio()
        k = den.bit_length() - 1
        value, shift = lead, 0
        for m in rest:
            shift += k
            value = value * num + (m << shift)
        return value / (q << shift)

    n = len(c) - 1
    ends = [lo, *real_roots([ck * (n - k) for k, ck in enumerate(c[:n])], lo, hi), hi]
    values = list(map(f, ends))
    signs = [(v > 0.0) - (v < 0.0) for v in values]
    roots: list[float] = []
    for x0, x1, v0, v1, s0, s1 in zip(ends, ends[1:], values, values[1:], signs, signs[1:]):
        if s0 == 0 and x0 not in roots:
            roots.append(x0)
        elif s0 * s1 < 0:
            roots.append(brentq(f, x0, x1, v0, v1))
    if signs[-1] == 0 and hi not in roots:
        roots.append(hi)
    return roots
