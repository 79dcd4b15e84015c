"""Reference computations the benchmark checks quasih's outputs against.

Everything here is written from the model's formulas with numpy alone and
imports nothing from quasih, so a fault in the program cannot hide in its
own check.  The formulas (see PAPER.md):

- H(a, b, c, d): diagonal (-3, 1, -1, 3), upper-right block [[c, b], [a, d]],
  lower-left block its negative transpose; the band model H(alpha) is
  tridiagonal with diagonal (-3, -1, 1, 3) and couplings +-2 alpha.
- On c = d the spectrum solves E^4 - 2A E^2 + B = 0 with
  A = 5 - d^2 - (a^2 + b^2)/2 and B = (d^2 - ab + 3)^2 - (b - 3a)^2, and
  the domain D is min(A, A^2 - B, B) >= 0.
- PMN points at fixed d^2 lie on the circle a^2 + b^2 = 10 - 2 d^2 and on
  one of the hyperbolas (b + 3)(a - 1) = d^2, (b - 3)(a + 1) = d^2.
"""

from __future__ import annotations

import math

import numpy as np

P = np.polynomial.Polynomial

#: Critical band coupling sqrt(2/5): real spectrum below, complex above.
ALPHA_CRITICAL = math.sqrt(0.4)


def full_matrix(a: float, b: float, c: float, d: float) -> np.ndarray:
    return np.array(
        [
            [-3.0, 0.0, c, b],
            [0.0, 1.0, a, d],
            [-c, -a, -1.0, 0.0],
            [-b, -d, 0.0, 3.0],
        ]
    )


def alpha_matrix(alpha: float) -> np.ndarray:
    t = 2.0 * alpha
    return np.array(
        [
            [-3.0, t, 0.0, 0.0],
            [-t, -1.0, t, 0.0],
            [0.0, -t, 1.0, t],
            [0.0, 0.0, -t, 3.0],
        ]
    )


def invariants(a, b, d2):
    """A and B of the c = d model, elementwise over numpy arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    A = 5.0 - d2 - 0.5 * (a * a + b * b)
    u = d2 - a * b + 3.0
    v = b - 3.0 * a
    return A, u * u - v * v


def margin(a, b, d2):
    """min(A, A^2 - B, B): non-negative exactly on the domain D."""
    A, B = invariants(a, b, d2)
    return np.minimum(np.minimum(A, A * A - B), B)


def margin_scale(a, b, d2):
    """Size of the terms that cancel in the margin, for error bounds."""
    A, B = invariants(a, b, d2)
    u = d2 + np.abs(np.asarray(a) * np.asarray(b)) + 3.0
    v = np.abs(b) + 3.0 * np.abs(a)
    return 1.0 + A * A + u * u + v * v


# --- PMN points -----------------------------------------------------------


def pmn_reference(d2: float) -> np.ndarray:
    """PMN points as rows (a, b), sorted, from two quartics in a.

    Substituting b = d^2/(a - 1) - 3 (first hyperbola) or
    b = d^2/(a + 1) + 3 (second) into the circle and clearing the
    denominator gives a^2 (a -+ 1)^2 + (d^2 -+ 3(a -+ 1))^2 = R^2 (a -+ 1)^2.
    Where a -+ 1 is tiny, b from the hyperbola is ill-conditioned, so each
    point is polished by Newton steps on the circle-hyperbola pair.
    """
    r2 = 10.0 - 2.0 * d2
    points = []
    for s in (1.0, -1.0):
        shift = P([-s, 1.0])  # a - 1 for the first hyperbola, a + 1 for the second
        a_ = P([0.0, 1.0])
        quartic = a_ * a_ * shift * shift + (d2 - 3.0 * s * shift) ** 2 - r2 * shift * shift
        for root in quartic.roots():
            if abs(root.imag) > 1e-9 * max(1.0, abs(root.real)):
                continue
            a = _newton(quartic, root.real)
            b = d2 / (a - s) - 3.0 * s
            for _ in range(4):
                f = np.array([a * a + b * b - r2, (b + 3.0 * s) * (a - s) - d2])
                jac = np.array([[2.0 * a, 2.0 * b], [b + 3.0 * s, a - s]])
                a, b = np.array([a, b]) - np.linalg.solve(jac, f)
            points.append((float(a), float(b)))
    return np.array(sorted(points)).reshape(-1, 2)


def _newton(poly, x: float, steps: int = 3) -> float:
    deriv = poly.deriv()
    for _ in range(steps):
        slope = deriv(x)
        if slope == 0.0:
            break
        x -= poly(x) / slope
    return x


def check_pmn(reported, d2: float, tol: float = 1e-8) -> list[str]:
    """Problems with reported PMN points [(a, b), ...] at d^2."""
    ref = pmn_reference(d2)
    got = np.array(sorted(reported), dtype=float).reshape(-1, 2)
    if len(got) != len(ref):
        return [f"pmn d2={d2!r}: {len(got)} points, reference has {len(ref)}"]
    problems = []
    for a, b in got:
        dist = np.min(np.hypot(ref[:, 0] - a, ref[:, 1] - b))
        if dist > tol:
            problems.append(
                f"pmn d2={d2!r}: point ({a:.17g}, {b:.17g}) is {dist:.3g} from the reference"
            )
    return problems


# --- boundary rays from the origin -----------------------------------------


def ray_polynomials(ux: float, uy: float, d2: float):
    """A, A^2 - B and B along (a, b) = t (ux, uy), for a unit direction."""
    A = P([5.0 - d2, 0.0, -0.5 * (ux * ux + uy * uy)])
    B = P([d2 + 3.0, 0.0, -ux * uy]) ** 2 - P([0.0, uy - 3.0 * ux]) ** 2
    return A, A * A - B, B


def ray_stretches(ux: float, uy: float, d2: float, t_max: float = 100.0):
    """First exit from D along the ray and the re-entry after it.

    The margin can change sign only at a real root of one of the three
    polynomials (degree 2, 4 and 4 in t); the sign between consecutive
    roots is read at their midpoints.  Returns (exit, reentry) with
    reentry = inf when the ray stays outside up to t_max, and exit = inf
    when it never leaves.
    """
    polys = ray_polynomials(ux, uy, d2)
    roots = sorted(
        {
            float(_newton(p, r.real))
            for p in polys
            for r in p.roots()
            if abs(r.imag) <= 1e-9 * max(1.0, abs(r.real)) and 0.0 < r.real < t_max
        }
    )
    knots = [0.0, *roots, t_max]

    def outside(lo, hi):
        t = 0.5 * (lo + hi)
        return min(p(t) for p in polys) < 0.0

    exit_t = math.inf
    for lo, hi in zip(knots, knots[1:]):
        if math.isinf(exit_t):
            if outside(lo, hi):
                exit_t = lo
        elif not outside(lo, hi):
            return exit_t, lo
    return exit_t, math.inf


def check_ray(reported, direction, d2: float, tol: float = 1e-6) -> tuple[str, str] | None:
    """Classify a reported exit point; None when it is right.

    Returns (kind, message) with kind "overshoot" when the report lies
    beyond an earlier exit that has a re-entry before the reported point
    (the march in the program stepped over a thin outside stretch), and
    "wrong" for any other disagreement.
    """
    ux, uy = direction
    norm = math.hypot(ux, uy)
    ux, uy = ux / norm, uy / norm
    a, b = reported
    t_rep = math.hypot(a, b)
    exit_t, reentry = ray_stretches(ux, uy, d2)
    off_ray = abs(a * uy - b * ux)
    if off_ray > tol:
        return "wrong", f"ray d2={d2!r} dir=({ux!r}, {uy!r}): point is {off_ray:.3g} off the ray"
    if abs(t_rep - exit_t) <= tol * max(1.0, exit_t):
        return None
    msg = f"ray d2={d2!r} dir=({ux!r}, {uy!r}): exit at t={t_rep!r}, reference t={exit_t!r}"
    if t_rep > exit_t and reentry < t_rep:
        return "overshoot", f"{msg} (re-entry at {reentry!r}, overshoot {t_rep - exit_t:.3g})"
    return "wrong", msg


# --- spike edges ------------------------------------------------------------

A_VERTEX = 2.0
C_VERTEX = math.sqrt(3.0)


def spike_margin(coef_a: float, coef_c: float, t: float) -> float:
    """Margin at the lower-left spike point (a, b = 0, c = d)."""
    a = -A_VERTEX * (1.0 - t - coef_a * t * t)
    c = -C_VERTEX * (1.0 - t - coef_c * t * t)
    return float(margin(a, 0.0, c * c))


def check_spike(edges, coef_c: float, t: float, step: float = 1e-6) -> list[str]:
    """Each edge must bracket a membership flip of the exact margin.

    Just inside an edge (towards coef_c) the point is in D, just outside
    it is not; ``step`` is far wider than the bisection tolerance and far
    narrower than the band.
    """
    lower, upper = edges
    problems = []
    if not lower < coef_c < upper:
        problems.append(f"spike coef_c={coef_c!r} t={t!r}: edges {edges!r} do not enclose coef_c")
    for edge, inward in ((lower, step), (upper, -step)):
        m_in = spike_margin(edge + inward, coef_c, t)
        m_out = spike_margin(edge - inward, coef_c, t)
        if not (m_in >= 0.0 > m_out):
            problems.append(
                f"spike coef_c={coef_c!r} t={t!r}: edge {edge!r} does not bracket a flip "
                f"(margin {m_in:.3g} inside, {m_out:.3g} outside)"
            )
    return problems


# --- scan CSV ---------------------------------------------------------------


def check_scan(text: str, d2: float, window, res, skip: float = 1e-4) -> list[str]:
    """Check a scan CSV against the grid, the margin formula and eigvals.

    Inside flags are compared with the reality of the four eigenvalues of
    H(a, b, d, d), all grid points in one batched eigvals call; points with
    |margin| < ``skip`` are too close to the boundary to decide and are
    skipped for that comparison.
    """
    a_min, a_max, b_min, b_max = window
    na, nb = res
    lines = text.splitlines()
    if not lines or lines[0] != "a,b,inside,margin":
        return ["scan: missing or wrong CSV header"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != na * nb or any(len(r) != 4 for r in rows):
        return [f"scan: expected {na * nb} rows of 4 cells"]
    cells = np.array([[float(x) for x in r] for r in rows])
    a, b, inside, m = cells.T
    problems = []
    grid_a = np.repeat(np.linspace(a_min, a_max, na), nb)
    grid_b = np.tile(np.linspace(b_min, b_max, nb), na)
    if np.max(np.abs(a - grid_a)) > 1e-12 or np.max(np.abs(b - grid_b)) > 1e-12:
        problems.append("scan: grid coordinates differ from the requested window")
    ref = margin(a, b, d2)
    err = np.abs(m - ref) / margin_scale(a, b, d2)
    if np.max(err) > 1e-13:
        i = int(np.argmax(err))
        problems.append(
            f"scan: margin at ({a[i]:.17g}, {b[i]:.17g}) is {m[i]:.17g}, reference {ref[i]:.17g}"
        )
    if not np.all((inside == 0.0) | (inside == 1.0)):
        problems.append("scan: inside flag is not 0 or 1")
    d = math.sqrt(d2)
    h = np.array([full_matrix(x, y, d, d) for x, y in zip(a, b)])
    real = np.max(np.abs(np.linalg.eigvals(h).imag), axis=1) < 1e-6
    decided = np.abs(ref) >= skip
    wrong = decided & (real != (inside == 1.0))
    if np.any(wrong):
        i = int(np.argmax(wrong))
        problems.append(
            f"scan: {int(np.sum(wrong))} inside flags disagree with eigvals, "
            f"first at ({a[i]:.17g}, {b[i]:.17g})"
        )
    return problems


# --- metric certificate ------------------------------------------------------


def left_dyad_ratio(h: np.ndarray) -> float:
    """lambda_min/lambda_max of sum_n u_n u_n^T over unit left eigenvectors."""
    _, v = np.linalg.eig(h)
    left = np.real(np.linalg.inv(np.real(v)))
    rows = left / np.linalg.norm(left, axis=1, keepdims=True)
    w = np.linalg.eigvalsh(rows.T @ rows)
    return float(w[0] / w[-1])


def spectrum_real_distinct(h: np.ndarray, tol: float = 1e-6) -> bool:
    e = np.linalg.eigvals(h)
    if np.max(np.abs(e.imag)) >= tol:
        return False
    e = np.sort(e.real)
    return bool(np.min(np.diff(e)) > tol)


def check_certificate(doc: dict, h: np.ndarray) -> list[str]:
    """Check a `metric --basis --positivity` document for the matrix h."""
    basis = [np.array(m["rows"], dtype=float) for m in doc["basis"]]
    pos = doc["positivity"]
    coeffs = pos["coefficients"]
    problems = []
    if doc["dim"] != len(basis) or len(coeffs) != len(basis):
        return [
            f"certify: dim {doc['dim']}, {len(basis)} basis matrices, {len(coeffs)} coefficients"
        ]
    theta = sum(c * m for c, m in zip(coeffs, basis))
    scale = np.max(np.abs(theta))
    if np.max(np.abs(theta - theta.T)) > 1e-12 * scale:
        problems.append("certify: Theta is not symmetric")
    resid = np.max(np.abs(h.T @ theta - theta @ h)) / (np.max(np.abs(h)) * scale)
    if resid > 1e-9:
        problems.append(f"certify: H^T Theta - Theta H is {resid:.3g} of scale")
    w = np.linalg.eigvalsh(0.5 * (theta + theta.T))
    ratio = w[0] / w[-1]
    if w[-1] <= 0.0 or abs(ratio - pos["min_eigenvalue"]) > 1e-9 + 1e-7 * abs(ratio):
        problems.append(
            f"certify: lambda_min/lambda_max is {ratio:.17g}, reported {pos['min_eigenvalue']!r}"
        )
    expected = spectrum_real_distinct(h)
    if pos["positive"] != expected:
        problems.append(
            f"certify: positive={pos['positive']}, spectrum real and distinct={expected}"
        )
    if expected:
        dyad = left_dyad_ratio(h)
        if pos["min_eigenvalue"] < dyad - 1e-9:
            problems.append(
                f"certify: min_eigenvalue {pos['min_eigenvalue']!r} is worse than the "
                f"left-eigenvector dyad's {dyad!r}"
            )
    return problems
