"""Candidate metric operators Theta for the model Hamiltonians.

A metric satisfies H^T Theta = Theta H with Theta = Theta^T > 0.  Every
quasih model has a diagonal sign matrix P with H^T = P H P, a
pseudo-metric (Mostafazadeh 2002), so the equation says that P Theta
commutes with H.  For a non-derogatory H the commutant is the
polynomials in H (Taussky & Zassenhaus 1959), and :func:`metric_nullspace`
returns the basis P H^k, k < n, built exactly in integers; a derogatory
H, or one without such a P, raises ValueError.

A positive-definite solution exists exactly when H is diagonalizable
with a real spectrum; the dyad sum_n u_n u_n^T over the left
eigenvectors is then one, and :func:`find_positive` starts from it.
Outside the domain (any non-real eigenvalue) no positive Theta exists,
and :func:`find_positive` reports the best deterministic start,
unpolished, as not positive.
For the one-parameter band model the closed four-parameter family
Theta(p, q, r, s) is available in closed form; the best achievable
conditioning degrades to zero as the exceptional point alpha^2 = 2/5 is
approached (the metric becomes singular on the domain boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quasih.model import _require_finite, build_alpha
from quasih.spectrum import REALITY_TOL, _finite_square

#: Largest matrix dimension accepted by the nullspace solver.
MAX_NULLSPACE_DIM = 16


@dataclass(frozen=True)
class MetricFamily:
    """Basis of the symmetric solution space of H^T Theta = Theta H."""

    h: np.ndarray
    dim: int
    basis: tuple[np.ndarray, ...]
    residual: float


@dataclass(frozen=True)
class PositivityCertificate:
    """Best positive candidate found in a family's span.

    ``coefficients`` are the weights over the family basis of the
    reported candidate, normalized to unit largest eigenvalue of Theta;
    ``min_eigenvalue`` is its smallest eigenvalue after that
    normalization, and ``positive`` says whether it exceeds the fixed
    positivity tolerance 1e-12.  Inside the reality domain a positive member
    exists by construction; outside it none exists, and the reported
    candidate is the best deterministic start, unpolished, with
    ``positive`` False.
    """

    coefficients: tuple[float, ...]
    min_eigenvalue: float
    positive: bool


def _sign_matrix(rows: list[list[float]]) -> list[int]:
    """The signs p_i of the diagonal P with H^T = P H P (h_ji = p_i p_j h_ij),
    by a walk over the nonzero couplings; an index without one takes +1."""
    n = len(rows)
    signs = [0] * n
    for root in range(n):
        stack = [] if signs[root] else [root]
        signs[root] = signs[root] or 1
        while stack:
            i = stack.pop()
            for j in range(n):
                if not signs[j] and rows[i][j] != 0.0:
                    signs[j] = signs[i] if rows[j][i] == rows[i][j] else -signs[i]
                    stack.append(j)
    if any(rows[j][i] != signs[i] * signs[j] * rows[i][j] for i in range(n) for j in range(n)):
        raise ValueError("matrix has no diagonal sign matrix P with H^T = P H P")
    return signs


def metric_nullspace(h: np.ndarray) -> MetricFamily:
    """Basis P H^k (k < n) of all real Theta with H^T Theta = Theta H.

    P, with H^T = P H P, is read off the entries of H.  The solutions are
    the P p(H), exactly symmetric, when H is non-derogatory (no eigenvalue
    has two Jordan blocks); a derogatory H, or one without P, raises
    ValueError.  H is an integer matrix over one power of two, as floats
    are dyadic, so the powers, the test that decides derogatory and each
    element over its largest entry are exact integers, each entry rounded
    once: the basis depends on no BLAS/LAPACK kernel.  The residual sums
    H^T Theta - Theta H with fsum over H scaled to largest entry in [1/2, 1).
    """
    h = _finite_square(h, MAX_NULLSPACE_DIM)
    rows = h.tolist()
    n = len(rows)
    signs = _sign_matrix(rows)
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    den = max(q for row in ratios for _, q in row)
    m = [[p * (den // q) for p, q in row] for row in ratios]
    exact = [[signs[i] * int(i == j) for j in range(n)] for i in range(n)]  # P H^0
    family, pivots = [], []
    for k in range(n):
        if k:  # P H^k = (P H^(k-1)) H
            exact = [[sum(a * b for a, b in zip(r, c)) for c in zip(*m)] for r in exact]
        # Fraction-free elimination of the upper triangle by the earlier pivot rows.
        row = [exact[i][j] for i in range(n) for j in range(i, n)]
        for col, pivot in pivots:
            if row[col]:
                row = [pivot[col] * x - row[col] * y for x, y in zip(row, pivot)]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            raise ValueError("matrix is derogatory (an eigenvalue has two Jordan blocks)")
        g = math.gcd(*row)
        pivots.append((col, [x // g for x in row]))
        top = max(abs(x) for r in exact for x in r)
        family.append([[x / top for x in r] for r in exact])
    hs = np.ldexp(h, -math.frexp(np.max(np.abs(h)))[1]).tolist()
    defect = max(
        abs(math.fsum(x for k in range(n) for x in (hs[k][i] * t[k][j], -t[i][k] * hs[k][j])))
        for t in family
        for i in range(n)
        for j in range(n)
    )
    residual = defect / (max(abs(x) for row in hs for x in row) or 1.0)
    return MetricFamily(h=h, dim=n, basis=tuple(map(np.array, family)), residual=residual)


def closed_form_band_metric(
    alpha: float, p: float, q: float, r: float, s: float
) -> np.ndarray:
    """Closed-form metric Theta(p, q, r, s) for the band model H(alpha).

    Theta_22 = p, Theta_44 = q, Theta_13 = r and Theta_24 = s are free;
    the remaining entries follow from the sixteen intertwining
    conditions.  The published form of the Theta_33 entry is short by one
    s (its bracket reads +s where the equation forces +7s); the corrected
    entry used here satisfies H^T Theta = Theta H identically.
    Requires alpha != 0 (the formulas contain 1/alpha powers); the
    alpha -> 0 limit is the diagonal commutant, available through
    :func:`metric_nullspace`.
    """
    _require_finite(alpha=alpha, p=p, q=q, r=r, s=s)
    if alpha == 0.0:
        raise ValueError("alpha must be non-zero; use metric_nullspace at alpha=0")
    a2 = alpha * alpha
    t11 = (-9.0 * p + 3.0 * q + 10.0 * r + s) / 6.0 + (2.0 * r - s) / a2
    t14 = -(r + s) * alpha / 3.0
    t33 = (-3.0 * p - 3.0 * q + 4.0 * r + 7.0 * s) / 6.0 + s / a2
    t12 = alpha * (3.0 * p - 3.0 * q - 4.0 * r - s) / 6.0 + (-2.0 * r + s) / alpha
    t23 = alpha * (-3.0 * p + 3.0 * q + 2.0 * r - s) / 6.0 - s / alpha
    t34 = alpha * (3.0 * p - 3.0 * q - 4.0 * r - s) / 6.0 - s / alpha
    return np.array(
        [
            [t11, t12, r, t14],
            [t12, p, t23, s],
            [r, t23, t33, t34],
            [t14, s, t34, q],
        ]
    )


@dataclass(frozen=True)
class PolishResult:
    """:func:`minimize`'s best vertex, its value, the evaluation count and
    status 0 (converged) or 2 (iteration limit)."""

    x: np.ndarray
    fun: float
    nfev: int
    status: int


def minimize(fun, x0) -> PolishResult:
    """Nelder-Mead (Nelder & Mead 1965) that takes the steps of scipy's
    ``minimize(method="Nelder-Mead")`` with xatol=1e-12, fatol=1e-14 and
    maxiter=2000 bit for bit: the same initial simplex (one entry of x0
    scaled by 1.05, or 0.00025 if 0), rho=1, chi=2, psi=sigma=1/2, the same
    ``argsort``/``take`` ordering and stopping test.  It spares a request
    the import of scipy.optimize, which takes longer than most requests.
    """
    x0 = np.array(x0, dtype=float).ravel()
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    sim[1:][np.diag_indices(n)] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = np.array([fun(x) for x in sim], dtype=float)
    nfev = n + 1
    # scipy sorts twice before the first step; argsort is not stable on ties.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while iterations < 2000:
        if (
            np.max(np.abs(sim[1:] - sim[0])) <= 1e-12
            and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-14
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = fun(xr)
        nfev += 1
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = fun(xe)
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            # Contract outside if xr beats the worst vertex, else inside.
            outside = fxr < fsim[-1]
            xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
            fxc = fun(xc)
            nfev += 1
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fsim[1:] = [fun(x) for x in sim[1:]]
                nfev += n
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return PolishResult(sim[0], np.min(fsim), nfev, 2 if iterations >= 2000 else 0)


def _signed_min_eig(theta: np.ndarray) -> tuple[float, float]:
    """Smallest eigenvalue after scaling to unit largest eigenvalue.

    The overall sign of a family member is free, so both Theta and
    -Theta are considered; returns (normalized min eigenvalue, sign),
    and (-inf, 1.0) for Theta = 0.
    """
    w = np.linalg.eigvalsh(theta)
    # The sign whose largest eigenvalue is also the largest in magnitude
    # has the better ratio (Theta on a tie); dividing by that eigenvalue
    # cannot overflow, even for a nearly singular Theta.
    if w[-1] >= -w[0]:
        return (w[0] / w[-1], 1.0) if w[-1] > 0 else (-math.inf, 1.0)
    return w[-1] / w[0], -1.0


def _jacobi_eigenvalues(a: list[list[float]]) -> list[float]:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations
    (Rutishauser 1966) in plain floats, so unlike eigvalsh the same bits
    under every BLAS/LAPACK kernel; ``a`` is overwritten.  An off-diagonal
    entry that cannot change either diagonal entry it couples, even a
    hundredfold, is dropped; the sweeps end when none is left."""
    n = len(a)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for _ in range(50):  # about 5 sweeps converge; the cap only guards the loop
        if not any(a[p][q] for p, q in pairs):
            break
        for p, q in pairs:
            apq, g = a[p][q], 100.0 * abs(a[p][q])
            a[p][q] = a[q][p] = 0.0
            if abs(a[p][p]) + g == abs(a[p][p]) and abs(a[q][q]) + g == abs(a[q][q]):
                continue
            # The stable rotation of Numerical Recipes (Press et al. 2007, §11.1).
            theta = (a[q][q] - a[p][p]) / (2.0 * apq)
            t = math.copysign(1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0)), theta)
            c = 1.0 / math.sqrt(t * t + 1.0)
            s, tau = t * c, t * c / (1.0 + c)
            a[p][p] -= t * apq
            a[q][q] += t * apq
            for r in range(n):
                if r != p and r != q:
                    g, h = a[r][p], a[r][q]
                    a[r][p] = a[p][r] = g - s * (h + g * tau)
                    a[r][q] = a[q][r] = h + s * (g - h * tau)
    return [a[k][k] for k in range(n)]


def _candidate(stack: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k c_k E_k over the stacked basis, exactly symmetric as each E_k is;
    the reduction adds in basis order from 0.0, as Python's sum does."""
    return np.add.reduce(coeffs[:, None, None] * stack, axis=0, initial=0.0)


def find_positive(fam: MetricFamily) -> PositivityCertificate:
    """Best positive-definite metric in the family span, found deterministically.

    H is quasi-Hermitian exactly when it is diagonalizable with a real
    spectrum, and every metric is then sum_n w_n u_n u_n^T with w_n > 0
    over its left eigenvectors u_n.  The dyad with w_n = 1 over the unit
    left eigenvectors of the real eigenvalues is therefore positive
    definite for an all-real spectrum (positive semidefinite for a mixed
    one); it and the signed basis elements seed a Nelder-Mead polish of
    the normalized smallest eigenvalue (:func:`minimize`, quasih's own,
    step for step scipy's).  When any eigenvalue is non-real no positive
    Theta exists, so there is no polish: the certificate is the best of
    these starts, not positive (about 0 for a mixed spectrum, a basis
    element's ratio for an all-complex one).  The reported eigenvalues of
    the chosen Theta are :func:`_jacobi_eigenvalues`'.
    """
    candidates = []
    # Left eigenvectors of H (u^T H = E u^T) are the eigenvectors of H^T.
    w, u = np.linalg.eig(fam.h.T)
    real = np.abs(w.imag) < REALITY_TOL
    if real.any():
        left = np.real(u[:, real])
        # The dyad's least-squares weights over the family basis.
        mat = np.column_stack([e.ravel() for e in fam.basis])
        candidates.append(np.linalg.lstsq(mat, (left @ left.T).ravel(), rcond=None)[0])
    candidates.extend(np.eye(fam.dim))
    stack = np.stack(fam.basis)

    best_coeffs = None
    best_min = -math.inf
    for coeffs in candidates:
        # Theta = 0 scores -inf, which never beats the start.
        m, sign = _signed_min_eig(_candidate(stack, coeffs))
        if m > best_min:
            best_min, best_coeffs = m, sign * coeffs

    def objective(coeffs: np.ndarray) -> float:
        theta = _candidate(stack, coeffs)
        if np.max(np.abs(theta)) == 0.0:
            return 1.0
        return -_signed_min_eig(theta)[0]

    # No positive Theta exists for a non-real spectrum, so the best start
    # is reported as it is: the polish could not change the verdict.
    if real.all():
        res = minimize(objective, best_coeffs)
        if -res.fun > best_min:
            best_coeffs = _signed_min_eig(_candidate(stack, res.x))[1] * res.x

    # Report Theta scaled to unit largest eigenvalue.  Positivity below
    # numerical noise, 1e-12, cannot be certified (e.g. the singular family
    # at an exceptional point).
    w = _jacobi_eigenvalues(_candidate(stack, best_coeffs).tolist())
    lo, hi = min(w), max(w)
    if hi < -lo:  # a near tie that eigvalsh oriented the other way
        best_coeffs, lo, hi = -best_coeffs, -hi, -lo
    return PositivityCertificate(
        coefficients=tuple(float(c) for c in best_coeffs / hi),
        min_eigenvalue=lo / hi,
        positive=lo / hi > 1e-12,
    )


#: Exceptional point of the band model.
ALPHA_CRITICAL = math.sqrt(2.0 / 5.0)


def boundary_degeneracy_profile(alphas) -> list[tuple[float, float]]:
    """Best positive-metric conditioning along the band coupling.

    For each alpha in (0, sqrt(2/5)] the smallest eigenvalue of the best
    positive Theta (unit largest eigenvalue) from :func:`find_positive`
    is reported; the profile collapses toward zero as the exceptional
    point is approached.  At alpha = sqrt(2/5) exactly, H is defective
    and the profile value is NaN (flagged, not computed).  Every alpha is
    checked before the first certificate is computed.
    """
    alphas = list(alphas)
    if not all(0.0 < alpha <= ALPHA_CRITICAL for alpha in alphas):
        raise ValueError("alpha must lie in (0, sqrt(2/5)]")
    profile = []
    for alpha in alphas:
        if math.isclose(alpha, ALPHA_CRITICAL, rel_tol=0.0, abs_tol=1e-14):
            profile.append((alpha, math.nan))
            continue
        fam = metric_nullspace(build_alpha(alpha))
        profile.append((alpha, find_positive(fam).min_eigenvalue))
    return profile
