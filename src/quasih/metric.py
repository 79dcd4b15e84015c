"""Candidate metric operators Theta for the model Hamiltonians.

A metric must satisfy the intertwining relation H^T Theta = Theta H
together with Theta = Theta^T > 0.  For a real H the real symmetric
solutions form a linear space; :func:`metric_nullspace` computes a basis
of that space by SVD of the commutator map restricted to symmetric
matrices.  Only symmetric solutions are sought: for real H a complex
Hermitian solution splits into a real symmetric part (a solution) and an
antisymmetric imaginary part, and the positive-definiteness question
lives entirely in the symmetric sector.

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

#: Relative rank threshold: singular values at or below RANK_TOL * sigma_max
#: count as zero, far above the SVD's rounding (about 1e-16 * sigma_max).
RANK_TOL = 1e-10


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


def _sym_basis(n: int) -> np.ndarray:
    """The n(n+1)/2 symmetric unit matrices E_ij = E_ji (i <= j), stacked."""
    basis = []
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0
            basis.append(e)
    return np.stack(basis)


def _equation_residual(h: np.ndarray, theta: np.ndarray) -> float:
    num = np.max(np.abs(h.T @ theta - theta @ h))
    den = max(np.max(np.abs(h)) * np.max(np.abs(theta)), np.finfo(float).tiny)
    return num / den


def metric_nullspace(h: np.ndarray) -> MetricFamily:
    """Basis of all real symmetric Theta with H^T Theta = Theta H.

    The map Theta -> H^T Theta - Theta H is assembled over the
    n(n+1)/2-dimensional symmetric sector and its nullspace is taken at
    singular values at or below RANK_TOL * sigma_max.  Near the domain
    boundary the nullspace is ill-conditioned, hence the threshold.  The
    map and the residual use H scaled by a power of two to largest entry
    in [1/2, 1): exact, as the equation is homogeneous.
    """
    h = _finite_square(h, MAX_NULLSPACE_DIM)
    scaled = np.ldexp(h, -math.frexp(np.max(np.abs(h)))[1])
    stack = _sym_basis(len(h))
    k = np.column_stack([(scaled.T @ e - e @ scaled).ravel() for e in stack])
    # The map has n^2 >= n(n+1)/2 rows, so vt has one row per singular
    # value; with sigma_max = 0 every row is kept.
    _, sigma, vt = np.linalg.svd(k)
    family = []
    for vec in vt[sigma <= RANK_TOL * sigma[0]]:
        theta = _candidate(stack, vec)  # exactly symmetric, as each E_ij is
        family.append(theta / np.max(np.abs(theta)))
    residual = max((_equation_residual(scaled, theta) for theta in family), default=0.0)
    return MetricFamily(h=h, dim=len(family), basis=tuple(family), residual=residual)


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


def _family_coefficients(fam: MetricFamily, theta: np.ndarray) -> np.ndarray:
    """Least-squares weights of Theta over the family basis."""
    mat = np.column_stack([e.ravel() for e in fam.basis])
    coeffs, *_ = np.linalg.lstsq(mat, theta.ravel(), rcond=None)
    return coeffs


def _candidate(stack: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Symmetrized sum_k c_k E_k over the stacked basis; the reduction adds
    in basis order from 0.0, exactly as Python's sum over the list does."""
    theta = np.add.reduce(coeffs[:, None, None] * stack, axis=0, initial=0.0)
    return 0.5 * (theta + theta.T)


def find_positive(fam: MetricFamily) -> PositivityCertificate:
    """Best positive-definite metric in the family span, found deterministically.

    H is quasi-Hermitian exactly when it is diagonalizable with a real
    spectrum, and every metric is then sum_n w_n u_n u_n^T with w_n > 0
    over its left eigenvectors u_n.  The dyad with w_n = 1 over the unit
    left eigenvectors of the real eigenvalues is therefore positive
    definite for an all-real spectrum (positive semidefinite for a mixed
    one); it and the signed basis elements seed a Nelder-Mead polish of
    the normalized smallest eigenvalue (:func:`minimize`, quasih's own,
    step for step scipy's), run once more from unit scale if it stalls at
    its iteration limit.  When any eigenvalue is non-real
    no positive Theta exists, so there is no polish: the certificate is
    the best of these starts, not positive (about 0 for a mixed spectrum,
    a basis element's ratio for an all-complex one).
    """
    if fam.dim < 1:
        raise ValueError("family must contain at least one basis element")

    candidates = []
    # Left eigenvectors of H (u^T H = E u^T) are the eigenvectors of H^T.
    w, u = np.linalg.eig(fam.h.T)
    real = np.abs(w.imag) < REALITY_TOL
    if real.any():
        left = np.real(u[:, real])
        candidates.append(_family_coefficients(fam, left @ left.T))
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
        if res.status == 2:
            # The objective ignores scale: stalled coefficients outgrow the absolute xatol.
            res = minimize(objective, res.x / np.max(np.abs(res.x)))
        if -res.fun > best_min:
            m, sign = _signed_min_eig(_candidate(stack, res.x))
            best_min, best_coeffs = m, sign * res.x

    # Report coefficients scaled to unit largest eigenvalue of Theta.
    w = np.linalg.eigvalsh(_candidate(stack, best_coeffs))
    if w[-1] > 0:
        best_coeffs = np.asarray(best_coeffs) / w[-1]
    # Positivity below numerical noise, 1e-12, cannot be certified (e.g.
    # the singular family at an exceptional point).
    return PositivityCertificate(
        coefficients=tuple(float(c) for c in np.atleast_1d(best_coeffs)),
        min_eigenvalue=float(best_min),
        positive=bool(best_min > 1e-12),
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
