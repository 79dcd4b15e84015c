"""Candidate metric operators Theta for the model Hamiltonians.

A metric satisfies H^T Theta = Theta H with Theta = Theta^T > 0.  Every
quasih model has a diagonal sign matrix P with H^T = P H P, a
pseudo-metric (Mostafazadeh 2002), so the equation says that P Theta
commutes with H.  For a non-derogatory H the commutant is the
polynomials in H (Taussky & Zassenhaus 1959), and :func:`metric_nullspace`
returns the basis P H^k, k < n, built exactly in integers; a derogatory
H, or one without such a P, raises ValueError.

A positive-definite solution exists exactly when H is diagonalizable
with a real spectrum, and every one is then U diag(1/s) U^T over the unit
left eigenvectors U; :func:`find_positive` builds the best conditioned one
in closed form, the Krein-normalized dyad s_n = |u_n^T P u_n|, with a dual
bound.  Outside the domain no positive Theta exists; the certificate is the
dyad over the real eigenvalues, or the pseudo-metric P when there is none.
For the one-parameter band model the closed four-parameter family
Theta(p, q, r, s) is available in closed form; the best achievable
conditioning degrades to zero as the exceptional point alpha^2 = 2/5 is
approached (the metric becomes singular on the domain boundary).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from quasih.exact import dyadic_integers
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
    """Best positive candidate in a family's span.

    ``coefficients`` are the weights over the family basis of the
    reported candidate, normalized to unit largest eigenvalue of Theta;
    ``min_eigenvalue`` is its smallest eigenvalue after that
    normalization, and ``positive`` says whether it exceeds the fixed
    positivity tolerance 1e-12.  ``upper_bound`` is a dual bound on the best
    ``min_eigenvalue`` in the family, None outside the reality domain, where
    no positive member exists and the candidate is the real-eigenvector dyad,
    or P when no eigenvalue is real.
    """

    coefficients: tuple[float, ...]
    min_eigenvalue: float
    positive: bool
    upper_bound: float | None


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
    once: the basis depends on no BLAS/LAPACK kernel.  Each entry of the residual
    H^T Theta - Theta H, H scaled into [1/2, 1), is the fsum, exact in any order,
    of its 2n products from one numpy multiply, each exactly rounded.
    """
    h = _finite_square(h, MAX_NULLSPACE_DIM)
    rows = h.tolist()
    n = len(rows)
    signs = _sign_matrix(rows)
    ints, _ = dyadic_integers([x for row in rows for x in row])
    cols = [ints[j::n] for j in range(n)]  # the columns of H over one power of two
    exact = [[signs[i] * int(i == j) for j in range(n)] for i in range(n)]  # P H^0
    family, pivots = [], []
    for k in range(n):
        if k:  # P H^k = (P H^(k-1)) H
            exact = [[sum(map(operator.mul, r, c)) for c in cols] for r in exact]
        # Fraction-free elimination of the upper triangle by the earlier pivot rows.
        row = [exact[i][j] for i in range(n) for j in range(i, n)]
        top = max(map(abs, row))  # P H^k is symmetric: row holds every entry
        for col, pivot in pivots:
            if row[col]:
                row = [pivot[col] * x - row[col] * y for x, y in zip(row, pivot)]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            raise ValueError("matrix is derogatory (an eigenvalue has two Jordan blocks)")
        g = math.gcd(*row)
        pivots.append((col, [x // g for x in row]))
        family.append([[x / top for x in r] for r in exact])
    hmax, e = math.frexp(np.max(np.abs(h)))  # hmax: hs's largest |entry|
    hs, t = np.ldexp(h, -e), np.array(family)
    # Entry (i, j) of H^T T - T H over k: the products hs[k, i] t[k, j], -t[i, k] hs[k, j].
    terms = np.concatenate((hs.T[:, None] * t.swapaxes(1, 2)[:, None], -t[:, :, None] * hs.T), 3)
    residual = max(map(abs, map(math.fsum, terms.reshape(-1, 2 * n).tolist()))) / (hmax or 1.0)
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


def _jacobi_eigenvalues(a: list[list[float]]) -> list[float]:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations
    (Rutishauser 1966) in plain floats, so unlike LAPACK's the same bits
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


def _dual_bound(m: np.ndarray, j: np.ndarray) -> float:
    """Upper bound on 1/cond of the best metric, from M = Q^^T Q^ over the
    Krein-normalized left eigenvectors and their Krein signs j, J = diag(j).

    PSD Z1, Z2 of equal diagonals bound every t of t S <= M <= S, S > 0
    diagonal, by tr(Z1 M)/tr(Z2 M).  Z1 = v v^T and Z2 = (Jv)(Jv)^T qualify
    for any v, and M^-1 = J M J makes the ratio lambda_min/lambda_max, the
    optimum, at M's lowest eigenvector.
    """
    v = np.linalg.eigh(m)[1][:, 0]
    jv = j * v
    return float(v @ m @ v) / float(jv @ m @ jv)


def find_positive(fam: MetricFamily) -> PositivityCertificate:
    """Best positive-definite metric in the family span, built from the spectrum.

    H is quasi-Hermitian exactly when it is diagonalizable with a real
    spectrum, and every metric is then Theta(W) = Q W Q^T, W > 0 diagonal,
    over the left eigenvectors Q.  The best one is the Krein-normalized dyad
    Theta* = sum_n q_n q_n^T / s_n, s_n = |q_n^T P q_n| over unit q_n (P·C,
    the CPT metric of Bender, Brody & Jones 2002):

    - distinct real eigenvalues make the q_n P-orthogonal, so Q^ = Q S^-1/2
      has Q^T P Q^ = J = diag(+-1), and Theta(W)^-1 = P Theta(W^-1) P;
    - so log cond Theta(e^x) = g(x) + g(-x), g = log lambda_max, for the
      Theta(W) of Q^;
    - g is convex (a maximum of log-sum-exps), so g(x) + g(-x) is convex and
      even, least at x = 0: lambda_min lambda_max = 1 and cond Theta* =
      sigma_max(Q^)^4.

    ``upper_bound`` is :func:`_dual_bound`: (Jv)(Jv)^T, J the Krein signs, has
    v v^T's diagonal, so v^T M v / (Jv)^T M (Jv), M = Q^^T Q^, bounds the best
    ratio by weak duality, and meets it at M's lowest eigenvector.
    At an exceptional point a Krein norm is 0, and eig's rounding leaves
    about sqrt(eps); so a norm not above n sqrt(eps) marks the point, where
    cond Theta* >= 1/s_n^2 is past any certifiable value.  There, and for a
    mixed spectrum, Theta is the dyad s = 1 over the real eigenvalues, or
    P = basis[0] with none, and has no bound.  Its weights over the basis
    are a least-squares fit; the reported eigenvalues are
    :func:`_jacobi_eigenvalues`'.  RuntimeError if an eigenvalue overflows.
    """
    # Left eigenvectors of H (u^T H = E u^T) are the eigenvectors of H^T.
    w, u = np.linalg.eig(fam.h.T)
    if not np.all(np.isfinite(w)):
        raise RuntimeError("eigenvalues overflow the float range")
    real = np.abs(w.imag) < REALITY_TOL
    left, upper = np.real(u[:, real]), None
    if real.all():
        left = left / np.linalg.norm(left, axis=0)
        krein = np.diagonal(fam.basis[0]) @ (left * left)
        if np.abs(krein).min() > fam.dim * math.sqrt(np.finfo(float).eps):
            left = left / np.sqrt(np.abs(krein))
            upper = _dual_bound(left.T @ left, np.sign(krein))
    if real.any():
        mat = np.column_stack([e.ravel() for e in fam.basis])
        coeffs = np.linalg.lstsq(mat, (left @ left.T).ravel(), rcond=None)[0]
    else:
        coeffs = np.eye(fam.dim)[0]  # P = basis[0]

    # Theta at unit largest eigenvalue; positivity below noise, 1e-12, is not certified.
    w = _jacobi_eigenvalues(sum(c * e for c, e in zip(coeffs, fam.basis)).tolist())
    lo, hi = min(w), max(w)
    if hi < -lo:  # Theta's sign is free
        coeffs, lo, hi = -coeffs, -hi, -lo
    return PositivityCertificate(
        coefficients=tuple(float(c) for c in coeffs / hi),
        min_eigenvalue=lo / hi,
        positive=lo / hi > 1e-12,
        upper_bound=upper,
    )


#: Exceptional point of the band model.
ALPHA_CRITICAL = math.sqrt(2.0 / 5.0)


def boundary_degeneracy_profile(alphas) -> list[tuple[float, float]]:
    """Best positive-metric conditioning along the band coupling.

    For each alpha in (0, sqrt(2/5)] the smallest eigenvalue of the best
    positive Theta (unit largest eigenvalue) from :func:`find_positive`
    is reported; the profile collapses toward zero as the exceptional
    point is approached.  At alpha = sqrt(2/5) H is defective, and for
    every alpha within 1e-14 of it the profile value is NaN (flagged, not
    computed).  Every alpha is checked before the first certificate is
    computed.
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
