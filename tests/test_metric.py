import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from quasih import (
    ParamPoint,
    Reality,
    boundary_degeneracy_profile,
    build_alpha,
    build_band,
    build_full,
    build_two_state,
    closed_form_band_metric,
    find_positive,
    in_domain,
    metric_nullspace,
    numeric_energies,
)
import quasih.metric
from quasih.metric import (
    ALPHA_CRITICAL,
    MAX_NULLSPACE_DIM,
    _jacobi_eigenvalues,
)


def equation_residual(h, theta):
    return np.max(np.abs(h.T @ theta - theta @ h))


def projection_residual(fam, theta):
    mat = np.column_stack([e.ravel() for e in fam.basis])
    coeffs, *_ = np.linalg.lstsq(mat, theta.ravel(), rcond=None)
    return np.max(np.abs(mat @ coeffs - theta.ravel()))


def test_diagonal_commutant():
    h = np.diag([-3.0, -1.0, 1.0, 3.0])
    fam = metric_nullspace(h)
    assert fam.dim == 4
    assert fam.residual <= 1e-12
    # span contains the four diagonal unit matrices
    for k in range(4):
        e = np.zeros((4, 4))
        e[k, k] = 1.0
        assert projection_residual(fam, e) <= 1e-10


def test_band_family_dimension_and_residual():
    rng = np.random.default_rng(7)
    for alpha in rng.uniform(0.01, 0.6, size=10):
        fam = metric_nullspace(build_alpha(alpha))
        assert fam.dim == 4
        for theta in fam.basis:
            np.testing.assert_array_equal(theta, theta.T)
            assert equation_residual(fam.h, theta) <= 1e-9 * np.max(
                np.abs(fam.h)
            ) * np.max(np.abs(theta))


# Each model's diagonal sign matrix P, with H^T = P H P.
SIGN_MATRICES = [
    (build_full(ParamPoint(2.0, 1.0, 0.8, 0.8)), [1, 1, -1, -1]),
    (build_alpha(0.3), [1, -1, 1, -1]),
    (build_band(0.7, -1.1), [1, -1, 1, -1]),
    (build_two_state(0.5), [1, -1]),
    (np.diag([-3.0, -1.0, 1.0, 3.0]), [1, 1, 1, 1]),
]


@pytest.mark.parametrize("h, signs", SIGN_MATRICES)
def test_first_basis_element_is_the_sign_matrix(h, signs):
    p = np.diag(np.array(signs, dtype=float))
    assert (h.T == p @ h @ p).all()
    assert metric_nullspace(h).basis[0].tobytes() == p.tobytes()


@pytest.mark.parametrize(
    "h",
    [
        build_alpha(0.3),
        build_alpha(ALPHA_CRITICAL),
        build_full(ParamPoint(2.0, 1.0, 0.8, 0.8)),
        build_full(ParamPoint(1e308, 1e308, 1e308, 1e308)),
        build_full(ParamPoint(5e-324, -1e300, 0.1, 7.0)),
        build_two_state(1.0),
    ],
)
def test_basis_is_p_times_powers_of_h_each_entry_rounded_once(h):
    fam = metric_nullspace(h)
    signs = [int(x) for x in np.diag(fam.basis[0])]
    m = [[Fraction(x) for x in row] for row in h.tolist()]
    n = len(m)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for theta in fam.basis:
        exact = [[signs[i] * x for x in row] for i, row in enumerate(power)]
        top = max(abs(x) for row in exact for x in row)
        assert theta.tolist() == [[float(x / top) for x in row] for row in exact]
        power = [[sum(a * b for a, b in zip(r, c)) for c in zip(*m)] for r in power]


def test_family_of_huge_couplings_has_dimension_four():
    # I, H, H^2 and H^3 are independent in exact arithmetic: H is
    # non-derogatory, and its family has dimension 4.  The SVD's rank cut
    # counted 5.
    fam = metric_nullspace(build_full(ParamPoint(1e308, 1e308, 1e308, 1e308)))
    assert fam.dim == len(fam.basis) == 4


def mp_commutant(h):
    """Orthonormal basis, to 50 digits, of all real X with H^T X = X H, not
    only the symmetric ones: elimination with complete pivoting on the
    n^2 x n^2 map, stopped at pivots below 1e-40, then Gram-Schmidt."""
    n = len(h)
    size = n * n
    with mpmath.workdps(50):
        top = max(abs(x) for row in h for x in row) or 1.0
        hm = [[mpmath.mpf(x) / top for x in row] for row in h]
        rows = [[mpmath.mpf(0)] * size for _ in range(size)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    rows[i * n + j][k * n + j] += hm[k][i]
                    rows[i * n + j][i * n + k] -= hm[k][j]
        pivots = []
        for r in range(size):
            free = [c for c in range(size) if c not in pivots]
            cells = ((k, c) for k in range(r, size) for c in free)
            best, col = max(cells, key=lambda kc: abs(rows[kc[0]][kc[1]]))
            if abs(rows[best][col]) <= mpmath.mpf(10) ** -40:
                break
            rows[r], rows[best] = rows[best], rows[r]
            rows[r] = [x / rows[r][col] for x in rows[r]]
            for k in range(size):
                if k != r and rows[k][col]:
                    f = rows[k][col]
                    rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
            pivots.append(col)
        vectors = []
        for free in (c for c in range(size) if c not in pivots):
            v = [mpmath.mpf(0)] * size
            v[free] = mpmath.mpf(1)
            for r, col in enumerate(pivots):
                v[col] = -rows[r][free]
            for q in vectors:
                dot = mpmath.fsum(a * b for a, b in zip(q, v))
                v = [a - dot * b for a, b in zip(v, q)]
            norm = mpmath.sqrt(mpmath.fsum(a * a for a in v))
            vectors.append([a / norm for a in v])
        return vectors


# The reference decides rank at 1e-40, so the slice's c = d is either 0
# or at least 1e-6: at (1, 3, d, d) with tiny d the matrix is within about
# d of a derogatory one, nearer than the reference can resolve.
@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.builds(build_alpha, st.floats(0.0, 0.75)),
        st.builds(
            lambda a, b, d: build_full(ParamPoint(a, b, d, d)),
            st.floats(-3.0, 3.0),
            st.floats(-3.0, 3.0),
            st.one_of(st.just(0.0), st.floats(1e-6, 1.5)),
        ),
        st.builds(build_two_state, st.floats(-3.0, 3.0)),
    )
)
@example(build_alpha(ALPHA_CRITICAL))
@example(build_full(ParamPoint(1.0, 3.0, 0.0, 0.0)))
@example(build_two_state(1.0))
def test_span_is_the_50_digit_nullspace(h):
    commutant = mp_commutant(h.tolist())
    try:
        fam = metric_nullspace(h)
    except ValueError as exc:
        # Derogatory: the commutant is larger than the polynomials in H.
        assert "derogatory" in str(exc) and len(commutant) > len(h)
        return
    assert fam.dim == len(commutant) == len(h)
    basis = np.array([theta.ravel() for theta in fam.basis])
    sigma = np.linalg.svd(basis, compute_uv=False)
    assert sigma[-1] >= 1e-8 * sigma[0]
    with mpmath.workdps(50):
        for row in basis.tolist():
            v = [mpmath.mpf(x) for x in row]
            for q in commutant:
                dot = mpmath.fsum(a * b for a, b in zip(q, v))
                v = [a - dot * b for a, b in zip(v, q)]
            assert mpmath.norm(v) <= 1e-15 * np.linalg.norm(row)


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(st.floats(-1e3, 1e3), min_size=10, max_size=10),
    scale=st.sampled_from([1.0, 1e-300, 1e300]),
)
@example(entries=[1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0, 0.0, -1.0], scale=1.0)
@example(entries=[0.0] * 10, scale=1.0)
def test_jacobi_eigenvalues_match_eigvalsh(entries, scale):
    theta = np.zeros((4, 4))
    theta[np.triu_indices(4)] = np.array(entries) * scale
    theta = np.triu(theta) + np.triu(theta, 1).T
    w = np.linalg.eigvalsh(theta)
    assert np.max(np.abs(np.sort(_jacobi_eigenvalues(theta.tolist())) - w)) <= 1e-14 * np.max(
        np.abs(w)
    )


def test_closed_form_satisfies_equation():
    h = build_alpha(0.5)
    theta = closed_form_band_metric(0.5, 1.0, 1.0, 0.0, 0.0)
    assert theta[0, 3] == 0.0 and theta[0, 2] == 0.0
    assert equation_residual(h, theta) <= 1e-12
    np.testing.assert_array_equal(theta, theta.T)


def test_closed_form_in_nullspace_span():
    rng = np.random.default_rng(3)
    alpha = 0.3
    fam = metric_nullspace(build_alpha(alpha))
    for _ in range(20):
        p, q, r, s = rng.uniform(-2, 2, size=4)
        theta = closed_form_band_metric(alpha, p, q, r, s)
        assert projection_residual(fam, theta) <= 1e-9 * max(1.0, np.max(np.abs(theta)))


def test_closed_form_free_entries():
    theta = closed_form_band_metric(0.3, 1.5, -0.5, 0.25, -0.75)
    assert theta[1, 1] == 1.5
    assert theta[3, 3] == -0.5
    assert theta[0, 2] == 0.25
    assert theta[1, 3] == -0.75


def test_closed_form_rejects_zero_alpha():
    with pytest.raises(ValueError):
        closed_form_band_metric(0.0, 1, 1, 0, 0)


def test_nullspace_at_exceptional_point():
    # defective H: the symmetric solution space degenerates; record that
    # the family no longer contains a positive-definite member
    fam = metric_nullspace(build_alpha(ALPHA_CRITICAL))
    assert fam.dim >= 1
    cert = find_positive(fam)
    assert not cert.positive
    assert cert.upper_bound is None


def test_positive_inside_domain():
    fam = metric_nullspace(build_alpha(0.3))
    cert = find_positive(fam)
    assert cert.positive
    assert cert.min_eigenvalue > 0
    # the certificate's coefficients reproduce a positive-definite Theta
    theta = sum(c * e for c, e in zip(cert.coefficients, fam.basis))
    w = np.linalg.eigvalsh(theta)
    assert w[0] > 0
    assert w[-1] == pytest.approx(1.0, rel=1e-6)


# min_eigenvalue of the random-restart search that find_positive used
# before it became deterministic
SEARCH_REFERENCE = [
    (0.1, 0.5222412545769198),
    (0.5 * ALPHA_CRITICAL, 0.11850009143334203),
    (0.3, 0.13344529343325504),
    (0.5, 0.02421877138866568),
    (0.99 * ALPHA_CRITICAL, 0.0007866936178347394),
    (math.sqrt(0.399), 9.703808688233543e-05),
]


@pytest.mark.parametrize("alpha, expected", SEARCH_REFERENCE)
def test_certificate_matches_search_reference(alpha, expected):
    cert = find_positive(metric_nullspace(build_alpha(alpha)))
    assert cert.positive
    assert cert.min_eigenvalue == pytest.approx(expected, rel=1e-9)


def left_dyad_ratio(h):
    _, v = np.linalg.eig(h)
    left = np.real(np.linalg.inv(np.real(v)))
    rows = left / np.linalg.norm(left, axis=1, keepdims=True)
    w = np.linalg.eigvalsh(rows.T @ rows)
    return w[0] / w[-1]


def test_certificate_is_deterministic():
    for alpha in (0.3, 0.7):
        fam = metric_nullspace(build_alpha(alpha))
        assert find_positive(fam) == find_positive(fam)


def test_mixed_spectrum_outside_domain_is_semidefinite_not_positive():
    h = build_full(ParamPoint(2.0, 1.0, 0.8, 0.8))
    energies = np.linalg.eigvals(h)
    assert np.sum(np.abs(energies.imag) < 1e-9) == 2
    cert = find_positive(metric_nullspace(h))
    assert cert.min_eigenvalue >= -1e-12
    assert not cert.positive
    assert cert.upper_bound is None


def test_matrix_without_a_sign_matrix_raises():
    # h_21 = 0 but h_12 = 1: no diagonal P gives H^T = P H P.
    with pytest.raises(ValueError, match="no diagonal sign matrix P with H\\^T = P H P"):
        metric_nullspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "h", [build_full(ParamPoint(1.0, 3.0, 0.0, 0.0)), np.zeros((2, 2)), np.eye(3)]
)
def test_derogatory_matrix_raises(h):
    # At (1, 3, 0, 0) H^2 = 0 with two Jordan blocks: the commutant is
    # larger than the polynomials in H, and the family is not P p(H).
    with pytest.raises(ValueError, match="matrix is derogatory"):
        metric_nullspace(h)


def test_near_derogatory_matrix_is_decided_exactly():
    # With a = c = d = 0 the blocks have eigenvalues +-1 and +-sqrt(9 - b^2),
    # which coincide at b^2 = 8.  The float sqrt(8) misses it by a rounding,
    # so the four eigenvalues are distinct and the family has dimension 4.
    assert metric_nullspace(build_full(ParamPoint(0.0, math.sqrt(8.0), 0.0, 0.0))).dim == 4


@pytest.mark.parametrize(
    "h", [build_full(ParamPoint(1e300, 1e300, 1e300, 1e300)), build_alpha(0.7), build_alpha(0.3)]
)
def test_reported_ratio_is_that_of_the_better_sign(h):
    # The sign of Theta is free, so min/max eigenvalue is at least -1.  At
    # the 1e300 point the dyad has a near tie |lambda_min| ~ lambda_max, and
    # under some OpenBLAS cores its Jacobi eigenvalues put the larger
    # magnitude on the negative side, so the sign must be flipped.
    cert = find_positive(metric_nullspace(h))
    theta = sum(c * e for c, e in zip(cert.coefficients, metric_nullspace(h).basis))
    w = np.linalg.eigvalsh(theta)
    assert -1.0 <= cert.min_eigenvalue <= 1.0
    assert w[-1] == pytest.approx(1.0, rel=1e-12)


def test_no_positive_outside_domain():
    # With no real eigenvalue the certificate is the pseudo-metric P =
    # basis[0] = diag(+-1), whatever the basis.  A ranked search over the
    # signed basis elements reported -0.0508 and -1/3 at the first two.
    for h in (build_alpha(0.7), build_alpha(0.7469316998166183), build_two_state(2.0)):
        fam = metric_nullspace(h)
        assert numeric_energies(fam.h).classification is Reality.COMPLEX_PAIRS
        cert = find_positive(fam)
        assert cert.coefficients == (1.0,) + (0.0,) * (fam.dim - 1)
        assert cert.min_eigenvalue == -1.0
        assert not cert.positive
        assert cert.upper_bound is None


@pytest.mark.parametrize(
    "h, positive",
    [
        (build_alpha(0.3), True),
        (build_alpha(0.7), False),
        (build_alpha(ALPHA_CRITICAL), False),
        (build_full(ParamPoint(2.0, 1.0, 0.8, 0.8)), False),
    ],
)
def test_certificate_is_built_without_ranking_candidates(h, positive, monkeypatch):
    # Inside D, outside it, at the exceptional point and on a mixed
    # spectrum, the certificate is built from the spectrum: no candidate
    # is scored by eigvalsh, as the ranked search outside D did.
    def eigvalsh(*args, **kwargs):
        raise AssertionError("a candidate was ranked by eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert find_positive(metric_nullspace(h)).positive is positive


def forbid_solve(monkeypatch):
    def dual_bound(*args, **kwargs):
        raise AssertionError("the best metric's bound was computed on a non-real spectrum")

    monkeypatch.setattr(quasih.metric, "_dual_bound", dual_bound)


# All complex at the two alphas, where a Nelder-Mead polish used to run to
# ~8,000 evaluations; two real and two complex at the --full point.  A search
# that solves for every input fails here.
@pytest.mark.parametrize(
    "h",
    [
        build_alpha(0.7469316998166183),
        build_alpha(0.6770304262188971),
        build_full(ParamPoint(2.0, 1.0, 0.8, 0.8)),
    ],
)
def test_non_real_spectrum_is_decided_without_the_polish(h, monkeypatch):
    forbid_solve(monkeypatch)
    assert not find_positive(metric_nullspace(h)).positive


@pytest.mark.parametrize(
    "h, optimum",
    [
        # 40-digit mpmath eigenvalues put the family's best ratio at
        # 0.16327153801467488; a single polish stopped at 0.16319676168351593.
        (build_alpha(0.271890064688125), 0.163271538),
        # A single polish stopped at 0.027065272198130493.
        (
            build_full(
                ParamPoint(
                    1.047198218672584, -0.5258739766939025, 0.8961069822402675, 0.8961069822402675
                )
            ),
            0.0272915,
        ),
    ],
)
def test_best_metric_reaches_the_optimum_where_a_polish_stalled(h, optimum):
    # A Nelder-Mead polish over the coefficients stalled at both points: the
    # objective ignores scale, and the coefficients drifted to |c| ~ 5e10,
    # where the absolute xatol is never met.  The Krein-normalized dyad is the
    # global optimum.
    cert = find_positive(metric_nullspace(h))
    assert cert.positive
    assert cert.min_eigenvalue >= optimum


# Couplings where an unguarded Newton solve (np.linalg.solve) raised
# LinAlgError, singular matrix, near the end of the scaling solve, and
# min_eigenvalue as the Nelder-Mead polish reported it.
UNGUARDED_SOLVE_FAILED = [
    (0.5943671471947197, 0.005159303297348549),
    (0.583675678344857, 0.006813184729451902),
    (0.5855423476884445, 0.0065170490059767525),
]


@pytest.mark.parametrize("alpha, polished", UNGUARDED_SOLVE_FAILED)
def test_points_where_an_unguarded_newton_solve_failed(alpha, polished):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = find_positive(metric_nullspace(build_alpha(alpha)))
    assert cert.min_eigenvalue == pytest.approx(polished, rel=1e-13)


# The first 20 inside-D items of perfbench's certify workload at seed 4, as
# (alpha,) or (a, b, d) of --full a b d d, and min_eigenvalue as the
# Nelder-Mead polish reported it.
POLISHED = [
    ((0.4079292869700531,), 0.05786495505682625),
    ((-0.012794407287753273, -0.03828099626331083, 0.7753279745556815), 0.12648225079548694),
    ((0.41546090154801335,), 0.054298618545090764),
    ((-0.04964829232514045, 1.0548051896011552, 0.7402564201893328), 0.060695490712089774),
    ((0.1695108736123924,), 0.3298529973310305),
    ((0.16035273579633813, 1.2278871866400927, 0.17784559086388962), 0.3655909192239889),
    ((0.10033319253997305,), 0.5211035691605562),
    ((0.5331897999503914, -2.439104619296029, 0.2623803794178797), 0.018271767044507163),
    ((0.40744716357724187,), 0.05809922151555355),
    ((0.570163285948202, 0.15199135645752726, 0.9631968275604523), 0.028253949360519552),
    ((0.29765430453369757,), 0.13573596574335106),
    ((-0.06845039542904185, 2.598110882244418, 0.07839458865251422), 0.05320885918585411),
    ((0.25880353258463396,), 0.17907424618883577),
    ((-0.16053564164588874, 1.7726893909592132, 0.5884715900521152), 0.025391180253935643),
    ((0.5900207244025858,), 0.005819456828210179),
    ((1.2757053680593842, -1.1237584612420868, 0.818668788182752), 0.01038311988072668),
    ((0.22919510994821574,), 0.22003135025270099),
    ((-0.5894059200642925, -0.4846787060719451, 0.2553300629827983), 0.23166878997859786),
    ((0.5635965525362762,), 0.010212926714630395),
    ((0.401320704893827, 2.0361364491372393, 0.5228762686985041), 0.0402721239834817),
]


def slice_model(a, b, d):
    return build_full(ParamPoint(a, b, d, d))


@pytest.mark.parametrize("point, polished", POLISHED)
def test_scaling_solve_is_no_worse_than_the_polish(point, polished):
    h = build_alpha(*point) if len(point) == 1 else slice_model(*point)
    assert find_positive(metric_nullspace(h)).min_eigenvalue >= polished * (1.0 - 1e-13)


def bound_tolerance(w):
    """Allowed upper_bound - min_eigenvalue, relative, for a best Theta with
    eigenvalues w (ascending).  It is a rounding term: eigh and the Jacobi
    rotations fix the smallest eigenvalue only to eps times the condition
    number.  The split term, sized for a bound built from projectors on the
    extreme eigenvectors, is the slack for the reported Theta: the float sum
    sum_k c_k E_k carries about eps sum_k |c_k| of rounding, which near the
    derogatory crossing b = 2 sqrt(2) of the slice a = d = 0, where the c_k
    reach hundreds, is more than the first term allows."""
    eps = np.finfo(float).eps
    w = np.asarray(w) / w[-1]
    pairs = [(w[1] - w[0], w[0]), (w[-1] - w[-2], 1.0)]
    split = sum(min(4.0 * gap / size, 64.0 * eps / gap) for gap, size in pairs if gap > 0.0)
    return 8.0 * eps / w[0] + split


inside_domain_models = st.one_of(
    st.builds(build_alpha, st.floats(0.05, ALPHA_CRITICAL - 0.01)),
    # Certified positive from margin 1e-6 on (see the one-millionth test); on the
    # boundary itself, as at (0, 3 - 4e-16, 0), min_eigenvalue is ~1e-16.
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 1.5))
    .filter(lambda p: in_domain(*p).margin >= 1e-6)
    .map(lambda p: slice_model(*p)),
)

# Where the method of centers solved for the scaling, upper_bound stayed up
# to 170 eps cond above min_eigenvalue (cond 7,500): the centering could not
# resolve kappa below eigh's rounding of the smallest eigenvalue.
LOOSE_BOUND_POINT = (1.7992224645830186, -1.1132958495347924, 1.2642044254003495)


@settings(max_examples=60, deadline=None)
@given(inside_domain_models)
@example(slice_model(0.0, 0.0, 0.47598804490995306))  # both extreme eigenvalues double
@example(slice_model(0.0, 5.960464477539063e-08, 0.5))  # both nearly double
@example(slice_model(0.0, 3.1209493457892186e-142, 0.5))  # a diagonal ratio overflowed
@example(slice_model(0.0, 3.0, 0.00390625))  # condition number 4e5
@example(slice_model(0.0, 8.264188291868651e-147, 8.264188291868651e-147))  # H ~ diagonal
@example(slice_model(0.0, 5.960464477539063e-08, 0.71875))
@example(slice_model(*LOOSE_BOUND_POINT))
def test_certificate_inside_domain_is_positive_and_beats_the_dyad(h):
    fam = metric_nullspace(h)
    cert = find_positive(fam)
    assert cert.positive
    # Each ratio carries rounding of about eps times the condition number,
    # and the fit over the basis (condition number up to about 50) more.
    slack = 64.0 * np.finfo(float).eps / cert.min_eigenvalue
    assert cert.min_eigenvalue >= left_dyad_ratio(h) * (1.0 - slack)
    assert cert.min_eigenvalue <= cert.upper_bound * (1.0 + slack)
    w = np.linalg.eigvalsh(sum(c * e for c, e in zip(cert.coefficients, fam.basis)))
    assert cert.upper_bound - cert.min_eigenvalue <= bound_tolerance(w) * cert.min_eigenvalue


def test_bound_is_tight_where_the_centering_left_it_loose():
    cert = find_positive(metric_nullspace(slice_model(*LOOSE_BOUND_POINT)))
    eps, cond = np.finfo(float).eps, 1.0 / cert.min_eigenvalue
    assert abs(cert.upper_bound - cert.min_eigenvalue) <= 8.0 * eps * cond * cert.min_eigenvalue


def mp_best_ratio(h):
    """lambda_min/lambda_max of Q^^T Q^ at 50 digits: the best metric's ratio,
    over H's left eigenvectors divided by the square roots of their Krein
    norms.  mpmath's eigenvectors may carry complex phases, which the
    Hermitian Gram matrix leaves out."""
    p = np.diagonal(metric_nullspace(h).basis[0])
    n = len(h)
    with mpmath.workdps(50):
        _, u = mpmath.eig(mpmath.matrix(h.T.tolist()))
        cols = [[u[i, k] for i in range(n)] for k in range(n)]
        s = [mpmath.fsum(pi * abs(x) ** 2 for pi, x in zip(p, col)) for col in cols]
        qhat = [[x / mpmath.sqrt(abs(sk)) for x in col] for col, sk in zip(cols, s)]
        gram = mpmath.matrix(
            [[mpmath.fsum(mpmath.conj(x) * y for x, y in zip(ci, cj)) for cj in qhat] for ci in qhat]
        )
        w = mpmath.eighe(gram, eigvals_only=True)
        return float(min(w) / max(w))


def seeded_inside_domain_models(count=8, seed=7):
    """count alpha models and count slice models with margin >= 1e-6, seeded."""
    rng = np.random.default_rng(seed)
    models = [build_alpha(x) for x in rng.uniform(0.05, ALPHA_CRITICAL - 0.01, count)]
    while len(models) < 2 * count:
        a, b, d = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.0, 1.5)
        if in_domain(a, b, d).margin >= 1e-6:
            models.append(slice_model(a, b, d))
    return models


@pytest.mark.parametrize(
    "h",
    [
        *seeded_inside_domain_models(),
        slice_model(0.0, 0.0, 0.47598804490995306),  # both extreme eigenvalues of Q^^T Q^ double
        # Both nearly double: the projector search over the extreme
        # eigenvectors left the bound 1.8e-8 relative above the optimum.
        slice_model(0.0, 5.960464477539063e-08, 0.5),
    ],
)
def test_upper_bound_is_the_50_digit_optimum(h):
    optimum = mp_best_ratio(h)
    eps, cond = np.finfo(float).eps, 1.0 / optimum
    cert = find_positive(metric_nullspace(h))
    assert abs(cert.upper_bound - optimum) <= 4.0 * eps * cond * optimum


def krein_normalized(h):
    """Q^: the unit left eigenvectors of H over the square roots of their
    Krein norms |q^T P q|, P = basis[0]."""
    _, u = np.linalg.eig(h.T)
    q = np.real(u) / np.linalg.norm(np.real(u), axis=0)
    p = np.diagonal(metric_nullspace(h).basis[0])
    return q / np.sqrt(np.abs(p @ (q * q)))


@settings(max_examples=40, deadline=None)
@given(inside_domain_models, st.integers(0, 2**32 - 1))
@example(slice_model(*LOOSE_BOUND_POINT), 0)
@example(slice_model(0.0, 0.0, 0.47598804490995306), 0)  # both extreme eigenvalues double
def test_no_log_weights_beat_the_krein_scaling(h, seed):
    # Every metric is Theta(e^x) = Q^ diag(e^x) Q^^T, and log cond is convex
    # and even in x, least at x = 0, where lambda_min lambda_max = 1.
    qhat = krein_normalized(h)
    w = np.linalg.eigvalsh(qhat @ qhat.T)
    eps, cond = np.finfo(float).eps, w[-1] / w[0]
    assert abs(w[0] * w[-1] - 1.0) <= 64.0 * eps * cond
    cert = find_positive(metric_nullspace(h))
    rng = np.random.default_rng(seed)
    for scale in (1e-6, 1e-3, 1.0):
        for x in rng.normal(scale=scale, size=(8, len(h))):
            v = np.linalg.eigvalsh((qhat * np.exp(x)) @ qhat.T)
            assert v[0] / v[-1] <= cert.min_eigenvalue * (1.0 + 64.0 * eps * cond)


@settings(max_examples=100, deadline=None)
@given(st.floats(-0.999, 0.999))
@example(0.0)
def test_two_state_metric_is_the_forsythe_straus_optimum(b):
    # K = U^T U is [[1, r], [r, 1]] with |r| = |b|, and for 2 x 2 the
    # equilibrated scaling is optimal (Forsythe & Straus 1955).
    cert = find_positive(metric_nullspace(build_two_state(b)))
    assert cert.min_eigenvalue == pytest.approx((1.0 - abs(b)) / (1.0 + abs(b)), rel=1e-12)


def near_boundary_full_points(n_rays=6, seed=6):
    """(a, b, d, margin target) on seeded rays from the origin, bisected to
    domain margin +1e-6 (inside D) and -1e-6 (outside)."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n_rays):
        angle, d = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 0.9)
        u = (math.cos(angle), math.sin(angle))
        for target in (1e-6, -1e-6):
            lo, hi = 0.0, 5.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if in_domain(mid * u[0], mid * u[1], d).margin > target:
                    lo = mid
                else:
                    hi = mid
            points.append((lo * u[0], lo * u[1], d, target))
    return points


# Verdicts recorded while the polish still ran on every input, so that
# skipping it outside D changes none: inside D the certificate is positive
# down to alpha^2 = 0.4 - 1e-10 and below pos_tol closer in; outside D it
# is never positive.
NEAR_EP_INSIDE = [(k, k <= 10) for k in range(3, 13)]


@pytest.mark.parametrize("k, positive", NEAR_EP_INSIDE)
def test_verdict_just_inside_the_exceptional_point(k, positive):
    cert = find_positive(metric_nullspace(build_alpha(math.sqrt(0.4 - 10.0**-k))))
    assert cert.positive is positive


@pytest.mark.parametrize("k", range(3, 13))
def test_verdict_just_outside_the_exceptional_point(k, monkeypatch):
    forbid_solve(monkeypatch)
    cert = find_positive(metric_nullspace(build_alpha(math.sqrt(0.4 + 10.0**-k))))
    assert not cert.positive


def test_verdicts_at_margin_one_millionth_from_the_boundary(monkeypatch):
    for a, b, d, target in near_boundary_full_points():
        fam = metric_nullspace(build_full(ParamPoint(a, b, d, d)))
        with monkeypatch.context() as patch:
            if target < 0:
                forbid_solve(patch)
            # As recorded with the polish on every input.
            assert find_positive(fam).positive is (target > 0)


coefficient = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False), st.sampled_from([0.0, -0.0, -1.0, 5e-324])
)


@settings(max_examples=100, deadline=None)
@given(
    model=st.one_of(
        st.builds(build_alpha, st.floats(0.01, 0.75)),
        st.builds(
            lambda p: build_full(ParamPoint(*p)),
            st.tuples(*[st.floats(-3.0, 3.0)] * 4),
        ),
    ),
    coeffs=st.lists(coefficient, min_size=10, max_size=10),
)
def test_python_sum_over_the_basis_is_exactly_symmetric(model, coeffs):
    # find_positive hands sum_k c_k E_k to the Jacobi sweep, which takes a
    # symmetric matrix: the sum must be symmetric bit for bit, as each E_k is.
    try:
        fam = metric_nullspace(model)
    except ValueError as exc:  # such as --full 1 3 0 0, which has no P p(H) family
        assert "derogatory" in str(exc)
        reject()
    assert all(e.tobytes() == e.T.tobytes() for e in fam.basis)
    theta = sum(ck * e for ck, e in zip(np.array(coeffs[: fam.dim]), fam.basis))
    assert theta.tobytes() == theta.T.tobytes()


def test_positivity_threshold_brackets_critical_coupling():
    delta = 1e-3
    inside = find_positive(metric_nullspace(build_alpha(math.sqrt(0.4 - delta))))
    outside = find_positive(metric_nullspace(build_alpha(math.sqrt(0.4 + delta))))
    assert inside.positive
    assert not outside.positive


def test_degeneracy_profile_collapses_at_boundary():
    profile = boundary_degeneracy_profile([0.01, 0.3, 0.632])
    assert profile[0][1] > 0.5  # near-diagonal regime
    assert profile[1][1] > 0.0
    assert profile[2][1] < 1e-2  # nearly singular close to the boundary


def test_degeneracy_profile_flags_exceptional_point():
    profile = boundary_degeneracy_profile([ALPHA_CRITICAL])
    assert math.isnan(profile[0][1])


def test_degeneracy_profile_rejects_out_of_range():
    with pytest.raises(ValueError):
        boundary_degeneracy_profile([0.7])


def test_degeneracy_profile_checks_every_alpha_before_the_first_certificate(monkeypatch):
    # The check ran inside the loop, so 0.1 was certified before 0.7 failed.
    def find_positive(fam):
        raise AssertionError("a certificate was computed before the range check")

    monkeypatch.setattr(quasih.metric, "find_positive", find_positive)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, sqrt\(2/5\)\]"):
        boundary_degeneracy_profile([0.1, 0.3, 0.7])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nullspace_rejects_non_finite_entries(bad):
    h = build_alpha(0.3)
    h[1, 2] = bad
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        metric_nullspace(h)


@pytest.mark.parametrize("k", [-1000, -600, -100, 100, 600, 1000])
def test_nullspace_is_invariant_under_power_of_two_scaling(k):
    # The equation is homogeneous; at 2**1000 the map overflowed to inf and
    # the family came out with dim 10 and residual inf.
    h = build_full(ParamPoint(0.3, -1.2, 0.7, 0.7))
    fam, scaled = metric_nullspace(h), metric_nullspace(np.ldexp(h, k))
    assert scaled.dim == fam.dim == 4
    assert scaled.residual == fam.residual
    for e, f in zip(fam.basis, scaled.basis):
        assert e.tobytes() == f.tobytes()


def per_entry_residual(fam):
    """Reference: each entry of H^T T - T H summed on its own by fsum over a
    generator of its 2n products, H scaled to largest entry in [1/2, 1)."""
    h, n = fam.h, fam.dim
    hs = np.ldexp(h, -math.frexp(np.max(np.abs(h)))[1]).tolist()
    defect = max(
        abs(math.fsum(x for k in range(n) for x in (hs[k][i] * t[k][j], -t[i][k] * hs[k][j])))
        for t in (e.tolist() for e in fam.basis)
        for i in range(n)
        for j in range(n)
    )
    return defect / (max(abs(x) for row in hs for x in row) or 1.0)


def sign_symmetric_tridiagonal(n, seed):
    """An irreducible tridiagonal matrix, so non-derogatory, whose couplings
    h_(i+1)i = +-h_i(i+1) make it sign-symmetric."""
    rng = np.random.default_rng(seed)
    h = np.diag(rng.uniform(-3.0, 3.0, n))
    upper = rng.uniform(0.1, 2.0, n - 1)
    h[range(n - 1), range(1, n)] = upper
    h[range(1, n), range(n - 1)] = rng.choice([-1.0, 1.0], n - 1) * upper
    return h


RESIDUAL_CASES = [
    build_alpha(0.3),
    build_alpha(0.7),  # beyond alpha_c
    build_two_state(0.5),
    sign_symmetric_tridiagonal(MAX_NULLSPACE_DIM, 16),
    *(
        build_full(ParamPoint(a * scale, b * scale, d * scale, d * scale))
        for a, b, d in np.random.default_rng(28).uniform([-3, -3, 0.05], [3, 3, 1.5], (6, 3))
        for scale in (1.0, 1e300, 1e-300)
    ),
]


@pytest.mark.parametrize("h", RESIDUAL_CASES)
def test_residual_is_the_per_entry_fsum_bit_for_bit(h):
    fam = metric_nullspace(h)
    assert fam.residual.hex() == per_entry_residual(fam).hex()
    # The basis is a tuple of separate (n, n) float arrays, each owning its
    # entries: no view into one shared stack.
    n = len(h)
    assert type(fam.basis) is tuple and len(fam.basis) == fam.dim == n
    assert all(e.shape == (n, n) and e.dtype == float and e.base is None for e in fam.basis)
    before = [e.copy() for e in fam.basis]
    fam.basis[0][...] = 7.0
    for e, f in zip(fam.basis[1:], before[1:]):
        assert e.tobytes() == f.tobytes()


def test_nullspace_rejects_bad_input():
    with pytest.raises(ValueError):
        metric_nullspace(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        metric_nullspace(np.eye(17))
