import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasih import (
    ParamPoint,
    Reality,
    boundary_degeneracy_profile,
    build_alpha,
    build_full,
    closed_form_band_metric,
    find_positive,
    in_domain,
    metric_nullspace,
    numeric_energies,
)
import quasih.metric
from quasih.metric import ALPHA_CRITICAL, _candidate, _signed_min_eig


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


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, ALPHA_CRITICAL - 0.01))
def test_certificate_inside_domain_is_positive_and_beats_the_dyad(alpha):
    h = build_alpha(alpha)
    cert = find_positive(metric_nullspace(h))
    assert cert.positive
    assert cert.min_eigenvalue >= left_dyad_ratio(h) - 1e-12


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


def test_defective_h_is_not_certified_and_raises_no_warning():
    # A Jordan block's family has a nearly singular member: its tiny
    # negative eigenvalue must not overflow the ratio w[-1] / w[0].
    fam = metric_nullspace(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = find_positive(fam)
    assert cert.min_eigenvalue == 0.0
    assert not cert.positive


@settings(max_examples=200, deadline=None)
@given(
    eigenvalues=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=4
    ),
    scale=st.sampled_from([1.0, 1e-300, 1e300]),
)
@example(eigenvalues=[-5e-324, 1.0], scale=1.0)
@example(eigenvalues=[-1.0, 5e-324], scale=1.0)
@example(eigenvalues=[-2.0, 2.0], scale=1.0)
@example(eigenvalues=[0.0, 0.0], scale=1.0)
def test_signed_min_eig_is_the_better_of_both_signs(eigenvalues, scale):
    theta = np.diag(np.array(eigenvalues) * scale)
    w = np.linalg.eigvalsh(theta)
    with np.errstate(all="ignore"):
        plus = w[0] / w[-1] if w[-1] > 0 else -math.inf
        minus = w[-1] / w[0] if w[0] < 0 else -math.inf
    expected = (minus, -1.0) if minus > plus else (plus, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _signed_min_eig(theta) == expected


def test_no_positive_outside_domain():
    fam = metric_nullspace(build_alpha(0.7))
    assert numeric_energies(fam.h).classification is Reality.COMPLEX_PAIRS
    cert = find_positive(fam)
    assert not cert.positive
    assert cert.min_eigenvalue <= 0


def forbid_polish(monkeypatch):
    def minimize(*args, **kwargs):
        raise AssertionError("the polish ran on a non-real spectrum")

    monkeypatch.setattr(quasih.metric, "minimize", minimize)


# All complex at the two alphas, where the polish used to run to ~8,000
# evaluations; two real and two complex at the --full point.  A search that
# polishes every input fails here.
@pytest.mark.parametrize(
    "h",
    [
        build_alpha(0.7469316998166183),
        build_alpha(0.6770304262188971),
        build_full(ParamPoint(2.0, 1.0, 0.8, 0.8)),
    ],
)
def test_non_real_spectrum_is_decided_without_the_polish(h, monkeypatch):
    forbid_polish(monkeypatch)
    assert not find_positive(metric_nullspace(h)).positive


# Held here, before any test patches the module's name.
POLISH = quasih.metric.minimize


def assert_polish_is_scipys(fun, x0):
    """quasih's Nelder-Mead against scipy's, bit for bit; returns quasih's."""
    from scipy.optimize import minimize as scipy_minimize

    ours = POLISH(fun, x0)
    ref = scipy_minimize(
        fun,
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000},
    )
    assert ours.x.tobytes() == ref.x.tobytes()
    assert (ours.fun, ours.nfev, ours.status) == (ref.fun, ref.nfev, ref.status)
    return ours


OBJECTIVES = {
    # Rosenbrock's sum plus (1 - x_n)^2, so that it also varies in one dimension.
    "rosenbrock": lambda x: np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
    + (1.0 - x[-1]) ** 2,
    # Plateaus: reflections and contractions tie, which forces shrink steps.
    "plateau": lambda x: np.floor(4.0 * np.dot(x, x)),
    "max_abs": lambda x: np.max(np.abs(x - 0.3)),
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 5),
    objective=st.sampled_from(sorted(OBJECTIVES)),
)
def test_polish_takes_scipys_steps_bit_for_bit(seed, dim, objective):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=dim) * rng.choice([0.1, 1.0, 5.0])
    # A zero entry gets scipy's absolute initial step instead of the 5% one.
    x0[rng.random(dim) < 0.3] = 0.0
    assert_polish_is_scipys(OBJECTIVES[objective], x0)


# status is the first polish's.  At 0.271890064688125 it stops at the
# iteration limit after 9,802 evaluations, and a second polish, from unit
# scale, converges.
@pytest.mark.parametrize("alpha, status", [(0.3, 0), (0.271890064688125, 2)])
def test_find_positive_polish_takes_scipys_steps(alpha, status, monkeypatch):
    results = []

    def minimize(fun, x0):
        results.append(assert_polish_is_scipys(fun, x0))
        return results[-1]

    monkeypatch.setattr(quasih.metric, "minimize", minimize)
    find_positive(metric_nullspace(build_alpha(alpha)))
    assert [r.status for r in results] == ([2, 0] if status == 2 else [status])


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
def test_stalled_polish_is_restarted_at_unit_scale(h, optimum):
    # The objective ignores scale, so the stalled polish had let the
    # coefficients drift to |c| ~ 5e10, where its absolute xatol is never met.
    cert = find_positive(metric_nullspace(h))
    assert cert.positive
    assert cert.min_eigenvalue >= optimum


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
    forbid_polish(monkeypatch)
    cert = find_positive(metric_nullspace(build_alpha(math.sqrt(0.4 + 10.0**-k))))
    assert not cert.positive


def test_verdicts_at_margin_one_millionth_from_the_boundary(monkeypatch):
    for a, b, d, target in near_boundary_full_points():
        fam = metric_nullspace(build_full(ParamPoint(a, b, d, d)))
        with monkeypatch.context() as patch:
            if target < 0:
                forbid_polish(patch)
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
def test_stacked_candidate_is_the_python_sum_bit_for_bit(model, coeffs):
    fam = metric_nullspace(model)
    c = np.array(coeffs[: fam.dim])
    theta = sum(ck * e for ck, e in zip(c, fam.basis))
    expected = 0.5 * (theta + theta.T)
    assert _candidate(np.stack(fam.basis), c).tobytes() == expected.tobytes()


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


def test_nullspace_rejects_bad_input():
    with pytest.raises(ValueError):
        metric_nullspace(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        metric_nullspace(np.eye(17))
