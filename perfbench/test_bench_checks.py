"""Tests of the benchmark's reference checkers, inputs and tracer.

Run with ``python3 -m pytest perfbench``.  The checkers are tested first
against the model's formulas and against outputs built to be wrong; the
last tests send one request of each workload to quasih.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import calibrate  # noqa: E402
import items  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from run import scipy_import_ms  # noqa: E402
from tracer import Tracer  # noqa: E402

RNG = np.random.default_rng(20070301)


def test_full_matrix_has_the_papers_quartic():
    for a, b, c, d in RNG.uniform(-2.0, 2.0, (20, 4)):
        coeffs = np.real(np.poly(ref.full_matrix(a, b, c, d)))
        e2 = -(10.0 - a * a - b * b - c * c - d * d)
        e1 = -4.0 * (c * c - d * d)
        e0 = (
            9 - 9 * a * a - b * b + 3 * c * c + 3 * d * d
            + a * a * b * b + c * c * d * d - 2 * a * b * c * d
        )
        assert np.allclose(coeffs, [1.0, 0.0, e2, e1, e0], atol=1e-11)


def test_alpha_matrix_is_real_below_the_critical_coupling_only():
    assert ref.spectrum_real_distinct(ref.alpha_matrix(0.9 * ref.ALPHA_CRITICAL))
    assert not ref.spectrum_real_distinct(ref.alpha_matrix(1.1 * ref.ALPHA_CRITICAL))


def test_margin_sign_is_spectral_reality():
    pts = RNG.uniform(-3.0, 3.0, (400, 3))
    for a, b, d in pts:
        m = float(ref.margin(a, b, d * d))
        if abs(m) > 1e-3:
            assert ref.spectrum_real_distinct(ref.full_matrix(a, b, d, d)) == (m > 0)


@pytest.mark.parametrize("d2, count", [(1.6, 4), (0.5, 4), (0.1, 8), (2.5e-5, 8)])
def test_pmn_reference_points_lie_on_circle_and_hyperbola(d2, count):
    pts = ref.pmn_reference(d2)
    assert len(pts) == count
    for a, b in pts:
        assert abs(a * a + b * b - (10.0 - 2.0 * d2)) < 1e-12
        assert min(abs((b + 3) * (a - 1) - d2), abs((b - 3) * (a + 1) - d2)) < 1e-12
    mirrored = sorted(map(tuple, -pts))
    assert np.allclose(mirrored, pts, atol=1e-12)


def test_check_pmn_flags_missing_and_moved_points():
    pts = [tuple(p) for p in ref.pmn_reference(1.6)]
    assert ref.check_pmn(pts, 1.6) == []
    assert ref.check_pmn(pts[1:], 1.6)
    moved = [(pts[0][0] + 1e-6, pts[0][1])] + pts[1:]
    assert ref.check_pmn(moved, 1.6)


def _dense_exit(ux, uy, d2):
    t = np.linspace(0.0, 5.0, 500_001)
    outside = ref.margin(t * ux, t * uy, d2) < 0
    return t[np.argmax(outside)]


def test_ray_exit_matches_dense_sampling():
    for theta in RNG.uniform(0.0, 2.0 * math.pi, 20):
        d2 = float(RNG.uniform(0.01, 0.95))
        u = (math.cos(theta), math.sin(theta))
        exit_t, reentry = ref.ray_stretches(*u, d2)
        assert abs(exit_t - _dense_exit(*u, d2)) < 2e-5
        assert reentry > exit_t


# A ray at d = 0.3 that leaves D at t = 2.7738 and comes back at 2.8874.
SHORT_RAY = (math.cos(2 * math.pi * 230.5 / 720), math.sin(2 * math.pi * 230.5 / 720))


def test_ray_stretches_finds_a_short_outside_stretch():
    exit_t, reentry = ref.ray_stretches(*SHORT_RAY, 0.09)
    assert abs(exit_t - 2.7738) < 1e-3
    assert abs(reentry - 2.8874) < 1e-3


def test_check_ray_classifies_exits():
    exit_t, reentry = ref.ray_stretches(*SHORT_RAY, 0.09)
    ux, uy = SHORT_RAY
    assert ref.check_ray((exit_t * ux, exit_t * uy), SHORT_RAY, 0.09) is None
    late = reentry + 0.1
    assert ref.check_ray((late * ux, late * uy), SHORT_RAY, 0.09)[0] == "overshoot"
    early = exit_t - 0.1
    assert ref.check_ray((early * ux, early * uy), SHORT_RAY, 0.09)[0] == "wrong"
    assert ref.check_ray((exit_t * ux + 1e-3, exit_t * uy), SHORT_RAY, 0.09)[0] == "wrong"


def _bisect_edge(inside, outside, coef_c, t):
    for _ in range(80):
        mid = 0.5 * (inside + outside)
        if ref.spike_margin(mid, coef_c, t) >= 0.0:
            inside = mid
        else:
            outside = mid
    return inside


def test_check_spike_accepts_true_edges_and_rejects_moved_ones():
    coef_c, t = 0.3, 0.05
    edges = (
        _bisect_edge(coef_c, coef_c - 2, coef_c, t),
        _bisect_edge(coef_c, coef_c + 2, coef_c, t),
    )
    assert abs(edges[0] - (coef_c - 0.5)) < 0.1 and abs(edges[1] - (coef_c + 8 / 9)) < 0.1
    assert ref.check_spike(edges, coef_c, t) == []
    assert ref.check_spike((edges[0] + 1e-3, edges[1]), coef_c, t)
    assert ref.check_spike((edges[0], edges[1] - 1e-3), coef_c, t)


def _scan_csv(d2, window, res):
    a = np.repeat(np.linspace(window[0], window[1], res[0]), res[1])
    b = np.tile(np.linspace(window[2], window[3], res[1]), res[0])
    m = ref.margin(a, b, d2)
    rows = [f"{x:.17g},{y:.17g},{int(v >= -1e-9)},{v:.17g}" for x, y, v in zip(a, b, m)]
    return "a,b,inside,margin\n" + "\n".join(rows) + "\n", m


def test_check_scan_accepts_the_formula_and_rejects_changes():
    d2, window, res = 0.7, [-4.0, 4.0, -3.0, 3.5], (21, 17)
    text, m = _scan_csv(d2, window, res)
    assert ref.check_scan(text, d2, window, res) == []
    lines = text.splitlines()
    i = 1 + int(np.argmax(m))  # deep inside
    a, b, flag, margin = lines[i].split(",")
    flipped = lines[:i] + [f"{a},{b},0,{margin}"] + lines[i + 1 :]
    assert ref.check_scan("\n".join(flipped) + "\n", d2, window, res)
    shifted = lines[:i] + [f"{a},{b},{flag},{float(margin) + 1e-9!r}"] + lines[i + 1 :]
    assert ref.check_scan("\n".join(shifted) + "\n", d2, window, res)
    assert ref.check_scan(text, d2, window, (res[0], res[1] + 1))
    assert ref.check_scan(text.replace("a,b,inside,margin", "a,b,in,margin"), d2, window, res)


def _dyad_doc(h):
    _, v = np.linalg.eig(h)
    left = np.real(np.linalg.inv(np.real(v)))
    rows = left / np.linalg.norm(left, axis=1, keepdims=True)
    theta = rows.T @ rows
    w = np.linalg.eigvalsh(theta)
    return {
        "dim": 1,
        "residual": 0.0,
        "basis": [{"n": 4, "rows": theta.tolist()}],
        "positivity": {
            "coefficients": [1.0 / w[-1]],
            "min_eigenvalue": w[0] / w[-1],
            "positive": True,
        },
    }


def test_check_certificate_accepts_the_dyad_and_rejects_changes():
    h = ref.alpha_matrix(0.3)
    doc = _dyad_doc(h)
    assert ref.check_certificate(doc, h) == []
    worse = json.loads(json.dumps(doc))
    worse["positivity"]["min_eigenvalue"] -= 1e-3
    assert ref.check_certificate(worse, h)
    negative = json.loads(json.dumps(doc))
    negative["positivity"]["positive"] = False
    assert ref.check_certificate(negative, h)
    assert ref.check_certificate(doc, ref.alpha_matrix(0.31))  # does not intertwine
    assert ref.check_certificate(doc, ref.alpha_matrix(0.7))  # complex spectrum


@pytest.mark.parametrize("workload, size", [("scan", 1), ("geometry", 8), ("certify", 4)])
def test_rounds_are_seeded(workload, size):
    first = [next(workloads.rounds(workload, 7)) for _ in range(2)]
    assert first[0] == first[1]
    assert next(workloads.rounds(workload, 8)) != first[0]
    assert len(first[0]) == size


def test_geometry_round_has_one_fixed_thin_item_and_clean_seeded_rays():
    gen = workloads.rounds("geometry", 3)
    for index in range(2):
        batch = next(gen)
        assert [it.get("thin", False) for it in batch] == [False] * 7 + [True]
        assert batch[-1] == workloads.thin_item(index)
        for it in batch[:-1]:
            assert 0.01 <= it["d2"] <= 0.95
            for u in it["dirs"]:
                exit_t, reentry = ref.ray_stretches(*u, it["d2"])
                assert reentry - exit_t >= workloads.MIN_OUTSIDE_STRETCH


def test_certify_round_covers_both_sides():
    batch = next(workloads.rounds("certify", 5))
    real = [ref.spectrum_real_distinct(workloads.certify_matrix(it)) for it in batch]
    assert real == [True, False, True, False]


def test_calibration_factor_uses_the_kernel_runs_around_each_item():
    log = [(0.0, 1.0), (0.5, 1.0), (6.0, 2.0), (6.5, 2.0), (20.0, 4.0)]
    got = calibrate.factors(log, [(0.1, 0.4), (6.1, 6.4), (10.0, 12.0)])
    nominal = calibrate.NOMINAL_MS
    # The last item has no run within WINDOW_S; its neighbours still count.
    assert got == [nominal / 1.0, nominal / 2.0, nominal / 3.0]


def test_scipy_import_time_is_summed_over_scipy_modules():
    log = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   numpy\n"
        "import time:       250 |        300 |     scipy._lib\n"
        "import time:        50 |        400 |   scipy\n"
        "import time:        70 |         70 | scipyx\n"
    )
    assert scipy_import_ms(log) == 0.3


# --- against the program ------------------------------------------------------


@pytest.mark.parametrize("workload", ["scan", "geometry", "certify"])
def test_quasih_passes_the_checks_on_a_seeded_item(workload, tmp_path):
    items.import_entry(workload)
    item = next(workloads.rounds(workload, 1))[0]
    out = str(tmp_path / "out.csv")
    result = items.run_item(workload, item, out)
    assert workloads.check(workload, item, result, out) == []
    again = items.run_item(workload, item, out)
    assert items.output_text(workload, again, out) == items.output_text(workload, result, out)


def test_thin_items_fail_only_by_overshoot(tmp_path):
    items.import_entry("geometry")
    for k in range(len(workloads.THIN_ITEMS)):
        item = workloads.thin_item(k)
        result = items.run_item("geometry", item, str(tmp_path / "unused"))
        kinds = {kind for kind, _ in workloads.check("geometry", item, result, "")}
        assert kinds == {"overshoot"}


def test_tracer_counts_nested_calls_and_restores_the_program():
    items.import_entry("geometry")
    import quasih.domain
    import quasih.perturb

    original = quasih.domain.in_domain
    tracer = Tracer()
    tracer.install()
    try:
        assert quasih.perturb.in_domain is quasih.domain.in_domain is not original
        item = next(workloads.rounds("geometry", 2))[0]
        tracer.begin_item(0, "geometry.item")
        items.run_item("geometry", item, "")
        tracer.end_item()
    finally:
        tracer.uninstall()
    assert quasih.domain.in_domain is original and quasih.perturb.in_domain is original
    layers = tracer.per_layer([1.0])
    assert layers["domain.boundary_trace_ray.margin_evals"][0] > 8
    assert layers["domain.brentq.calls"][0] >= 4
    assert layers["metric.find_positive.ms"][0] == 0.0
    names = {span[1] for span in tracer.spans}
    assert {"geometry.item", "domain.pmn_points", "domain.in_domain"} <= names
    by_id = {span[0]: span for span in tracer.spans}
    for sid, name, start, end, parent, item_id in tracer.spans:
        assert start <= end and item_id == 0
        if parent is not None:
            assert by_id[parent][2] <= start and end <= by_id[parent][3]
