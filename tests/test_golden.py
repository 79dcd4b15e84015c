"""CLI outputs compared byte for byte against files in tests/golden/.

The files hold the outputs of the commands below; any change to a number,
a flag or the formatting shows up as a diff.  To update them after an
intended change, write each command's stdout to its file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasih
from quasih.cli import build_parser, main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "scan_d2_1.6_res_11x11.csv": ["scan", "--d2", "1.6", "--res", "11x11"],
    "scan_d2_0.3_range_-4_4_-2_3_res_7x13.csv": [
        "scan", "--d2", "0.3", "--range=-4:4:-2:3", "--res", "7x13"
    ],
    "fig2_t_steps_3_res_a_11.csv": ["fig2", "--t-steps", "3", "--res-a", "11"],
    "boundary_center_0_0_direction_1_0.3_d_0.5.json": [
        "boundary", "--center", "0", "0", "--direction", "1", "0.3", "--d", "0.5"
    ],
    "perturb_spike_0.3_0.3_0.01.json": ["perturb", "--spike", "0.3", "0.3", "0.01"],
    "metric_alpha_0.3_basis.json": ["metric", "--alpha", "0.3", "--basis"],
    "metric_alpha_0.3_basis_positivity.json": [
        "metric", "--alpha", "0.3", "--basis", "--positivity"
    ],
    # Outside D with no real eigenvalue: the pseudo-metric P, ratio -1 and no bound.
    "metric_alpha_0.7_basis_positivity.json": [
        "metric", "--alpha", "0.7", "--basis", "--positivity"
    ],
    "metric_full_2_1_0.8_0.8_positivity.json": [
        "metric", "--full", "2", "1", "0.8", "0.8", "--positivity"
    ],
    "metric_profile_0.05_0.6_5.csv": ["metric", "--profile", "0.05:0.6:5"],
    "spectrum_alpha_0.3.json": ["spectrum", "--alpha", "0.3"],
    "pmn_d2_1.6.json": ["pmn", "--d2", "1.6"],
    "dim_n_4.txt": ["dim", "--n", "4"],
    "fig1_d2_1.6.json": ["fig1", "--d2", "1.6"],
    "perturb_series_e3_order_6_alpha_0.3.json": [
        "perturb", "--series", "e3", "--order", "6", "--alpha", "0.3"
    ],
    "perturb_critical.json": ["perturb", "--critical"],
}
SCANS = sorted(name for name in CASES if name.startswith("scan_"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_scan_out_file_and_sidecar_match_golden(tmp_path):
    # A --range value starting with "-" needs no "=", also from a config file.
    cfg = tmp_path / "range.cfg"
    cfg.write_text("range = -4:4:-2:3\n")
    golden = "scan_d2_0.3_range_-4_4_-2_3_res_7x13.csv"
    runs = [(name, CASES[name]) for name in SCANS] + [
        (golden, ["scan", "--d2", "0.3", *spelling, "--res", "7x13"])
        for spelling in (["--range", "-4:4:-2:3"], ["--config", str(cfg)])
    ]
    out = tmp_path / "scan.csv"
    for name, argv in runs:
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text() == (GOLDEN / name).read_text()
        assert Path(f"{out}.meta.json").read_text() == (GOLDEN / f"{name}.meta.json").read_text()


# No subcommand needs scipy: with every import of it made to fail, each one
# still prints its golden, and no scipy module is left loaded.
IMPORT_PROBE = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
import quasih.cli
outputs = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert quasih.cli.main(argv) == 0, argv
    outputs[name] = out.getvalue()
scipy = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod)
print(json.dumps({"outputs": outputs, "scipy": scipy}))
"""


def run_probe(code: str, *args: str) -> dict:
    """The JSON that code prints when run with args in a fresh interpreter."""
    src = str(Path(quasih.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_every_subcommand_prints_its_golden_without_scipy():
    assert {argv[0] for argv in CASES.values()} == set(build_parser().subcommands)
    report = run_probe(IMPORT_PROBE, json.dumps(CASES))
    assert report["scipy"] == []
    assert report["outputs"] == {name: (GOLDEN / name).read_text() for name in CASES}


# The scalar layers need no numpy: with every import of it made to fail, the
# scalar subcommands print their goldens, usage errors are still one line and
# exit 2, and the domain and spike functions run.
NUMPY_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import quasih.cli, quasih.domain, quasih.perturb
outputs, errors = {}, []
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert quasih.cli.main(argv) == 0, argv
    outputs[name] = out.getvalue()
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        errors.append([quasih.cli.main(argv), out.getvalue(), err.getvalue()])
library = [
    [[p.a, p.b] for p in quasih.domain.pmn_points(1.6)],
    quasih.domain.boundary_trace_ray((0.0, 0.0), (1.0, 0.3), 0.5),
    quasih.perturb.spike_band_edges(0.3, 0.05),
]
print(json.dumps({"outputs": outputs, "errors": errors, "library": library}))
"""
SCALAR = [
    "dim_n_4.txt",
    "pmn_d2_1.6.json",
    "boundary_center_0_0_direction_1_0.3_d_0.5.json",
    "perturb_series_e3_order_6_alpha_0.3.json",
    "perturb_spike_0.3_0.3_0.01.json",
    "perturb_critical.json",
    "fig1_d2_1.6.json",
]
USAGE_ERRORS = [
    ["pmn", "--d2", "7"],
    ["boundary", "--center", "0", "0", "--direction", "0", "0", "--d", "0.5"],
    ["boundary", "--center", "0", "0", "--direction", "1", "0", "--d", "3"],
]


@pytest.fixture(scope="module")
def numpy_blocked():
    cases = json.dumps({name: CASES[name] for name in SCALAR})
    return run_probe(NUMPY_PROBE, cases, json.dumps(USAGE_ERRORS))


def test_scalar_subcommands_print_their_goldens_without_numpy(numpy_blocked):
    from quasih.domain import boundary_trace_ray, pmn_points
    from quasih.perturb import spike_band_edges

    assert numpy_blocked["outputs"] == {name: (GOLDEN / name).read_text() for name in SCALAR}
    assert numpy_blocked["library"] == [
        [[p.a, p.b] for p in pmn_points(1.6)],
        list(boundary_trace_ray((0.0, 0.0), (1.0, 0.3), 0.5)),
        list(spike_band_edges(0.3, 0.05)),
    ]


def test_usage_errors_exit_2_in_one_line_without_numpy(numpy_blocked):
    # main's numerical-failure clause names numpy's LinAlgError; naming it
    # must not need numpy, or a usage error would end in a NameError.
    assert numpy_blocked["errors"] == [
        [2, "", "error: d2 must lie in (0, 5)\n"],
        [2, "", "error: direction must be non-zero\n"],
        [2, "", "error: ray center lies outside the domain\n"],
    ]


# A scan and then pmn, in the same fresh interpreter: neither loads
# scipy.optimize, and pmn still prints its golden.
SCAN_PROBE = """
import contextlib, io, json, sys
import quasih, quasih.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert quasih.cli.main(["scan", "--d2", "1", "--res", "3x3"]) == 0
after_scan = "scipy.optimize" in sys.modules
pmn = io.StringIO()
with contextlib.redirect_stdout(pmn):
    assert quasih.cli.main(["pmn", "--d2", "1.6"]) == 0
print(json.dumps({"after_scan": after_scan, "after_pmn": "scipy.optimize" in sys.modules,
                  "pmn": pmn.getvalue()}))
"""


def test_scan_does_not_import_scipy_optimize():
    report = run_probe(SCAN_PROBE)
    assert not report["after_scan"]
    assert not report["after_pmn"]
    assert report["pmn"] == (GOLDEN / "pmn_d2_1.6.json").read_text()


# The best metric is built in closed form, the Krein-normalized dyad: no scipy module at all.
METRIC_PROBE = """
import contextlib, io, json, sys
import quasih.cli
report = []
for argv in (["metric", "--alpha", "0.3", "--basis", "--positivity"],
             ["metric", "--profile", "0.05:0.6:5"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert quasih.cli.main(argv) == 0
    report.append([out.getvalue(), sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(report))
"""


def test_metric_certificate_and_profile_do_not_import_scipy():
    (positivity, after_positivity), (profile, after_profile) = run_probe(METRIC_PROBE)
    assert after_positivity == after_profile == []
    assert positivity == (GOLDEN / "metric_alpha_0.3_basis_positivity.json").read_text()
    assert profile == (GOLDEN / "metric_profile_0.05_0.6_5.csv").read_text()
