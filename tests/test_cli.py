import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import quasih.cli
import quasih.domain
import quasih.metric
import quasih.perturb
import quasih.spectrum
from quasih.cli import MAX_PROFILE_POINTS, MAX_SCAN_CELLS, _parser, dim_domain, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_spectrum_two_state_json(capsys):
    code, out = run(capsys, "spectrum", "--two-state", "0.5")
    assert code == 0
    doc = json.loads(out)
    expected = math.sqrt(0.75)
    reals = sorted(e[0] for e in doc["energies"])
    assert reals == pytest.approx([-expected, expected], abs=1e-12)
    assert doc["classification"] == "AllReal"
    assert doc["matrix"]["n"] == 2


def test_spectrum_band_vs_alpha_isospectral(capsys):
    _, out_band = run(capsys, "spectrum", "--band", "0.4", "0.4")
    _, out_alpha = run(capsys, "spectrum", "--alpha", "0.2")
    band = sorted(e[0] for e in json.loads(out_band)["energies"])
    alpha = sorted(e[0] for e in json.loads(out_alpha)["energies"])
    assert band == pytest.approx(alpha, abs=1e-9)


def test_spectrum_whose_eigenvalues_overflow_is_a_numerical_failure(capsys):
    # It exited 0 and printed "max_imag": Infinity, which is not JSON.
    assert main(["spectrum", "--full", "1e308", "1e308", "1e308", "1e308"]) == 1
    assert capsys.readouterr() == ("", "error: eigenvalues overflow the float range\n")


@pytest.mark.parametrize(
    "model", [["--full", "1e308", "1e308", "1e308", "1e308"], ["--alpha", "8e307"]]
)
def test_positivity_whose_eigenvalues_overflow_is_a_numerical_failure(capsys, model):
    # It exited 0 with a certificate built from eigenvalues +-inf i, whose
    # coefficients differed under each OpenBLAS core.
    assert main(["metric", *model, "--positivity"]) == 1
    assert capsys.readouterr() == ("", "error: eigenvalues overflow the float range\n")


def test_linalg_error_is_a_numerical_failure(capsys, monkeypatch):
    def numeric_energies(*args):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(quasih.spectrum, "numeric_energies", numeric_energies)
    assert main(["spectrum", "--alpha", "0.3"]) == 1
    assert capsys.readouterr() == ("", "error: eigenvalues did not converge\n")


def test_spectrum_of_huge_finite_couplings_is_unchanged(capsys):
    code, out = run(capsys, "spectrum", "--full", "1e307", "1e307", "1e307", "1e307")
    assert code == 0
    assert json.loads(out)["max_imag"] == 1.9999999999999995e307
    digest = "f535c8e49c5a66ccac376eb260b2f7515d086a70832a004795519092a708fe2b"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_spectrum_requires_exactly_one_model(capsys):
    assert main(["spectrum"]) == 2
    assert main(["spectrum", "--alpha", "0.1", "--two-state", "0.5"]) == 2
    assert capsys.readouterr().err.count("error: ") == 2


def test_determinism_byte_identical(capsys):
    argv = ["scan", "--d2", "1.6", "--range", "-4:4:-4:4", "--res", "11x11"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second
    assert first.splitlines()[0] == "a,b,inside,margin"


def test_scan_respects_thread_env(capsys, monkeypatch):
    argv = ["scan", "--d2", "1.6", "--res", "9x9"]
    _, serial = run(capsys, *argv)
    monkeypatch.setenv("QUASIH_THREADS", "4")
    _, threaded = run(capsys, *argv)
    assert serial == threaded


def test_scan_requires_d2(capsys):
    assert main(["scan"]) == 2


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["spectrum"], "--two-state"),
        (["scan"], "--d2"),
        (["pmn"], "--d2"),
        (["fig1"], "--d2"),
        (["perturb"], "--spike"),
    ],
)
def test_missing_arguments_print_one_error_line(capsys, argv, missing):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert missing in err


def test_scan_rejects_negative_d2(capsys):
    code = main(["scan", "--d2", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: d2 must be non-negative\n"


@pytest.mark.parametrize("d2", ["nan", "inf", "-inf"])
def test_scan_names_a_d2_that_is_not_finite_by_its_flag(capsys, d2):
    # It said "d must be finite", naming sqrt(d2), which the user never gave.
    assert main(["scan", "--d2", d2, "--res", "2x2"]) == 2
    assert capsys.readouterr() == ("", f"error: --d2 must be finite, got {float(d2)!r}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--d2", "1.6", "--res", "1x1"],
        ["--d2", "1.6", "--res", "1x9"],
        ["--d2", "1.6", "--res", "9x1"],
        ["--d2", "1.6", "--res", "2x7"],
        ["--d2", "1.6", "--res", "7x2"],
        ["--d2", "1.6", "--range=4:-4:3:-2", "--res", "5x3"],
        ["--d2", "0.3", "--range=-4:4:-2:3", "--res", "61x61"],
        ["--d2", "1", "--range=-1e9:1e9:-1e9:1e9", "--res", "3x3"],
    ],
)
def test_scan_prints_each_cell_as_format_17g(capsys, argv):
    args = _parser().parse_args(["scan", *argv])
    grid = quasih.domain.scan_grid(args.range[:2], args.range[2:], math.sqrt(args.d2), args.res)
    expected = "a,b,inside,margin\n"
    for i, a in enumerate(grid.a_values.tolist()):
        for j, b in enumerate(grid.b_values.tolist()):
            cells = (a, b, int(grid.inside[i, j]), float(grid.margin[i, j]))
            expected += ",".join(format(x, ".17g") for x in cells) + "\n"
    assert run(capsys, "scan", *argv) == (0, expected)


ENDS = ["0", "1", "0", "1"]
NOT_FINITE_ENDS = [
    ":".join(ENDS[:k] + [end] + ENDS[k + 1 :]) for k in range(4) for end in ("nan", "inf", "-inf")
]
OVERFLOWING_SPANS = ["-1e308:1e308:0:1", "0:1:1e308:-1e308", "-1.7e308:1.7e308:-1:1"]


@pytest.mark.parametrize("text", NOT_FINITE_ENDS + OVERFLOWING_SPANS)
def test_scan_names_a_range_that_is_not_finite_by_its_flag(tmp_path, capsys, text):
    # A non-finite end printed "a must be finite, got nan", naming a parameter
    # of scan_grid, and a span past the float range numpy's bare "overflow
    # encountered in subtract".
    message = "error: argument --range: range ends and their spans must be finite\n"
    assert main(["scan", "--d2", "1", f"--range={text}", "--res", "2x2"]) == 2
    assert capsys.readouterr() == ("", message)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"d2 = 1\nrange = {text}\nres = 2x2\n")
    assert main(["scan", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", message)


def test_scan_whose_margins_overflow_is_a_usage_error(capsys):
    # It printed three warnings and rows with margin nan and inside 0, and exited 0;
    # later numpy's bare "overflow encountered in multiply", naming no flag.
    assert main(["scan", "--d2", "1e200", "--res", "2x2"]) == 2
    message = "error: --d2 and --range put the margins beyond the float range\n"
    assert capsys.readouterr() == ("", message)
    assert main(["scan", "--d2", "1", "--range=-1e200:1e200:0:1", "--res", "2x2"]) == 2
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "argv, inside",
    [
        (["--d2", "1e16", "--range=-1:1:-1:1", "--res", "2x2"], []),
        (["--d2", "1", "--range=-1e9:1e9:-1e9:1e9", "--res", "3x3"], [("0", "0")]),
    ],
)
def test_scan_at_large_couplings_flags_only_points_of_the_domain(capsys, argv, inside):
    # Every cell was flagged inside.  A is about -1e16 on the first grid and
    # -5e17 at the second grid's outer cells, far below its own rounding but
    # not below that of A^2 - B, against which the whole margin was tested.
    # At d = 1 the origin's exact margin is A^2 - B = 16 - 16 = 0.
    assert main(["scan", *argv]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(a, b) for a, b, flag, _ in rows if flag == "1"] == inside


@pytest.mark.parametrize("res", ["20000x20000", "2001x2000", "1x4000001"])
def test_scan_rejects_grids_above_the_cell_cap(res, capsys, monkeypatch):
    # Without the cap the grid was allocated, ending in a numpy memory error.
    def scan_grid(*args):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(quasih.domain, "scan_grid", scan_grid)
    assert main(["scan", "--d2", "1", "--res", res]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: resolution ") and err.count("\n") == 1


def test_scan_accepts_a_grid_at_the_cell_cap(capsys, monkeypatch):
    calls = []

    def scan_grid(*args):
        calls.append(args)
        axis, cells = np.zeros(0), np.zeros((0, 0))
        return SimpleNamespace(a_values=axis, b_values=axis, inside=cells > 0, margin=cells)

    monkeypatch.setattr(quasih.domain, "scan_grid", scan_grid)
    monkeypatch.setattr(quasih.cli, "csv_text", lambda *args: "")
    assert main(["scan", "--d2", "1", "--res", "2000x2000"]) == 0
    assert calls[0][3] == (2000, 2000) and 2000 * 2000 == MAX_SCAN_CELLS


def test_out_file_and_meta_sidecar(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, printed = run(
        capsys, "scan", "--d2", "1.6", "--res", "5x5", "--out", str(out)
    )
    assert code == 0
    assert printed == ""
    assert out.read_text().startswith("a,b,inside,margin")
    meta = json.loads((tmp_path / "scan.csv.meta.json").read_text())
    assert meta["command"] == "scan"
    assert meta["d2"] == 1.6
    assert meta["res"] == [5, 5]
    assert "timestamp" not in meta


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("d2 = 1.6\nres = 5x5  # comment\n")
    _, from_config = run(capsys, "scan", "--config", str(cfg))
    _, explicit = run(capsys, "scan", "--d2", "1.6", "--res", "5x5")
    assert from_config == explicit
    # a flag overrides the config value
    _, overridden = run(capsys, "scan", "--config", str(cfg), "--d2", "3.0")
    _, explicit3 = run(capsys, "scan", "--d2", "3.0", "--res", "5x5")
    assert overridden == explicit3
    assert overridden != from_config


def test_cached_parser_keeps_no_config_between_calls(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("d2 = 0.3\nrange = -1:1:-1:1\nres = 3x3\n")
    code, with_config = run(capsys, "scan", "--config", str(cfg))
    assert code == 0
    hits = _parser.cache_info().hits
    _, after_config = run(capsys, "scan", "--d2", "1.6")
    assert _parser.cache_info().hits == hits + 1
    _parser.cache_clear()
    _, fresh = run(capsys, "scan", "--d2", "1.6")
    assert after_config == fresh
    assert with_config != fresh


def test_config_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("no equals sign here\n")
    code, _ = run(capsys, "scan", "--config", str(cfg))
    assert code == 2


def test_config_supplies_a_required_option_a_list_and_a_switch(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("d = 0.5\ncenter = 0 0\n")
    argv = ["boundary", "--direction", "1", "0.3"]
    assert run(capsys, *argv, "--config", str(cfg)) == run(
        capsys, *argv, "--d", "0.5", "--center", "0", "0"
    )
    cfg.write_text("alpha = 0.3\nbasis = true\npositivity = false\n")
    assert run(capsys, "metric", "--config", str(cfg)) == run(
        capsys, "metric", "--alpha", "0.3", "--basis"
    )


@pytest.mark.parametrize(
    "line, message",
    [
        ("d_2 = 1.6", "error: quasih scan has no config key 'd_2'\n"),
        # A prefix of --d2 is not a key, though argparse takes `--d` for it.
        ("d = 1.6", "error: quasih scan has no config key 'd'\n"),
        ("config = other.cfg", "error: quasih scan has no config key 'config'\n"),
        # Membership has no tolerance: the margin's rounding bound decides.
        ("tol = 1e-9", "error: quasih scan has no config key 'tol'\n"),
        ("d2 = x", "error: argument --d2: invalid float value: 'x'\n"),
    ],
)
def test_config_errors_are_one_line_usage_errors(tmp_path, capsys, line, message):
    # An unknown key was ignored, so `d_2 = 1.6` ended in "scan needs --d2".
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    argv = ["scan", "--config", str(cfg)]
    assert main(argv if "d2" in line else [*argv, "--d2", "1"]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "argv, key",
    [(["spectrum", "--alpha", "0.9"], "tol"), (["metric", "--alpha", "0.3"], "rank_tol")],
)
def test_config_rejects_threshold_keys(tmp_path, capsys, argv, key):
    # The reality and rank thresholds are constants: `tol = nan` printed
    # "AllReal" at max_imag 1.22 and `rank_tol = nan` reported dim 0.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key} = 1e-9\n")
    assert main([*argv, "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: quasih {argv[0]} has no config key {key!r}\n")


def test_config_switch_takes_true_or_false(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("basis = yes\n")
    assert main(["metric", "--alpha", "0.3", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", "error: config key 'basis' takes true or false\n")


def test_config_path_after_an_equals_sign_and_blank_lines(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("\n# a comment line\n   \nd2 = 1.6\n  # indented comment\nres = 5x5\n\n")
    _, from_config = run(capsys, "scan", f"--config={cfg}")
    assert from_config == run(capsys, "scan", "--d2", "1.6", "--res", "5x5")[1]


def test_config_must_be_spelled_out(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("res = 3x3\n")
    assert main(["scan", "--d2", "1", "--conf", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: unrecognized arguments: --conf {cfg}\n"


@pytest.mark.parametrize(
    "argv", [["scan", "--d", "0.5", "--res", "2x2"], ["metric", "--alpha", "0.3", "--pos"]]
)
def test_option_prefixes_are_usage_errors(capsys, argv):
    # Both exited 0: argparse read --d as --d2 and --pos as --positivity.
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--d2", "1", "--config", "{tmp}/missing.cfg"],
        ["scan", "--d2", "1", "--res", "3x3", "--out", "{tmp}/missing/scan.csv"],
    ],
)
def test_missing_files_are_one_line_usage_errors(tmp_path, capsys, argv):
    # Both ended in a FileNotFoundError traceback and exit 1.
    assert main([token.format(tmp=tmp_path) for token in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["pmn", "--d2", "1", "--tol", "1e-6"],
        ["dim", "--n", "4", "--tol", "1e-6"],
        ["scan", "--d2", "1", "--res", "3x3", "--tol", "1e-6"],
        ["boundary", "--center", "0", "0", "--direction", "1", "0", "--d", "0.5", "--tol", "1e-6"],
        # The reality and rank thresholds are constants of spectrum and metric.
        ["spectrum", "--alpha", "0.3", "--tol", "1e-6"],
        ["metric", "--alpha", "0.3", "--rank-tol", "1e-6"],
    ],
)
def test_tol_only_where_it_is_used(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


def test_metric_profile_prints_each_cell_as_format_17g(capsys):
    # The last alpha is sqrt(2/5), the exceptional point, whose value is nan.
    lo, hi, n = 0.6, 0.6324555320336759, 2
    expected = "alpha,min_eig\n"
    for row in quasih.metric.boundary_degeneracy_profile(np.linspace(lo, hi, n).tolist()):
        expected += ",".join(format(x, ".17g") for x in row) + "\n"
    assert expected.endswith(",nan\n")
    assert run(capsys, "metric", "--profile", f"{lo}:{hi}:{n}") == (0, expected)


def test_metric_profile_needs_at_least_one_point(capsys):
    # n = 0 printed a CSV with only its header and exited 0.
    assert main(["metric", "--profile", "0.1:0.5:0"]) == 2
    assert capsys.readouterr() == ("", "error: argument --profile: profile n must be >= 1\n")


def test_metric_profile_points_are_capped(capsys, monkeypatch):
    # 1e9 points ran out of memory in np.linspace, with a traceback and exit 1.
    def profile(alphas):
        raise AssertionError("the profile ran past the point cap")

    monkeypatch.setattr(quasih.metric, "boundary_degeneracy_profile", profile)
    assert main(["metric", "--profile", f"0.1:0.5:{MAX_PROFILE_POINTS + 1}"]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: argument --profile: profile n must be <= {MAX_PROFILE_POINTS}\n",
    )


def test_metric_profile_checks_every_alpha_before_the_first_certificate(capsys, monkeypatch):
    # The range check ran per point: 0.05:0.7:60 spent a second on
    # certificates before it printed its error.
    def find_positive(fam):
        raise AssertionError("a certificate was computed before the range check")

    monkeypatch.setattr(quasih.metric, "find_positive", find_positive)
    assert main(["metric", "--profile", "0.05:0.7:60"]) == 2
    assert capsys.readouterr() == ("", "error: alpha must lie in (0, sqrt(2/5)]\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scan", "--d2", "1", "--res", "3x"], "argument --res: resolution must be NxM"),
        (["scan", "--d2", "1", "--res", "3.5x4"], "argument --res: resolution must be NxM"),
        (["scan", "--d2", "1", "--res", "0x4"], "argument --res: resolution counts must be >= 1"),
        (
            ["scan", "--d2", "1", "--range", "1:2:x:4"],
            "argument --range: range must be a_min:a_max:b_min:b_max",
        ),
        (
            ["metric", "--profile", "0.1:x:5"],
            "argument --profile: profile must be alpha_min:alpha_max:n",
        ),
        (
            ["metric", "--profile", "0.1:0.2:2.5"],
            "argument --profile: profile must be alpha_min:alpha_max:n",
        ),
        (
            ["metric", "--profile", "0.1:0.2"],
            "argument --profile: profile must be alpha_min:alpha_max:n",
        ),
    ],
)
def test_each_field_flag_has_one_usage_message(capsys, argv, message):
    # A field that did not read named the private parser function:
    # "invalid _parse_res value: '3x'".
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_metric_rejects_a_coupling_that_overflows_the_matrix(capsys):
    # 2 * 1e308 is inf, so the matrix has an infinite entry: a usage error
    # (exit 2) with one line on stderr, before any SVD runs.
    assert main(["metric", "--alpha", "1e308", "--positivity"]) == 2
    assert capsys.readouterr() == ("", "error: matrix entries must be finite\n")


@pytest.mark.parametrize(
    "model, dim",
    [(["--full", "1e308", "1e308", "1e308", "1e308"], 4), (["--two-state", "1e308"], 2)],
)
def test_metric_family_of_huge_finite_couplings(capsys, model, dim):
    # Both matrices are non-derogatory, so the family has dimension n.  A
    # commutator map in floats overflowed (dims 10 and 3, residual inf), and
    # once scaled its rank cut at 1e-10 sigma_max still reported dim 5.
    code, out = run(capsys, "metric", *model)
    assert code == 0 and capsys.readouterr().err == ""
    doc = json.loads(out)
    assert doc["dim"] == dim
    assert doc["residual"] <= 1e-15


@pytest.mark.parametrize("flags", [[], ["--basis", "--positivity"]])
def test_metric_of_a_derogatory_matrix_is_a_usage_error(capsys, flags):
    # H^2 = 0 with two Jordan blocks: its metrics are not P p(H).
    assert main(["metric", "--full", "1", "3", "0", "0", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: matrix is derogatory")


@pytest.mark.parametrize("flag", ["-h", "--version"])
def test_only_help_and_version_exit(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["metric", "--alpha", "0.3", "--positivity"],
            {"alpha": 0.3, "positivity": True},
        ),
        (["perturb", "--critical"], {"critical": True}),
        (
            ["fig2", "--t-steps", "1", "--res-a", "2"],
            {
                "coef_c": 0.0,
                "t_max": 0.02,
                "t_steps": 1,
                "res_a": 2,
                "corner_a": -1,
                "corner_c": -1,
            },
        ),
    ],
)
def test_sidecar_records_every_option_that_is_set(tmp_path, argv, expected):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "out.meta.json").read_text())
    assert meta == {
        "tool": "quasih", "version": quasih.__version__, "command": argv[0], **expected
    }


def test_config_bad_range_is_a_one_line_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("range = 1:2:3\n")
    code = main(["scan", "--d2", "1", "--config", str(cfg)])
    assert code == 2
    assert (
        capsys.readouterr().err
        == "error: argument --range: range must be a_min:a_max:b_min:b_max\n"
    )


def test_boundary_success_and_failure(capsys):
    code, out = run(
        capsys, "boundary", "--center", "0", "0", "--direction", "1", "0", "--d", "0.5"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["a"] - 13.0 / 12.0) <= math.ulp(13.0 / 12.0)
    # center outside the domain: bad input, exit 2
    code, _ = run(
        capsys, "boundary", "--center", "0", "0", "--direction", "1", "0", "--d", "3"
    )
    assert code == 2


def test_boundary_direction_whose_norm_overflows_prints_the_unit_ray(capsys):
    # hypot(1.7e308, 1.7e308) overflowed, the direction became (0, 0) and the
    # march never moved: exit 1, no boundary crossing.
    center = ["boundary", "--center", "0", "0", "--d", "0.5", "--direction"]
    code, out = run(capsys, *center, "1.7e308", "1.7e308")
    assert code == 0
    assert out == run(capsys, *center, "1", "1")[1]
    assert '"a": 1.0615528128088303,' in out


@pytest.mark.parametrize(
    "direction, message",
    [
        (["inf", "0"], "dx must be finite, got inf"),
        (["1", "-inf"], "dy must be finite, got -inf"),
        (["nan", "1"], "dx must be finite, got nan"),
    ],
)
def test_boundary_non_finite_direction_names_its_component(capsys, direction, message):
    # The unit direction came out as nan, and the error blamed a or b.
    argv = ["boundary", "--center", "0", "0", "--direction", *direction, "--d", "0.5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_pmn_roundtrip(capsys):
    code, out = run(capsys, "pmn", "--d2", "1.6")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 4
    for p in doc["points"]:
        assert p["a"] ** 2 + p["b"] ** 2 + 2 * p["d"] ** 2 == pytest.approx(10, abs=1e-9)
        assert abs(p["residuals"]["constant_term"]) <= 1e-9


def test_pmn_bad_d2_exits_2(capsys):
    code, _ = run(capsys, "pmn", "--d2", "7.0")
    assert code == 2


def test_metric_dim_and_positivity(capsys):
    code, out = run(capsys, "metric", "--alpha", "0.3", "--positivity")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 4
    assert doc["residual"] <= 1e-9
    assert doc["positivity"]["positive"] is True


@pytest.mark.parametrize("value", ["-8.436561610025706e-05", "-1E-3", "-5e-324", "-1e300"])
def test_negative_values_in_exponent_form_are_numbers(value, tmp_path):
    # argparse alone reads "-8.4e-05" as an option string and exits 2.
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--full", value, "-1", value, "0.2", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "spectrum.json.meta.json").read_text())
    assert meta["full"] == [float(value), -1.0, float(value), 0.2]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--full", "-inf", "1", "1", "1"], "a must be finite, got -inf"),
        (["spectrum", "--alpha", "-nan"], "alpha must be finite, got nan"),
        (["spectrum", "--two-state", "-INF"], "b must be finite, got -inf"),
    ],
)
def test_negative_inf_and_nan_reach_the_flags_own_check(capsys, argv, message):
    # argparse took "-inf" for an option string: "argument --full: expected 4 arguments".
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_metric_basis_output(capsys):
    code, out = run(capsys, "metric", "--alpha", "0.3", "--basis")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["basis"]) == doc["dim"]
    assert all(m["n"] == 4 for m in doc["basis"])


def test_perturb_series_and_critical(capsys):
    code, out = run(
        capsys, "perturb", "--series", "e3", "--order", "4", "--alpha", "0.1", "--critical"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["series"]["value"] == pytest.approx(3 - 0.02 - 1e-4, abs=1e-15)
    assert doc["critical"]["alpha_cs"] == pytest.approx(math.sqrt(0.4), abs=1e-15)


def test_perturb_series_requires_alpha_and_order(capsys):
    assert main(["perturb", "--series", "e3"]) == 2
    assert capsys.readouterr().err == "error: --series needs --alpha and --order\n"


NEEDS_SERIES = "--alpha and --order need --series"
PROFILE_ONLY = "--profile excludes --basis and --positivity"


@pytest.mark.parametrize("from_config", [False, True])
@pytest.mark.parametrize(
    "argv, flag, message",
    [
        # perturb --critical --alpha 0.3 printed the critical strength and dropped --alpha.
        (["perturb", "--critical"], ["--alpha", "0.3"], NEEDS_SERIES),
        (["perturb", "--spike", "0.3", "0.3", "0.01"], ["--order", "4"], NEEDS_SERIES),
        # metric --profile printed its CSV and dropped --basis and --positivity.
        (["metric", "--profile", "0.1:0.2:2"], ["--basis"], PROFILE_ONLY),
        (["metric", "--profile", "0.1:0.2:2"], ["--positivity"], PROFILE_ONLY),
    ],
)
def test_flag_the_mode_ignores_is_a_usage_error(tmp_path, capsys, argv, flag, message, from_config):
    # From a config file, the flag is its line `key = value` (`key = true` for a switch).
    if from_config:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{flag[0][2:]} = {flag[1] if flag[1:] else 'true'}\n")
        flag = ["--config", str(cfg)]
    assert main([*argv, *flag]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "series, order, alpha",
    [
        # alpha**k raised OverflowError: a traceback and exit 1.
        ("e3", "6", "1e100"),
        ("e1", "2", "1e200"),
        # alpha**6 is finite but -7/6 alpha**6 is -inf.
        ("e3", "6", "2.36e51"),
    ],
)
def test_perturb_series_that_overflows_is_a_usage_error(series, order, alpha, capsys):
    assert main(["perturb", "--series", series, "--order", order, "--alpha", alpha]) == 2
    err = f"error: alpha={float(alpha)} overflows the order-{order} series\n"
    assert capsys.readouterr() == ("", err)


def test_perturb_spike(capsys):
    code, out = run(capsys, "perturb", "--spike", "0.3", "0.3", "0.02")
    assert code == 0
    doc = json.loads(out)
    assert doc["spike"]["inside_leading"] is True
    assert doc["spike"]["inside_exact"] is True


def test_fig1_geometry(capsys):
    code, out = run(capsys, "fig1", "--d2", "1.6")
    assert code == 0
    doc = json.loads(out)
    assert doc["circle_radius"] == pytest.approx(math.sqrt(6.8), abs=1e-12)
    assert len(doc["hyperbolas"]) == 2
    assert len(doc["intersections"]) == 4


def test_fig2_scan(capsys):
    code, out = run(
        capsys, "fig2", "--coef-c", "0.3", "--t-max", "0.02", "--t-steps", "2", "--res-a", "11"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,c,inside"
    assert len(lines) == 1 + 2 * 11
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} <= {"0", "1"}


# SHA-256 of the output of the per-point implementation (one in_domain
# call per (t, coef_a) point), which the array evaluation reproduces.
FIG2_DIGESTS = [
    (
        "--coef-c 0.3 --t-max 0.3 --t-steps 7 --res-a 33 --corner-a 1",
        "ea6fd538253ec121d228723fb685c2894fbc32303d0ede306fb73b8a63793b34",
    ),
    (
        "--coef-c -0.6 --t-max 0.2 --t-steps 50 --res-a 201 --corner-c 1",
        "6d1d22ad77942ad6809d67e1870c17a50c413a5765882509f316b1d43cd9be2a",
    ),
    (
        "--coef-c 0.75 --t-max 0.001 --t-steps 5 --res-a 1001",
        "32ffa6ebfa4662e51eea0686736a613ece1f557a6e736c838e80370afd85a614",
    ),
    ("", "13a87cd567779cfeee41269249ff3e78fd307bfa836fe60b360696ac7e07967f"),
    (
        "--t-steps 3 --res-a 11",
        "2be2d53da528c2e41606ff110ec66a74f6a0838eaed2e61343c6d1d73a6a846f",
    ),
]


@pytest.mark.filterwarnings("ignore:t=.* exceeds the policy bound:UserWarning")
@pytest.mark.parametrize(
    "flags, digest", FIG2_DIGESTS, ids=[flags or "defaults" for flags, _ in FIG2_DIGESTS]
)
def test_fig2_output_is_byte_identical(capsys, flags, digest):
    assert main(["fig2", *flags.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_fig2_warns_once_past_the_policy_bound(capsys):
    with pytest.warns(UserWarning, match="policy bound") as record:
        assert main(["fig2", "--t-max", "0.5", "--t-steps", "4", "--res-a", "3"]) == 0
    assert len(record) == 1


def test_perturb_spike_warns_where_coef_c_t_passes_the_policy_bound(capsys):
    # It printed "inside_leading": true beside "inside_exact": false, silently.
    with pytest.warns(UserWarning, match=r"^t=0.01 times \|coef_c\|=1e\+300 exceeds") as record:
        assert main(["perturb", "--spike", "1e300", "1e300", "0.01"]) == 0
    assert len(record) == 1
    spike = json.loads(capsys.readouterr().out)["spike"]
    assert (spike["inside_leading"], spike["inside_exact"]) == (True, False)


def test_fig2_warning_is_one_stderr_line(capsys):
    # The process printed Python's warning format: the path of cli.py, a
    # line number and the source line that built the SpikeAnsatz.
    argv = ["fig2", "--t-max", "0.5", "--t-steps", "4", "--res-a", "3"]
    src = str(Path(quasih.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quasih.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    formatwarning = warnings.formatwarning
    with pytest.warns(UserWarning):
        assert main(argv) == 0
    assert warnings.formatwarning is formatwarning
    assert (proc.returncode, proc.stdout) == (0, capsys.readouterr().out)
    assert proc.stderr == (
        "warning: t=0.5 exceeds the policy bound 0.2; second-order accuracy degrades\n"
    )


FIG2_OVERFLOW = "--coef-c and --t-max put the spike points beyond the float range"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--t-max", "inf"], "--t-max must be finite, got inf"),
        (["--t-max", "nan"], "--t-max must be finite, got nan"),
        (["--coef-c", "nan"], "--coef-c must be finite, got nan"),
        (["--t-max", "-0.02"], "--t-max: spike parameter t must be non-negative"),
        (["--t-max", "1e200"], FIG2_OVERFLOW),
        (["--coef-c", "1e300"], FIG2_OVERFLOW),
    ],
)
@pytest.mark.filterwarnings("ignore:t=.* exceeds the policy bound:UserWarning")
def test_fig2_bad_values_are_one_line_usage_errors(capsys, flags, message):
    # --t-max inf printed a numpy RuntimeWarning and then blamed t = nan;
    # --coef-c nan was reported as coef_a.  Overflow printed RuntimeWarnings,
    # and later numpy's bare "overflow encountered in multiply".
    assert main(["fig2", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_fig2_rejects_fewer_than_one_t_step(capsys, steps):
    code = main(["fig2", "--t-steps", steps])
    assert code == 2
    assert capsys.readouterr().err == "error: t-steps must be >= 1\n"


def test_fig2_rejects_fewer_than_one_a_point(capsys):
    # --res-a 0 printed a CSV with only its header and exited 0.
    assert main(["fig2", "--res-a", "0"]) == 2
    assert capsys.readouterr() == ("", "error: res-a must be >= 1\n")


@pytest.mark.parametrize("grid", ["2001x2000", "20000x20000"])
def test_fig2_rejects_grids_above_the_cell_cap(grid, capsys, monkeypatch):
    # Without the cap the grid was built, and a huge one ended in a MemoryError traceback.
    def spike_coords(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(quasih.perturb, "_spike_coords", spike_coords)
    t_steps, res_a = grid.split("x")
    assert main(["fig2", "--t-steps", t_steps, "--res-a", res_a]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t-steps x res-a = ") and err.count("\n") == 1


def test_fig2_accepts_a_grid_at_the_cell_cap(capsys, monkeypatch):
    shapes = []

    def spike_coords(t, coef_a, coef_c, corner):
        shapes.append((t.shape, coef_a.shape))
        return np.zeros(1), np.zeros(1)

    monkeypatch.setattr(quasih.perturb, "_spike_coords", spike_coords)
    monkeypatch.setattr(quasih.cli, "csv_text", lambda *args: "")
    assert main(["fig2", "--t-steps", "2000", "--res-a", "2000"]) == 0
    assert shapes == [((2000, 1), (2000,))] and 2000 * 2000 == MAX_SCAN_CELLS


def test_dim_values(capsys):
    for n, expected in ((2, 1), (4, 4), (6, 9)):
        code, out = run(capsys, "dim", "--n", str(n))
        assert code == 0
        assert out.strip() == str(expected)


def test_dim_rejects_odd_n(capsys):
    code, _ = run(capsys, "dim", "--n", "5")
    assert code == 2


def test_dim_domain_function():
    assert [dim_domain(n) for n in (2, 4, 6, 8)] == [1, 4, 9, 16]
    with pytest.raises(ValueError):
        dim_domain(3)
    with pytest.raises(ValueError):
        dim_domain(0)
