import hashlib
import json
import math
from types import SimpleNamespace

import pytest

import quasih.cli
from quasih.cli import MAX_SCAN_CELLS, _parser, dim_domain, main


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


@pytest.mark.parametrize("res", ["20000x20000", "2001x2000", "1x4000001"])
def test_scan_rejects_grids_above_the_cell_cap(res, capsys, monkeypatch):
    # Without the cap the grid was allocated, ending in a numpy memory error.
    def scan_grid(*args):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(quasih.cli, "scan_grid", scan_grid)
    assert main(["scan", "--d2", "1", "--res", res]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: resolution ") and err.count("\n") == 1


def test_scan_accepts_a_grid_at_the_cell_cap(capsys, monkeypatch):
    calls = []

    def scan_grid(*args):
        calls.append(args)
        return SimpleNamespace(a_values=[], b_values=[], inside=[], margin=[])

    monkeypatch.setattr(quasih.cli, "scan_grid", scan_grid)
    monkeypatch.setattr(quasih.cli, "grid_csv", lambda *args: "")
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
    cfg.write_text("d2 = 0.3\nrange = -1:1:-1:1\nres = 3x3\ntol = 0.5\n")
    _, with_config = run(capsys, "scan", "--config", str(cfg))
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
        ("tol = nan", "error: tolerance must be positive and finite, got nan\n"),
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
        ["spectrum", "--alpha", "0.9", "--tol", "nan"],
        ["scan", "--d2", "1", "--res", "3x3", "--tol", "nan"],
        ["boundary", "--center", "0", "0", "--direction", "1", "0", "--d", "0.5", "--tol", "nan"],
        ["metric", "--alpha", "0.3", "--rank-tol", "nan"],
    ],
)
def test_nan_tolerance_is_a_usage_error(capsys, argv):
    # spectrum printed "AllReal" for max_imag 1.22, scan marked every cell
    # outside and metric reported dim 0.
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be positive and finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["pmn", "--d2", "1", "--tol", "1e-6"], ["dim", "--n", "4", "--tol", "1e-6"]]
)
def test_tol_only_where_it_is_used(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --tol 1e-6\n"


def test_metric_profile_needs_at_least_one_point(capsys):
    # n = 0 printed a CSV with only its header and exited 0.
    assert main(["metric", "--profile", "0.1:0.5:0"]) == 2
    assert capsys.readouterr() == ("", "error: argument --profile: profile n must be >= 1\n")


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
            {"alpha": 0.3, "rank_tol": 1e-10, "positivity": True},
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
    assert doc["a"] == pytest.approx(3.25 / 3.0, abs=1e-6)
    # center outside the domain: numerical failure, exit 1
    code, _ = run(
        capsys, "boundary", "--center", "0", "0", "--direction", "1", "0", "--d", "3"
    )
    assert code == 1


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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--t-max", "inf"], "--t-max must be finite, got inf"),
        (["--t-max", "nan"], "--t-max must be finite, got nan"),
        (["--coef-c", "nan"], "--coef-c must be finite, got nan"),
        (["--t-max", "-0.02"], "--t-max: spike parameter t must be non-negative"),
        (["--t-max", "1e200"], "overflow encountered in multiply"),
        (["--coef-c", "1e300"], "overflow encountered in multiply"),
    ],
)
@pytest.mark.filterwarnings("ignore:t=.* exceeds the policy bound:UserWarning")
def test_fig2_bad_values_are_one_line_usage_errors(capsys, flags, message):
    # --t-max inf printed a numpy RuntimeWarning and then blamed t = nan;
    # --coef-c nan was reported as coef_a.  Overflow printed RuntimeWarnings.
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
