import json
import math

import pytest

from quasih.cli import dim_domain, main


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
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--alpha", "0.1", "--two-state", "0.5"])
    assert exc.value.code == 2


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
    with pytest.raises(SystemExit) as exc:
        main(["scan"])
    assert exc.value.code == 2


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
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert missing in err


def test_scan_rejects_negative_d2(capsys):
    code = main(["scan", "--d2", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: d2 must be non-negative\n"


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


def test_config_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("no equals sign here\n")
    code, _ = run(capsys, "scan", "--config", str(cfg))
    assert code == 2


def test_config_bad_range_is_a_one_line_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("range = 1:2:3\n")
    code = main(["scan", "--d2", "1", "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err == "error: range must be a_min:a_max:b_min:b_max\n"


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
    with pytest.raises(SystemExit) as exc:
        main(["perturb", "--series", "e3"])
    assert exc.value.code == 2


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
