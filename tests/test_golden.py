"""CLI outputs compared byte for byte against files in tests/golden/.

The files hold the outputs of the commands below; any change to a number,
a flag or the formatting shows up as a diff.  To update them after an
intended change, write each command's stdout to its file.
"""

from pathlib import Path

import pytest

from quasih.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "scan_d2_1.6_res_11x11.csv": ["scan", "--d2", "1.6", "--res", "11x11"],
    "fig2_t_steps_3_res_a_11.csv": ["fig2", "--t-steps", "3", "--res-a", "11"],
    "boundary_center_0_0_direction_1_0.3_d_0.5.json": [
        "boundary", "--center", "0", "0", "--direction", "1", "0.3", "--d", "0.5"
    ],
    "perturb_spike_0.3_0.3_0.01.json": ["perturb", "--spike", "0.3", "0.3", "0.01"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_scan_out_file_and_sidecar_match_golden(tmp_path):
    out = tmp_path / "scan.csv"
    name = "scan_d2_1.6_res_11x11.csv"
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / name).read_text()
    assert Path(f"{out}.meta.json").read_text() == (GOLDEN / f"{name}.meta.json").read_text()
