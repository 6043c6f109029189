"""Byte-for-byte CLI outputs: the README subcommands at small sizes.

Each command's stdout is stored in ``tests/golden/<name>.txt``.  A change
that alters any of them changes what users see, so the files are only
rewritten together with a note of what changed and why.
"""

from pathlib import Path

import pytest

from zaktp.cli import parse_and_run

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "eval": ["eval", "--weights", "1,-1", "--grid=-4:4:33"],
    "eval_confluent": ["eval", "--weights", "1,1,2,-3", "--grid=-2:3:21"],
    "zak": ["zak", "--weights", "1,-1", "--nx", "16", "--nomega", "16"],
    "zak_tau_json": [
        "zak", "--weights", "1,2,2,-1.5", "--nx", "8", "--nomega", "4", "--tau", "0.05",
        "--format", "json",
    ],
    "zak_direct": [
        "zak", "--weights", "1,-1", "--nx", "4", "--nomega", "4", "--source", "direct_series",
    ],
    "zero": ["zero", "--weights", "1,-1", "--tol", "1e-12"],
    "zero_harmonic": ["zero", "--gen", "harmonic:c=1", "--n", "5"],
    "certify": ["certify", "--weights", "1,-1", "--omega-range", "0,0.48", "--step", "0.00390625"],
    "certify_tau": [
        "certify", "--weights", "1,2,-3", "--omega-range", "0,0.4", "--tau", "0.04",
        "--step", "0.0078125",
    ],
    "certify_cross": [
        "certify", "--weights", "1,2,-3", "--x-range=-0.3,0.7", "--omega-range", "0.1,0.45", "--step", "0.01",
    ],
    "certify_zero_box": [
        "certify", "--weights", "1,-2", "--x-range", "0.2,0.8", "--omega-range", "0.45,0.55",
        "--step", "0.0078125",
    ],
    "framebounds": ["framebounds", "--weights", "1,-1", "--N", "2", "--res", "16x16"],
    "framebounds_n1": [
        "framebounds", "--weights", "1,1,-2", "--N", "1", "--res", "8x8", "--refinements", "2",
    ],
    "framebounds_n3": [
        "framebounds", "--weights", "0.9,-2.1,1.4", "--N", "3", "--res", "4x6", "--refinements", "1",
    ],
    "discrete_frame": ["discrete-frame", "--weights", "1,-1", "--K", "12", "--M", "2"],
    "discrete_window": [
        "discrete-frame", "--weights", "1,-2", "--K", "8", "--M", "2", "--window-only",
    ],
    "converge": ["converge", "--gen", "geometric:c=1,r=2", "--ns", "4,8", "--n-ref", "16"],
    "psi": ["psi", "--weights", "1,2,3", "--samples", "12"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name, capsys):
    assert parse_and_run(COMMANDS[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
