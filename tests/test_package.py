"""Package-level behaviour seen from a fresh interpreter: imports, thread cap, entry points."""

import json
import os
import subprocess
import sys

import pytest

import zaktp
from zaktp.cli import parse_and_run

from test_golden import COMMANDS as GOLDEN_COMMANDS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(zaktp.__file__)))


def _python(*args, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


# one name a line, sorted
PUBLIC_NAMES = """
DiscreteWindow
EmptyInput
FrameBoundsReport
IllConditioned
Indivisible
MultipleZeros
NoZero
NotUnitMonotone
PiecewiseExpPoly
PoleHit
Region
SigmaTooLarge
StripViolation
WeightGenerator
WeightMultiset
ZakGrid
ZakTPError
ZeroCertificate
ZeroWeight
analysis
build_ebspline
certify_zero_free
compute_zak_grid
convergence
convergence_sweep
discrete_frame_test
ebspline
errors
eval_ebspline
eval_tp
exp_sum_rep
fourier_tp
frame_bounds
frames
locate_zero_half
make_weights
periodize_sample
psi_decay_diagnostic
reduced_slice_monotonicity
report_io
truncate
unit_monotone_offset
weighted_sup_distance
weights
write_report
zak
zak_dilation_check
zak_ebspline
zak_factorized
zak_inversion_check
zak_prefactor
zak_strip_distance
zak_tp
""".split()


def test_public_surface_is_pinned():
    # an addition to or removal from the public names must show up as a diff here
    assert sorted(zaktp.__all__) == PUBLIC_NAMES


def test_import_loads_no_scipy():
    proc = _python("-c", "import sys, zaktp; print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_subcommands_load_no_scipy():
    # every subcommand, and the certificate whose refinement runs (certify_zero_box)
    assert {argv[0] for argv in GOLDEN_COMMANDS.values()} == {
        "eval", "zak", "zero", "certify", "framebounds", "discrete-frame", "converge", "psi",
    }
    assert "certify_zero_box" in GOLDEN_COMMANDS
    code = (
        "import contextlib, io, json, sys\n"
        "from zaktp.cli import parse_and_run\n"
        "for name, argv in json.loads(sys.argv[1]).items():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert parse_and_run(argv) == 0, name\n"
        "    print(name, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = _python("-c", code, json.dumps(GOLDEN_COMMANDS))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{name} []" for name in GOLDEN_COMMANDS]


def test_psi_leaves_numpy_ma_unimported():
    # np.unique's first call imports numpy.ma, about 8 ms and 1 MB of a cold command
    code = (
        "import contextlib, io, sys\n"
        "from zaktp.cli import parse_and_run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert parse_and_run(['psi', '--weights=1,2,-3']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_numpy_polynomial_unimported():
    # the lattice sums' Eulerian polynomials use the package's Horner; only the
    # inversion check's Gauss-Legendre nodes need numpy.polynomial, on first use
    proc = _python("-c", "import sys, zaktp.cli; print('numpy.polynomial' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importtime_shows_no_scipy():
    proc = _python("-X", "importtime", "-c", "import zaktp")
    assert proc.returncode == 0, proc.stderr
    assert "zaktp.analysis" in proc.stderr
    assert [line for line in proc.stderr.splitlines() if "scipy" in line] == []


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_thread_cap_applies_before_blas_loads():
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["ZAKTP_THREADS"] = "1"
    code = (
        "import zaktp, numpy as np\n"
        "a = np.ones((400, 400)); a @ a\n"
        "print([l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')][0])\n"
    )
    proc = _python("-c", code, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


@pytest.mark.parametrize("module", ["zaktp", "zaktp.cli"])
def test_module_entry_points(module, capsys):
    assert parse_and_run(["zero", "--weights=1,-1"]) == 0
    expected = capsys.readouterr().out
    proc = _python("-m", module, "zero", "--weights=1,-1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_eval_grid_with_negative_start(capsys):
    assert parse_and_run(["eval", "--weights=1,-1", "--grid=-4:4:201"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 202
