"""Package-level behaviour seen from a fresh interpreter: imports, thread cap, entry points."""

import os
import subprocess
import sys

import pytest

import zaktp
from zaktp.cli import parse_and_run

SRC = os.path.dirname(os.path.dirname(os.path.abspath(zaktp.__file__)))


def _python(*args, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_import_leaves_heavy_scipy_parts_unloaded():
    proc = _python("-c", "import sys, zaktp; print(sorted(m for m in sys.modules if m.startswith(('scipy.ndimage', 'scipy.optimize'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
