"""Small-size tests of the benchmark: every workload runs, every check bites.

    python3 -m pytest zakbench/tests -q

Each check is shown to accept a real zaktp result and to reject the same
result after a deliberate perturbation.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import workloads as wl  # noqa: E402
import zaktp as z  # noqa: E402

W4 = (1.0, -1.7, 2.6, -3.4)


def run_bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.01", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_workload_runs_one_round(workload):
    result = run_bench(workload, 0)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # the two known faults fail in every window_series job, nothing else fails
    expected = 2 / 12 if workload == "window_series" else 0.0
    assert result["failed"] / result["attempted"] == pytest.approx(expected, abs=0)


@pytest.mark.parametrize("workload", ["cli_cold", "window_series"])
def test_traced_run_prints_every_layer_metric(workload):
    result = run_bench(workload, 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec()["per_layer"]}
    assert result["metrics"]["weights.eval_tp.points"]["value"] > 0
    if workload == "cli_cold":
        assert result["metrics"]["cli.run_s"]["value"] > 0
        assert result["metrics"]["cli.import.scipy_ndimage_s"]["value"] > 0


def test_directory_without_sources_fails():
    """A directory holding only the benchmark's files: exit code not 0, no result."""
    bare = os.path.join(BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "zakbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    cmd = [sys.executable, os.path.join("zakbench", "run.py"), "--workload", "frames_zak", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode == 2
    assert "no zaktp sources" in proc.stderr
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# Each check accepts the real result and rejects a perturbed one


def test_zero_check():
    w = z.make_weights(W4)
    x = z.locate_zero_half(w)
    assert checks.zero_ok(W4, x, even=False)[0]
    assert not checks.zero_ok(W4, x + 1e-4, even=False)[0]
    even = (-2.0, -1.0, 1.0, 2.0)
    xe = z.locate_zero_half(z.make_weights(even))
    assert checks.zero_ok(even, xe, even=True)[0]
    assert not checks.zero_ok(even, xe + 1e-7, even=True)[0]


def test_window_values_check():
    xs = np.linspace(-8, 8, 64)
    vals = z.eval_tp(z.make_weights(W4), xs)
    assert checks.window_values_ok(W4, xs, vals)[0]
    bad = vals.copy()
    bad[20] += 1e-8
    assert not checks.window_values_ok(W4, xs, bad)[0]


def test_frame_bounds_check():
    w = z.make_weights(W4)
    for N in (1, 2):
        fb = z.frame_bounds(w, N, (16, 16), 1)
        assert checks.frame_bounds_ok(W4, N, fb.A_est, fb.B_est)[0]
        target = N * float(checks.Window(W4).norm2())
        assert not checks.frame_bounds_ok(W4, N, 1.01 * target, fb.B_est)[0]
        assert not checks.frame_bounds_ok(W4, N, fb.A_est, 0.99 * target)[0]


def test_discrete_frame_check():
    window = z.periodize_sample(z.make_weights(W4), 48)
    report = z.discrete_frame_test(window, 4)
    lo, hi = report["lambda_min"], report["lambda_max"]
    assert checks.discrete_frame_ok(window.values, 4, lo, hi)[0]
    assert not checks.discrete_frame_ok(window.values, 4, lo + 1e-6 * hi, hi)[0]
    assert not checks.discrete_frame_ok(window.values, 4, lo, hi * (1 + 1e-6))[0]


def test_zak_grid_check():
    xs = np.arange(16) / 16
    grid = z.compute_zak_grid(z.make_weights(W4), xs, xs)
    assert checks.zak_grid_ok(W4, xs, xs, grid.values)[0]
    bad = grid.values.copy()
    i, j = checks._sample_indices(16)[3]
    bad[i, j] += 1e-7
    assert not checks.zak_grid_ok(W4, xs, xs, bad)[0]


def test_spline_check():
    spline = z.build_ebspline([-a for a in W4])
    assert checks.spline_ok(W4, spline)[0]
    eta, coeffs = spline.pieces[1][0]
    piece = ((eta, (coeffs[0] * (1 + 1e-6),) + tuple(coeffs[1:])),) + spline.pieces[1][1:]
    bad = dataclasses.replace(spline, pieces=(spline.pieces[0], piece) + spline.pieces[2:])
    assert not checks.spline_ok(W4, bad)[0]


def test_strip_check():
    params = (1.1,)
    ns, m = wl.STRIP["alternating"]
    gen = z.WeightGenerator.alternating(*params)
    ref = z.truncate(gen, m)
    xi = 0.25 * ref.a0 / (2 * np.pi)
    dists = [z.zak_strip_distance(z.truncate(gen, n), ref, xi) for n in ns]
    assert checks.strip_ok("alternating", params, ns, m, dists)[0]
    assert not checks.strip_ok("alternating", params, ns, m, [dists[0], 0.5 * dists[1], 0.4 * dists[1]])[0]
    assert not checks.strip_ok("alternating", params, ns, m, [dists[0], dists[0], dists[2]])[0]


def test_zero_census_check():
    job = {"weights": W4, "even": False, "box_shift": 0.4 * wl.BOX_STEP}
    w = z.make_weights(W4)
    x = z.locate_zero_half(w)
    pieces, box = wl.cover(x, job["box_shift"])
    certs = [z.ZeroCertificate(r, wl.PIECE_STEP, 1.0, 1.0, "zero_free_certified") for r in pieces]
    found = z.ZeroCertificate(box, wl.BOX_STEP, 0.0, 1.0, "zero_found", (x, 0.5))
    out = {"x_star": x, "pieces": certs, "box": found}
    assert all(ok for _, ok, _ in checks.check_zero_census(job, out))
    bad_piece = dict(out, pieces=[certs[0], dataclasses.replace(certs[1], verdict="inconclusive"), certs[2]])
    assert [ok for _, ok, _ in checks.check_zero_census(job, bad_piece)].count(False) == 1
    for box_cert in (dataclasses.replace(found, verdict="inconclusive", zero_location=None),
                     dataclasses.replace(found, zero_location=(x + 1e-3, 0.5))):
        assert [ok for _, ok, _ in checks.check_zero_census(job, dict(out, box=box_cert))].count(False) == 1


def test_frames_zak_inversion_and_periodization_checks():
    job = {"weights": W4}
    w = z.make_weights(W4)
    out = {
        "fb": (z.frame_bounds(w, 1, (8, 8), 0), z.frame_bounds(w, 2, (8, 8), 0)),
        "window": z.periodize_sample(w, wl.DISCRETE_K),
        "grid": z.compute_zak_grid(w, np.arange(8) / 8, np.arange(8) / 8),
        "inversion": [z.zak_inversion_check(w, om) for om in wl.INVERSION_OMEGAS],
    }
    spec_ = checks.zak_spectrum(out["window"].values, wl.DISCRETE_M)
    out["dft"] = {"lambda_min": float(spec_.min()), "lambda_max": float(spec_.max())}
    assert all(ok for _, ok, _ in checks.check_frames_zak(job, out))
    bad_inv = dict(out, inversion=[out["inversion"][0] + 1e-8] + out["inversion"][1:])
    failed = [name for name, ok, _ in checks.check_frames_zak(job, bad_inv) if not ok]
    assert failed == ["frames_zak.zak_inversion_check"]
    vals = list(out["window"].values)
    vals[1] += 1e-9
    bad_win = dict(out, window=dataclasses.replace(out["window"], values=tuple(vals)))
    failed = [name for name, ok, _ in checks.check_frames_zak(job, bad_win) if not ok]
    assert "frames_zak.periodize_sample" in failed


def test_window_series_checks():
    rng = np.random.default_rng(3)
    job = wl.make_round("window_series", rng)[0]
    out = wl.window_series_job(job)
    ops = checks.check_window_series(job, out)
    assert sorted(name for name, ok, _ in ops if not ok) == sorted(wl.KNOWN_FAULTS)
    assert len(ops) == 12
    bad = dict(out, dilation=(out["dilation"][0] + 1e-7, out["dilation"][1]))
    bad["sweeps"] = dict(out["sweeps"], alternating=list(reversed(out["sweeps"]["alternating"])))
    bad_eval = out["eval_dd"].copy()
    bad_eval[0] += 1e-8
    bad["eval_dd"] = bad_eval
    failed = {name for name, ok, _ in checks.check_window_series(job, bad) if not ok}
    assert failed == set(wl.KNOWN_FAULTS) | {
        "window_series.zak_dilation_check",
        "window_series.sweep.alternating",
        "window_series.eval_tp.divided_difference",
    }


def cli_job(kind: str) -> dict:
    return next(j for j in wl.make_round("cli_cold", np.random.default_rng(5)) if j["kind"] == kind)


def run_cli(job: dict):
    cmd = [sys.executable, os.path.join(BENCH, "cli_job.py")] + job["argv"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


def test_cli_checks_reject_perturbed_output():
    job = cli_job("eval")
    code, out = run_cli(job)
    assert checks.check_cli(job, code, out)[0][1]
    lines = out.splitlines()
    x, g = lines[100].split(",")
    lines[100] = f"{x},{float(g) + 1e-8!r}"
    assert not checks.check_cli(job, code, "\n".join(lines))[0][1]
    assert not checks.check_cli(job, 1, out)[0][1]

    job = cli_job("psi")
    code, out = run_cli(job)
    assert checks.check_cli(job, code, out)[0][1]
    d = json.loads(out)
    d["fitted_exponent"] += 1e-6
    assert not checks.check_cli(job, code, json.dumps(d))[0][1]

    job = cli_job("converge")
    code, out = run_cli(job)
    assert checks.check_cli(job, code, out)[0][1]
    header, *rows = out.strip().splitlines()
    assert not checks.check_cli(job, code, "\n".join([header] + rows[::-1]))[0][1]


@pytest.mark.parametrize("kind", ["eval", "zak", "zero", "certify", "framebounds", "discrete-frame", "converge", "psi"])
def test_cli_check_rejects_unreadable_output(kind):
    job = cli_job(kind)
    assert not checks.check_cli(job, 0, "ValueError: something went wrong\n")[0][1]
