"""Acceptance suite: eleven property/oracle criteria at desk scale.

Each test prints a single PASS/FAIL line for its criterion (visible with
pytest -s or in captured output on failure) and asserts the stated
tolerances and runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from zaktp.analysis import (
    Region,
    certify_zero_free,
    locate_zero_half,
    reduced_slice_monotonicity,
)
from zaktp.convergence import (
    WeightGenerator,
    psi_decay_diagnostic,
    truncate,
    weighted_sup_distance,
    zak_strip_distance,
)
from zaktp.ebspline import build_ebspline
from zaktp.errors import NotUnitMonotone, NoZero
from zaktp.frames import discrete_frame_test, frame_bounds, periodize_sample
from zaktp.weights import fourier_tp, make_weights
from zaktp.zak import zak_ebspline, zak_factorized, zak_inversion_check, zak_tp


def _report(num: int, label: str, ok: bool):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num}: {label}"


def _random_weights(rng, n_min=1, n_max=6, lo=0.5, hi=6.0):
    n = int(rng.integers(n_min, n_max + 1))
    a = rng.uniform(lo, hi, size=n) * rng.choice([-1, 1], size=n)
    return make_weights(a)


def test_criterion_1_factorization_oracle():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        w = _random_weights(rng, 1, 6)
        tau_max = 0.8 * w.a0 / (2 * np.pi)
        for _ in range(20):
            x = float(rng.uniform(0, 1))
            s = complex(rng.uniform(0, 1), rng.uniform(-tau_max, tau_max))
            z1 = zak_tp(w, x, s)
            z2 = zak_factorized(w, x, s)
            rel = abs(z1 - z2) / max(abs(z1), 1e-30)
            worst = max(worst, rel)
    elapsed = time.time() - t0
    _report(1, f"factorization oracle, worst rel {worst:.2e}, {elapsed:.1f}s",
            worst <= 1e-9 and elapsed < 30)


def test_criterion_2_single_zero():
    rng = np.random.default_rng(102)
    t0 = time.time()
    ok = True
    for _ in range(80):
        w = _random_weights(rng, 2, 6)
        x = locate_zero_half(w)  # MultipleZeros would raise
        ok = ok and 0.0 <= x < 1.0
    for _ in range(20):
        a = float(rng.uniform(0.5, 5))
        x = locate_zero_half(make_weights([a, -a]))
        ok = ok and abs(x - 0.5) < 1e-9
    try:
        locate_zero_half(make_weights([1.5]))
        ok = False
    except NoZero:
        pass
    elapsed = time.time() - t0
    _report(2, f"single zero per period, {elapsed:.1f}s", ok and elapsed < 20)


def test_criterion_3_zero_free_certification():
    rng = np.random.default_rng(103)
    t0 = time.time()
    ok = True
    for _ in range(20):
        w = _random_weights(rng, 2, 4, lo=0.5, hi=4.0)
        for region in (
            Region(x=(0.0, 1.0), omega=(0.0, 0.48)),
            Region(x=(0.0, 1.0), omega=(0.52, 1.0)),
            Region(x=(0.0, 1.0), omega=(0.0, 0.48), tau=0.5 * w.a0 / (2 * np.pi)),
        ):
            cert = certify_zero_free(w, region, grid_step=1 / 1024)
            if cert.verdict != "zero_free_certified":
                ok = False
    elapsed = time.time() - t0
    _report(3, f"zero-free certification at 1/1024, {elapsed:.1f}s", ok and elapsed < 60)


def test_criterion_4_closed_form_spot_values():
    w1 = make_weights([1.0])
    e1 = abs(zak_tp(w1, 0.0, 0.0) - 1 / (1 - math.exp(-1)))
    e2 = abs(zak_tp(w1, 0.0, 0.5) - 1 / (1 + math.exp(-1)))
    hat = build_ebspline([0.0, 0.0])
    xs = np.arange(64) / 64
    e3 = float(np.max(np.abs(zak_ebspline(hat, xs, 0.5) - (2 * xs - 1))))
    _report(4, f"spot values, errors {e1:.1e}/{e2:.1e}/{e3:.1e}",
            e1 < 1e-12 and e2 < 1e-12 and e3 < 1e-12)


def test_criterion_5_inversion_formula():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        w = _random_weights(rng, 1, 5)
        for _ in range(20):
            om = float(rng.uniform(0, 1))
            diff = abs(zak_inversion_check(w, om) - fourier_tp(w, om))
            worst = max(worst, diff)
    _report(5, f"inversion formula, worst abs {worst:.2e}", worst <= 1e-7)


def test_criterion_6_weighted_convergence():
    gen = WeightGenerator.geometric(1.0, 2.0)
    ref = truncate(gen, 64)
    dists = []
    for n in (4, 8, 16, 32):
        w = truncate(gen, n)
        sigma = 0.5 * min(w.a0, ref.a0)
        dists.append(weighted_sup_distance(w, ref, sigma))
    decreasing = all(dists[i] > dists[i + 1] for i in range(3))
    _report(6, f"geometric truncation rate, distances {['%.2e' % d for d in dists]}",
            decreasing and dists[-1] < 1e-6)


def test_criterion_7_strip_convergence():
    gen = WeightGenerator.geometric(1.0, 2.0)
    ref = truncate(gen, 64)
    dists = []
    for n in (4, 8, 16, 32):
        w = truncate(gen, n)
        xi = 0.5 * min(w.a0, ref.a0) / (2 * np.pi)
        dists.append(zak_strip_distance(w, ref, xi))
    decreasing = all(dists[i] > dists[i + 1] for i in range(3))
    _report(7, f"Zak strip convergence, distances {['%.2e' % d for d in dists]}", decreasing)


def test_criterion_8_unit_monotonicity():
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(50):
        w = _random_weights(rng, 2, 6)
        try:
            reduced_slice_monotonicity(w, 0)
        except NotUnitMonotone:
            ok = False
            break
    _report(8, "unit-interval monotonicity of Z(.,1/2) slices (50 sets)", ok)


def test_criterion_9_frame_bounds():
    w = make_weights([1.0, -1.0])
    rep1 = frame_bounds(w, 1, resolution=(64, 64), refinements=1)
    cell = 1 / 128
    near = (
        abs(rep1.min_location[0] - 0.5) <= cell
        and abs(rep1.min_location[1] - 0.5) <= cell
    )
    rep2 = frame_bounds(w, 2, resolution=(64, 64), refinements=1)
    _report(9, f"frame bounds: N=1 A={rep1.A_est:.1e} at {rep1.min_location}, "
               f"N=2 A={rep2.A_est:.4f}",
            rep1.A_est < 1e-20 and near and rep2.A_est >= 1e-4)


def test_criterion_10_discrete_frames():
    rng = np.random.default_rng(110)
    t0 = time.time()
    ok = True
    # K/M odd: frames with healthy eigenvalue ratio (small M keeps the
    # critically sampled system well conditioned)
    for _ in range(20):
        w = _random_weights(rng, 1, 4, lo=0.5, hi=4.0)
        M = int(rng.choice([1, 2, 3]))
        q = int(rng.choice([1, 3, 5, 7, 9, 11, 15, 21]))
        K = M * q
        rep = discrete_frame_test(periodize_sample(w, K), M)
        if rep["lambda_min"] <= 1e-6 * rep["lambda_max"]:
            ok = False
    # even window with M even and K/M even: the lattice hits the Zak zero
    for _ in range(10):
        a = float(rng.uniform(0.5, 3))
        w = make_weights([a, -a])
        M = int(rng.choice([2, 4]))
        K = M * int(rng.choice([2, 4, 6]))
        rep = discrete_frame_test(periodize_sample(w, K), M)
        if rep["lambda_min"] >= 1e-8 * rep["lambda_max"]:
            ok = False
    elapsed = time.time() - t0
    _report(10, f"discrete frame corollary cases, {elapsed:.1f}s", ok and elapsed < 30)


def test_criterion_11_psi_decay():
    taus = np.logspace(1, 4, 40)
    ok = True
    for p, weights in [(1, [1.0]), (2, [1.0, 2.0]), (3, [1.0, 2.0, 3.0])]:
        slope = psi_decay_diagnostic(make_weights(weights), 0.0, taus, p)
        if not slope <= -p + 0.1:
            ok = False
    _report(11, "reciprocal-Laplace decay exponents p in {1,2,3}", ok)
