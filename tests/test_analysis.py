"""Tests for zero location, certification, and monotonicity machinery."""

import functools
import math

import numpy as np
import pytest

import zaktp.analysis
from zaktp.analysis import (
    Region,
    _brentq,
    _cyclic_sign_changes,
    _half_slice_fun,
    _neigh_max,
    _series_tables,
    certify_zero_free,
    fully_reduced_sign_changes,
    locate_zero_half,
    reduced_slice_monotonicity,
    strong_sign_changes,
    unit_monotone_offset,
)
from zaktp.ebspline import build_ebspline, reduce_ebspline
from zaktp.errors import NotUnitMonotone, NoZero, StripViolation, ToleranceUnreachable
from zaktp.weights import exp_sum_rep, make_weights
from zaktp.zak import _spline_for, zak_tp


def test_even_window_zero_at_half():
    w = make_weights([1.0, -1.0])
    assert locate_zero_half(w) == pytest.approx(0.5, abs=1e-9)


def test_zero_is_actually_a_zero():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = rng.uniform(0.5, 4, size=n) * rng.choice([-1, 1], size=n)
        w = make_weights(a)
        x = locate_zero_half(w)
        assert 0.0 <= x < 1.0
        assert abs(zak_tp(w, x, 0.5)) < 1e-9


def test_hat_spline_zero():
    assert locate_zero_half(build_ebspline([0.0, 0.0])) == pytest.approx(0.5, abs=1e-9)


def test_type1_has_no_zero():
    with pytest.raises(NoZero):
        locate_zero_half(make_weights([1.0]))


def _sign_changes_loop(vals):
    """The per-sample scan that ``_cyclic_sign_changes`` vectorizes: the reference."""
    nz = np.flatnonzero(vals != 0.0)
    sgn = np.sign(vals[nz])
    changes = []
    for i in range(len(nz)):
        j = (i + 1) % len(nz)
        if sgn[i] * sgn[j] < 0:
            changes.append((nz[i], nz[j]))
    return changes


def test_cyclic_sign_changes_match_loop():
    rng = np.random.default_rng(41)
    xs = np.arange(4096) * (2.0 / 4096)
    slices = []
    for _ in range(20):
        n = int(rng.integers(1, 6))
        slices.append(_half_slice_fun(make_weights(rng.uniform(0.5, 5, size=n) * rng.choice([-1, 1], size=n)))(xs))
    # slices holding exact zero samples: sign runs, zero runs, wrap-around pairs
    slices.append(_half_slice_fun(build_ebspline([0.0, 0.0]))(xs))
    for _ in range(300):
        slices.append(rng.integers(-1, 2, size=int(rng.integers(1, 30))).astype(float) * rng.uniform(0.1, 2))
    slices += [np.array([0.0, 0.0, 1.0, 0.0]), np.array([-2.0]), np.array([1.0, 0.0, -1.0, 0.0]), np.array([-0.0, 3.0, -1.0])]
    assert sum(np.any(v == 0.0) for v in slices) > 200
    for v in slices:
        assert _cyclic_sign_changes(v) == _sign_changes_loop(v)


def test_brentq_port_equals_scipy_on_zero_brackets():
    brentq = pytest.importorskip("scipy.optimize").brentq
    rng = np.random.default_rng(43)
    xs = np.arange(4096) * (2.0 / 4096)
    windows = 0
    while windows < 300:
        n = int(rng.integers(2, 7))
        f = _half_slice_fun(make_weights(rng.uniform(0.5, 6, size=n) * rng.choice([-1, 1], size=n)))
        changes = _cyclic_sign_changes(f(xs))
        if not changes:
            continue
        windows += 1
        lo, hi = xs[changes[0][0]], xs[changes[0][1]]
        if hi < lo:
            hi += 2.0

        @functools.lru_cache(maxsize=None)  # both solvers ask for the same points
        def g(t):
            return float(f(np.asarray([t]))[0])

        for tol in (1e-12, 1e-9, 1e-6):
            assert _brentq(g, lo, hi, xtol=tol) == brentq(g, lo, hi, xtol=tol)


@pytest.mark.parametrize(
    "f",
    [
        lambda x: x**3 - 2 * x - 5,
        lambda x: math.atan(1e6 * (x - 0.2)),
        lambda x: (x - 1.3) ** 9,  # a flat root: half the brackets exhaust the iterations
        lambda x: (x - 0.5) ** 5 * 1e-300,  # underflowing interpolation steps
        lambda x: 1.0 if x > 0.3 else -1.0,  # a jump
    ],
)
def test_brentq_port_equals_scipy_on_hard_functions(f):
    brentq = pytest.importorskip("scipy.optimize").brentq
    rng = np.random.default_rng(47)
    for _ in range(40):
        a, b = rng.uniform(-3.0, 0.1), rng.uniform(2.1, 4.0)
        for tol in (1e-15, 1e-12, 1e-6, 0.1):
            try:
                ref = brentq(f, a, b, xtol=tol)
            except RuntimeError:
                with pytest.raises(ToleranceUnreachable):
                    _brentq(f, a, b, xtol=tol)
            else:
                assert _brentq(f, a, b, xtol=tol) == ref


def test_brentq_port_raises_typed_error_when_iterations_run_out():
    # scipy.optimize.brentq raises a bare RuntimeError here
    with pytest.raises(ToleranceUnreachable, match="did not converge in 100 iterations"):
        _brentq(lambda x: (x - 1.3) ** 9, 0.0, 3.0, xtol=1e-15)


def test_certify_away_from_zero():
    w = make_weights([1.0, -1.0])
    cert = certify_zero_free(w, Region(x=(0.0, 1.0), omega=(0.0, 0.4)), grid_step=1 / 512)
    assert cert.verdict == "zero_free_certified"
    assert cert.min_modulus > cert.lipschitz_bound * cert.grid_step * np.sqrt(2) / 2


def test_certify_finds_known_zero():
    w = make_weights([1.0, -1.0])
    cert = certify_zero_free(w, Region(x=(0.0, 1.0), omega=(0.4, 0.6)), grid_step=1 / 512)
    assert cert.verdict == "zero_found"
    assert cert.zero_location == pytest.approx((0.5, 0.5), abs=1e-3)


def _shifted_box(x_star, tau=0.0):
    """Box of half-width 1/32 around (x*, 1/2), shifted so no grid node hits x*."""
    shift = 0.4 / 256
    return Region(x=(x_star - 1 / 32 + shift, x_star + 1 / 32 + shift), omega=(0.5 - 1 / 32, 0.5 + 1 / 32), tau=tau)


REFINE_WEIGHTS = [1.3, -2.1, 3.0]


@pytest.mark.parametrize("case", ["weights", "spline", "tau"])
def test_certify_refinement_finds_zero(case):
    w = make_weights(REFINE_WEIGHTS)
    tau = 0.25 * w.a0 / (2 * np.pi) if case == "tau" else 0.0
    window = _spline_for(w.raw) if case == "spline" else w
    # Z g(x, 1/2 + i tau) = e^{-2 pi tau x} Z h(x, 1/2) with h = g e^{2 pi tau .},
    # and h is (up to a constant) the TP window with weights a - 2 pi tau
    h = make_weights([a - 2 * np.pi * tau for a in REFINE_WEIGHTS])
    cert = certify_zero_free(window, _shifted_box(locate_zero_half(h), tau), grid_step=1 / 256)
    assert cert.verdict == "zero_found"
    x, om = cert.zero_location
    assert abs(om - 0.5) < 1e-6
    assert abs(zak_tp(w, x, complex(om, tau))) < 1e-8


def test_certify_builds_representation_once(monkeypatch):
    calls = []
    real = zaktp.analysis.exp_sum_rep

    def counting(weights, *args, **kwargs):
        calls.append(weights)
        return real(weights, *args, **kwargs)

    monkeypatch.setattr(zaktp.analysis, "exp_sum_rep", counting)
    w = make_weights(REFINE_WEIGHTS)
    box = _shifted_box(locate_zero_half(w))
    for _ in range(2):
        assert certify_zero_free(w, box, grid_step=1 / 256).verdict == "zero_found"
    assert len(calls) == 2


@pytest.mark.parametrize("case", ["weights", "spline", "tau", "start_on_lower_bound", "start_on_upper_bound"])
def test_nelder_mead_port_equals_scipy(case, monkeypatch):
    minimize = pytest.importorskip("scipy.optimize").minimize
    port = zaktp.analysis._nelder_mead
    runs = []

    def checked(fun, x0, lb, ub, xatol, fatol, maxiter):
        x, f = port(fun, x0, lb, ub, xatol=xatol, fatol=fatol, maxiter=maxiter)
        opts = {"xatol": xatol, "fatol": fatol, "maxiter": maxiter}
        ref = minimize(fun, x0, method="Nelder-Mead", bounds=list(zip(lb, ub)), options=opts)
        runs.append((x0, lb, ub, x, f, ref.x, ref.fun))
        return x, f

    monkeypatch.setattr(zaktp.analysis, "_nelder_mead", checked)
    rng = np.random.default_rng(53)
    step = 1 / 256
    for _ in range(6):
        a = rng.uniform(0.8, 5, size=3) * rng.choice([-1, 1], size=3)
        w = make_weights(a)
        tau = 0.25 * w.a0 / (2 * np.pi) if case == "tau" else 0.0
        window = _spline_for(w.raw) if case == "spline" else w
        x_star = locate_zero_half(make_weights(a - 2 * np.pi * tau))
        if case.startswith("start_on"):
            # the grid minimum, where the simplex starts, is the corner nearest the zero;
            # from the upper corner the first simplex overshoots the bounds and is reflected
            if case == "start_on_lower_bound":
                lo = (x_star + 0.3 * step, 0.5 + 0.3 * step)
            else:
                lo = (x_star - 0.3 * step - 0.1, 0.5 - 0.3 * step - 0.1)
            region = Region(x=(lo[0], lo[0] + 0.1), omega=(lo[1], lo[1] + 0.1))
        else:
            shift = rng.uniform(0.25, 0.75) * step
            region = Region(
                x=(x_star - 1 / 32 + shift, x_star + 1 / 32 + shift),
                omega=(0.5 - 1 / 32 + shift, 0.5 + 1 / 32 + shift),
                tau=tau,
            )
        certify_zero_free(window, region, grid_step=step)
    assert len(runs) == 6
    for x0, lb, ub, x, f, ref_x, ref_f in runs:
        assert np.array_equal(x, ref_x) and f == ref_f
        if case.startswith("start_on"):
            assert np.array_equal(x0, lb if case == "start_on_lower_bound" else ub)


@pytest.mark.parametrize("region", [Region(x=(0.8, 0.2), omega=(0.0, 0.4)), Region(x=(0.0, 1.0), omega=(0.5, 0.2))])
def test_certify_rejects_reversed_range(region):
    with pytest.raises(ValueError, match="reversed"):
        certify_zero_free(make_weights([1.0, -1.0]), region, grid_step=1 / 64)


@pytest.mark.parametrize("case", ["weights", "spline", "tau"])
def test_series_tables_equal_per_shift_loop(case):
    # reference: one evaluation per lattice shift, as the tables were once built
    w = make_weights(REFINE_WEIGHTS)
    tau = 0.25 * w.a0 / (2 * np.pi) if case == "tau" else 0.0
    window = _spline_for(w.raw) if case == "spline" else w
    xg = np.linspace(-0.3, 1.2, 37)
    ks, G0, G1, G2, column = _series_tables(window, tau, xg)
    if case == "spline":
        samp = [window, reduce_ebspline(window, 0.0), reduce_ebspline(reduce_ebspline(window, 0.0), 0.0)]
    else:
        rep = exp_sum_rep(w)
        samp = [rep.eval, rep.derivative().eval, rep.derivative().derivative().eval]
    weightk = np.exp(2.0 * np.pi * ks * tau)
    for f, G in zip(samp, (G0, G1, G2)):
        ref = np.stack([np.real(np.asarray(f(xg + k))) * wk for k, wk in zip(ks, weightk)])
        assert np.array_equal(G, ref)
    for j in (0, 17, 36):
        assert np.array_equal(column(xg[j]), G0[:, j])


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (17, 17), (245, 513)])
def test_neigh_max_matches_maximum_filter(shape):
    maximum_filter = pytest.importorskip("scipy.ndimage").maximum_filter  # oracle only

    arr = np.random.default_rng(sum(shape)).standard_normal(shape)
    assert np.array_equal(_neigh_max(arr), maximum_filter(arr, size=3, mode="nearest"))


def test_certify_omega_zero_line():
    w = make_weights([0.8, -2.0, 1.5])
    cert = certify_zero_free(w, Region(x=(0.0, 1.0), omega=(0.0, 0.0)), grid_step=1 / 512)
    assert cert.verdict == "zero_free_certified"


def test_certify_complex_slice():
    w = make_weights([1.0, -1.0])
    tau = 0.5 * w.a0 / (2 * np.pi)
    cert = certify_zero_free(
        w, Region(x=(0.0, 1.0), omega=(0.0, 0.48), tau=tau), grid_step=1 / 1024
    )
    assert cert.verdict == "zero_free_certified"


def test_certify_strip_violation():
    w = make_weights([1.0, -1.0])
    with pytest.raises(StripViolation):
        certify_zero_free(
            w, Region(x=(0.0, 1.0), omega=(0.0, 0.4), tau=w.a0), grid_step=1 / 64
        )


def test_certificate_json_schema():
    w = make_weights([1.0, -1.0])
    cert = certify_zero_free(w, Region(x=(0.0, 1.0), omega=(0.0, 0.4)), grid_step=1 / 256)
    d = cert.to_json_dict()
    assert d["schema"] == "zerocert/1"
    assert d["verdict"] == "zero_free_certified"
    assert d["zero_location"] is None


def test_strong_sign_changes():
    assert strong_sign_changes([1, -1, 1]) == 2
    assert strong_sign_changes([0, 1, 1]) == 0
    assert strong_sign_changes([1, 0, -1]) == 1
    assert strong_sign_changes([]) == 0


def test_unit_monotone_offset_hat_slice():
    # Z(x, 1/2) = 2x - 1 extended by Z(x+1) = -Z(x): monotone up then down
    t = np.arange(512) / 256
    f = np.where(t < 1, 2 * t - 1, -(2 * (t - 1) - 1))
    assert unit_monotone_offset(f) == pytest.approx(0.0, abs=1e-2)


def test_unit_monotone_offset_sine():
    t = np.arange(512) / 256
    assert unit_monotone_offset(np.sin(np.pi * t)) == pytest.approx(0.5, abs=1e-2)


def test_unit_monotone_offset_rejects_two_bumps():
    t = np.arange(512) / 256
    bad = np.sin(2 * np.pi * t) + 0.3 * np.sin(4 * np.pi * t + 0.7)
    with pytest.raises(NotUnitMonotone):
        unit_monotone_offset(bad)


def test_reduced_slice_monotonicity_runs():
    for weights, idx in [([1.0, -1.0], 0), ([2.0, 3.0, -1.0], 0), ([2.0, 3.0, -1.0], 1)]:
        rep = reduced_slice_monotonicity(make_weights(weights), idx)
        assert 0.0 <= rep.x0 < 2.0
        assert 0.0 <= rep.y0 < 2.0


def test_fully_reduced_sign_change_bound():
    # reduced real slice obeys S^- <= 2 N |omega| + m over [0, N)
    rng = np.random.default_rng(31)
    N = 8
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = rng.uniform(0.5, 3, size=n) * rng.choice([-1, 1], size=n)
        w = make_weights(a)
        om = float(rng.uniform(0.05, 0.45))
        s = fully_reduced_sign_changes(w, om, N)
        assert s <= 2 * N * om + w.n
