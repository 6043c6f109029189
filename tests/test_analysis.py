"""Tests for zero location, certification, and monotonicity machinery."""

import numpy as np
import pytest

import zaktp.analysis
from zaktp.analysis import (
    Region,
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
from zaktp.errors import NotUnitMonotone, NoZero, StripViolation
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
    from scipy.ndimage import maximum_filter  # oracle only

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
