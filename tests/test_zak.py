"""Tests for the Zak transform routes and their cross-validation."""

import math

import numpy as np
import pytest

from zaktp.ebspline import build_ebspline
from zaktp.errors import PoleHit, StripViolation, ToleranceUnreachable
from zaktp.weights import fourier_tp, make_weights
from zaktp.zak import (
    compute_zak_grid,
    extend_quasiperiodic,
    zak_dilation_check,
    zak_ebspline,
    zak_factorized,
    zak_inversion_check,
    zak_prefactor,
    zak_tp,
    zak_tp_with_tail,
)


def test_type1_geometric_series_values():
    w = make_weights([1.0])
    assert zak_tp(w, 0.0, 0.0, tol=1e-14) == pytest.approx(1 / (1 - math.exp(-1)), abs=1e-12)
    assert zak_tp(w, 0.0, 0.5, tol=1e-14) == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-12)


def test_tail_bound_is_honest():
    w = make_weights([1.0, -2.0])
    val, tail = zak_tp_with_tail(w, 0.3, 0.2, tol=1e-10)
    assert tail < 1e-10
    # oracle: much tighter tolerance changes the value by less than the bound
    val2, _ = zak_tp_with_tail(w, 0.3, 0.2, tol=1e-15)
    assert abs(val - val2) <= 1e-10


def test_quasi_periodicity():
    w = make_weights([1.3, -0.6])
    s = 0.37 + 0.02j
    z = zak_tp(w, 0.25, s)
    z_shift = zak_tp(w, 1.25, s)
    assert z_shift == pytest.approx(np.exp(2j * np.pi * s) * z, rel=1e-9)


def test_periodicity_in_omega():
    w = make_weights([1.3, -0.6])
    assert zak_tp(w, 0.4, 1.3) == pytest.approx(zak_tp(w, 0.4, 0.3), rel=1e-10)


def test_extend_quasiperiodic():
    w = make_weights([1.0, -1.0])
    s = 0.31
    base = zak_tp(w, 0.2, s)
    ext = extend_quasiperiodic(base, shift_n=3, omega=s)
    assert ext == pytest.approx(zak_tp(w, 3.2, s), rel=1e-9)


def test_factorization_matches_direct_series():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        a = rng.uniform(0.5, 6, size=n) * rng.choice([-1, 1], size=n)
        w = make_weights(a)
        x = float(rng.uniform(0, 1))
        tau_max = 0.8 * w.a0 / (2 * np.pi)
        s = complex(rng.uniform(0, 1), rng.uniform(-tau_max, tau_max))
        z1 = zak_tp(w, x, s, tol=1e-12)
        z2 = zak_factorized(w, x, s)
        assert z2 == pytest.approx(z1, rel=1e-9, abs=1e-12)


def test_hat_spline_zak_slice():
    B = build_ebspline([0.0, 0.0])
    xs = np.linspace(0, 0.984375, 64)
    vals = zak_ebspline(B, xs, 0.5)
    assert np.allclose(vals.real, 2 * xs - 1, atol=1e-12)
    assert np.allclose(vals.imag, 0.0, atol=1e-12)


def test_prefactor_pole_detection():
    w = make_weights([2 * np.pi])  # a + 2 pi i s vanishes at s = i a/(2 pi) -> tau = 1
    with pytest.raises(PoleHit):
        zak_prefactor(w, complex(0.0, 1.0))


def test_prefactor_vectorized_over_s():
    # the array route may round differently from the scalar one (vector exp)
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        w = make_weights(rng.uniform(0.5, 6, size=n) * rng.choice([-1, 1], size=n))
        s = rng.uniform(-1, 2, 40) + 1j * rng.uniform(-0.9, 0.9, 40) * w.a0 / (2 * np.pi)
        ref = np.array([zak_prefactor(w, complex(v)) for v in s])
        assert np.allclose(zak_prefactor(w, s), ref, rtol=1e-13, atol=0)
    with pytest.raises(PoleHit):
        zak_prefactor(make_weights([2 * np.pi]), np.array([0.3, 1j, 0.5]))


def test_strip_violation():
    w = make_weights([1.0, -1.0])
    with pytest.raises(StripViolation):
        zak_tp(w, 0.3, complex(0.2, w.a0))  # tau far outside a0/(2 pi)


def test_inversion_formula():
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        a = rng.uniform(0.5, 4, size=n) * rng.choice([-1, 1], size=n)
        w = make_weights(a)
        om = float(rng.uniform(0, 1))
        approx = zak_inversion_check(w, om)
        assert approx == pytest.approx(fourier_tp(w, om), abs=1e-8)


def test_dilation_identity():
    w = make_weights([1.0, -2.0, 0.7])
    res = zak_dilation_check(w, alpha=1.7, x=0.3, omega=0.25, identities=("d", "c"))
    for name, (lhs, rhs) in res.items():
        assert lhs == pytest.approx(rhs, rel=1e-8), name


def test_zak_grid_routes_agree():
    w = make_weights([1.1, -0.9])
    xs = np.linspace(0, 0.9, 7)
    oms = np.linspace(0, 0.9, 5)
    g1 = compute_zak_grid(w, xs, oms, source="ebspline_factorized")
    g2 = compute_zak_grid(w, xs, oms, source="direct_series")
    assert np.allclose(g1.values, g2.values, rtol=1e-8, atol=1e-10)
    assert g1.values.shape == (5, 7)


def test_zak_grid_csv_schema():
    w = make_weights([1.0, -1.0])
    g = compute_zak_grid(w, [0.0, 0.5], [0.0], source="ebspline_factorized")
    rows = list(g.to_csv_rows())
    assert rows[0] == ("x", "omega", "tau", "re", "im", "abs")
    assert len(rows) == 3
    d = g.to_json_dict()
    assert d["schema"] == "zakgrid/1"


def test_tolerance_unreachable_near_strip_edge():
    w = make_weights([1.0, -1.0])
    tau = 0.9999 * w.a0 / (2 * np.pi)
    with pytest.raises(ToleranceUnreachable):
        zak_tp(w, 0.1, complex(0.2, tau), tol=1e-300)
