"""Tests for the Zak transform routes and their cross-validation."""

import contextlib
import math
import re
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mp_oracle import lattice_sum
from test_ebspline import _same_bits

import zaktp.analysis
import zaktp.frames
import zaktp.weights
import zaktp.zak
from zaktp.analysis import Region, certify_zero_free
from zaktp.convergence import WeightGenerator, truncate, zak_strip_distance
from numpy.polynomial.legendre import leggauss

from zaktp.ebspline import _PI, ExpPolyTable, PiecewiseExpPoly, _eulerian, _horner, build_ebspline, eval_ebspline
from zaktp.errors import IllConditioned, PoleHit, StripViolation
from zaktp.frames import frame_bounds, periodize_sample
from zaktp.weights import exp_sum_rep, fourier_tp, make_weights
from zaktp.zak import (
    _zak_columns,
    compute_zak_grid,
    zak_dilation_check,
    zak_ebspline,
    zak_factorized,
    zak_inversion_check,
    zak_prefactor,
    zak_tp,
)


def test_type1_geometric_series_values():
    w = make_weights([1.0])
    assert zak_tp(w, 0.0, 0.0) == pytest.approx(1 / (1 - math.exp(-1)), abs=1e-12)
    assert zak_tp(w, 0.0, 0.5) == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-12)


def test_tail_bound_is_honest():
    # the lattice sum is in closed form: no tail, and the reported bound is
    # its rounding, which holds against mpmath
    w = make_weights([1.0, -2.0])
    z, bound = w.table.lattice_sum(0.3, 0.2)
    val, bound = complex(z), float(bound)
    assert val == zak_tp(w, 0.3, 0.2)
    assert 0.0 < bound <= 1e-15
    with mp.workdps(30):
        assert abs(mp.mpc(val) - lattice_sum(mp, w.raw, 0.3, 0.2)) <= bound


def test_quasi_periodicity():
    w = make_weights([1.3, -0.6])
    s = 0.37 + 0.02j
    z = zak_tp(w, 0.25, s)
    z_shift = zak_tp(w, 1.25, s)
    assert z_shift == pytest.approx(np.exp(2j * np.pi * s) * z, rel=1e-9)


def test_periodicity_in_omega():
    w = make_weights([1.3, -0.6])
    assert zak_tp(w, 0.4, 1.3) == pytest.approx(zak_tp(w, 0.4, 0.3), rel=1e-10)


def test_factorization_matches_direct_series():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        a = rng.uniform(0.5, 6, size=n) * rng.choice([-1, 1], size=n)
        w = make_weights(a)
        x = float(rng.uniform(0, 1))
        tau_max = 0.8 * w.a0 / (2 * np.pi)
        s = complex(rng.uniform(0, 1), rng.uniform(-tau_max, tau_max))
        z1 = zak_tp(w, x, s)
        z2 = zak_factorized(w, x, s)
        assert z2 == pytest.approx(z1, rel=1e-9, abs=1e-12)


@st.composite
def _lattice_case(draw):
    # distinct weights, or clusters of multiplicity up to 3; magnitudes 0.2 apart
    n = draw(st.integers(2, 8))
    mults = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)) if draw(st.booleans()) else [1] * n
    mags = draw(st.lists(st.floats(0.5, 8.0), min_size=n, max_size=n).filter(
        lambda m: np.min(np.diff(np.sort(m))) >= 0.2))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    # at most 8 weights; the first two clusters (6 weights at most) always stay
    weights = [sgn * mag for mag, sgn, mu in zip(mags, signs, mults) for _ in range(mu)][:8]
    a0 = min(abs(a) for a in weights)
    tau = draw(st.floats(-0.6, 0.6)) * a0 / (2 * np.pi)
    s = complex(draw(st.floats(0.0, 1.0)), tau)
    return weights, draw(st.floats(-3.0, 3.0)), s, draw(st.floats(0.5, 2.0))


@settings(max_examples=40, deadline=None)
@given(_lattice_case())
def test_lattice_sum_matches_mpmath(case):
    # Every value returned is within 1e-10 max(1, |Z|) of mpmath, and within
    # its own stated rounding bound.  Crowded windows of this range cancel in
    # their partial fractions; where the bound passes 1e-10 max(1, |Z|) they
    # raise IllConditioned and return no value.  A window whose magnitudes
    # are 1 apart never does (none of 11,500 random windows of this range).
    weights, x, s, alpha = case
    try:
        got, bound = exp_sum_rep(make_weights(weights)).lattice_sum(x, s, alpha)
    except IllConditioned:
        mags = np.unique(np.abs(weights))
        assert len(mags) > 1 and np.min(np.diff(mags)) < 1.0
        return
    with mp.workdps(40):
        ref = lattice_sum(mp, weights, x, s, alpha)
        err = float(abs(mp.mpc(complex(got)) - ref))
    assert err <= 1e-10 * max(1.0, float(abs(ref)))
    assert err <= float(bound)


def _moments_of_the_block(z, count):
    """S_i(q) for i < count from the whole block z, through 1 / -np.expm1(z) and np.exp(z)."""
    omq, q, polyval = -np.expm1(z), np.exp(z), np.polynomial.polynomial.polyval
    return [1.0 / omq] + [q * polyval(q, _eulerian(i)) / omq ** (i + 1) for i in range(1, count)]


MOMENT_WINDOWS = {
    "harmonic": truncate(WeightGenerator.harmonic(1.0), 5).raw,
    "alternating": truncate(WeightGenerator.alternating(1.0), 6).raw,
    "geometric": truncate(WeightGenerator.geometric(1.0, 2.0), 5).raw,
    "mixed_confluent": (1.3, 1.3, -2.1, -2.1, -2.1, 2.9, -0.8),
}


@pytest.mark.parametrize("alpha", [1.0, 0.7])
@pytest.mark.parametrize("values", MOMENT_WINDOWS.values(), ids=MOMENT_WINDOWS.keys())
def test_lattice_sum_moments_have_the_bits_of_numpys_complex_exp_and_expm1(values, alpha, monkeypatch):
    # lattice_sum hands _moments Re z and one row of Im z, which forms cos y, sin y
    # and sin(y/2) once per column.  Each block's Im z must be that row in every row,
    # and S_i must have the bits that the whole complex block gives through
    # 1 / -np.expm1(z) and np.exp(z), signed zeros included: if NumPy changes its
    # complex exp or expm1, this is where it shows
    blocks, real = [], zaktp.ebspline._moments

    def recording(x, y, count):
        blocks.append((x, y, count, real(x, y, count)))
        return blocks[-1][3]

    monkeypatch.setattr(zaktp.ebspline, "_moments", recording)
    w = make_weights(values)
    edge = w.a0 / (2 * math.pi)  # the strip, whatever alpha
    taus = np.array([0.0, -0.0, 0.3, -0.7, 0.99, -0.99, 0.999999]) * edge
    grid = np.add.outer(np.array([0.0, -0.0, 0.25, 0.5, 0.75, 0.3, 1.0]), 1j * taus)
    for x, s in ((np.linspace(-2.5, 2.5, 11), grid), (0.3, 0.0), (-1.7, complex(0.0, -0.99 * edge))):
        del blocks[:]
        with contextlib.suppress(IllConditioned):  # the strip's edge may refuse: its blocks are formed first
            w.table.lattice_sum(x, s, alpha)
        wz = 2 * _PI * 1j * np.ravel(s).astype(np.clongdouble)  # 2 pi i s as lattice_sum rounds it
        zs = [h * (w.table.etas[live].astype(np.longdouble)[:, None] - wz)
              for live, h in ((w.table._live_mask[1], alpha), (w.table._live_mask[0], -alpha)) if live.any()]
        assert len(blocks) == len(zs)
        for (bx, by, count, (moments, bounds)), z in zip(blocks, zs):
            assert _same_bits(bx, z.real) and all(_same_bits(by, row) for row in z.imag)
            assert len(moments) == count and len(bounds) == count + 1
            assert all(_same_bits(got, want) for got, want in zip(moments, _moments_of_the_block(z, count)))
            assert all(_same_bits(got, want) for got, want in zip(bounds, _moments_of_the_block(z.real, count + 1)))


@pytest.mark.parametrize("n", [28, 32, 40])
def test_crowded_harmonic_prefixes_raise(n):
    # Harmonic n = 32 and 40 lost 5e-8 and 7e-5 of their Zak values to
    # cancellation, silently.  The refusal is per point: at these inputs
    # n = 32 and 40 fail on all five closed-form routes; n = 28 fails near
    # x = 0 and returns a value within its stated bound of mpmath at x = 1/2,
    # where e^{-a y} damps the large residues.
    w = truncate(WeightGenerator.harmonic(1.0), n)
    for route in (
        lambda: zak_tp(w, 0.3, 0.2),
        lambda: zak_dilation_check(w, 1.3, 0.2, 0.4),
        lambda: zak_strip_distance(w, w, 0.01),
        lambda: periodize_sample(w, 8),
    ):
        with pytest.raises(IllConditioned):
            route()
    if n > 28:
        with pytest.raises(IllConditioned):
            compute_zak_grid(w, [0.5], [0.5], source="direct_series")
        return
    g = compute_zak_grid(w, [0.5], [0.5], source="direct_series")
    assert g.tail_bound <= 1e-10
    with mp.workdps(60):
        assert abs(mp.mpc(complex(g.values[0, 0])) - lattice_sum(mp, w.raw, 0.5, 0.5)) <= g.tail_bound


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


def test_prefactor_pole_message_names_weight_and_first_pole():
    with pytest.raises(PoleHit) as exc:
        zak_prefactor(make_weights([2 * np.pi]), np.arange(2000) / 1000 + 1j)
    msg = str(exc.value)
    assert msg == f"prefactor denominator vanishes for weight {2 * np.pi} at s = {1j}"


@pytest.mark.parametrize("route", [lambda w: zak_factorized(w, 0.3, 0.2), lambda w: zak_inversion_check(w, 0.3)],
                         ids=["zak_factorized", "zak_inversion_check"])
def test_factorized_route_refuses_before_the_prefactor_overflows(route):
    # e^{-(a + 2 pi i s)} overflows for a = -800: the spline (weight 800, e^800) is
    # refused first, so no RuntimeWarning comes before the IllConditioned
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IllConditioned, match="spline weight 800.0"):
            route(make_weights([-800.0, 1.0]))


@pytest.mark.parametrize("s", [0.2, np.array([0.1, 0.2, 0.3 + 0.01j])], ids=["scalar", "array"])
def test_prefactor_refuses_a_factor_past_the_double_range(s):
    # e^{-(a + 2 pi i s)} = e^800 for a = -800: it was nan+nanj after two RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IllConditioned, match=r"^prefactor weight -800\.0: e\^-\(a \+ 2 pi i s\) leaves the double range$"):
            zak_prefactor(make_weights([-800.0, 1.0]), s)
    # the edge is where e^x overflows, as the exponent rounds 2 pi Im s - a
    assert np.all(np.isfinite(zak_prefactor(make_weights([-709.0, 1.0]), s)))


_PRODUCT_OVERFLOW = "^the prefactor's product over 46 weights is not finite: it leaves the double range$"


@pytest.mark.parametrize(
    "call",
    [
        lambda w: zak_prefactor(w, 0.3),
        lambda w: zak_prefactor(w, np.array([0.1, 0.3 + 0.01j])),
        lambda w: compute_zak_grid(w, [0.5], [0.5]),
        lambda w: frame_bounds(w, 2, (4, 4), 0),
        lambda w: frame_bounds(w, 1, (4, 4), 0),
    ],
    ids=["scalar", "array", "compute_zak_grid", "frame_bounds_N2", "frame_bounds_N1"],
)
def test_prefactor_refuses_a_product_past_the_double_range(call):
    # every factor is finite, but sum log a = 749: this was nan+nanj (a NaN grid,
    # A_est = B_est = nan) after RuntimeWarnings; N = 1 forms its grid before the zero search
    w = truncate(WeightGenerator.geometric(1.0, 2.0), 46)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IllConditioned, match=_PRODUCT_OVERFLOW):
            call(w)


@pytest.mark.parametrize("ws", [[0.9, -2.1, 1.4], [-1.5, 2.0], [2.0**k for k in range(1, 45)]])
@pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 0.77 + 0.01j])
def test_scalar_prefactor_keeps_the_bits_of_numpy_scalar_products(ws, s):
    # Python's complex product has NumPy's bits; 44 weights reach |P| = 1e298
    w = make_weights(ws)
    ref = 1.0 + 0.0j
    for a in w.raw:
        ref *= a / (1.0 - np.exp(-(a + 2j * np.pi * complex(s))))
    assert zak_prefactor(w, s) == complex(ref)


def test_strip_violation():
    w = make_weights([1.0, -1.0])
    with pytest.raises(StripViolation):
        zak_tp(w, 0.3, complex(0.2, w.a0))  # tau far outside a0/(2 pi)
    # NaN is not inside the strip either (not IllConditioned from the lattice sum)
    with pytest.raises(StripViolation, match=r"\|tau\| = nan is outside the open strip"):
        zak_tp(w, 0.3, complex(0.5, math.nan))


def test_one_window_builds_its_partial_fractions_once(monkeypatch):
    # the window carries its table: 20 scalar Zak values and a dilation check share one build
    calls = []
    real = zaktp.weights.exp_sum_rep

    def counting(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(zaktp.weights, "exp_sum_rep", counting)
    w = make_weights([1.0, -2.0, 0.7])
    for x in np.linspace(0.0, 0.95, 20):
        zak_tp(w, x, 0.25)
    zak_dilation_check(w, alpha=1.7, x=0.3, omega=0.25)
    assert calls == [w]


def test_inversion_formula():
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        a = rng.uniform(0.5, 4, size=n) * rng.choice([-1, 1], size=n)
        w = make_weights(a)
        om = float(rng.uniform(0, 1))
        approx = zak_inversion_check(w, om)
        assert approx == pytest.approx(fourier_tp(w, om), abs=1e-8)


def _fourier_side_zak(w, alpha, x, omega):
    """e^{2 pi i x w} Z_{1/alpha} g-hat(w, -x), the Fourier side of identity (c),
    truncated where the algebraic tail |g-hat(w')| <= prod|a| (2 pi |w'|)^{-n}
    drops below 1e-8."""
    n, prod_abs = w.n, float(np.prod(np.abs(np.asarray(w.raw))))
    K = 64
    while True:
        tail = (
            2.0
            * prod_abs
            * (alpha / (2.0 * np.pi)) ** n
            * (K - alpha * abs(omega) - 1) ** (-(n - 1))
            / (n - 1)
        )
        if tail < 1e-8 or K > 10**7:
            break
        K *= 4
    k = np.arange(-K, K + 1)
    fh = fourier_tp(w, omega + k / alpha)
    return np.exp(2j * np.pi * x * omega) * np.sum(fh * np.exp(2j * np.pi * k * x / alpha))


def test_dilation_identity():
    # (d): Z_alpha g(x, w) = Z_1 g(alpha .)(x/alpha, alpha w) / alpha, from the code;
    # (c): alpha Z_alpha g(x, w) = e^{2 pi i x w} Z_{1/alpha} g-hat(w, -x), the oracle
    w = make_weights([1.0, -2.0, 0.7])
    res = zak_dilation_check(w, alpha=1.7, x=0.3, omega=0.25)
    assert list(res) == ["d"]
    lhs, rhs = res["d"]
    assert lhs == pytest.approx(rhs, rel=1e-8)
    assert 1.7 * lhs == pytest.approx(_fourier_side_zak(w, 1.7, 0.3, 0.25), rel=1e-8)


def test_zak_grid_routes_agree():
    w = make_weights([1.1, -0.9])
    xs = np.linspace(0, 0.9, 7)
    oms = np.linspace(0, 0.9, 5)
    g1 = compute_zak_grid(w, xs, oms, source="ebspline_factorized")
    g2 = compute_zak_grid(w, xs, oms, source="direct_series")
    assert np.allclose(g1.values, g2.values, rtol=1e-12, atol=1e-14)
    assert g1.values.shape == g2.values.shape == (5, 7)
    # the factorized route is a finite sum; the direct one states its rounding
    assert g1.tail_bound == 0.0 < g2.tail_bound <= 1e-15


@pytest.mark.parametrize("source", ["ebspline_factorized", "direct_series"])
def test_zak_grid_refuses_more_than_2_to_the_22_nodes(source):
    w = make_weights([1.0, -1.0])
    with pytest.raises(ValueError, match="exceeds 4194304 nodes"):
        compute_zak_grid(w, np.zeros(2049), np.zeros(2048), source=source)


@pytest.mark.parametrize("source", ["ebspline_factorized", "direct_series"])
def test_zak_grid_refuses_a_grid_without_nodes(source):
    w = make_weights([1.0, -1.0])
    for xs, oms in (([], [0.5]), ([0.5], [])):
        with pytest.raises(ValueError, match="at least one x and one omega sample"):
            compute_zak_grid(w, xs, oms, source=source)


@pytest.mark.parametrize("source", ["ebspline_factorized", "direct_series"])
@pytest.mark.parametrize(
    "xs, oms",
    [([math.nan], [0.5]), ([0.25, math.nan], [0.5]), ([0.5], [math.nan]), ([0.5], [0.25, math.nan]), ([-0.1], [0.5]), ([0.5], [1.0])],
    ids=["nan_x", "nan_among_x", "nan_omega", "nan_among_omega", "negative_x", "omega_one"],
)
def test_zak_grid_refuses_samples_outside_the_cell(source, xs, oms):
    # NaN fails every comparison, so it is refused with the samples outside the
    # cell, before any value is formed: no nan+nanj and no RuntimeWarning from
    # the prefactor on the way
    w = make_weights([1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid must lie within the lattice cell"):
            compute_zak_grid(w, xs, oms, source=source)


def test_zak_grid_csv_schema():
    w = make_weights([1.0, -1.0])
    g = compute_zak_grid(w, [0.0, 0.5], [0.0], source="ebspline_factorized")
    rows = list(g.to_csv_rows())
    assert rows[0] == ("x", "omega", "tau", "re", "im", "abs")
    assert len(rows) == 3
    d = g.to_json_dict()
    assert d["schema"] == "zakgrid/1"


def test_zak_near_strip_edge_matches_mpmath():
    # q = e^{-(a0 - 2 pi tau)} = e^{-1e-4}: the geometric series the old
    # truncation could not finish is summed exactly
    w = make_weights([1.0, -1.0])
    s = complex(0.2, 0.9999 * w.a0 / (2 * np.pi))
    with mp.workdps(30):
        ref = complex(lattice_sum(mp, w.raw, 0.1, s))
    got = zak_tp(w, 0.1, s)
    assert abs(got - ref) <= 1e-10 * abs(ref)


def _column_splines():
    real = build_ebspline([0.9, -2.1, 1.4, 0.0, -2.1])
    phases = np.array([1 + 2j, -0.5j, 3 - 1j, 0.25, -1.0])[:, None, None]
    cplx = PiecewiseExpPoly.from_table(ExpPolyTable(real.table.etas, real.table.coeffs * phases))
    # |eta| = 1000 > 746: the first term is skipped where -1000 t < -746, which
    # covers t > 0.797, where its Horner value 1e308 (1 + t) overflows
    wide = PiecewiseExpPoly((((-1000.0, (1e308, 1e308)), (1.0, (3.0, -1.0))), ((-1000.0, (0.5,)), (2.0, (1.0, -1.0)))))
    return {"real": real, "complex": cplx, "wide": wide, "one": build_ebspline([6.0])}


@pytest.mark.parametrize("name", ["real", "complex", "wide", "one"])
def test_spline_columns_equal_the_spline_on_a_dyadic_grid(name):
    # x + k - k = x on a dyadic grid, so each piece sees the same t: bit for bit
    B = _column_splines()[name]
    xs = np.arange(1024) / 1024
    with np.errstate(over="raise", invalid="raise"):  # no overflowing Horner value meets e^{eta t} = 0
        got = B.table.pieces_at(xs)
    ref = np.stack([eval_ebspline(B, xs + k) for k in range(B.m)])
    assert got.dtype == ref.dtype and np.all(np.isfinite(got))
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("name", ["real", "complex", "one"])
def test_spline_columns_within_ulps_at_gauss_legendre_nodes(name):
    # the reference evaluates at t = (x + k) - k, up to (k + 1) half-ulps off x,
    # which moves each term by |eta| times that: a few ulps of the terms' moduli
    B = _column_splines()[name]
    xs = 0.5 * (leggauss(64)[0] + 1.0)
    got = B.table.pieces_at(xs)
    ref = np.stack([eval_ebspline(B, xs + k) for k in range(B.m)])
    moduli = np.zeros(got.shape)
    for k in range(B.m):
        for eta, row in zip(B.table.etas, B.table.coeffs[k]):
            moduli[k] += _horner(np.abs(row), xs) * np.exp(eta * xs) * (1 + abs(eta) * (k + 1))
    assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * moduli)


def _stack(B):
    """B and B' as one table of two row blocks, as the certificate stacks them."""
    return ExpPolyTable(B.table.etas, np.concatenate([B.table.coeffs, B.table.reduce(0.0).coeffs]))


def test_zak_columns_take_each_piece_at_the_exact_local_coordinate(monkeypatch):
    # unsorted points on four floors: X[r, i, j] is piece ks[i] + floor(x_j) of block r
    # at x_j - floor(x_j), by table.eval; one pieces_at call per floor
    B = build_ebspline([1.0, -2.0, 0.5])
    stack, x = _stack(B), np.array([0.3, -1.7, 2.05, 0.99, -0.0, 1.0, -1.2, 0.037 * 7])
    calls, real = [], ExpPolyTable.pieces_at

    def counting(self, t, rows=slice(None)):
        calls.append(len(t))
        return real(self, t, rows)

    monkeypatch.setattr(ExpPolyTable, "pieces_at", counting)
    ks, X = _zak_columns(B.m, stack, x)
    monkeypatch.undo()
    assert ks.tolist() == list(range(-2, 5))  # -max floor .. m - 1 - min floor
    assert sorted(calls) == [1, 1, 2, 4] and X.shape == (2, 7, len(x))
    fl = np.floor(x)
    for r in range(2):
        for i, k in enumerate(ks):
            p = k + fl
            ref = stack.eval(np.where((p >= 0) & (p < B.m), p + r * B.m, -1), x - fl)
            assert X[r, i].tobytes() == ref.tobytes()


@pytest.mark.parametrize("x", [np.arange(64) / 64, np.arange(64) / 64 + 3.0, np.array([-2.5])])
def test_zak_columns_of_one_floor_are_the_pieces_at_call_itself(monkeypatch, x):
    # no zeroed buffer and no masked copy: X is a view of the one pieces_at array
    B = build_ebspline([1.0, -2.0, 0.5])
    made, real = [], ExpPolyTable.pieces_at

    def keeping(self, t, rows=slice(None)):
        made.append(real(self, t, rows))
        return made[-1]

    monkeypatch.setattr(ExpPolyTable, "pieces_at", keeping)
    ks, X = _zak_columns(B.m, _stack(B), x)
    f = int(np.floor(x[0]))
    assert len(made) == 1 and X.base is made[0] and X.shape == (2, B.m, len(x))
    assert ks.tolist() == list(range(-f, B.m - f))


_KERNEL_CONSUMERS = {
    "compute_zak_grid": lambda w: compute_zak_grid(w, [0.1, 0.6], [0.2, 0.7]),
    "zak_ebspline": lambda w: zak_ebspline(w.spline, 0.3, 0.2),
    "frame_bounds": lambda w: frame_bounds(w, 2, (4, 4), 0),
    "certify_zero_free": lambda w: certify_zero_free(w, Region(x=(-0.3, 0.7), omega=(0.1, 0.4)), 1 / 32),
}


@pytest.mark.parametrize("name", sorted(_KERNEL_CONSUMERS))
def test_every_zak_sum_of_the_spline_takes_its_columns_from_the_kernel(monkeypatch, name):
    calls, real = [], zaktp.zak._zak_columns

    def spy(m, table, x):
        calls.append(len(x))
        return real(m, table, x)

    for module in (zaktp.zak, zaktp.frames, zaktp.analysis):
        monkeypatch.setattr(module, "_zak_columns", spy)
    _KERNEL_CONSUMERS[name](make_weights([1.0, -2.0, 0.5]))  # a fresh window: nothing kept
    assert calls


def test_factorized_route_at_a_huge_x_forms_m_rows():
    # the columns at x - floor(x), times e^{2 pi i floor(x) s} with floor(x) s in extended
    # precision: nothing of size floor(x), and the phase keeps its digits
    w = make_weights([1.0, -2.0, 0.5])
    zak_factorized(w, 0.25, 0.3)  # the spline and first-call caches, before tracing
    tracemalloc.start()
    try:
        got = zak_factorized(w, 1e6 + 0.25, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(got - zak_tp(w, 1e6 + 0.25, 0.3)) <= 1e-12
    assert peak < 64 * 1024


_FAR = "^the quasi-periodic factor e\\^\\(2 pi i floor\\(x\\) s\\) takes the Zak transform past the double range$"
_FAR_ROUTES = {
    "zak_ebspline": lambda w, x, s: zak_ebspline(w.spline, x, s),
    "zak_factorized": zak_factorized,
    "zak_tp": zak_tp,
}


@pytest.mark.parametrize("route", _FAR_ROUTES)
@pytest.mark.parametrize(
    "x",
    [
        -1e6 + 0.25,  # |e^{2 pi i floor(x) s}| = e^{2 pi 10^4} leaves even the extended range
        -1e5 + 0.25,  # e^6283 is finite in extended precision; the product in double is not
    ],
)
def test_a_far_x_whose_factor_passes_the_double_range_is_refused(route, x):
    # it was nan+nanj after two RuntimeWarnings, and "partial fractions cancel" after four
    w = make_weights([1.0, -2.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IllConditioned, match=_FAR):
            _FAR_ROUTES[route](w, x, complex(0.31, 0.01))


def test_a_far_x_refusal_checks_the_product_not_only_the_factor():
    # at x - floor(x) = 0.55, |Z B| = 1.196 and the factor is e^709.7 = 1.65e308, finite:
    # Z B passes the double range, while Z g = P Z B, |P| = 0.073, stays inside it
    w, x, s = make_weights([1.0, -2.0, 0.5]), -11300 + 0.55, complex(0.31, 709.7 / (2 * math.pi * 11300))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for route in ("zak_ebspline", "zak_factorized"):
            with pytest.raises(IllConditioned, match=_FAR):
                _FAR_ROUTES[route](w, x, s)
        # the direct route's rounding bound grows with the factor in extended precision
        assert 1e307 < abs(zak_tp(w, x, s)) < 1.79e308


def test_a_far_x_whose_factor_alone_passes_the_double_range_is_not_refused():
    # at x - floor(x) = 0.05 and omega = 0.4, |Z B| = 0.54 and the factor is e^710 = 2.2e308:
    # the product, formed before the rounding to double, is 1.2e308, inside the range
    w, x, s = make_weights([1.0, -2.0, 0.5]), -11300 + 0.05, complex(0.4, 710 / (2 * math.pi * 11300))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        zb, got, ref = zak_ebspline(w.spline, x, s), zak_factorized(w, x, s), zak_tp(w, x, s)
    assert 1e308 < abs(zb) < 1.79e308
    assert abs(got - ref) <= 1e-13 * abs(ref)


def test_the_routes_agree_at_a_far_x_inside_the_double_range():
    # |e^{2 pi i floor(x) s}| = e^{2 pi 20} = 4e54
    w, x, s = make_weights([1.0, -2.0, 0.5]), -2000 + 0.25, complex(0.31, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, ref = zak_factorized(w, x, s), zak_tp(w, x, s)
    assert abs(got - ref) <= 2e-15 * abs(ref)


@pytest.mark.parametrize(
    "x,s,named",
    [
        (float("nan"), 0.3, "x = nan"),
        (float("inf"), 0.3, "x = inf"),
        (np.array([0.2, -np.inf, 0.4]), 0.3, "x = -inf"),
        (0.3, float("nan"), "s = nan"),
        (0.3, float("inf"), "s = inf"),
        (0.3, complex(0.2, float("nan")), "s = (0.2+nanj)"),
    ],
)
@pytest.mark.parametrize("route", ["zak_ebspline", "zak_factorized"])
def test_zak_transform_refuses_a_value_that_is_not_finite(x, s, named, route):
    # it was nan+nanj, after three RuntimeWarnings for an infinite x, or an
    # IllConditioned from the prefactor for a NaN s
    w = make_weights([1.0, -2.0])
    call = {"zak_ebspline": lambda: zak_ebspline(w.spline, x, s), "zak_factorized": lambda: zak_factorized(w, x, s)}[route]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^the Zak transform needs a finite x and s, got {re.escape(named)}$"):
            call()
