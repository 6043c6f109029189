"""Tests for exponential B-splines built by exact convolution."""

import cmath
import json
import math
import time
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from build_oracle import build_coeffs, pieces_from_table, table_from_pieces
from piece_oracle import piece, reduce_terms, slice_terms, table_piece

from zaktp.analysis import _slice_table, locate_zero_half
from zaktp.ebspline import (
    ExpPolyTable,
    PiecewiseExpPoly,
    _spline_weights,
    build_ebspline,
    eval_ebspline,
)
from zaktp.errors import IllConditioned
from zaktp.weights import eval_tp, fourier_tp, make_weights
from zaktp.zak import zak_ebspline, zak_factorized, zak_prefactor, zak_tp


def test_box_spline():
    B = build_ebspline([0.0])
    assert eval_ebspline(B, 0.5) == pytest.approx(1.0)
    assert eval_ebspline(B, -0.1) == 0.0
    assert eval_ebspline(B, 1.1) == 0.0


def test_hat_spline_values():
    B = build_ebspline([0.0, 0.0])
    xs = np.linspace(0, 2, 21)
    expected = np.where(xs <= 1, xs, 2 - xs)
    assert np.allclose(eval_ebspline(B, xs), expected, atol=1e-14)


def test_single_exponential_piece():
    lam = 0.7
    B = build_ebspline([lam])
    xs = np.linspace(0.0, 0.99, 10)
    assert np.allclose(eval_ebspline(B, xs), np.exp(lam * xs))


def test_convolution_oracle_quadrature():
    # B_{(l1,l2)}(x) = int B_{(l1)}(t) e^{l2 (x-t)} chi_[0,1)(x-t) dt
    l1, l2 = 0.6, -1.1
    B1 = build_ebspline([l1])
    B12 = build_ebspline([l1, l2])
    for x in (0.3, 0.9, 1.2, 1.8):
        val = mp.quad(
            lambda t: float(eval_ebspline(B1, float(t))) * (math.exp(l2 * (x - float(t))) if 0 <= x - t < 1 else 0.0),
            [max(0.0, x - 1), min(1.0, x)],
        )
        assert eval_ebspline(B12, x) == pytest.approx(float(val), abs=1e-12)


def test_confluent_branch_matches_near_confluent():
    lam = 0.9
    B_conf = build_ebspline([lam, lam])
    B_near = build_ebspline([lam, lam + 1e-7])
    xs = np.linspace(0.05, 1.95, 25)
    assert np.allclose(eval_ebspline(B_conf, xs), eval_ebspline(B_near, xs), atol=1e-6)


def test_support_and_positivity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = int(rng.integers(1, 6))
        lams = rng.uniform(-2, 2, size=m)
        B = build_ebspline(lams)
        assert B.m == m
        xs = rng.uniform(0.01, m - 0.01, size=40)
        assert np.all(eval_ebspline(B, xs) > 0.0)
        assert eval_ebspline(B, -0.5) == 0.0
        assert eval_ebspline(B, m + 0.5) == 0.0


def test_smoothness_order():
    # m-fold convolution is C^{m-2}: derivative of order m-2 continuous at knots
    lams = [0.5, -0.3, 1.1]
    B = build_ebspline(lams)
    h = 1e-7
    for knot in (1.0, 2.0):
        left = (eval_ebspline(B, knot - h) - eval_ebspline(B, knot - 2 * h)) / h
        right = (eval_ebspline(B, knot + 2 * h) - eval_ebspline(B, knot + h)) / h
        assert left == pytest.approx(right, abs=1e-5)


def fourier_ebspline(lams, omega: float) -> complex:
    """The spline's Fourier transform, the product of (e^z - 1) / z over z = lambda_j - 2 pi i omega,
    by a series at the removable singularity z = 0 (lambda_j = 0, omega = 0)."""
    out = 1.0 + 0.0j
    for lam in lams:
        z = lam - 2j * math.pi * omega
        out *= (cmath.exp(z) - 1.0) / z if abs(z) >= 1e-6 else 1.0 + z / 2.0 + z**2 / 6.0 + z**3 / 24.0
    return out


def _reduced(B, eta):
    """B reduced by e^{eta x} d/dx (e^{-eta x} .) between the knots, as a spline."""
    return PiecewiseExpPoly.from_table(B.table.reduce(eta))


def test_fourier_ebspline_against_quadrature():
    lams = [0.4, -0.8]
    B = build_ebspline(lams)
    for om in (0.0, 0.3, 1.7):
        # B has a kink at the knot 1
        val = mp.quad(lambda x: float(eval_ebspline(B, float(x))) * mp.expj(-2 * mp.pi * om * x), [0, 1, 2])
        assert fourier_ebspline(lams, om) == pytest.approx(complex(val), abs=1e-10)


def test_fourier_ebspline_product_form():
    # the Fourier side of Z g = P Z B: g^ = P B^, B the spline of weights -a
    for ws in ([1.0, -2.0, 0.5], [2.0, 2.0, -1.0], [3.0], [-0.7, -1.5]):
        w = make_weights(ws)
        for om in (0.0, 0.23, 0.5, 1.7, -0.4):
            ref = zak_prefactor(w, om) * fourier_ebspline([-a for a in w.raw], om)
            assert fourier_tp(w, om) == pytest.approx(ref, rel=1e-13, abs=0)


def test_reduce_kills_single_exponential():
    lam = 0.8
    B = build_ebspline([lam])
    red = _reduced(B, lam)
    xs = np.linspace(0.01, 0.99, 10)
    assert np.allclose(eval_ebspline(red, xs), 0.0, atol=1e-14)


def test_reduce_matches_finite_difference():
    B = build_ebspline([0.5, -0.7, 1.2])
    eta = 0.3
    red = _reduced(B, eta)
    h = 1e-6
    for x in (0.4, 1.3, 2.6):
        fd = math.exp(eta * x) * (
            math.exp(-eta * (x + h)) * eval_ebspline(B, x + h)
            - math.exp(-eta * (x - h)) * eval_ebspline(B, x - h)
        ) / (2 * h)
        assert eval_ebspline(red, x) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_spline_weights_cluster():
    lambdas, clusters = _spline_weights([1.0, 1.0 + 1e-12, -0.5])
    assert len(lambdas) == 3
    assert len(clusters) == 2


@pytest.mark.parametrize("lams,message", [([], "weight vector is empty"), ([1.0, math.inf], "is not finite")])
def test_spline_weights_refuse_empty_and_nonfinite(lams, message):
    with pytest.raises(ValueError, match=message):
        build_ebspline(lams)


def test_scalar_in_python_scalar_out():
    # a scalar or 0-d point gives a Python float or complex, an array point an array
    w, lams = make_weights([1.0, -2.0]), [0.5, -1.0]
    B, complex_B = build_ebspline(lams), PiecewiseExpPoly((((0.0, (1.0 + 1.0j,)),),))
    cases = [
        (eval_tp, w, float), (fourier_tp, w, complex), (eval_ebspline, B, float),
        (eval_ebspline, complex_B, complex),
        (lambda spline, x: zak_ebspline(spline, x, 0.3), B, complex),
    ]
    for f, obj, kind in cases:
        for x in (0.4, np.float64(0.4), np.array(0.4)):
            assert type(f(obj, x)) is kind
            assert f(obj, x) == f(obj, [x])[0]
        assert f(obj, [0.4, 0.7]).shape == (2,)


# ---------------------------------------------------------------------------
# The term table against the per-term loop it replaced


def _oracle_eval(B, x):
    out = np.zeros(x.shape, dtype=piece(B.pieces[0], x[:0]).dtype)
    k = np.floor(x).astype(int)
    for kk in range(B.m):
        sel = (x >= 0) & (x < B.m) & (k == kk)
        out[sel] = piece(B.pieces[kk], x[sel] - kk)
    return out


_POOL = [0.0, 0.0, 1.0, -1.0, 0.5, -2.25, 2.5, 1.0 + 1e-10]
lambda_vectors = st.lists(
    st.one_of(st.sampled_from(_POOL), st.floats(-3.0, 3.0, allow_nan=False)), min_size=1, max_size=7
)


@settings(max_examples=60, deadline=None)
@given(lams=lambda_vectors, eta=st.floats(-2.0, 2.0), s=st.complex_numbers(max_magnitude=1.0))
def test_table_equals_per_term_oracle(lams, eta, s):
    B = build_ebspline(lams)
    x = np.linspace(-0.5, B.m + 0.5, 301)
    assert np.array_equal(eval_ebspline(B, x), _oracle_eval(B, x))
    red = _reduced(B, eta)
    assert np.array_equal(eval_ebspline(red, x), _oracle_eval(red, x))
    t = np.linspace(0.0, 1.0, 101)
    h = _slice_table(B.table, s)
    assert np.array_equal(h.eval(0, t), piece(slice_terms(B, s), t))
    assert np.array_equal(h.reduce(eta).eval(0, t), piece(reduce_terms(slice_terms(B, s), eta), t))


@settings(max_examples=30, deadline=None)
@given(lams=lambda_vectors)
def test_every_piece_carries_every_exponent(lams):
    B = build_ebspline(lams)
    clusters = _spline_weights(lams)[1]
    for piece in B.pieces:
        assert [eta for eta, _ in piece] == [b for b, _ in clusters]
        for (eta, coeffs), (_, mu) in zip(piece, clusters):
            assert len(coeffs) <= mu


def test_pieces_equal_recorded_tuples():
    # recorded from the dict-of-terms builder this table replaced
    records = json.loads((Path(__file__).parent / "golden" / "ebspline_pieces.json").read_text())
    for rec in records:
        pieces = build_ebspline(rec["lambdas"]).pieces
        assert pieces == tuple(
            tuple((eta, tuple(coeffs)) for eta, coeffs in piece) for piece in rec["pieces"]
        )


def test_chained_cluster_keeps_every_entry():
    # each entry is within 0.9e-9 of the next, but the ends are 2.7e-9 apart:
    # one cluster of four, and no entry may be dropped
    vals = [1.0, 1.0 + 0.9e-9, 1.0 + 1.8e-9, 1.0 + 2.7e-9, -0.5]
    lambdas, clusters = _spline_weights(vals)
    assert len(lambdas) == 5
    assert [mu for _, mu in clusters] == [1, 4]
    assert set(lambdas) == {b for b, _ in clusters}
    w = make_weights(vals)
    assert zak_factorized(w, 0.3, 0.2) == pytest.approx(zak_tp(w, 0.3, 0.2), abs=1e-10)


# ---------------------------------------------------------------------------
# The array build against the per-term loop it replaced (tests/build_oracle.py)


def _same_bits(a, b):
    return (
        a.dtype == b.dtype
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(np.imag(a)), np.signbit(np.imag(b)))
    )


def _assert_build_equals_loop(lams):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            etas, ref = build_coeffs(lams)
        except OverflowError:
            ref = None
    if ref is None or not np.isfinite(ref).all():
        with pytest.raises(IllConditioned, match="spline weight"):
            build_ebspline(lams)
        return
    B = build_ebspline(lams)
    assert _same_bits(B.table.coeffs, ref)
    assert B.table.etas.tolist() == etas
    assert B.pieces == pieces_from_table(etas, ref)


_BASES = st.floats(-700.0, 700.0, allow_nan=False)


@st.composite
def spline_weights(draw):
    """Weight vectors with each value at most 4 times (a 1e-10 neighbour joins its
    cluster, up to 8), exponents 1e-8 apart in relative terms, zeros and mixed
    signs, |lambda| up to 700."""
    scale = draw(st.sampled_from([1.0, 3.0, 8.0, 700.0]))
    bases = draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=5))
    bases = [scale * b for b in bases] + draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=1))
    if draw(st.booleans()):
        bases.append(bases[0] + 1e-10)  # joins bases[0]'s cluster
    if draw(st.booleans()):
        bases.append(bases[0] * (1 + 1e-8) + 1e-8)  # its own exponent, about 1e-8 away in relative terms
    picks = draw(st.lists(st.integers(0, len(bases) - 1), min_size=1, max_size=10))
    counts: dict[int, int] = {}
    lams = []
    for i in picks:
        counts[i] = counts.get(i, 0) + 1
        if counts[i] <= 4:
            lams.append(bases[i])
    return lams


@settings(max_examples=300, deadline=None)
@given(lams=spline_weights())
def test_array_build_equals_per_term_loop_bit_for_bit(lams):
    _assert_build_equals_loop(lams)


@settings(max_examples=100, deadline=None)
@given(lams=st.lists(_BASES, min_size=1, max_size=8))
def test_array_build_equals_per_term_loop_on_wide_weights(lams):
    _assert_build_equals_loop(lams)


@pytest.mark.parametrize("lams", [
    [-(k + 1.0) for k in range(32)],  # harmonic, the spline factor of a_k = k
    [(-1.0) ** k * (k + 1) for k in range(32)],  # alternating
])
def test_array_build_equals_per_term_loop_at_n32(lams):
    _assert_build_equals_loop(lams)


@settings(max_examples=60, deadline=None)
@given(lams=spline_weights(), eta=st.floats(-2.0, 2.0), s=st.complex_numbers(max_magnitude=1.0))
def test_tuple_round_trip_keeps_the_table_bits(lams, eta, s):
    # real tables from the build and its reduction, complex ones from a Zak slice
    try:
        B = build_ebspline(lams)
    except IllConditioned:
        return
    assert _same_bits(PiecewiseExpPoly(B.pieces).table.coeffs, B.table.coeffs)
    assert _same_bits(PiecewiseExpPoly.from_table(B.table).table.coeffs, B.table.coeffs)
    for table in (B.table, B.table.reduce(eta), _slice_table(B.table, s)):
        ref_pieces = pieces_from_table(table.etas, table.coeffs)
        ref = table_from_pieces(ref_pieces)[1]
        pieces = PiecewiseExpPoly.from_table(table).pieces
        assert pieces == ref_pieces
        assert _same_bits(PiecewiseExpPoly(pieces).table.coeffs, ref)
        assert _same_bits(PiecewiseExpPoly(ref_pieces).table.coeffs, ref)


def test_tuple_round_trip_on_signed_zeros_nan_and_mixed_terms():
    rng = np.random.default_rng(3)
    pool = np.array([0.0, -0.0, 1.0, -2.5, np.nan, np.inf, 1e-310])
    for k in range(200):
        coeffs = rng.choice(pool, size=(3, 4, 3))
        if k % 2:
            coeffs = coeffs.astype(complex)
            coeffs.imag = rng.choice(pool, size=coeffs.shape)
        etas = [-1.5, 0.0, 0.25, 2.0]
        pieces = PiecewiseExpPoly.from_table(ExpPolyTable(etas, coeffs)).pieces
        assert [[len(c) for _, c in p] for p in pieces] == [[len(c) for _, c in p] for p in pieces_from_table(etas, coeffs)]
        assert _same_bits(PiecewiseExpPoly(pieces).table.coeffs, table_from_pieces(pieces_from_table(etas, coeffs))[1])
    mixed = (((0.5, (1, 2.0)), (-1.0, (0.25,))), ((0.5, (3,)), (0.5, (1.0, -0.0))))  # ints and a repeated exponent
    assert _same_bits(PiecewiseExpPoly(mixed).table.coeffs, table_from_pieces(mixed)[1])


WIDE_WINDOW = [1.2 * 2.0**k for k in range(1, 41)]  # sum log|a| = 576: its table route


def _evaluator_tables():
    real = build_ebspline([0.9, -2.1, 1.4, 0.0, -2.1, 3.3]).table
    return {
        "spline": real,
        "confluent_spline": build_ebspline([-2.0, -2.0, -2.0, 1.0, 1.0]).table,
        "slice_half": _slice_table(real, 0.5),
        "slice_complex": _slice_table(real, 0.3 + 0.02j),
        "some_pieces": PiecewiseExpPoly((((0.5, (1.0, 2.0)),), ((-1.0, (3.0,)), (0.5, (0.25, -1.5))))).table,  # e^-t on one piece
        "wide_window": make_weights(WIDE_WINDOW).table,
        # e^{-1000 t} is +0 for t > 0.746, where the Horner value 1e308 (1 + t) overflows:
        # only the skip keeps inf * 0 = NaN out
        "skip_overflow": PiecewiseExpPoly((((-1000.0, (1e308, 1e308)), (1.0, (3.0, -1.0))), ((-1000.0, (0.5,)),))).table,
    }


@pytest.mark.parametrize("name", ["spline", "confluent_spline", "slice_half", "slice_complex", "some_pieces", "wide_window", "skip_overflow"])
def test_pieces_at_and_eval_equal_the_per_piece_evaluator_bit_for_bit(name):
    # the two wide tables skip their underflowing terms (the window's on [-1, 12.5]);
    # +-inf and NaN are among the points of every table
    table = _evaluator_tables()[name]
    lo, hi = (-1.0, 12.5) if name == "wide_window" else (0.0, 1.0)
    t = np.concatenate([np.random.default_rng(23).uniform(lo, hi, 4000), [lo, 0.0, -0.0, math.inf, -math.inf, math.nan]])
    P = len(table.coeffs)
    with np.errstate(all="ignore"):
        refs = [table_piece(table, p, t) for p in range(P)]
        every = table.pieces_at(t)
        assert table._may_underflow == name.startswith(("wide", "skip"))
        for p, ref in enumerate(refs):
            assert _same_bits(table.pieces_at(t, slice(p, p + 1))[0], ref)
            assert _same_bits(every[p], ref)
            assert _same_bits(table.eval(p, t), ref)
        which = np.random.default_rng(29).integers(-1, P + 1, t.shape)  # -1 and P: no piece, 0
        mixed = table.eval(which, t)
    for p, ref in enumerate(refs):
        assert _same_bits(mixed[which == p], ref[which == p])
    assert not mixed[(which < 0) | (which >= P)].any()


def test_harmonic_n64_builds_in_milliseconds():
    # the per-term loop took 2.4-3.0 s here; the array step takes about 20 ms
    lams = [-(k + 1.0) for k in range(64)]
    build_ebspline(lams)
    best = min(_timed(build_ebspline, lams) for _ in range(3))
    assert best < 0.5


def _timed(f, *args):
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Exponents and coefficients past the double range


def test_exponential_past_the_double_range_is_refused():
    # math.exp(800) raised an untyped OverflowError inside the build
    with pytest.raises(IllConditioned, match=r"spline weight 800\.0: e\^800\.0 leaves the double range"):
        build_ebspline([800.0, -1.0])
    with pytest.raises(IllConditioned, match="800.0"):
        locate_zero_half(make_weights([-800.0, 1.0]))


def test_overflowing_coefficients_are_refused():
    # the coefficients overflowed silently: zak_factorized gave nan + nan j, and
    # locate_zero_half raised NoZero, read as a counterexample to the theorem
    w = make_weights([-600.0, -600.0, -600.0])
    assert np.isfinite(zak_tp(w, 0.3, 0.2))
    for call in (lambda: zak_factorized(w, 0.3, 0.2), lambda: locate_zero_half(w), lambda: w.spline):
        with pytest.raises(IllConditioned, match=r"spline weight 600\.0: the coefficients leave the double range"):
            call()


def test_overflowing_power_of_a_gap_is_refused():
    # (1e200 - 0)^2 overflowed Python's float ** in the per-term loop
    with pytest.raises(IllConditioned, match=r"spline weight -1e\+200: a power of its gap to another weight leaves"):
        build_ebspline([-1e200, -1e200, 0.0])
