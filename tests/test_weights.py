"""Tests for TP weight multisets and window evaluation."""

import dataclasses
import functools
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from dd_oracle import dd_exp_chi, eval_tp_all_points
from mp_oracle import windows
from piece_oracle import piece
from residue_oracle import per_cluster_coeffs

import zaktp.ebspline
from zaktp.convergence import WeightGenerator, truncate
from zaktp.errors import EmptyInput, IllConditioned, ZeroWeight
from zaktp.weights import (
    _LOG_PRODUCT_SWITCH,
    _dd_exp_chi,
    _eval_table,
    eval_tp,
    exp_sum_rep,
    fourier_tp,
    make_weights,
)


def test_make_weights_basic():
    w = make_weights([2.0, -1.0, 2.0])
    assert w.n == 3
    assert w.a0 == 1.0
    assert dict(w.distinct) == {-1.0: 1, 2.0: 2}


def test_make_weights_coalesces_near_duplicates():
    w = make_weights([1.0, 1.0 + 1e-12])
    assert len(w.distinct) == 1
    assert w.distinct[0][1] == 2


def test_make_weights_errors():
    with pytest.raises(EmptyInput):
        make_weights([])
    with pytest.raises(ZeroWeight):
        make_weights([1.0, 0.0])


def test_eval_tp_type1_is_exponential():
    w = make_weights([2.0])
    xs = np.linspace(0.01, 3.0, 20)
    assert np.allclose(eval_tp(w, xs), 2.0 * np.exp(-2.0 * xs), rtol=1e-12)
    assert eval_tp(w, -1.0) == 0.0


def test_eval_tp_two_sided_exponential():
    # weights (a, -a) give (a/2) e^{-a |x|}
    a = 1.7
    w = make_weights([a, -a])
    xs = np.linspace(-3, 3, 31)
    assert np.allclose(eval_tp(w, xs), 0.5 * a * np.exp(-a * np.abs(xs)), rtol=1e-12)


def test_eval_tp_integral_is_one():
    # normalization: the Fourier transform at 0 is 1; g has a kink at 0
    w = make_weights([1.0, -2.0, 3.0])
    val = mp.quad(lambda x: float(eval_tp(w, float(x))), [-30, 0, 30])
    assert float(val) == pytest.approx(1.0, abs=1e-9)


def test_eval_tp_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a = rng.uniform(0.5, 5, size=n) * rng.choice([-1, 1], size=n)
        w = make_weights(a)
        xs = rng.uniform(-10, 10, size=50)
        assert np.all(eval_tp(w, xs) >= 0.0)


def test_eval_tp_confluent_against_quadrature_convolution():
    # g for (a, a) is the convolution square: a^2 x e^{-a x} on x >= 0
    a = 1.3
    w = make_weights([a, a])
    xs = np.linspace(0.1, 4.0, 15)
    expected = a**2 * xs * np.exp(-a * xs)
    assert np.allclose(eval_tp(w, xs), expected, rtol=1e-12)


def test_eval_tp_two_weight_convolution_closed_form():
    # conv of a e^{-a x} chi_{x>=0} and b e^{b x} chi_{x<0} in closed form
    a, b = 1.0, 2.0
    w = make_weights([a, -b])
    c = a * b / (a + b)
    for x in (-1.3, -0.4, 0.0, 0.6, 2.1):
        expected = c * math.exp(-a * x) if x >= 0 else c * math.exp(b * x)
        assert eval_tp(w, x) == pytest.approx(expected, rel=1e-12)


def test_eval_tp_large_n_harmonic_stable():
    # the Newton-table route stays finite at n = 64; left-tail values can dip
    # slightly negative from cancellation, bounded by a small noise floor
    w = make_weights(np.arange(1, 65, dtype=float))
    xs = np.linspace(0.5, 6.0, 12)
    vals = eval_tp(w, xs)
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= -1e-2)
    assert np.all(vals[xs >= 2.5] >= 0.0)
    # at n = 16 the table is well conditioned and the mass integrates to 1
    w16 = make_weights(np.arange(1, 17, dtype=float))
    val = mp.quad(lambda x: float(eval_tp(w16, float(x))), [0, 40])
    assert float(val) == pytest.approx(1.0, abs=1e-9)


def test_eval_tp_large_n_geometric_stable():
    w = make_weights([2.0**k for k in range(1, 65)])
    vals = eval_tp(w, np.linspace(0.01, 3.0, 10))
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= 0.0)


def test_fourier_tp_closed_form():
    w = make_weights([1.0, -3.0])
    om = 0.37
    expected = 1.0 / ((1 + 2j * np.pi * om / 1.0) * (1 + 2j * np.pi * om / -3.0))
    assert fourier_tp(w, om) == pytest.approx(expected)


def test_window_carries_its_representations():
    # table and spline are built once, on first use, and take no part in equality or hashing
    w = make_weights([1.0, -2.0, 2.0])
    assert "table" not in vars(w) and "spline" not in vars(w)
    assert w.table is w.table and w.spline is w.spline
    assert np.array_equal(w.table.coeffs, exp_sum_rep(w).coeffs)
    assert w.spline == zaktp.ebspline.build_ebspline([-1.0, 2.0, -2.0])
    for name in ("table", "spline"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(w, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(w, name)
    fresh = make_weights([1.0, -2.0, 2.0])
    assert w == fresh and hash(w) == hash(fresh)


def test_exp_sum_rep_matches_eval():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        a = rng.uniform(0.5, 4, size=n) * rng.choice([-1, 1], size=n)
        w = make_weights(a)
        xs = rng.uniform(-5, 5, size=30)
        assert np.allclose(_eval_table(exp_sum_rep(w), xs), eval_tp(w, xs), rtol=1e-8, atol=1e-12)


def test_exp_sum_rep_survives_an_overflowing_weight_product():
    # sum log|a| = 1442: prod a overflows, but each residue is a product of
    # ratios a_k / (a_k - a_i) that stays in range; the table, evaluated in
    # float64 as eval_tp does here, is within 1e-14 of the mpmath partial
    # fractions (measured 3.0e-15)
    w = truncate(WeightGenerator.geometric(1.0, 2.0), 64)
    assert not math.isfinite(math.prod(w.raw))
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 3.0, 40)])
    with mp.workdps(60):
        ref = [float(v) for v in windows(mp, w.raw, xs)]
    assert np.max(np.abs(_eval_table(exp_sum_rep(w), xs) - ref)) <= 1e-14


# ---------------------------------------------------------------------------
# eval_tp on the divided-difference route against its all-points reference (same
# bytes, signed zeros included); on the partial-fraction table against mpmath


@functools.lru_cache(maxsize=None)
def _mp_peak(values):
    """max |g| over 71 points in [-2, 5], from 80-digit mpmath."""
    with mp.workdps(80):
        return float(max(abs(v) for v in windows(mp, values, np.linspace(-2.0, 5.0, 71))))


def _assert_table_route(w, xs):
    """eval_tp where sum log|a| > 500, on the partial-fraction table: within
    1e-13 peak of 80-digit mpmath at finite x, +0 uncomputed on a half-line
    without terms and at +-inf, and the NaN itself at NaN."""
    assert w.log_abs_product > _LOG_PRODUCT_SWITCH
    nodes = w.cluster_nodes()
    got = eval_tp(w, xs)
    fin = np.isfinite(xs)
    with mp.workdps(80):
        ref = np.array([float(v) for v in windows(mp, w.raw, xs[fin])])
    assert np.all(np.abs(got[fin] - ref) <= 1e-13 * _mp_peak(w.raw))
    dead = ((xs < 0) & (nodes[0] > 0)) | ((xs > 0) & (nodes[-1] < 0))
    assert got[dead].tobytes() == np.zeros(np.count_nonzero(dead)).tobytes()
    edge = np.where(np.isnan(xs), xs, 0.0)
    assert got[~fin].tobytes() == edge[~fin].tobytes()


EDGE_POINTS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, math.nan]


@st.composite
def _weight_sets(draw):
    """All-positive, all-negative, mixed or confluent sets of 1..7 weights."""
    kind = draw(st.sampled_from(["positive", "negative", "mixed", "confluent"]))
    mags = draw(st.lists(st.floats(0.25, 6.0), min_size=1, max_size=5))
    if kind == "confluent":
        mags = mags + mags[: draw(st.integers(1, len(mags)))]
    if kind == "negative":
        return [-m for m in mags]
    if kind == "positive":
        return mags
    return [m * draw(st.sampled_from([-1.0, 1.0])) for m in mags]


@settings(max_examples=200, deadline=None)
@given(
    _weight_sets(),
    st.lists(st.one_of(st.floats(-40.0, 40.0), st.sampled_from(EDGE_POINTS)), min_size=1, max_size=40),
)
def test_eval_tp_equals_all_points_reference(values, points):
    w = make_weights(values)
    xs = np.asarray(points)
    with np.errstate(all="ignore"):
        assert eval_tp(w, xs).tobytes() == eval_tp_all_points(w, xs).tobytes()
        for x in points:
            assert np.float64(eval_tp(w, x)).tobytes() == eval_tp_all_points(w, x).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["harmonic", "alternating", "geometric"]),
    st.integers(1, 64),
    st.lists(st.one_of(st.floats(-20.0, 20.0), st.sampled_from(EDGE_POINTS)), min_size=1, max_size=30),
)
def test_eval_tp_equals_all_points_reference_on_generator_prefixes(rule, n, points):
    # geometric prefixes from n = 38 on pass sum log|a| = 500: the table route
    w = truncate(getattr(WeightGenerator, rule)(1.1), n)
    xs = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):
        if w.log_abs_product > _LOG_PRODUCT_SWITCH:
            _assert_table_route(w, xs)
        else:
            assert eval_tp(w, xs).tobytes() == eval_tp_all_points(w, xs).tobytes()


@st.composite
def _node_runs(draw):
    """Sorted nodes with repeats and both signs, and 1..6 (start, length) runs of them."""
    nodes = np.sort(draw(st.lists(st.sampled_from([-3.0, -1.5, -1.0, 0.5, 1.0, 2.0, 2.5, 4.0]), min_size=1, max_size=12)))
    n = len(nodes)
    run = st.integers(0, n - 1).flatmap(lambda s: st.tuples(st.just(s), st.integers(1, n - s)))
    return nodes, draw(st.lists(run, min_size=1, max_size=6))


@settings(max_examples=100, deadline=None)
@given(_node_runs(), st.lists(st.one_of(st.floats(-20.0, 20.0), st.sampled_from(EDGE_POINTS)), min_size=1, max_size=30))
def test_dd_exp_chi_runs_equal_the_recursion_over_each_run_alone(node_runs, points):
    # one in-place recursion over all the nodes: run (start, length) is row start
    # after level length - 1, kept before a later level overwrites it
    nodes, runs = node_runs
    xs = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):
        rows = _dd_exp_chi(nodes, xs, runs)
        assert len(rows) == len(runs)
        for (start, length), row in zip(runs, rows):
            assert row.tobytes() == dd_exp_chi(nodes[start : start + length], xs).tobytes()


WIDE = [1.2 * 2.0**k for k in range(1, 41)]


def test_eval_tp_wide_set_equals_all_points_reference():
    # sum log|a| = 576, 568 and 576: the table route, all-positive, two-signed and
    # all-negative; x = 0 on the last is the left piece, 3.6e-15 of rounding
    xs = np.concatenate([np.random.default_rng(3).uniform(-5, 30, 2000), EDGE_POINTS])
    for values in (WIDE, [(-2.0) ** k for k in range(1, 41)], [-a for a in WIDE]):
        with np.errstate(all="ignore"):
            _assert_table_route(make_weights(values), xs)


WIDE_WINDOWS = {
    "wide": WIDE,
    "powers_of_minus_2": [(-2.0) ** k for k in range(1, 41)],
    "geometric_48_c0.8_r1.8": truncate(WeightGenerator.geometric(0.8, 1.8), 48).raw,
    "geometric_48_c1.25_r2.2": truncate(WeightGenerator.geometric(1.25, 2.2), 48).raw,
    "geometric_64": truncate(WeightGenerator.geometric(1.0, 2.0), 64).raw,
    "wide_confluent": WIDE + [2.4, 4.8],
}


RESIDUE_WINDOWS = {
    "simple": ([1.0, -2.0, 3.5], 1e-9),
    "confluent": ([1.0, 1.0, 2.0, 2.0, 2.0], 1e-9),
    "mixed": ([1.0, 1.0, -2.0, -2.0, -2.0, 3.0, -0.7], 1e-9),
    "near_coalesced": ([1.0, 1.0 + 1e-8, 2.0], 0.0),
    "wide": (WIDE, 1e-9),
    "wide_confluent": (WIDE + [2.4, 4.8], 1e-9),
    "wide_negative": ([-a for a in WIDE], 1e-9),
    "harmonic_32": (truncate(WeightGenerator.harmonic(1.0), 32).raw, 1e-9),
    "multiplicity_24": ([2.0] * 24 + [-1.0, -1.0, 3.5], 1e-9),  # 21! and up pass int64
}


@pytest.mark.parametrize("values, tol", RESIDUE_WINDOWS.values(), ids=RESIDUE_WINDOWS.keys())
def test_exp_sum_rep_equals_the_per_cluster_loop(values, tol):
    # the simple residues of all clusters come from one (clusters, n) product, the
    # confluent ones from the recursion per cluster: the loop's values, coefficient
    # by coefficient.  Values and sign bits, not tobytes(): an 80-bit longdouble
    # carries padding bytes whose contents vary
    table = exp_sum_rep(make_weights(values, coalesce_tol=tol))
    want = per_cluster_coeffs(make_weights(values, coalesce_tol=tol))
    assert table.coeffs.dtype == want.dtype and table.coeffs.shape == want.shape
    assert np.array_equal(table.coeffs, want)
    assert np.array_equal(np.signbit(table.coeffs), np.signbit(want))


@pytest.mark.parametrize("values", WIDE_WINDOWS.values(), ids=WIDE_WINDOWS.keys())
def test_eval_tp_wide_windows_against_mpmath(values):
    # the log-space partial fractions that the table replaced were off by
    # 5.3e-13, 9.7e-14, 2.2e-13, 1.3e-13 and 6.0e-13 of the peak here, and
    # refused the confluent set
    w = make_weights(values)
    assert w.log_abs_product > _LOG_PRODUCT_SWITCH
    xs = np.linspace(-2.0, 5.0, 71)
    with mp.workdps(80):
        ref = np.array([float(v) for v in windows(mp, w.raw, xs)])
    assert np.max(np.abs(eval_tp(w, xs) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "values",
    [[1.0, 1.0, 2.0], [-1.0, -1.0, -2.0], [1.0, 1.0, -2.0, -2.0], [3.0, 3.0, 3.0], WIDE + [2.4, 4.8], [-a for a in WIDE] + [-2.4]],
    ids=["positive", "negative", "mixed", "triple", "wide_positive", "wide_negative"],
)
def test_eval_tp_confluent_window_is_zero_at_infinity(values):
    # the limit at +-inf is 0, where c x e^{-b x} would be inf * 0 = NaN
    w = make_weights(values)
    with np.errstate(invalid="raise"):  # no inf * 0 is formed on the way
        got = eval_tp(w, np.array([math.inf, -math.inf]))
        scalars = [eval_tp(w, math.inf), eval_tp(w, -math.inf)]
    assert np.all(got == 0.0) and scalars == [0.0, 0.0]


@pytest.mark.parametrize(
    "values", [WIDE, [-a for a in WIDE], [(-2.0) ** k for k in range(1, 41)], [1.0, 2.0], [1.0, 1.0]]
)
def test_eval_tp_nan_stays_nan(values):
    # NaN >= 0 is false, so on the table route NaN must not reach a left piece without terms
    w = make_weights(values)
    assert math.isnan(eval_tp(w, math.nan))
    assert np.isnan(eval_tp(w, np.array([0.5, math.nan, -0.5]))).tolist() == [False, True, False]


def test_eval_tp_wide_route_sums_term_by_term():
    # 42 terms on 1e5 points would take 34 MB as one (terms, points) array
    w = make_weights(WIDE + [2.4, 4.8])
    xs = np.linspace(-2.0, 30.0, 100_000)
    tracemalloc.start()
    try:
        eval_tp(w, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _table_every_term(table, xs):
    """_eval_table with every live term formed at every point of its half-line
    (piece_oracle, no underflow skip)."""
    coeffs = table.coeffs.astype(float)
    piece_of = np.where(np.isfinite(xs), xs >= 0 if coeffs[1].any() else xs > 0, -1)
    out = np.zeros(xs.shape)
    for p in (0, 1):
        terms = [(eta, c) for eta, c in zip(table.etas, coeffs[p]) if c.any()]
        out[piece_of == p] = piece(terms, xs[piece_of == p])
    return np.where(np.isnan(xs), xs, out)


@pytest.mark.parametrize(
    "values", [*WIDE_WINDOWS.values(), [-a for a in WIDE]], ids=[*WIDE_WINDOWS.keys(), "wide_negative"]
)
def test_table_skips_only_exponentials_that_underflow(values):
    # a term is left out only where np.exp(eta t) is exactly +0: the same bytes
    # as forming every term, signed zeros included, at 1e4 points of the support
    w = make_weights(values)
    table = exp_sum_rep(w)
    xs = np.concatenate([np.random.default_rng(7).uniform(-40.0 / w.a0, 40.0 / w.a0, 10_000), EDGE_POINTS])
    with np.errstate(all="ignore"):
        for pts in (xs, np.zeros(0), xs[:12].reshape(3, 4)):
            assert _eval_table(table, pts).tobytes() == _table_every_term(table, pts).tobytes()


class _CountingExp:
    """numpy for one module, counting the elements passed to np.exp."""

    def __init__(self):
        self.elements = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.elements += np.size(x)
        return np.exp(x, *args, **kwargs)


def test_table_forms_few_exponentials_on_the_wide_set(monkeypatch):
    # every term at every point would be 40 * 1e5 exponentials; on [-1, 12.5] a
    # term e^{-b x} is nonzero only for x <= 746 / b, which leaves about 17%
    counter = _CountingExp()
    monkeypatch.setattr(zaktp.ebspline, "np", counter)
    eval_tp(make_weights(WIDE), np.random.default_rng(5).uniform(-1.0, 12.5, 100_000))
    assert 0 < counter.elements <= 0.25 * 40 * 100_000


@pytest.mark.parametrize(
    "values",
    [
        [1.0, 1.0, 2.0], [1.0, -2.0, 3.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0], [1.0, 1.0, -2.0, -2.0, -2.0],
        WIDE, WIDE + [2.4, 4.8], [-a for a in WIDE], [(-2.0) ** k for k in range(1, 41)],
    ],
    ids=[
        "confluent", "mixed", "triple", "quadruple", "mixed_triple",
        "wide", "wide_confluent", "wide_negative", "powers_of_minus_2",
    ],
)
def test_eval_tp_at_huge_points_warns_of_no_overflow(values):
    # -a x past the double range is -inf, whose exponential is the limit 0: the
    # bytes the full computation gives, with no RuntimeWarning on the way.  On the
    # table route every point is +0; wide_confluent at 1e308 was NaN (Horner's
    # c1 x = inf times e^{-b x} = 0) before the table skipped underflowing terms.
    # A node of multiplicity 3 or more has rows (-x)^level e^{-b x}: where the
    # power overflows, the old algorithm gives inf * 0 = NaN, the kernel the limit 0
    w = make_weights(values)
    xs = np.array([1e308, -1e308, 1e200, -1e200, 1e154, -1e154])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eval_tp(w, xs)
        scalars = np.array([eval_tp(w, x) for x in xs])
    if w.log_abs_product > _LOG_PRODUCT_SWITCH:
        want = np.zeros(len(xs))
    else:
        with np.errstate(all="ignore"):
            want = eval_tp_all_points(w, xs)
    nan = np.isnan(want)
    assert np.all(got[nan] == 0)
    assert got[~nan].tobytes() == want[~nan].tobytes()
    assert got.tobytes() == scalars.tobytes()


@pytest.mark.parametrize(
    "values",
    [[1.0, -2.0], [1.0, 2.5], [-1.0, -2.5, -2.5], [1.2 * 2.0**k for k in range(1, 41)]],
    ids=["mixed", "positive", "negative_confluent", "wide"],
)
@pytest.mark.parametrize("side", ["both", "dead_free"])
def test_eval_tp_accepts_2d_points(values, side):
    # one shape rule on both routes, whatever the points: the values of x.ravel(), reshaped
    w = make_weights(values)
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    if side == "dead_free":
        x = np.abs(x) if w.cluster_nodes()[0] > 0 else -np.abs(x) - 0.5
    out = eval_tp(w, x)
    assert out.shape == x.shape
    assert out.tobytes() == eval_tp(w, x.ravel()).tobytes()
