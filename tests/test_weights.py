"""Tests for TP weight multisets and window evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mp_oracle import window

from zaktp.convergence import WeightGenerator, truncate
from zaktp.errors import EmptyInput, IllConditioned, ZeroWeight
from zaktp.weights import (
    _LOG_PRODUCT_SWITCH,
    _dd_exp_chi,
    _eval_log_explicit,
    eval_tp,
    exp_sum_rep,
    fourier_tp,
    make_weights,
)


def test_make_weights_basic():
    w = make_weights([2.0, -1.0, 2.0])
    assert w.n == 3
    assert w.a0 == 1.0
    assert w.is_confluent
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
    quad = pytest.importorskip("scipy.integrate").quad
    # normalization: the Fourier transform at 0 is 1
    w = make_weights([1.0, -2.0, 3.0])
    val, err = quad(lambda x: eval_tp(w, x), -30, 30, limit=200)
    assert val == pytest.approx(1.0, abs=1e-9)


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
    quad = pytest.importorskip("scipy.integrate").quad
    val, _ = quad(lambda x: eval_tp(w16, x), 0, 40, limit=300)
    assert val == pytest.approx(1.0, abs=1e-9)


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


def test_exp_sum_rep_matches_eval():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        a = rng.uniform(0.5, 4, size=n) * rng.choice([-1, 1], size=n)
        w = make_weights(a)
        rep = exp_sum_rep(w)
        xs = rng.uniform(-5, 5, size=30)
        assert np.allclose(rep.eval(xs), eval_tp(w, xs), rtol=1e-8, atol=1e-12)


def test_exp_sum_rep_survives_an_overflowing_weight_product():
    # sum log|a| = 1442: prod a overflows, but each residue is a product of
    # ratios a_k / (a_k - a_i) that stays in range; the table is within 1e-14
    # of the mpmath partial fractions (measured 4.8e-15; eval_tp's log-space
    # route is off by 5.4e-13 at the same points)
    mp = pytest.importorskip("mpmath")
    w = truncate(WeightGenerator.geometric(1.0, 2.0), 64)
    assert not math.isfinite(math.prod(w.raw))
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 3.0, 40)])
    with mp.workdps(60):
        ref = [float(window(mp, w.raw, x)) for x in xs]
    assert np.max(np.abs(exp_sum_rep(w).eval(xs) - ref)) <= 1e-14


# ---------------------------------------------------------------------------
# eval_tp against its all-points reference: same bytes, signed zeros included


def _eval_log_explicit_masked(weights, x):
    """The log-space partial fractions with one boolean mask per weight and side."""
    b = np.array([bi for bi, _ in weights.distinct])
    raw = np.asarray(weights.raw)
    log_prod = np.sum(np.log(np.abs(raw)))
    sign_prod = np.prod(np.sign(raw))
    diffs = b[:, None] - b[None, :]
    np.fill_diagonal(diffs, -1.0)
    logc = log_prod - np.sum(np.log(np.abs(diffs)), axis=1)
    sgn = sign_prod / np.prod(np.sign(-diffs), axis=1)
    out = np.zeros_like(x)
    nonneg = x >= 0
    for bi, lc, s in zip(b, logc, sgn):
        if bi > 0:
            out[nonneg] += s * np.exp(lc - bi * x[nonneg])
        else:
            out[~nonneg] -= s * np.exp(lc - bi * x[~nonneg])
    return out


def _eval_tp_all_points(weights, x):
    """eval_tp with the divided difference taken at every point, dead or not."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if weights.log_abs_product > _LOG_PRODUCT_SWITCH:
        vals = _eval_log_explicit_masked(weights, xs)
    else:
        dd = _dd_exp_chi(weights.cluster_nodes(), xs)
        prod_a = float(np.prod(np.asarray(weights.raw)))
        sign_x = np.sign(xs)
        sign_x[sign_x == 0] = 1.0
        vals = (-1.0) ** (weights.n - 1) * sign_x * prod_a * dd
    vals[(vals < 0) & (vals > -1e-10)] = 0.0
    return vals


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
        assert eval_tp(w, xs).tobytes() == _eval_tp_all_points(w, xs).tobytes()
        for x in points:
            assert np.float64(eval_tp(w, x)).tobytes() == _eval_tp_all_points(w, x).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["harmonic", "alternating", "geometric"]),
    st.integers(1, 64),
    st.lists(st.one_of(st.floats(-20.0, 20.0), st.sampled_from(EDGE_POINTS)), min_size=1, max_size=30),
)
def test_eval_tp_equals_all_points_reference_on_generator_prefixes(rule, n, points):
    w = truncate(getattr(WeightGenerator, rule)(1.1), n)
    xs = np.asarray(points)
    with np.errstate(all="ignore"):
        assert eval_tp(w, xs).tobytes() == _eval_tp_all_points(w, xs).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0.25, 40.0), min_size=1, max_size=8, unique=True),
    st.sampled_from(["positive", "negative", "mixed"]),
    st.lists(st.one_of(st.floats(-30.0, 30.0), st.sampled_from(EDGE_POINTS)), min_size=0, max_size=40),
)
def test_eval_log_explicit_equals_masked_loop(mags, kind, points):
    sign = {"positive": 1.0, "negative": -1.0}
    values = [m * sign.get(kind, (-1.0) ** i) for i, m in enumerate(mags)]
    w = make_weights(values, coalesce_tol=0.0)
    if len(w.distinct) < len(values):  # the route needs distinct weights
        return
    xs = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):
        assert _eval_log_explicit(w, xs).tobytes() == _eval_log_explicit_masked(w, xs).tobytes()


def test_eval_tp_wide_set_equals_all_points_reference():
    # sum log|a| = 568 and 563: the log-explicit route, one- and two-signed
    xs = np.concatenate([np.random.default_rng(3).uniform(-5, 30, 2000), EDGE_POINTS])
    for values in ([1.2 * 2.0**k for k in range(1, 41)], [(-2.0) ** k for k in range(1, 41)]):
        w = make_weights(values)
        assert w.log_abs_product > _LOG_PRODUCT_SWITCH
        with np.errstate(all="ignore"):
            assert eval_tp(w, xs).tobytes() == _eval_tp_all_points(w, xs).tobytes()



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
