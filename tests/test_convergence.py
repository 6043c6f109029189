"""Tests for truncation families and convergence observables."""

import math
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest
from dd_oracle import eval_tp_all_points
from hypothesis import given, settings
from hypothesis import strategies as st
from mp_oracle import lattice_sum

import zaktp.weights

from zaktp.convergence import (
    WeightGenerator,
    _trigamma,
    convergence_sweep,
    psi_decay_diagnostic,
    truncate,
    weighted_sup_distance,
    zak_strip_distance,
)
from zaktp.errors import IllConditioned, SigmaTooLarge, StripViolation
from zaktp.weights import _LOG_PRODUCT_SWITCH, eval_tp, make_weights


@dataclass(frozen=True)
class Listed:
    """A weight sequence given as a list, with the two methods truncate and
    convergence_sweep call on a generator: its weights and their square-sum tail."""

    values: tuple
    rule = "explicit"  # the id of the sweep tests' cases

    def weight(self, nu: int) -> float:
        if not 1 <= nu <= len(self.values):
            raise ValueError(f"the list has only {len(self.values)} weights")
        return float(self.values[nu - 1])

    def square_sum_tail(self, n: int) -> float:
        return float(sum(v ** (-2) for v in self.values[n:]))


def eval_reciprocal_laplace(weights, s: complex) -> complex:
    """The entire function Psi(s) = prod (1 + s/a_nu) e^{-s/a_nu}."""
    out = complex(1.0)
    for a in weights.raw:
        out *= (1.0 + s / a) * np.exp(-s / a)
    return complex(out)


def test_truncate_rules():
    assert truncate(WeightGenerator.harmonic(1.0), 3).raw == (1.0, 2.0, 3.0)
    assert truncate(WeightGenerator.alternating(1.0), 2).raw == (-1.0, 2.0)
    assert truncate(WeightGenerator.geometric(1.0, 2.0), 3).raw == (2.0, 4.0, 8.0)
    assert truncate(Listed((1.5, -2.5)), 2).raw == (1.5, -2.5)


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: WeightGenerator.harmonic(0.0), "c must be nonzero"),
        (lambda: WeightGenerator.alternating(-0.0), "c must be nonzero"),
        (lambda: WeightGenerator.geometric(0.0, 0.5), "c must be nonzero"),
        (lambda: WeightGenerator.geometric(1.0, 1.0), "geometric rule needs r > 1"),
        # the fields are checked however the generator is made
        (lambda: WeightGenerator(rule="harmonic", c=0.0), "c must be nonzero"),
        (lambda: WeightGenerator(rule="alternating", c=0), "c must be nonzero"),
        (lambda: WeightGenerator(rule="geometric", r=0.5), "geometric rule needs r > 1"),
        (lambda: WeightGenerator(rule="bogus"), "unknown rule 'bogus'"),
        (lambda: WeightGenerator(rule="explicit", c=0.0), "unknown rule 'explicit'"),
    ],
)
def test_weight_generator_refuses_bad_fields(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_square_sum_tail_harmonic_brute_force():
    gen = WeightGenerator.harmonic(2.0)
    brute = sum(1.0 / (2.0 * v) ** 2 for v in range(6, 200001))
    assert gen.square_sum_tail(5) == pytest.approx(brute, rel=1e-4)


# n = 0..20,000 as square_sum_tail passes them, plus arguments far past the recurrence
TRIGAMMA_ARGS = [n + 1.0 for n in range(20001)] + [1e8, 1e8 + 1.0, 3.7e9, 1e15]


def test_trigamma_port_within_1e15_of_mpmath():
    with mp.workdps(30):
        for q in TRIGAMMA_ARGS[:1000] + TRIGAMMA_ARGS[1000::19]:
            ref = float(mp.psi(1, q))
            assert abs(_trigamma(q) - ref) <= 1e-15 * ref


def test_square_sum_tail_within_1e15_of_mpmath():
    # sum_{nu > n} (c nu)^-2 = psi_1(n + 1) / c^2 for both rules, on every argument
    with mp.workdps(30):
        cs = [(mp.mpf(c) ** 2, (WeightGenerator.harmonic(c), WeightGenerator.alternating(c))) for c in (1.0, -0.7, 2.5)]
        for q in TRIGAMMA_ARGS:
            psi1 = mp.psi(1, q)
            for c2, rules in cs:
                ref = psi1 / c2
                for rule in rules:
                    assert abs(rule.square_sum_tail(int(q) - 1) - ref) <= 1e-15 * ref


def test_square_sum_tail_geometric_brute_force():
    gen = WeightGenerator.geometric(1.0, 2.0)
    brute = sum((2.0**-v) ** 2 for v in range(4, 80))
    assert gen.square_sum_tail(3) == pytest.approx(brute, rel=1e-12)


def test_weighted_sup_distance_identity_and_sigma_zero():
    w5 = truncate(WeightGenerator.harmonic(1.0), 5)
    w8 = truncate(WeightGenerator.harmonic(1.0), 8)
    assert weighted_sup_distance(w5, w5, 0.5) == 0.0
    grid = np.linspace(-5, 5, 501)
    plain = float(np.max(np.abs(eval_tp(w5, grid) - eval_tp(w8, grid))))
    assert weighted_sup_distance(w5, w8, 0.0, grid) == pytest.approx(plain)


def test_weighted_sup_distance_monotone_in_n():
    gen = WeightGenerator.harmonic(1.0)
    ref = truncate(gen, 40)
    ds = [weighted_sup_distance(truncate(gen, n), ref, 0.5) for n in (5, 10, 20)]
    assert ds[0] >= ds[1] >= ds[2]


def test_sigma_too_large():
    w = truncate(WeightGenerator.harmonic(1.0), 4)
    with pytest.raises(SigmaTooLarge):
        weighted_sup_distance(w, w, 1.0)


def test_geometric_cauchy_rate():
    gen = WeightGenerator.geometric(1.0, 2.0)
    rows = convergence_sweep(gen, [4, 8, 16, 32])
    dists = [r[2] for r in rows]
    assert all(dists[i] > dists[i + 1] for i in range(len(dists) - 1))
    assert dists[-1] < 1e-6


def test_zak_strip_distance_decreasing():
    # harmonic n = 20 is the largest reference that this strip accepts: from
    # n = 22 the rounding bound near x = 0 passes 1e-10 and the closed form
    # refuses.  Each distance bounds |Zg_n - Zg_20| at grid nodes, in mpmath
    gen = WeightGenerator.harmonic(1.0)
    ref = truncate(gen, 20)
    xi = 0.1 / (2 * np.pi)
    d5 = zak_strip_distance(truncate(gen, 5), ref, xi)
    d16 = zak_strip_distance(truncate(gen, 16), ref, xi)
    assert d16 < d5
    assert zak_strip_distance(ref, ref, xi) == 0.0
    nodes = [(13 / 64, complex(0.25, -xi)), (50 / 64, complex(0.5, xi)), (0.0, 0.75)]
    with mp.workdps(40):
        for n, d in ((5, d5), (16, d16)):
            for x, s in nodes:
                gap = abs(lattice_sum(mp, ref.raw[:n], x, s) - lattice_sum(mp, ref.raw, x, s))
                assert float(gap) <= d + 1e-10
    with pytest.raises(IllConditioned):
        zak_strip_distance(truncate(gen, 5), truncate(gen, 40), xi)


def test_zak_strip_distance_dominates_real_slice():
    gen = WeightGenerator.harmonic(1.0)
    w5, w20 = truncate(gen, 5), truncate(gen, 20)
    xi = 0.1 / (2 * np.pi)
    assert zak_strip_distance(w5, w20, xi) >= zak_strip_distance(w5, w20, 0.0)


STRIP_PAIRS = {
    "harmonic": (WeightGenerator.harmonic(1.1), 4, 16),
    "alternating": (WeightGenerator.alternating(0.9), 8, 32),
    "geometric": (WeightGenerator.geometric(1.2, 2.1), 8, 32),
    "mixed": (Listed((1.3, -2.1, 2.9, -0.8, 3.7, -4.4)), 4, 6),
}


@pytest.mark.parametrize("share", [0.25, 0.0], ids=["xi", "xi0"])
@pytest.mark.parametrize("gen, n, m", STRIP_PAIRS.values(), ids=STRIP_PAIRS.keys())
def test_zak_strip_distance_is_the_maximum_over_all_four_omegas(gen, n, m, share):
    # the strip grid sums omega in {0, 1/4, 1/2}: real windows have the same moduli
    # at 3/4 + i tau as at 1/4 + i tau, so the maximum over all four is the same
    w_n, w_m = truncate(gen, n), truncate(gen, m)
    xi = share * w_m.a0 / (2 * math.pi)
    taus = np.linspace(-xi, xi, 9) if xi > 0 else np.asarray([0.0])
    s = np.add.outer(1j * taus, [0.0, 0.25, 0.5, 0.75])
    (z_n, b_n), (z_m, b_m) = (w.table.lattice_sum(np.arange(64) / 64, s) for w in (w_n, w_m))
    full = float(np.max(np.abs(z_n - z_m)))
    assert zak_strip_distance(w_n, w_m, xi) == pytest.approx(full, rel=1e-13, abs=0)
    for z, bound in ((z_n, b_n), (z_m, b_m)):
        assert np.all(np.abs(np.abs(z[:, 3]) - np.abs(z[:, 1])) <= bound[:, 3] + bound[:, 1])


def test_strip_violation():
    w = truncate(WeightGenerator.harmonic(1.0), 4)
    with pytest.raises(StripViolation):
        zak_strip_distance(w, w, 1.0)
    # the shared strip check refuses from (1 - 1e-6) a0 / (2 pi), as the Zak routes do
    with pytest.raises(StripViolation):
        zak_strip_distance(w, w, (1 - 1e-7) * w.a0 / (2 * math.pi))


def test_reciprocal_laplace_values():
    w1 = make_weights([1.0])
    assert eval_reciprocal_laplace(w1, 0.0) == pytest.approx(1.0)
    assert eval_reciprocal_laplace(w1, -1.0) == pytest.approx(0.0)
    assert eval_reciprocal_laplace(w1, 1.0) == pytest.approx(2 * math.exp(-1))


def test_psi_decay_exponents():
    taus = np.logspace(1, 4, 40)
    for weights, p in [([1.0], 1), ([1.0, 2.0], 2), ([1.0, 2.0, 3.0], 3)]:
        slope = psi_decay_diagnostic(make_weights(weights), 0.0, taus, p)
        assert slope <= -p + 0.1


@pytest.mark.parametrize(
    "omega, taus",
    [
        (0.0, [0.0, 10.0, 100.0]),
        (0.0, [math.nan, 10.0, 100.0]),
        (0.0, [math.inf, 10.0]),
        (math.nan, [10.0, 100.0]),
        (math.inf, [10.0, 100.0]),
        (0.0, [10.0]),
        (0.0, []),
        (0.0, [10.0, 10.0, 10.0]),
        (0.0, [10.0, -10.0]),
    ],
)
def test_psi_decay_refuses_samples_it_cannot_fit(omega, taus):
    # a NaN sample would reach the least-squares fit, which fails in LAPACK or returns NaN;
    # one distinct |tau| leaves the slope undetermined (polyfit warns and returns noise)
    with pytest.raises(ValueError, match="finite omega and at least two tau samples"):
        psi_decay_diagnostic(make_weights([1.0, -1.0]), omega, taus, 2)


def test_psi_monotone_decay():
    w = make_weights([1.0, 2.0, 3.0])
    taus = np.logspace(1, 3, 20)
    mags = []
    for t in taus:
        psi = eval_reciprocal_laplace(w, complex(0.0, t))
        mags.append(1.0 / abs(psi))
    assert all(mags[i] >= mags[i + 1] for i in range(len(mags) - 1))
    # the diagnostic's log-space slope is the fit of the product's own moduli
    slope = np.polyfit(np.log(taus), np.log(mags), 1)[0]
    assert psi_decay_diagnostic(w, 0.0, taus, 3) == pytest.approx(slope, rel=1e-12, abs=0)


def _sweep_per_n(gen, ns, sigma=None, n_ref=64):
    """convergence_sweep as one weighted_sup_distance call per n."""
    ref = truncate(gen, n_ref)
    rows = []
    for n in ns:
        w = truncate(gen, n)
        sig = 0.5 * min(w.a0, ref.a0) if sigma is None else sigma
        rows.append((int(n), float(sig), weighted_sup_distance(w, ref, sig), gen.square_sum_tail(n)))
    return rows


SWEEP_GENERATORS = [
    WeightGenerator.harmonic(1.1),
    WeightGenerator.alternating(0.9),
    WeightGenerator.geometric(1.05, 2.1),
    # past n_ref = 2, min(a0) of the pair moves with n (2.0, 0.5, 0.3): one grid each
    Listed((2.0, 3.0, 0.5, 4.0, 0.3, -5.0, 6.0, 7.0)),
]


@pytest.mark.parametrize("gen", SWEEP_GENERATORS, ids=lambda g: g.rule)
@pytest.mark.parametrize(
    "ns, sigma, n_ref",
    [((4, 8, 16, 32), None, 48), ((2, 4, 4, 8), None, 8), ((8, 3, 8, 5), 0.1, 8), ((1, 3, 5, 3), None, 2)],
)
def test_convergence_sweep_equals_per_n_distances(gen, ns, sigma, n_ref):
    if isinstance(gen, Listed):
        ns, n_ref = tuple(min(n, 8) for n in ns), min(n_ref, 8)
    rows = convergence_sweep(gen, ns, sigma=sigma, n_ref=n_ref)
    assert np.asarray(rows).tobytes() == np.asarray(_sweep_per_n(gen, ns, sigma, n_ref)).tobytes()


def _alone(w, grid):
    """The window alone on the grid: the divided-difference route on the
    level-by-level oracle, the table route (which shares nothing) by eval_tp."""
    return eval_tp(w, grid) if w.log_abs_product > _LOG_PRODUCT_SWITCH else eval_tp_all_points(w, grid)


def _sweep_alone(gen, ns, sigma=None, n_ref=64):
    """convergence_sweep with each prefix and the reference evaluated alone on
    the pair's default grid, from the definitions."""
    ref = truncate(gen, n_ref)
    rows = []
    for n in ns:
        w = truncate(gen, n)
        a0 = min(w.a0, ref.a0)
        sig = 0.5 * a0 if sigma is None else sigma
        grid = np.linspace(-40.0 / a0, 40.0 / a0, 4001)
        d = float(np.max(np.abs(_alone(w, grid) - _alone(ref, grid)) * np.exp(sig * np.abs(grid))))
        rows.append((int(n), float(sig), d, gen.square_sum_tail(n)))
    return rows


@pytest.mark.parametrize(
    "gen, ns, sigma, n_ref",
    [
        (WeightGenerator.harmonic(1.0), (4, 8, 16, 32), None, 64),
        (WeightGenerator.alternating(1.07), (4, 8, 16, 32), None, 48),
        # the later weights fall between the earlier ones: prefixes 2 and 4 are no run
        (Listed((1.0, 3.0, 2.0, 5.0, 4.0)), (1, 2, 3, 4), None, 5),
        # repeated weights: prefix 3 is the run [1, 1, 2] inside [1, 1, 1, 2, 2, 3]
        (Listed((1.0, 2.0, 1.0, 2.0, 1.0, 3.0)), (1, 2, 3, 4, 5), 0.3, 6),
        # a near-coalesced cluster whose mean moves with n: 1, 1 + 2e-10, 1 + 4e-10
        (Listed((1.0, 2.0, 1.0 + 4e-10, 3.0, 1.0 + 8e-10, 4.0)), (1, 2, 3, 4, 5), None, 6),
        # the n = 1 prefix [-c] is one-signed inside the mixed reference
        (WeightGenerator.alternating(0.9), (1, 2, 3, 5), None, 8),
        # the reference is on the table route; prefixes 4, 8 and 16 share 32's recursion
        (WeightGenerator.geometric(1.05, 2.1), (4, 8, 16, 32), None, 48),
        # min(a0) of the pair moves with n (2.0, 0.5, 0.3): one grid each
        (Listed((2.0, 3.0, 0.5, 4.0, 0.3, -5.0)), (1, 3, 5, 6, 2), None, 2),
    ],
    ids=["harmonic", "alternating", "no_run", "repeated", "moving_cluster", "one_signed_n1", "table_reference", "moving_grid"],
)
def test_convergence_sweep_equals_each_window_alone(gen, ns, sigma, n_ref):
    rows = convergence_sweep(gen, ns, sigma=sigma, n_ref=n_ref)
    assert np.asarray(rows).tobytes() == np.asarray(_sweep_alone(gen, ns, sigma, n_ref)).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from([-2.5, -1.0, -0.6, 0.5, 1.0, 1.0 + 3e-10, 1.5, 2.0, 3.5]), min_size=1, max_size=10),
    st.data(),
)
def test_convergence_sweep_equals_each_window_alone_on_drawn_weights(values, data):
    # repeats, runs and non-runs, mixed and one-signed prefixes, moving grids and
    # moving cluster means, all drawn
    gen = Listed(tuple(values))
    ns = tuple(data.draw(st.lists(st.integers(1, len(values)), min_size=1, max_size=5)))
    n_ref = data.draw(st.integers(1, len(values)))
    rows = convergence_sweep(gen, ns, n_ref=n_ref)
    assert np.asarray(rows).tobytes() == np.asarray(_sweep_alone(gen, ns, None, n_ref)).tobytes()


def test_default_harmonic_sweep_runs_one_divided_difference(monkeypatch):
    # every harmonic prefix is a run of the n_ref = 64 reference's nodes
    calls = []
    dd = zaktp.weights._dd_exp_chi
    monkeypatch.setattr(zaktp.weights, "_dd_exp_chi", lambda *args: calls.append(args[2]) or dd(*args))
    convergence_sweep(WeightGenerator.harmonic(1.0), (4, 8, 16, 32))
    assert calls == [[(0, 64), (0, 4), (0, 8), (0, 16), (0, 32)]]


def test_weighted_sup_distance_refuses_empty_and_non_finite_grids():
    w4, w8 = (truncate(WeightGenerator.harmonic(1.0), n) for n in (4, 8))
    for grid in ([], [0.0, math.nan], [math.inf, 1.0], [-math.inf]):
        with pytest.raises(ValueError, match="the grid must hold at least one point, and only finite ones"):
            weighted_sup_distance(w4, w8, 0.1, np.asarray(grid))


def test_weighted_sup_distance_on_a_grid_where_the_weight_overflows():
    # e^{0.5 |x|} overflows at |x| = 1600 and 2000, where both windows are exactly 0:
    # those points add 0, not 0 * inf = NaN, and no RuntimeWarning is raised
    w4, w8 = (truncate(WeightGenerator.harmonic(1.0), n) for n in (4, 8))
    grid = np.linspace(-2000.0, 2000.0, 11)
    assert not eval_tp(w4, grid[[0, 1, -2, -1]]).any() and not eval_tp(w8, grid[[0, 1, -2, -1]]).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = weighted_sup_distance(w4, w8, 0.5, grid)
    assert got == weighted_sup_distance(w4, w8, 0.5, grid[2:-2]) and 0.0 < got < math.inf


def test_weighted_sup_distance_equals_each_window_alone():
    gen = WeightGenerator.alternating(1.0)
    grid = np.linspace(-30.0, 30.0, 1201)
    for n, m in ((1, 6), (6, 1), (3, 3), (2, 7)):
        w_n, w_m = truncate(gen, n), truncate(gen, m)
        want = float(np.max(np.abs(_alone(w_n, grid) - _alone(w_m, grid)) * np.exp(0.4 * np.abs(grid))))
        assert np.float64(weighted_sup_distance(w_n, w_m, 0.4, grid)).tobytes() == np.float64(want).tobytes()


def test_convergence_sweep_checks_sigma_like_the_distance():
    gen = WeightGenerator.harmonic(1.0)
    with pytest.raises(SigmaTooLarge):
        convergence_sweep(gen, [2, 4], sigma=1.0, n_ref=8)
    with pytest.raises(ValueError, match="nonnegative"):
        convergence_sweep(gen, [2, 4], sigma=-0.1, n_ref=8)
    # NaN is not a sigma: the same guard refuses it, for the sweep and the distance
    with pytest.raises(ValueError, match="sigma must be nonnegative, got nan"):
        convergence_sweep(gen, [2, 4], sigma=math.nan, n_ref=8)
    w = truncate(gen, 4)
    with pytest.raises(ValueError, match="sigma must be nonnegative, got nan"):
        weighted_sup_distance(w, w, math.nan)
