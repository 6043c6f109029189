"""Finite totally positive weight lists and closed-form window evaluation.

A window of finite type n is determined by nonzero reals (a_1, ..., a_n):
its Fourier transform is the product of the factors 1 / (1 + 2*pi*i*w / a_nu)
(shift-free normalization), and in the time domain it is the n-fold
convolution of one-sided exponentials.  Evaluation goes through a confluent
divided difference in the weights, or, where the weight product leaves the
double range, through the partial fractions.  On a half-line without a weight
of its sign the window is zero, and neither route computes there (see
:func:`eval_tp`).  A window carries two representations, each built on first
use: ``table``, the partial fractions of :func:`exp_sum_rep`, a two-piece
exp-poly table (``ebspline.ExpPolyTable``) that every lattice sum runs on, and
``spline``, the spline factor B of Z g = P Z B, built on the same table type.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .ebspline import _COALESCE_TOL, ExpPolyTable, PiecewiseExpPoly, _like_input, build_ebspline, cluster_values
from .errors import EmptyInput, IllConditioned, ZeroWeight

# Beyond this value of sum(log|a_nu|) the product of the weights (and the
# reciprocal scale of the divided difference) leaves the double range, so
# evaluation switches to the partial-fraction table.
_LOG_PRODUCT_SWITCH = 500.0

# partial fractions are built and lattice-summed in extended precision (80-bit
# on x86; plain double where numpy has none, and the rounding bound follows)
_EXT = np.longdouble

_CHECK_TOL = 1e-8  # exp_sum_rep's residual against the Fourier product


@dataclass(frozen=True)
class WeightMultiset:
    """A finite list of nonzero weights, clustered into distinct values.

    ``raw`` keeps the input order; ``distinct`` holds (value, multiplicity)
    clusters sorted ascending by value; ``a0`` is the minimum absolute raw
    weight (the decay rate of the window).
    """

    raw: tuple[float, ...]
    distinct: tuple[tuple[float, int], ...]
    a0: float

    @property
    def n(self) -> int:
        return len(self.raw)

    @property
    def log_abs_product(self) -> float:
        return float(np.sum(np.log(np.abs(np.asarray(self.raw)))))

    @cached_property
    def table(self) -> ExpPolyTable:
        """The partial fractions, :func:`exp_sum_rep`: every lattice sum runs on them."""
        return exp_sum_rep(self)

    @cached_property
    def spline(self) -> PiecewiseExpPoly:
        """The spline factor B of Z g = P Z B, the exponential B-spline with weights -a."""
        return build_ebspline([-a for a in self.raw])

    def cluster_nodes(self) -> np.ndarray:
        """Cluster values expanded with multiplicity, sorted ascending."""
        return np.repeat(*zip(*self.distinct))


def make_weights(values: Sequence[float], coalesce_tol: float = _COALESCE_TOL) -> WeightMultiset:
    """Build a :class:`WeightMultiset`, merging values closer than ``coalesce_tol``.

    Values whose pairwise distance is at most the tolerance are chained into
    one cluster and replaced by the cluster mean.  A value within the
    tolerance of zero raises :class:`ZeroWeight`.
    """
    vals = [float(v) for v in values]
    if len(vals) == 0:
        raise EmptyInput("weight sequence is empty")
    if coalesce_tol < 0:
        raise ValueError("coalesce_tol must be nonnegative")
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"weight {v!r} is not finite")
        if abs(v) <= coalesce_tol or v == 0.0:
            raise ZeroWeight(f"weight {v!r} is within {coalesce_tol} of zero")

    distinct, _ = cluster_values(vals, coalesce_tol)
    a0 = min(abs(v) for v in vals)
    return WeightMultiset(raw=tuple(vals), distinct=distinct, a0=a0)


def _dd_exp_chi(nodes: np.ndarray, x: np.ndarray, runs: Sequence[tuple[int, int]]) -> list[np.ndarray]:
    """Divided differences of t -> e^{-x t} * chi_[0,inf)(x t) over the node runs
    nodes[start:start + length] of ``runs``, vectorized in x.

    Used by :func:`eval_tp`; the x = 0 entries use the characteristic-function
    formula directly (value 1 at positive nodes, all derivatives zero).

    Node i is active at x when it has the sign of x (x = 0 and NaN count as
    positive); an inactive entry is +0.  An active -node x is <= 0 (past the
    double range it is -inf, whose exponential is the limit 0), so clipping at 0
    before np.exp changes no active value and keeps np.exp off its slow paths
    for -inf and overflow.  No entry is NaN (x = NaN counts as 0, and nodes are
    nonzero), so multiplying by the mask zeroes the inactive ones without a
    masked copy's branches.  The recursion runs in place in the (n, m) buffer:
    row i of a level overwrites row i of the one before, which row i - 1 has
    already read, so every entry gets the same operations in the same order as
    level-by-level tables would give it, and the same bits.  After level l, row
    i holds the divided difference over nodes[i:i + l + 1], from those nodes'
    rows only; so the run (start, length) is row start after level length - 1,
    the same bits as the recursion over that run alone.  It is kept as a copy
    where a later level overwrites it, as the row itself where none does, and
    the recursion stops at the longest run's level.
    """
    n = len(nodes)
    neg = x < 0
    zero = ~(x > 0) & ~neg
    active = (nodes > 0)[:, None] != neg  # active[i, j]: node i contributes for sample j
    with np.errstate(over="ignore"):
        table = -np.outer(nodes, np.where(zero, 0.0, x))
    np.exp(np.minimum(table, 0.0, out=table), out=table)
    table *= active
    rows, b = list(table), nodes.tolist()
    out = [None] * len(runs)

    def keep(level):
        for k, (start, length) in enumerate(runs):
            if length - 1 == level:
                out[k] = rows[start] if start + length == n else rows[start].copy()

    keep(0)
    for level in range(1, max(length for _, length in runs)):
        fact = math.factorial(level)
        for i in range(n - level):
            if b[i + level] == b[i]:
                # repeated node: f^{(level)}(t)/level! = (-x)^level e^{-x t}/level!
                mask = active[i] & ~zero & ~np.isinf(x)  # chi derivatives vanish at x = 0; 0 is the limit at +-inf
                rows[i][:] = 0.0
                with np.errstate(over="ignore", invalid="ignore"):  # x^level = inf meets e^{-b x} = 0: the limit 0
                    v = ((-x[mask]) ** level) * np.exp(-b[i] * x[mask]) / fact
                rows[i][mask] = np.where(np.isnan(v), 0.0, v)
            else:
                np.subtract(rows[i + 1], rows[i], out=rows[i])
                rows[i] /= b[i + level] - b[i]
        keep(level)
    return out


def _run_start(nodes: np.ndarray, sub: np.ndarray) -> int | None:
    """Where the sorted nodes ``sub`` sit as a contiguous run of ``nodes``, compared exactly."""
    for start in np.flatnonzero(nodes[: len(nodes) - len(sub) + 1] == sub[0]):
        if np.array_equal(nodes[start : start + len(sub)], sub):
            return int(start)
    return None


def eval_tp(weights: WeightMultiset, x):
    """Evaluate the window g_n at ``x`` (scalar or array of any shape).

    Uses the divided-difference closed form, over the full run of the window's
    cluster nodes; where sum(log|a|) passes ``_LOG_PRODUCT_SWITCH`` the weight
    product overflows, and the window's partial-fraction table,
    ``weights.table``, is used instead (confluent weights included).

    The divided difference is taken only at live points.  At a dead point (x < 0
    with no negative weight, or x >= 0 with no positive one) every node is
    inactive, its row +0, and the recursion returns +0, so the result there is that +0
    times the factor (-1)^(n-1) sign(x) prod(a), a zero whose sign is the one
    the full computation gives: the output is bit-identical either way.  Only a
    one-signed window (all-positive, all-negative, every harmonic or geometric
    prefix) has dead points; a mixed-sign window is live everywhere.  By the same
    argument a window may take the live set of a wider one whose recursion it
    shares (:func:`_eval_windows`): its dead points get +0 rows there.  The table
    evaluates each half-line's terms only there, so a point on a half-line
    without terms gets +0 uncomputed too; x = 0 counts as the left half-line
    when no weight is positive.  At x = +-inf both routes give a zero, the
    window's limit, and a NaN stays NaN.  Cost per live point: n exponentials and
    n(n-1)/2 subtract-and-divide steps on the divided difference; on the table,
    a term's exponential only where it does not underflow (for the wide 40-term
    set on [-1, 12.5], about 17% of the terms times points).
    """
    return _like_input(x, _eval_windows([weights], x)[0])


def _eval_windows(windows: Sequence[WeightMultiset], x) -> list[np.ndarray]:
    """:func:`eval_tp` of each window at the same points x, as arrays of at least one dimension.

    Windows on the table route are evaluated alone.  On the divided-difference
    route, the windows whose cluster nodes (values and multiplicities, compared
    exactly) are contiguous runs of the widest one's share its recursion and its
    live set, each with its own scale factor and clip; the rest are grouped the
    same way among themselves, so a window that is a run of no other is
    evaluated alone.  Every output has the bits that eval_tp gives it.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    vals = [_eval_table(w.table, xs) if w.log_abs_product > _LOG_PRODUCT_SWITCH else None for w in windows]
    todo = [i for i, v in enumerate(vals) if v is None]
    while todo:
        nodes = windows[max(todo, key=lambda i: windows[i].n)].cluster_nodes()
        starts = {i: _run_start(nodes, windows[i].cluster_nodes()) for i in todo}
        group = [(i, start) for i, start in starts.items() if start is not None]
        todo = [i for i in todo if starts[i] is None]
        # dead points: see eval_tp; NaN stays live and takes the full route
        if nodes[0] > 0:
            live = ~(xs < 0)
        elif nodes[-1] < 0:
            live = ~(xs >= 0)
        else:
            live = np.ones(xs.shape, dtype=bool)
        dds = _dd_exp_chi(nodes, xs[live], [(start, windows[i].n) for i, start in group])
        for i, _ in group:
            dd = np.zeros_like(xs)
            dd[live] = dds.pop(0)  # the last row taken releases the recursion's buffer
            sign_x = np.sign(xs)
            sign_x[sign_x == 0] = 1.0  # x = 0 uses the dedicated chi formula (no sign factor)
            prod_a = float(np.prod(np.asarray(windows[i].raw)))
            vals[i] = (-1.0) ** (windows[i].n - 1) * sign_x * prod_a * dd
    for v in vals:
        # clip roundoff-negative values; genuine negatives would indicate a bug
        v[(v < 0) & (v > -1e-10)] = 0.0
    return vals


def fourier_tp(weights: WeightMultiset, omega):
    """Fourier transform of g_n: the product of (1 + 2*pi*i*w/a_nu)^(-1)."""
    w = np.asarray(omega, dtype=float)
    out = np.ones(w.shape if w.ndim else (), dtype=complex)
    for a in weights.raw:
        out = out / (1.0 + 2j * np.pi * w / a)
    return _like_input(omega, out)


# ---------------------------------------------------------------------------
# Two-sided exponential-sum representation


def _eval_table(table: ExpPolyTable, xs: np.ndarray) -> np.ndarray:
    """The window's partial-fraction table at the points xs, on a float64 copy of it."""
    f64 = ExpPolyTable(table.etas, table.coeffs.astype(float))
    # x = 0 is on the right piece unless no term lives there; +-inf gets the
    # limit 0 uncomputed (c x e^{-b x} would be inf * 0 there), and NaN stays
    piece = np.where(np.isfinite(xs), xs >= 0 if f64.coeffs[1].any() else xs > 0, -1)
    return np.where(np.isnan(xs), xs, f64.eval(piece, xs))


def exp_sum_rep(weights: WeightMultiset) -> ExpPolyTable:
    """The partial fractions of g_n, as a two-piece exp-poly table: piece 0 is x < 0,
    piece 1 is x >= 0, and the exponents are eta = -b for the clusters b, ascending.

    A term lives on the half-line where it decays (b > 0 on the right); its
    polynomial is in the global coordinate x, ascending.  The coefficients are the
    higher-order residues of the Fourier product at s = -b_i, in extended precision
    (they cancel against each other as the weights crowd; ``eval_tp`` evaluates a
    float64 copy): the simple ones H(-b_i) of all clusters from one (clusters, n)
    product, the rest by the log-derivative recursion per confluent cluster.  It raises
    :class:`IllConditioned` unless the residual against the Fourier product at three
    frequencies, formed in one pass, is at most ``_CHECK_TOL`` times max(1, |Fourier product|).
    """
    # sorted raw weights line up with the cluster nodes, one cluster per run
    raws, nodes = np.sort(np.asarray(weights.raw)), weights.cluster_nodes().astype(_EXT)
    bs = np.array([b for b, _ in weights.distinct], _EXT)
    mus = np.array([mu for _, mu in weights.distinct])
    on = np.arange(mus.max()) < mus[:, None]  # (clusters, D): the degrees each cluster has
    cs = np.zeros(on.shape, _EXT)  # cs[i, j - 1] = c_{i,j}, the coefficient of (s + b_i)^-j
    # H(-b) = prod a / prod_k (b_k - b)^mu_k of every cluster b, as a product of ratios
    # a / (b_k - b): prod a itself leaves the double range for wide windows
    cs[:, 0] = np.prod(raws / np.where(nodes == bs[:, None], 1.0, nodes - bs[:, None]), axis=1)
    for i in np.flatnonzero(mus > 1).tolist():
        hs, mu, d, mk = [cs[i, 0]], int(mus[i]), np.delete(bs - bs[i], i), np.delete(mus, i)

        def l_deriv(p):
            return -((-1.0) ** p) * math.factorial(p) * np.sum(mk / d ** (p + 1))

        for m_ in range(1, mu):
            hs.append(sum(math.comb(m_ - 1, l) * hs[l] * l_deriv(m_ - 1 - l) for l in range(m_)))
        # c_{i,j} = H^{(mu-j)}(-b) / (mu-j)!
        cs[i, :mu] = [hs[mu - j] / math.factorial(mu - j) for j in range(1, mu + 1)]
    c = cs / np.array([math.factorial(j) for j in range(on.shape[1])], _EXT)
    coeffs = np.zeros((2, *on.shape), _EXT)
    right, left = on & (bs > 0)[:, None], on & (bs < 0)[:, None]
    coeffs[1][right], coeffs[0][left] = c[right], -c[left]
    table = ExpPolyTable([-b for b, _ in weights.distinct], coeffs)

    # residual check against the Fourier product at three frequencies, in one pass
    tb, tj, tc = (np.broadcast_to(v, on.shape)[on] for v in (bs[:, None], np.arange(1, on.shape[1] + 1), cs))
    oms = np.array([0.1318, 0.7, 2.31])
    target = fourier_tp(weights, oms)
    resid = np.abs(np.sum(tc / (tb + 2j * np.pi * oms[:, None]) ** tj, axis=1) - target)
    # written so that a NaN residual (an overflowed weight product) raises too
    bad = ~(resid <= _CHECK_TOL * np.maximum(1.0, np.abs(target)))
    if bad.any():
        k = int(np.argmax(bad))
        raise IllConditioned(
            f"partial-fraction residual {resid[k]:.3e} at omega={oms[k]}; "
            "weights may be too close without coalescing, or their product overflows"
        )
    return table
