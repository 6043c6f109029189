"""Zero location at omega = 1/2, zero-free certification, unit-interval monotonicity.

All zeros of the Zak transform of a TP window lie at omega = 1/2, so the
zero search is one-dimensional: bracket the single sign change of the real
2-periodic slice Z(., 1/2), narrow it by bisection on the slice in Python
floats and finish with a secant step.  Both work on the spline factor of
Z g = P Z B: the prefactor P has no zero in the strip, and Z B is the finite
sum of the kernel in ``zak``, its phases from ``_phases``.  On [0, 1) the
slice Re Z B(., 1/2) is one table of exponential-polynomial terms, extended by
h(x + 1) = -h(x).  The certifier covers a region with a grid scan of Z B, its
columns B(x + k) from ``_zak_columns``, plus a Lipschitz majorant; where that
fails, the structure theorem
Z B(x, 1/2 + i tau) = e^{-2 pi tau x} Z (B e^{2 pi tau .})(x, 1/2) names the
one candidate zero, which is then checked.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .ebspline import ExpPolyTable, PiecewiseExpPoly
from .errors import IllConditioned, MultipleZeros, NoZero, NotUnitMonotone
from .weights import WeightMultiset
from .zak import _MAX_GRID_NODES, _check_strip, _phases, _zak_columns, zak_ebspline, zak_prefactor

_ZERO_TOL = 1e-8  # certify_zero_free: a zero, relative to max(1, max |Z g|)
_MEMO_SAMPLES = 1 << 13  # the largest series table a spline keeps, 64 KiB: 513 x-nodes times the cell's m + 1 = 15 shifts


# ---------------------------------------------------------------------------
# Slice helpers


def _slice_table(table: ExpPolyTable, s: complex) -> ExpPolyTable:
    """Z f(., s) on [0,1) as a one-piece table, f the piecewise sum with these pieces:
    sum_k e^{-2 pi i k s} coeffs[k], accumulated in k order (a reduction over the outer axis)."""
    phases = _phases(s, np.arange(len(table.coeffs)))
    return ExpPolyTable(table.etas, np.add.reduce(phases[:, None, None] * table.coeffs, axis=0, keepdims=True))


def _cyclic_sign_changes(vals: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs of cyclically consecutive nonzero samples of opposite sign."""
    nz = np.flatnonzero(vals != 0.0)
    sgn = np.sign(vals[nz])
    cut = np.flatnonzero(sgn * np.roll(sgn, -1) < 0)
    return list(zip(nz[cut].tolist(), np.roll(nz, -1)[cut].tolist()))


def _sample_two_periodic(table: ExpPolyTable, per_period: int = 512) -> np.ndarray:
    """Samples on [0,2) of the slice h with h(x+1) = -h(x), h = the one-piece table on [0,1)."""
    t = np.arange(per_period) / per_period
    vals = np.real(table.pieces_at(t)[0])
    return np.concatenate([vals, -vals])


def _slice_at(h: ExpPolyTable):
    """x -> the slice at x >= 0 in Python floats: Re h on [0,1), h a one-piece table,
    extended by h(x+1) = -h(x); Horner and math.exp per term with a nonzero real part, in slot order."""
    terms = [(eta, c[::-1]) for eta, c in zip(h.etas.tolist(), h.coeffs[0].real.tolist()) if any(c)]

    def at(x: float) -> float:
        k = math.floor(x)
        t, v = x - k, 0.0
        for eta, c in terms:
            acc = 0.0
            for a in c:
                acc = acc * t + a
            v += acc * math.exp(eta * t)
        return -v if k % 2 else v

    return at


def _table_zero(h: ExpPolyTable, tol: float) -> float:
    """The zero in [0,1) of the slice extended by h(x+1) = -h(x), h a one-piece
    table on [0,1): the search of :func:`locate_zero_half`."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    N = 2048
    vals = _sample_two_periodic(h, N)

    if not vals.any():
        raise IllConditioned("the slice underflows to 0 on every sample: the spline factor leaves the double range")
    # cyclic sign changes, skipping exact zeros
    changes = _cyclic_sign_changes(vals)
    if not changes:
        raise NoZero("no sign change of Z(., 1/2) over a full period")
    if len(changes) > 2:
        raise MultipleZeros(f"{len(changes)} sign changes found in [0,2)")
    # a run of consecutive zero samples is a zero interval, not a point
    zero_mask = vals == 0.0
    if np.any(zero_mask):
        runs = np.diff(np.flatnonzero(np.diff(np.concatenate(([0], zero_mask.view(np.int8), [0])))))[::2]
        if runs.size and runs.max() / N > max(100.0 * tol, 2.5 / N):
            raise MultipleZeros("zero plateau wider than 100 x tol")

    lo_i, hi_i = changes[0]
    if (hi_i - lo_i) % (2 * N) > 1:  # the bracket holds a sample that is exactly zero: the zero
        return (lo_i + 1) % (2 * N) / N % 1.0
    lo, hi, at, eps = lo_i / N, hi_i / N, _slice_at(h), float(np.finfo(float).eps)
    if hi < lo:
        hi += 2.0
    f_lo, f_hi = float(vals[lo_i]), float(vals[hi_i])  # the bracket's signs, as first found
    while True:  # bisection on the scalar slice
        width, mid = hi - lo, 0.5 * (lo + hi)
        f = at(mid)
        if f == 0.0:
            return mid % 1.0
        if (f < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f
        else:
            hi, f_hi = mid, f
        if hi - lo <= tol + 4 * eps * abs(lo) or not hi - lo < width:
            break
    ends = (lo, hi, lo - f_lo * (hi - lo) / (f_hi - f_lo))
    err = [abs(at(x)) for x in ends]
    # a jump discontinuity (type-1 window at integer x) also brackets a sign
    # change; only accept the root if the slice actually vanishes there
    if min(err) > 1e-6 * float(np.max(np.abs(vals))):
        raise NoZero("sign change is a jump discontinuity, not a zero")
    return ends[err.index(min(err))] % 1.0


def locate_zero_half(window, tol: float = 1e-12) -> float:
    """The unique zero of Z(., 1/2) in [0,1), on the slice table of the spline factor.

    Z g(., 1/2) = P(1/2) Z B(., 1/2), P(1/2) = prod a / (1 + e^{-a}) real and
    nonzero, so the zero is that of h = Re Z B(., 1/2), the one-piece table
    :func:`_slice_table` extended by h(x+1) = -h(x).  A scan of 4096 points of
    [0, 2) brackets the sign change, or has a sample exactly zero, the result;
    bisection on h in Python floats (:func:`_slice_at`) narrows the bracket
    until it is at most tol + 4 eps |x| wide or stops shrinking (or meets an
    exact zero), and the result is whichever of its ends and its secant point
    has the smallest |h|, kept on the spline factor per tol: the certifier at
    tau = 0 reads it back.  Raises ``ValueError`` unless 0 < tol < inf,
    :class:`NoZero` when the slice has no sign change or jumps there (type-1
    windows), :class:`IllConditioned` when it underflows to 0 on every sample,
    and :class:`MultipleZeros` when more than one bracket per period survives,
    which would contradict the single-zero property.
    """
    B = window.spline if isinstance(window, WeightMultiset) else window  # a spline is its own factor
    if tol not in B.half_zeros:  # a search that raises keeps nothing
        B.half_zeros[tol] = _table_zero(_slice_table(B.table, 0.5), tol)
    return B.half_zeros[tol]


# ---------------------------------------------------------------------------
# Zero-free certification


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle in (x, omega) with a fixed imaginary part tau."""

    x: tuple[float, float]
    omega: tuple[float, float]
    tau: float = 0.0


@dataclass(frozen=True)
class ZeroCertificate:
    region: Region
    grid_step: float
    min_modulus: float
    lipschitz_bound: float
    verdict: str  # zero_free_certified | zero_found | inconclusive
    zero_location: tuple[float, float] | None = None

    def to_json_dict(self):
        return {"schema": "zerocert/1", **asdict(self)}  # tuples are written as lists


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    if not (hi - lo) / step < _MAX_GRID_NODES:  # refused before it is built
        raise ValueError(f"a step of {step} on ({lo}, {hi}) exceeds {_MAX_GRID_NODES} nodes")
    g = np.arange(lo, hi + step * 0.5, step)
    if not g.size or g[-1] < hi - step * 0.5:  # empty where lo + step / 2 rounds to lo
        g = np.append(g, hi)
    return np.clip(g, lo, hi)


def _series_tables(B: PiecewiseExpPoly, tau: float, xg: np.ndarray):
    """Samples of B, B', B'' on x + k weighted by e^{2 pi k tau}, xg ascending.

    Returns (ks, G0, G1, G2) with G?[kidx, j] = B^{(?)}(x_j + k) e^{2 pi k tau},
    so that Z B(x_j, omega + i tau) = sum_k e^{-2 pi i k omega} G0[k, j]: the
    columns of :func:`zak._zak_columns` on the stack of B, B', B'' (row r m + p is
    piece p of B^{(r)}), which share each e^{eta t}, and its shifts ``ks``, from
    -floor(x_max) to m - 1 - floor(x_min).  ``B.series`` keeps the stack, and the
    read-only tables of the last (tau, x grid) with at most ``_MEMO_SAMPLES``
    samples each, so a second omega band rebuilds nothing.
    """
    n_ks = B.m + math.floor(xg[-1]) - math.floor(xg[0])
    if n_ks * len(xg) > _MAX_GRID_NODES:
        raise ValueError(f"a {n_ks}x{len(xg)} series table exceeds {_MAX_GRID_NODES} nodes")
    memo, key = B.series, (tau, xg.tobytes())
    if memo.get("key") == key:
        return memo["tables"]
    if "stack" not in memo:  # the classical derivatives between the knots
        d1 = B.table.reduce(0.0)
        memo["stack"] = ExpPolyTable(B.table.etas, np.concatenate([B.table.coeffs, d1.coeffs, d1.reduce(0.0).coeffs]))
    ks, G = _zak_columns(B.m, memo["stack"], xg)
    tables = (ks, *(np.real(G) * np.exp(2.0 * np.pi * ks * tau)[:, None]))
    if len(ks) * len(xg) <= _MEMO_SAMPLES:  # kept, read-only, with stage one's omega-free bounds
        memo.update(key=key, tables=tables, bounds=[_neigh_max(u[None]) for u in _majorants(*tables)])
        for a in (*tables, *memo["bounds"]):
            a.setflags(write=False)
    return tables


def _neigh_max(arr: np.ndarray) -> np.ndarray:
    """Maximum over each 3x3 neighbourhood, the border replicated outward."""
    out = arr
    for _ in range(2):  # along axis 1 (axis 0 of the transpose), then along axis 0
        src, out = out.T, out.T.copy()
        np.maximum(out[1:], src[:-1], out=out[1:])
        np.maximum(out[:-1], src[1:], out=out[:-1])
    return out


def _majorants(ks, G0, G1, G2):
    """Per x column, U_g and U_h of :func:`certify_zero_free` times its rounding margin."""
    w, a0, a1 = 2.0 * np.pi * np.abs(ks)[:, None], np.abs(G0), np.abs(G1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed majorant fails stage one
        ug = np.hypot(a1.sum(0), (w * a0).sum(0))
        uh = np.sqrt(np.abs(G2).sum(0) ** 2 + 2.0 * (w * a1).sum(0) ** 2 + (w**2 * a0).sum(0) ** 2)
    margin = 1.0 + 16 * len(ks) * np.finfo(float).eps
    return margin * ug, margin * uh


def _structure_zero(B: PiecewiseExpPoly, P, region: Region):
    """The zero of Z B in the region, as (|Z g| there, (x, omega)), or None.

    Z B(x, 1/2 + i tau) = e^{-2 pi tau x} Z B_tau(x, 1/2) with B_tau = B e^{2 pi tau .}:
    every exponent gains 2 pi tau and piece k the factor e^{2 pi tau k}.  So the
    only zeros are (x_tau + k, 1/2 + j), x_tau the zero of Z B_tau(., 1/2) in [0, 1).
    """
    tau = region.tau
    try:
        if tau == 0:  # B_tau = B: the search locate_zero_half made and kept on the spline
            x_tau = locate_zero_half(B)
        else:  # B_tau's slice: Z B(., 1/2 + i tau) with every exponent shifted by 2 pi tau
            h = _slice_table(B.table, complex(0.5, tau))
            x_tau = _table_zero(ExpPolyTable(h.etas + 2.0 * np.pi * tau, h.coeffs), 1e-12)
    except NoZero:
        return None
    x = x_tau + math.ceil(region.x[0] - x_tau)
    omega = 0.5 + math.ceil(region.omega[0] - 0.5)
    if x > region.x[1] or omega > region.omega[1]:
        return None
    s = complex(omega, tau)
    return float(abs(P(s) * zak_ebspline(B, x, s))), (x, omega)


def certify_zero_free(window, region: Region, grid_step: float) -> ZeroCertificate:
    """Scan |Z| over the region; certify it zero-free, or report a zero.

    Z g = P Z B with the spline factor B and the prefactor P, which has no
    zero in the strip, so the certified function is the finite sum Z B =
    sum_k e^{-2 pi i k omega} G0_k(x) (P = 1 for a spline window; tau is
    folded into G, see :func:`_series_tables`).  Certification is cell-wise
    and second order: each grid point must have |Z B| above its local
    gradient bound (1.1 times the gradient norm's 3x3 neighbourhood maximum)
    times half the cell diagonal, plus 0.6 times the Hessian norm's maximum
    times the radius squared.  It runs in two stages.  As |e^{-2 pi i k
    omega}| = 1, U_g(x) = hypot(sum |G1_k|, sum 2 pi |k| |G0_k|) and U_h(x)
    = sqrt((sum |G2_k|)^2 + 2 (sum 2 pi |k| |G1_k|)^2 + (sum (2 pi k)^2
    |G0_k|)^2) bound the two norms at every omega, so their maxima over three
    columns bound the 3x3 maxima: where stage one's drop built from them
    passes at every node, the exact drop passes too, and the gradient is
    formed only on the rows around the minimum.  Elsewhere stage two forms
    the exact gradient and Hessian grids.  Rounding (u = eps / 2, K shifts):
    a computed |sum_k phi_k G_k| is at most (1 + sqrt(2) gamma_{K+2})(1 +
    2u)^2 sum |G_k| (Higham's complex inner product, |fl(phi_k)| <= 1 + 2u,
    the modulus), a computed sum of K moduli at least (1 - gamma_{K-1}) times
    its value, and hypot, squares and sqrt add a few u per side, so to first
    order the grid norms are within 1 + (3K + 16) u of the majorants; the
    factor 1 + 16 K eps covers that, and as rounded + and * are monotone,
    the same operations give stage one the larger drop.

    ``min_modulus`` is the grid minimum of |Z g| = |P| |Z B|;
    ``lipschitz_bound`` is the local gradient bound of Z B times |P| at that
    grid point — the binding one.  A region the grid does not certify is
    searched for the one zero the structure theorem allows (see
    :func:`_structure_zero`).  A zero is a modulus below ``_ZERO_TOL`` times
    the larger of 1 and the grid maximum of |Z g|.  Raises
    :class:`IllConditioned` when the grid's min or max of |Z g| is not
    finite; an overflowing |P| raises before B is built.  A spline window has
    no strip, so its tau need only be finite (``ValueError`` otherwise), and a
    scan over ``_MAX_GRID_NODES`` nodes or series samples is refused with
    ``ValueError`` before it is allocated.  At tau = 0 the candidate zero is
    the one :func:`locate_zero_half` keeps on B.
    """
    if not 0 < grid_step < math.inf:
        raise ValueError(f"grid_step must be positive and finite, got {grid_step}")
    for name, (lo, hi) in (("x", region.x), ("omega", region.omega)):
        if not -math.inf < lo <= hi < math.inf:  # NaN fails too
            raise ValueError(f"region {name} range ({lo}, {hi}) is reversed or not finite")
    tau = region.tau
    if isinstance(window, WeightMultiset):  # P with Z window(x, s) = P(s) Z B(x, s)
        _check_strip(window, tau)
        P = functools.partial(zak_prefactor, window)
    elif isinstance(window, PiecewiseExpPoly):  # no strip: any finite tau, and P = 1
        if not math.isfinite(tau):
            raise ValueError(f"a spline window needs a finite tau, got {tau}")
        P = np.ones_like
    else:
        raise TypeError(f"unsupported window type {type(window)!r}")
    xg = _grid(region.x[0], region.x[1], grid_step)
    og = _grid(region.omega[0], region.omega[1], grid_step)
    if len(og) * len(xg) > _MAX_GRID_NODES:  # _series_tables checks its own size
        raise ValueError(f"a {len(og)}x{len(xg)} grid exceeds {_MAX_GRID_NODES} nodes")
    # |P| first: where it overflows, so does |Z g| = |P| |Z B|, and B need not be built
    pref = np.abs(P(og + 1j * tau))[:, None]  # an overflowed product raises
    B = window.spline if isinstance(window, WeightMultiset) else window
    ks, G0, G1, G2 = tables = _series_tables(B, tau, xg)
    dk = (-2j * np.pi * ks)[:, None]
    phases = _phases(og, ks)
    zv = np.abs(phases @ G0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed product raises below
        zg = pref * zv
    i, j = np.unravel_index(int(np.argmin(zg)), zg.shape)
    min_mod, max_mod = float(zg[i, j]), float(zg.max())
    if not (math.isfinite(min_mod) and math.isfinite(max_mod)):  # a NaN is the grid's min and max, +inf its max
        raise IllConditioned("|Z| is not finite on the grid: the weight product leaves the double range")
    loc = (float(xg[j]), float(og[i]))

    # local bound: 3x3 neighbourhood max of the grid gradient (captures knot
    # jumps) times the cell radius, plus a Hessian term; stage one on majorants
    radius = grid_step * math.sqrt(2.0) / 2.0
    kept = B.series.get("tables") is tables
    ug, uh = B.series["bounds"] if kept else (_neigh_max(u[None]) for u in _majorants(*tables))
    certified = bool(np.all(zv > 1.1 * ug * radius + 0.6 * uh * radius**2))
    r0, r1 = (max(i - 1, 0), i + 2) if certified else (0, len(og))
    ph = phases[r0:r1]
    local = 1.1 * _neigh_max(np.hypot(np.abs(ph @ G1), np.abs(ph @ (dk * G0))))
    if not certified:  # stage two: the exact Hessian grid
        hess = np.abs(phases @ G2) ** 2 + 2.0 * np.abs(phases @ (dk * G1)) ** 2 + np.abs(phases @ (dk**2 * G0)) ** 2
        certified = bool(np.all(zv > local * radius + 0.6 * _neigh_max(np.sqrt(hess)) * radius**2))
    lip = float(local[i - r0, j] * pref[i, 0])
    # a spline can reach 1e10 and round far above any absolute tolerance
    tol = _ZERO_TOL * max(1.0, max_mod)

    if certified and min_mod >= tol:
        verdict, loc = "zero_free_certified", None
    else:
        hit = _structure_zero(B, P, region)
        if hit is not None and hit[0] < tol:
            verdict = "zero_found"
            min_mod, loc = hit
        elif min_mod < tol:
            verdict = "zero_found"
        else:
            verdict, loc = "inconclusive", None
    return ZeroCertificate(
        region=region,
        grid_step=float(grid_step),
        min_modulus=min_mod,
        lipschitz_bound=lip,
        verdict=verdict,
        zero_location=loc,
    )


# ---------------------------------------------------------------------------
# Unit-interval monotonicity


def unit_monotone_offset(f_samples: Sequence[float]) -> float:
    """Offset x0 making the sampled 2-periodic function monotone on
    [x0 + k, x0 + k + 1) for k = 0, 1, within sampling resolution.

    ``f_samples`` are dense uniform samples on [0, 2); at least 64 per
    period.  Raises :class:`NotUnitMonotone` when no offset works.
    """
    f = np.asarray(f_samples, dtype=float)
    N = len(f)
    if N < 128:
        raise ValueError("need at least 64 samples per period (128 total)")
    half = N // 2
    d = np.roll(f, -1) - f  # cyclic first differences
    d = np.where(np.abs(d) <= 1e-12, 0.0, d)  # differences this small count as flat

    def monotone(seg):
        return bool(np.all(seg >= 0.0) or np.all(seg <= 0.0))

    for i in range(N):
        idx1 = (i + np.arange(half - 1)) % N
        idx2 = (i + half + np.arange(half - 1)) % N
        if monotone(d[idx1]) and monotone(d[idx2]):
            return float(i * (2.0 / N))
    raise NotUnitMonotone("no offset yields unit-interval monotonicity")


@dataclass(frozen=True)
class MonotonicityReport:
    x0: float
    y0: float
    eta: float


def reduced_slice_monotonicity(weights: WeightMultiset, eta_index: int) -> MonotonicityReport:
    """Monotone-offset report for Z B(., 1/2) and its reduction D_eta.

    ``eta_index`` selects a distinct spline weight eta = -b of the window's
    cluster list.
    """
    etas = sorted({-b for b, _ in weights.distinct})
    if not (0 <= eta_index < len(etas)):
        raise ValueError(f"eta_index {eta_index} outside 0..{len(etas) - 1}")
    eta = etas[eta_index]
    h0 = _slice_table(weights.spline.table, 0.5)
    x0 = unit_monotone_offset(_sample_two_periodic(h0))
    y0 = unit_monotone_offset(_sample_two_periodic(h0.reduce(eta)))
    return MonotonicityReport(x0=x0, y0=y0, eta=eta)
