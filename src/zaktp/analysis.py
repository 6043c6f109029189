"""Zero location at omega = 1/2, zero-free certification, sign-change tools.

All zeros of the Zak transform of a TP window lie at omega = 1/2, so the
zero search is one-dimensional: bracket the single sign change of the real
2-periodic slice Z(., 1/2) and close in on it by Brent's method.  The
certifier independently covers the complement with a grid scan plus a
Lipschitz majorant.  Windows and splines reach both through one exp-poly
term table, ``ebspline.ExpPolyTable``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ebspline import PiecewiseExpPoly, reduce_ebspline
from .errors import (
    MultipleZeros,
    NoZero,
    NotUnitMonotone,
    ToleranceUnreachable,
)
from .weights import WeightMultiset, exp_sum_rep
from .zak import _check_strip, _spline_for, zak_ebspline, zak_prefactor


# ---------------------------------------------------------------------------
# Slice helpers


def _half_slice_fun(window):
    """Real function x -> Re Z(x, 1/2) for a TP window or a spline."""
    if isinstance(window, WeightMultiset):
        B, pref = _spline_for(window.raw), zak_prefactor(window, 0.5)
    elif isinstance(window, PiecewiseExpPoly):
        B, pref = window, 1.0
    else:
        raise TypeError(f"unsupported window type {type(window)!r}")
    return lambda x: np.real(pref * zak_ebspline(B, x, 0.5))


def fundamental_slice(B: PiecewiseExpPoly, s: complex) -> PiecewiseExpPoly:
    """Z B(., s) restricted to [0,1) as a single-piece exp-poly (complex)."""
    phases = [np.exp(-2j * np.pi * k * s) for k in range(B.m)]
    return PiecewiseExpPoly.from_table(B.table.zak_sum(phases))


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f in a sign-changing bracket [xa, xb] by Brent's method.

    A step-for-step port of SciPy's ``brentq.c`` with its defaults
    (rtol = 4 eps, 100 iterations), so roots are bit-identical to
    ``scipy.optimize.brentq``.  Raises :class:`ToleranceUnreachable` when
    the iterations run out.
    """
    rtol, maxiter = 4 * np.finfo(float).eps, 100
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C gives an infinite or NaN step on underflow; both fail the test below
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise ToleranceUnreachable(f"Brent's method did not converge in {maxiter} iterations (last x = {xcur!r})")


def _cyclic_sign_changes(vals: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs of cyclically consecutive nonzero samples of opposite sign."""
    nz = np.flatnonzero(vals != 0.0)
    sgn = np.sign(vals[nz])
    cut = np.flatnonzero(sgn * np.roll(sgn, -1) < 0)
    return list(zip(nz[cut].tolist(), np.roll(nz, -1)[cut].tolist()))


def locate_zero_half(window, tol: float = 1e-12) -> float:
    """The unique zero of Z(., 1/2) in [0,1), by bracketing and Brent's method.

    Raises :class:`NoZero` when the slice has no sign change (type-1
    windows) and :class:`MultipleZeros` when more than one bracket per
    period survives, which would contradict the single-zero property.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    f = _half_slice_fun(window)
    N = 4096
    xs = np.arange(N) * (2.0 / N)
    vals = f(xs)

    if not vals.any():
        raise NoZero("slice vanishes identically on the sample grid")
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
        if runs.size and runs.max() * (2.0 / N) > max(100.0 * tol, 2.5 * (2.0 / N)):
            raise MultipleZeros("zero plateau wider than 100 x tol")

    lo_i, hi_i = changes[0]
    lo, hi = xs[lo_i], xs[hi_i]
    if hi < lo:
        hi += 2.0
    root = _brentq(lambda t: float(f(np.asarray([t]))[0]), lo, hi, xtol=tol)
    # a jump discontinuity (type-1 window at integer x) also brackets a sign
    # change; only accept the root if the slice actually vanishes there
    if abs(float(f(np.asarray([root]))[0])) > 1e-6 * float(np.max(np.abs(vals))):
        raise NoZero("sign change is a jump discontinuity, not a zero")
    return float(root % 1.0)


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
        return {
            "schema": "zerocert/1",
            "region": {
                "x": list(self.region.x),
                "omega": list(self.region.omega),
                "tau": self.region.tau,
            },
            "grid_step": self.grid_step,
            "min_modulus": self.min_modulus,
            "lipschitz_bound": self.lipschitz_bound,
            "verdict": self.verdict,
            "zero_location": list(self.zero_location) if self.zero_location else None,
        }


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    g = np.arange(lo, hi + step * 0.5, step)
    if g[-1] < hi - step * 0.5:
        g = np.append(g, hi)
    return np.clip(g, lo, hi)


def _series_tables(window, tau: float, xg: np.ndarray):
    """Samples of g, g', g'' on x + k weighted by e^{2 pi k tau}.

    Returns (ks, G0, G1, G2, column) with G?[kidx, j] = g^{(?)}(x_j + k) e^{2 pi k tau},
    so that Z(x_j, omega + i tau) = sum_k e^{-2 pi i k omega} G0[k, j].
    ``column(x)`` is the G0 column at one more point x, from the same
    representation: the refinement evaluates it without rebuilding anything.
    """
    if isinstance(window, WeightMultiset):
        rep = exp_sum_rep(window)
        margin = window.a0 - 2.0 * np.pi * abs(tau)
        kmax = int(math.ceil(60.0 / margin)) + 2
        ks = np.arange(-kmax, kmax + 1)
    elif isinstance(window, PiecewiseExpPoly):
        rep = window
        ks = np.arange(-1, window.m + 1)
    else:
        raise TypeError(f"unsupported window type {type(window)!r}")
    drep = rep.derivative()
    samp = [rep, drep, drep.derivative()]

    weightk = np.exp(2.0 * np.pi * ks * tau)
    shifted = xg[None, :] + ks[:, None]
    G0, G1, G2 = (np.real(f(shifted)) * weightk[:, None] for f in samp)

    def column(x: float) -> np.ndarray:
        return np.real(rep(x + ks)) * weightk

    return ks, G0, G1, G2, column


def _neigh_max(arr: np.ndarray) -> np.ndarray:
    """Maximum over each 3x3 neighbourhood, the border replicated outward."""
    p = np.pad(arr, 1, mode="edge")
    rows = np.maximum(p[:-2], p[1:-1])
    np.maximum(rows, p[2:], out=rows)
    out = np.maximum(rows[:, :-2], rows[:, 1:-1])
    return np.maximum(out, rows[:, 2:], out=out)


def _nelder_mead(fun, x0: np.ndarray, lb: np.ndarray, ub: np.ndarray, xatol: float, fatol: float, maxiter: int):
    """Minimize fun over the box [lb, ub] by the Nelder-Mead simplex method.

    A port of the part of SciPy's ``_minimize_neldermead`` the certificate
    uses (non-adaptive coefficients, bounds by clipping every vertex, no
    evaluation cap), operation for operation, so ``(x, fun)`` is
    bit-identical to ``minimize(..., method="Nelder-Mead")``.  Temporary:
    the refinement it serves goes once the certificate rests on a per-cell
    bound (ROADMAP item 1).
    """
    x0 = np.clip(x0, lb, ub)
    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    # a vertex pushed past an upper bound is reflected inward, not flattened onto it
    sim = np.clip(np.where(sim > ub, 2 * ub - sim, sim), lb, ub)
    fsim = np.array([fun(v) for v in sim], dtype=float)
    for _ in range(2):  # sorted twice, as SciPy does: argsort need not be stable on ties
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]

    iterations = 1
    while iterations < maxiter:
        if np.max(np.abs(sim[1:] - sim[0])) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = np.clip(2 * xbar - sim[-1], lb, ub)  # reflection
        fxr = fun(xr)
        if fxr < fsim[0]:
            xe = np.clip(3 * xbar - 2 * sim[-1], lb, ub)  # expansion
            fxe = fun(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lb, ub)  # outside contraction
                fxc = fun(xc)
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:
                xcc = np.clip(0.5 * xbar + 0.5 * sim[-1], lb, ub)  # inside contraction
                fxcc = fun(xcc)
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                for j in range(1, N + 1):
                    sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lb, ub)
                    fsim[j] = fun(sim[j])
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], np.min(fsim)


def certify_zero_free(window, region: Region, grid_step: float, zero_tol: float = 1e-8) -> ZeroCertificate:
    """Scan |Z| over the region; certify it zero-free, or report a zero.

    Certification is cell-wise and second order: each grid point must have
    |Z| above its local gradient bound (exact gradient on the grid,
    maximized over the 3x3 neighbourhood) times half the cell diagonal,
    plus an exact-Hessian curvature term in the cell radius squared.  The
    reported ``lipschitz_bound`` is the local gradient bound at the grid
    point of minimum modulus — the binding one.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    for name, (lo, hi) in (("x", region.x), ("omega", region.omega)):
        if not lo <= hi:
            raise ValueError(f"region {name} range ({lo}, {hi}) is reversed")
    tau = region.tau
    if isinstance(window, WeightMultiset):
        _check_strip(window, tau)

    xg = _grid(region.x[0], region.x[1], grid_step)
    og = _grid(region.omega[0], region.omega[1], grid_step) if region.omega[1] > region.omega[0] else np.asarray([region.omega[0]])
    ks, G0, G1, G2, column = _series_tables(window, tau, xg)
    dk = (-2j * np.pi * ks)[:, None]
    phases = np.exp(-2j * np.pi * og[:, None] * ks[None, :])
    zv = np.abs(phases @ G0)
    grad = np.hypot(np.abs(phases @ G1), np.abs(phases @ (dk * G0)))
    hess = np.sqrt(
        np.abs(phases @ G2) ** 2
        + 2.0 * np.abs(phases @ (dk * G1)) ** 2
        + np.abs(phases @ (dk**2 * G0)) ** 2
    )

    flat = int(np.argmin(zv))
    i, j = np.unravel_index(flat, zv.shape)
    min_mod = float(zv[i, j])
    loc = (float(xg[j]), float(og[i]))

    # local bound: 3x3 neighbourhood max of the exact grid gradient (captures
    # knot jumps) times the cell radius, plus an exact-Hessian curvature term
    radius = grid_step * math.sqrt(2.0) / 2.0
    local = 1.1 * _neigh_max(grad)
    drop = local * radius + 0.6 * _neigh_max(hess) * radius**2
    certified = bool(np.all(zv > drop))
    lip = float(local[i, j])

    def zpoint(p):
        return abs(np.exp(-2j * np.pi * p[1] * ks) @ column(p[0]))

    if min_mod < zero_tol:
        verdict = "zero_found"
    elif certified:
        verdict = "zero_free_certified"
        loc = None
    else:
        # refine locally: the grid minimum may hide a genuine zero between nodes
        ob = region.omega if region.omega[1] > region.omega[0] else (region.omega[0], region.omega[0] + 1e-15)
        refined_x, refined_fun = _nelder_mead(
            zpoint,
            np.asarray(loc),
            lb=np.array([region.x[0], ob[0]]),
            ub=np.array([region.x[1], ob[1]]),
            xatol=1e-12,
            fatol=1e-14,
            maxiter=400,
        )
        if refined_fun < zero_tol:
            verdict = "zero_found"
            min_mod = float(refined_fun)
            loc = (float(refined_x[0]), float(refined_x[1]))
        else:
            verdict = "inconclusive"
            loc = None
    return ZeroCertificate(
        region=region,
        grid_step=float(grid_step),
        min_modulus=min_mod,
        lipschitz_bound=lip,
        verdict=verdict,
        zero_location=loc,
    )


# ---------------------------------------------------------------------------
# Sign changes and monotonicity


def strong_sign_changes(samples: Sequence[float]) -> int:
    """Count of strict sign alternations, skipping zeros."""
    v = np.asarray(samples, dtype=float)
    v = v[v != 0.0]
    if len(v) < 2:
        return 0
    s = np.sign(v)
    return int(np.sum(s[1:] * s[:-1] < 0))


def unit_monotone_offset(f_samples: Sequence[float], dead_band: float = 1e-12) -> float:
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
    d = np.where(np.abs(d) <= dead_band, 0.0, d)

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


def _sample_two_periodic(piece: PiecewiseExpPoly, per_period: int = 512) -> np.ndarray:
    """Samples on [0,2) of the slice h with h(x+1) = -h(x), h = piece on [0,1)."""
    t = np.arange(per_period) / per_period
    vals = np.real(np.asarray(piece.piece_eval(0, t)))
    return np.concatenate([vals, -vals])


def reduced_slice_monotonicity(weights: WeightMultiset, eta_index: int) -> MonotonicityReport:
    """Monotone-offset report for Z B(., 1/2) and its reduction D_eta.

    ``eta_index`` selects a distinct spline weight eta = -b of the window's
    cluster list.
    """
    B = _spline_for(weights.raw)
    etas = sorted({-b for b, _ in weights.distinct})
    if not (0 <= eta_index < len(etas)):
        raise ValueError(f"eta_index {eta_index} outside 0..{len(etas) - 1}")
    eta = etas[eta_index]
    h0 = fundamental_slice(B, 0.5)
    x0 = unit_monotone_offset(_sample_two_periodic(h0))
    red = reduce_ebspline(h0, eta)
    y0 = unit_monotone_offset(_sample_two_periodic(red))
    return MonotonicityReport(x0=x0, y0=y0, eta=eta)


def fully_reduced_sign_changes(
    weights: WeightMultiset, omega: float, N: int, per_unit: int = 256
) -> int:
    """S^- of the fully reduced real Zak slice of B over [0, N).

    Applies D_{eta_1}^{mu_1 - 1} prod_j D_{eta_j}^{mu_j} to the fundamental
    slice, extends by quasi-periodicity, and counts strong sign changes of
    the real part.
    """
    B = _spline_for(weights.raw)
    red = fundamental_slice(B, complex(omega)).table
    clusters = sorted(((-b, mu) for b, mu in weights.distinct))
    for idx, (eta, mu) in enumerate(clusters):
        for _ in range(mu - 1 if idx == 0 else mu):
            red = red.reduce(eta)
    base = red.eval(0, np.arange(per_unit) / per_unit)
    samples = np.concatenate(
        [np.real(np.exp(2j * np.pi * k * omega) * base) for k in range(N)]
    )
    return strong_sign_changes(samples)
