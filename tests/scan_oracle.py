"""The zero-free scan on full gradient and Hessian grids, as certify_zero_free
ran it before its omega-free first stage: a reference that forms every grid on
every region, for the tests that check the two-stage scan against it."""

import functools
import math

import numpy as np

from zaktp.analysis import (
    Region,
    ZeroCertificate,
    _ZERO_TOL,
    _grid,
    _neigh_max,
    _series_tables,
    _structure_zero,
)
from zaktp.errors import IllConditioned
from zaktp.weights import WeightMultiset
from zaktp.zak import _check_strip, zak_prefactor


def _require_finite(arr) -> None:
    if not np.all(np.isfinite(arr)):
        raise IllConditioned("|Z| is not finite on the grid: the weight product leaves the double range")


def _prefactor(window):
    """P with Z window(x, s) = P(s) Z B(x, s), B the spline factor; P = 1 for a spline."""
    return functools.partial(zak_prefactor, window) if isinstance(window, WeightMultiset) else np.ones_like


def _spline_factor(window):
    """B with Z window(x, s) = P(s) Z B(x, s); a spline is its own factor."""
    return window.spline if isinstance(window, WeightMultiset) else window


def scan_grids(window, region: Region, grid_step: float):
    """The scan's nodes, |Z B| and the exact gradient and Hessian norms of Z B
    on every node, and the series tables (ks, G0, G1, G2) behind them."""
    xg = _grid(region.x[0], region.x[1], grid_step)
    og = _grid(region.omega[0], region.omega[1], grid_step) if region.omega[1] > region.omega[0] else np.asarray([region.omega[0]])
    ks, G0, G1, G2 = _series_tables(_spline_factor(window), region.tau, xg)
    dk = (-2j * np.pi * ks)[:, None]
    phases = np.exp(-2j * np.pi * (og[:, None] * ks[None, :]))  # omega k rounded first, as zak._phases forms it
    zv = np.abs(phases @ G0)
    grad = np.hypot(np.abs(phases @ G1), np.abs(phases @ (dk * G0)))
    hess = np.sqrt(
        np.abs(phases @ G2) ** 2
        + 2.0 * np.abs(phases @ (dk * G1)) ** 2
        + np.abs(phases @ (dk**2 * G0)) ** 2
    )
    return xg, og, zv, grad, hess, (ks, G0, G1, G2)


def full_grid_certificate(window, region: Region, grid_step: float) -> ZeroCertificate:
    """certify_zero_free with the gradient and Hessian formed on the whole grid."""
    tau = region.tau
    if isinstance(window, WeightMultiset):
        _check_strip(window, tau)
    og = _grid(region.omega[0], region.omega[1], grid_step) if region.omega[1] > region.omega[0] else np.asarray([region.omega[0]])
    P = _prefactor(window)
    with np.errstate(over="ignore", invalid="ignore"):
        pref = np.abs(P(og + 1j * tau))[:, None]
    _require_finite(pref)
    xg, og, zv, grad, hess, _ = scan_grids(window, region, grid_step)
    radius = grid_step * math.sqrt(2.0) / 2.0
    local = 1.1 * _neigh_max(grad)
    drop = local * radius + 0.6 * _neigh_max(hess) * radius**2
    certified = bool(np.all(zv > drop))

    with np.errstate(over="ignore", invalid="ignore"):
        zg = pref * zv
    _require_finite(zg)
    i, j = np.unravel_index(int(np.argmin(zg)), zg.shape)
    min_mod = float(zg[i, j])
    lip = float(local[i, j] * pref[i, 0])
    loc = (float(xg[j]), float(og[i]))
    tol = _ZERO_TOL * max(1.0, float(zg.max()))

    if certified and min_mod >= tol:
        verdict, loc = "zero_free_certified", None
    else:
        hit = _structure_zero(_spline_factor(window), P, region)
        if hit is not None and hit[0] < tol:
            verdict = "zero_found"
            min_mod, loc = hit
        elif min_mod < tol:
            verdict = "zero_found"
        else:
            verdict, loc = "inconclusive", None
    return ZeroCertificate(region, float(grid_step), min_mod, lip, verdict, loc)
