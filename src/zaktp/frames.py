"""Gabor frame bounds on integer lattices and discrete periodized frames.

Frame bounds for the lattice alpha = 1, beta = 1/N are grid estimates of
ess inf / ess sup of F(x, omega) = Sum_{j<N} |Zg(x, omega + j/N)|^2 over the
unit cell, read from one separable grid: each refinement step is a strided
view of the finest grid.  F is 1/N-periodic in omega and, for a real window,
even, so one kernel forms only the grid's distinct rows.  It builds one table
per shift j (|P| cos and |P| sin of the phases, interleaved rows, |P| from one
prefactor call on the (N, omega) grid), then walks the rows in blocks through
one reused scratch buffer: per block and shift, one real GEMM against the
columns B(x + k) of the spline factor (``zak._zak_columns``) gives |P| Re and
|P| Im, squared in place.  Finest grids above 2^22 nodes are refused before
allocation.  The discrete route periodizes and samples the window to C^K, a
closed-form lattice sum of its partial fractions with step K; the critically
sampled frame operator is diagonalized by the discrete Zak transform, so its
spectrum is M |DFT_{K/M}(v[qM + r])|^2 (Zibulski-Zeevi).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import Indivisible
from .weights import WeightMultiset
from .zak import _MAX_GRID_NODES, _zak_columns, zak_prefactor

_BLOCK_NODES = 1 << 14  # nodes per row block of the frame kernel, Re and Im: one 128 KB scratch buffer


@dataclass(frozen=True)
class FrameBoundsReport:
    N: int
    grid_resolution: tuple[int, int]
    A_est: float
    B_est: float
    min_location: tuple[float, float]
    refinement_trace: tuple[tuple[tuple[int, int], float], ...]

    def to_json_dict(self):  # tuples are written as lists
        trace = [{"resolution": res, "A_est": a} for res, a in self.refinement_trace]
        return {"schema": "framebounds/1", **asdict(self), "refinement_trace": trace}


@dataclass(frozen=True)
class DiscreteWindow:
    """Periodized samples v_j = sum_k g(j + kK) of a TP window, j in Z_K."""

    K: int
    values: tuple[float, ...]
    weights: WeightMultiset

    def to_csv_rows(self):
        yield ("index", "value")
        for j, v in enumerate(self.values):
            yield (j, v)


def _zak_squares(weights: WeightMultiset, N: int, xs: np.ndarray, oms: np.ndarray) -> np.ndarray:
    """(len(oms), len(xs)) grid of Sum_{j<N} |Zg(x, omega + j/N)|^2, by blocks of rows.

    The per-shift tables come first: |P| cos and |P| sin of 2 pi k (omega + j/N)
    as rows 2i and 2i + 1, k over the shifts of ``zak._zak_columns`` (real
    tables, not the complex ``zak._phases``), |P(omega + j/N)| from one prefactor
    call on the (N, omega) grid.  The output is allocated once, next to one scratch
    buffer of ``_BLOCK_NODES`` nodes (the Re and Im of one row, if longer).  For
    each block of omega rows and each shift j, one GEMM against the columns
    B(x + k) writes |P| Re and |P| Im into the buffer, which is squared in place
    and added into the block.  Re and Im are squared after their sums, so the
    zero's cancellation happens in them; a squared autocorrelation sum would
    turn it into noise of order eps * |P Z|^2.
    """
    B = weights.spline
    ks, (bv,) = _zak_columns(B.m, B.table, xs)  # one row block: B's
    om_j = oms + np.arange(N)[:, None] / N  # (N, len(oms)): row j is the shift j
    arg, mod = np.multiply.outer(om_j, 2.0 * np.pi * ks), np.abs(zak_prefactor(weights, om_j))[..., None, None]
    tables = (mod * np.stack((np.cos(arg), np.sin(arg)), axis=2)).reshape(N, 2 * len(oms), len(ks))
    total = np.zeros((len(oms), len(xs)))
    rows = max(1, _BLOCK_NODES // (2 * len(xs)))
    buf = np.empty(2 * rows * len(xs))
    for r in range(0, len(oms), rows):
        block = total[r : r + rows]
        part = buf[: 2 * block.size].reshape(2 * len(block), len(xs))
        for table in tables:
            np.matmul(table[2 * r : 2 * r + len(part)], bv, out=part)
            part *= part
            block += part[0::2]
            block += part[1::2]
    return total


def frame_bounds(
    weights: WeightMultiset,
    N: int,
    resolution: tuple[int, int] = (64, 64),
    refinements: int = 3,
) -> FrameBoundsReport:
    """Grid estimates of the optimal frame bounds for alpha = 1, beta = 1/N.

    When N = 1 and n >= 2 the grid additionally contains the zero (x~, 1/2) of
    the Zak transform, so A_est is exactly zero there.  The refinement
    trace records A_est over ``refinements`` grid doublings; only the
    finest grid is evaluated, and step s reads every 2^(refinements - s)-th
    node of it, which is exact since i/n and 2^d i/(2^d n) round alike.
    Of the finest grid's rows omega_i = i/n only the distinct ones are formed:
    F is 1/N-periodic in omega and even, as Zg(x, -omega) = conj Zg(x, omega)
    for a real window, so with p = n / gcd(N, n) row i equals rows i + p and
    p - i, and rows c = 0..p//2 are distinct.  B_est is their maximum; the
    first argmin in row-major order is that of the full grid, since each
    class's first row is c (of equal rows, the smallest omega wins); and the
    rows i = 0 mod stride of a step fold onto every gcd(stride, p)-th row c.  A
    finest grid of more than 2^22 nodes is refused with ``ValueError`` before
    anything is allocated.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if min(resolution) < 1 or refinements < 0:
        raise ValueError("resolution must be positive and refinements nonnegative")
    n_x, n_w = resolution
    # past 16 doublings any grid exceeds the cap; min() keeps the shift small
    if (n_x * n_w) << (2 * min(refinements, 16)) > _MAX_GRID_NODES:
        raise ValueError(f"a {n_x}x{n_w} grid refined {refinements} times exceeds {_MAX_GRID_NODES} nodes")
    fine_x, fine_w = n_x << refinements, n_w << refinements
    period = fine_w // math.gcd(N, fine_w)  # rows i and i + period, and period - i, are equal
    xs = np.arange(fine_x) / fine_x
    oms = np.arange(period // 2 + 1) / fine_w
    fine = _zak_squares(weights, N, xs, oms)
    extra, zero = [], None
    if N == 1 and weights.n >= 2:
        from .analysis import locate_zero_half

        zero = locate_zero_half(weights)
        extra = [float(_zak_squares(weights, 1, np.array([zero]), np.array([0.5]))[0, 0])]
    trace = []
    for step in range(refinements + 1):
        stride = 1 << (refinements - step)
        res = (n_x << step, n_w << step)
        rows = fine[:: math.gcd(stride, period), ::stride]  # the classes of the rows i = 0 mod stride
        trace.append((res, min([float(rows.min())] + extra)))
    i_w, i_x = divmod(int(np.argmin(fine)), len(xs))
    loc = (zero, 0.5) if extra and extra[0] < fine[i_w, i_x] else (xs[i_x], oms[i_w])
    return FrameBoundsReport(
        N=N,
        grid_resolution=res,
        A_est=trace[-1][1],
        B_est=max([float(fine.max())] + extra),
        min_location=(float(loc[0]), float(loc[1])),
        refinement_trace=tuple(trace),
    )


def periodize_sample(weights: WeightMultiset, K: int) -> DiscreteWindow:
    """Periodized integer samples v_j = Z_K g(j, 0), summed in closed form."""
    if not 1 <= K <= _MAX_GRID_NODES:  # refused before the samples are allocated
        raise ValueError(f"K must be positive and at most {_MAX_GRID_NODES}, got {K}")
    vals = weights.table.lattice_sum(np.arange(K), 0.0, alpha=K)[0].real
    return DiscreteWindow(K=K, values=tuple(float(v) for v in vals), weights=weights)


def discrete_frame_test(window: DiscreteWindow, M: int) -> dict:
    """Frame test of the discrete Gabor system on C^K from its Zak-domain spectrum.

    The system consists of translates by M and modulations by 1/M of the
    window: phi_{k,l}[j] = v[(j - kM) mod K] e^{2 pi i j l / M}.  Its frame
    operator splits into M circulant blocks, so its eigenvalues are
    M |DFT_{K/M}(v[qM + r])[f]|^2 over residues r < M and frequencies f,
    the discrete Zak transform of v.  ``lambda_min_at`` is the point
    (r/M, f/(K/M)) of the discrete Zak domain where the smallest is attained.
    """
    K = window.K
    if M < 1:
        raise ValueError("M must be positive")
    if K % M != 0:
        raise Indivisible(f"M = {M} does not divide K = {K}")
    L = K // M
    spec = M * np.abs(np.fft.fft(np.asarray(window.values).reshape(L, M), axis=0)) ** 2
    f, r = divmod(int(np.argmin(spec)), M)
    lam_min, lam_max = float(spec[f, r]), float(spec.max())
    return {
        "K": K,
        "M": M,
        "lambda_min": lam_min,
        "lambda_max": lam_max,
        "lambda_min_at": [r / M, f / L],
        "is_frame": bool(lam_min > 1e-10 * lam_max),
    }
