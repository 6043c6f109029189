"""Zak transforms of TP windows and splines, in closed form.

Two independent routes, one per representation the window carries.  The direct
route sums its partial fractions ``window.table`` over the lattice in closed
form and states its rounding bound; where crowded weights make the bound pass
1e-10 max(1, |Z|) it raises ``IllConditioned`` instead.  The factorized route
is the finite sum Z B(x, s) = sum_k e^{-2 pi i k s} B(x + k) over the spline
factor B = ``window.spline``; every such sum takes its columns from
:func:`_zak_columns` and its phases from :func:`_phases`.  The argument may be
complex, s = omega + i*tau, inside the strip |tau| < a0 / (2*pi).
"""
from __future__ import annotations

import cmath
import contextlib
import functools
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .ebspline import _FAR_FACTOR, _PI, ExpPolyTable, PiecewiseExpPoly, _like_input
from .errors import IllConditioned, PoleHit, StripViolation
from .weights import WeightMultiset, make_weights

_STRIP_MARGIN = 1e-6
_MAX_GRID_NODES = 1 << 22
_EXP_MAX = float(np.log(np.finfo(float).max))  # e^x overflows above this, about 709.78


def _check_strip(weights: WeightMultiset, tau: float):
    edge = weights.a0 / (2.0 * np.pi)
    if not abs(tau) < (1.0 - _STRIP_MARGIN) * edge:  # NaN fails too
        raise StripViolation(
            f"|tau| = {abs(tau):.6g} is outside the open strip (edge {edge:.6g})"
        )


def zak_tp(weights: WeightMultiset, x: float, s) -> complex:
    """Zak transform of the TP window by the direct lattice sum (the oracle route),
    in closed form; ``weights.table.lattice_sum`` also gives its rounding bound."""
    sc = complex(s)
    _check_strip(weights, sc.imag)
    return complex(weights.table.lattice_sum(float(x), sc)[0])


def _zak_columns(m: int, table: ExpPolyTable, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ks, X) of Z f(x, s) = sum_k e^{-2 pi i k s} f(x + k), f the pieces of ``table``
    in row blocks of m: X[r, i, j] is piece ks[i] + floor(x_j) of block r at the exact
    local coordinate x_j - floor(x_j), ks = -max floor .. m - 1 - min floor.  Points of
    one floor share one ``pieces_at`` call; with one floor, X is that call's array."""
    fl = np.floor(x)
    lo, hi = (int(fl.min()), int(fl.max())) if fl.size else (0, 0)
    ks, t, shape = np.arange(-hi, m - lo), x - fl, (len(table.coeffs) // m, m, len(x))
    if lo == hi:
        return ks, table.pieces_at(t).reshape(shape)
    X = np.zeros((shape[0], len(ks), len(x)), table.coeffs.dtype)
    for f in set(fl.astype(int).tolist()):  # not np.unique, whose first call imports numpy.ma
        cols = np.flatnonzero(fl == f)
        X[:, hi - f : hi - f + m, cols] = table.pieces_at(t[cols]).reshape(shape[:2] + cols.shape)
    return ks, X


def _phases(s, ks: np.ndarray) -> np.ndarray:
    """e^{-2 pi i k s}, shaped s.shape + ks.shape: the phases of every Zak sum of a spline."""
    return np.exp(-2j * np.pi * np.multiply.outer(s, ks))


def zak_ebspline(B: PiecewiseExpPoly, x, s) -> complex | np.ndarray:
    """Zak transform of a compactly supported spline: exact finite sum, vectorized over x.

    x and s must be finite (``ValueError`` otherwise).  The columns are formed at
    x - floor(x), m rows for any x, times e^{2 pi i floor(x) s} where the floor is not 0;
    :class:`IllConditioned` where that factor takes Z B past the double range.
    """
    sc, xs = complex(s), np.atleast_1d(np.asarray(x, dtype=float))
    if not (cmath.isfinite(sc) and np.isfinite(xs).all()):
        name, v = ("s", s) if not cmath.isfinite(sc) else ("x", float(xs[~np.isfinite(xs)][0]))
        raise ValueError(f"the Zak transform needs a finite x and s, got {name} = {v!r}")
    n_shift = np.floor(xs)
    ks, X = _zak_columns(B.m, B.table, xs - n_shift)
    out, far = _phases(sc, ks) @ X[0], np.flatnonzero(n_shift)
    if far.size:
        with np.errstate(over="ignore", invalid="ignore"):  # n s and the product in extended precision; past doubles: refused
            out[far] = (out[far] * np.exp(2j * _PI * n_shift[far].astype(_PI.dtype) * sc)).astype(complex)
        if not np.isfinite(out[far]).all():
            raise IllConditioned(_FAR_FACTOR)
    return _like_input(x, out)


def zak_prefactor(weights: WeightMultiset, s) -> complex | np.ndarray:
    """The factor prod a_nu / (1 - e^{-(a_nu + 2 pi i s)}) of the factorization, vectorized over s.

    An ndarray s takes the array path, one call per grid: the frame kernel
    ``frames._zak_squares`` (its (N, omega) grid of shifts, for |P|),
    ``compute_zak_grid`` and the certificate scan; scalars serve
    ``zak_factorized`` (inversion and dilation checks).  Where e^{-(a + 2 pi i s)}
    leaves the double range (a weight below about -709 on the real line), or the
    product of finite factors does, :class:`IllConditioned` is raised, with no warning.
    """
    vec = isinstance(s, np.ndarray)  # a scalar stays off 0-d arrays, which cost ~6x per call
    sc = s.astype(complex) if vec else complex(s)
    # Re -(a + 2 pi i s) = 2 pi Im s - a, as the exponent below rounds it
    edge = 2.0 * np.pi * (sc.imag.max(initial=-np.inf) if vec else sc.imag)
    out = 1.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore") if vec else contextlib.nullcontext():
        for a in weights.raw:
            if edge - a > _EXP_MAX:
                raise IllConditioned(f"prefactor weight {a}: e^-(a + 2 pi i s) leaves the double range")
            denom = 1.0 - np.exp(-(a + 2j * np.pi * sc))
            pole = abs(denom) < 1e-14
            if pole.any() if vec else pole:
                at = sc[pole].flat[0] if vec else sc
                raise PoleHit(f"prefactor denominator vanishes for weight {a} at s = {complex(at)}")
            out *= a / denom if vec else complex(a / denom)  # Python's product: NumPy's bits, no warning
    if not (np.isfinite(out).all() if vec else cmath.isfinite(out)):
        raise IllConditioned(f"the prefactor's product over {weights.n} weights is not finite: it leaves the double range")
    return out


def zak_factorized(weights: WeightMultiset, x, s) -> complex | np.ndarray:
    """Zak transform via the spline factorization (exact, preferred for scans)."""
    zb = zak_ebspline(weights.spline, x, s)  # first: a spline past the double range or a non-finite x, s refuses before P
    return zak_prefactor(weights, s) * zb


_QUAD_POINTS = 256  # Gauss-Legendre nodes of zak_inversion_check


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights on [-1, 1], made (numpy.polynomial imported) on first use
    rather than at import; every caller shares them, so read-only."""
    from numpy.polynomial.legendre import leggauss
    nodes, wts = leggauss(_QUAD_POINTS)
    nodes.setflags(write=False)
    wts.setflags(write=False)
    return nodes, wts


def zak_inversion_check(weights: WeightMultiset, omega: float) -> complex:
    """Gauss-Legendre quadrature of Z g(x, w) e^{-2 pi i x w} over one period.

    The caller compares the result with the Fourier transform at w.
    """
    nodes, wts = _gauss_legendre()
    x = 0.5 * (nodes + 1.0)
    vals = zak_factorized(weights, x, omega) * np.exp(-2j * np.pi * x * omega)
    return complex(np.sum(0.5 * wts * vals))


def zak_dilation_check(
    weights: WeightMultiset, alpha: float, x: float, omega: float
) -> dict[str, tuple[complex, complex]]:
    """Evaluate both sides of the scaling identity (d), each by an independent
    route.  The alpha-lattice sum Z_alpha g is the closed-form lattice sum of the
    partial fractions; the right side goes through the spline factorization.

    (d):  Z_alpha g(x, w)  vs  Z_1 g(alpha .)(x/alpha, alpha w)
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    lhs = complex(weights.table.lattice_sum(x, omega, alpha)[0])
    scaled = make_weights([alpha * a for a in weights.raw], coalesce_tol=0.0)
    rhs = zak_factorized(scaled, x / alpha, alpha * omega) / alpha
    return {"d": (lhs, complex(rhs))}


# ---------------------------------------------------------------------------
# Grid scans


@dataclass(frozen=True)
class ZakGrid:
    """Sampled Zak values over a rectangle inside the lattice cell [0,1)^2."""

    x_samples: tuple[float, ...]
    omega_samples: tuple[float, ...]
    tau: float
    values: np.ndarray = field(repr=False)  # shape (n_omega, n_x)
    tail_bound: float  # direct: its rounding bound; factorized: 0.0 (a finite sum)
    source: str  # "direct_series" | "ebspline_factorized"

    def to_csv_rows(self):
        yield ("x", "omega", "tau", "re", "im", "abs")
        for i, om in enumerate(self.omega_samples):
            for j, xx in enumerate(self.x_samples):
                v = self.values[i, j]
                yield (xx, om, self.tau, v.real, v.imag, abs(v))

    def to_json_dict(self):  # the fields but the values, in order, then the values as their re and im rows
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "values"}
        return {"schema": "zakgrid/1", **d, "re": self.values.real.tolist(), "im": self.values.imag.tolist()}


def compute_zak_grid(
    weights: WeightMultiset,
    x_samples: Sequence[float],
    omega_samples: Sequence[float],
    tau: float = 0.0,
    source: str = "ebspline_factorized",
) -> ZakGrid:
    """Scan the Zak transform over a rectangle of one lattice cell.

    Both sources evaluate the whole grid at once; a grid without nodes, of
    more than 2^22, or with a sample outside the cell (NaN included) is
    refused with ``ValueError`` before it is allocated.
    """
    xs = np.asarray(x_samples, dtype=float)
    oms = np.asarray(omega_samples, dtype=float)
    if xs.size == 0 or oms.size == 0:
        raise ValueError("the grid needs at least one x and one omega sample")
    if len(xs) * len(oms) > _MAX_GRID_NODES:
        raise ValueError(f"a {len(xs)}x{len(oms)} grid exceeds {_MAX_GRID_NODES} nodes")
    if not (np.all((xs >= 0) & (xs < 1)) and np.all((oms >= 0) & (oms < 1))):  # NaN fails too
        raise ValueError("grid must lie within the lattice cell [0,1) x [0,1)")
    _check_strip(weights, tau)
    if source == "ebspline_factorized":
        B, s = weights.spline, oms + 1j * tau  # B first, as in zak_factorized
        ks, X = _zak_columns(B.m, B.table, xs)
        values, tail = zak_prefactor(weights, s)[:, None] * (_phases(s, ks) @ X[0]), 0.0
    elif source == "direct_series":
        values, bound = weights.table.lattice_sum(xs, oms + 1j * tau)
        tail = float(bound.max(initial=0.0))
    else:
        raise ValueError(f"unknown source {source!r}")
    return ZakGrid(
        x_samples=tuple(float(v) for v in xs),
        omega_samples=tuple(float(v) for v in oms),
        tau=float(tau),
        values=values,
        tail_bound=tail,
        source=source,
    )
