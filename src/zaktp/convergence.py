"""Truncation families of TP windows and their convergence observables.

An "infinite type" window is handled operationally: a weight generator
produces prefixes, and convergence is measured between prefixes (Cauchy
style) in the weighted sup norm on the line and uniformly on strips for the
Zak transform.  The limit function itself is never evaluated.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SigmaTooLarge
from .weights import WeightMultiset, _eval_windows, make_weights
from .zak import _check_strip


@dataclass(frozen=True)
class WeightGenerator:
    """Weight sequence rule with a summable inverse-square tail."""

    rule: str  # harmonic | alternating | geometric
    c: float = 1.0
    r: float = 2.0

    def __post_init__(self):
        if self.rule not in ("harmonic", "alternating", "geometric"):
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.c == 0:
            raise ValueError("c must be nonzero")
        if self.rule == "geometric" and self.r <= 1.0:
            raise ValueError("geometric rule needs r > 1")

    @classmethod
    def harmonic(cls, c: float = 1.0) -> "WeightGenerator":
        return cls(rule="harmonic", c=float(c))

    @classmethod
    def alternating(cls, c: float = 1.0) -> "WeightGenerator":
        return cls(rule="alternating", c=float(c))

    @classmethod
    def geometric(cls, c: float = 1.0, r: float = 2.0) -> "WeightGenerator":
        return cls(rule="geometric", c=float(c), r=float(r))

    def weight(self, nu: int) -> float:
        """The nu-th weight, 1-based."""
        if nu < 1:
            raise ValueError("nu is 1-based")
        if self.rule == "harmonic":
            return self.c * nu
        if self.rule == "alternating":
            return self.c * nu * (-1) ** nu
        return self.c * self.r**nu  # geometric

    def square_sum_tail(self, n: int) -> float:
        """Sum of a_nu^{-2} over nu > n, in closed form per rule."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if self.rule in ("harmonic", "alternating"):
            return _trigamma(n + 1.0) / self.c**2
        q = self.r ** (-2)  # geometric
        return q ** (n + 1) / (self.c**2 * (1.0 - q))


# B_2, B_4, ..., B_16
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _trigamma(q: float) -> float:
    """psi_1(q) = sum_{k >= 0} (q + k)^-2 for q >= 1: the recurrence psi_1(q) = psi_1(q + 1)
    + 1/q^2 up to z >= 10, then 1/z + 1/(2 z^2) + sum_{k <= 8} B_2k / z^(2k+1) (DLMF 5.15.8)."""
    shift = max(0, math.ceil(10.0 - q))
    z = q + shift
    w, series = 1.0 / (z * z), 0.0
    for b in reversed(_BERNOULLI):
        series = series * w + b
    out = (1.0 + 0.5 / z + w * series) / z
    for k in reversed(range(shift)):  # the smallest terms first
        out += 1.0 / (q + k) ** 2
    return out


def truncate(gen: WeightGenerator, n: int) -> WeightMultiset:
    """First n weights of the generator as a TP weight multiset."""
    if n < 1:
        raise ValueError("n must be positive")
    return make_weights([gen.weight(nu) for nu in range(1, n + 1)])


def _sup_grid(a0: float, sigma: float, grid: np.ndarray | None = None) -> np.ndarray:
    """Check sigma against a0 and return the grid, by default [-40/a0, 40/a0]."""
    if not sigma >= 0:  # NaN fails too
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if sigma >= a0:
        raise SigmaTooLarge(f"sigma = {sigma} >= a0 = {a0}")
    if grid is None:
        R = 40.0 / a0
        grid = np.linspace(-R, R, 4001)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("the grid must hold at least one point, and only finite ones")
    return grid


def _sup_distance(vals_n: np.ndarray, vals_m: np.ndarray, grid: np.ndarray, sigma: float) -> float:
    diff = np.abs(vals_n - vals_m)
    with np.errstate(over="ignore", invalid="ignore"):  # where e^{sigma |x|} overflows, both windows are 0
        weighted = diff * np.exp(sigma * np.abs(grid))
    return float(np.max(weighted, where=diff != 0.0, initial=0.0))


def weighted_sup_distance(
    w_n: WeightMultiset,
    w_m: WeightMultiset,
    sigma: float,
    grid: np.ndarray | None = None,
) -> float:
    """max over the grid of |g_n(x) - g_m(x)| e^{sigma |x|}.

    The default grid covers [-R, R] with R = 40 / a0, where the windows are
    below 4e-18 of their peak; a given grid must be nonempty and finite.  The
    pair is evaluated together, sharing one divided-difference recursion where
    one window's cluster nodes are a run of the other's, with the bits of two
    :func:`~zaktp.weights.eval_tp` calls.
    """
    grid = _sup_grid(min(w_n.a0, w_m.a0), sigma, grid)
    return _sup_distance(*_eval_windows([w_n, w_m], grid), grid, sigma)


def zak_strip_distance(w_n: WeightMultiset, w_m: WeightMultiset, xi: float) -> float:
    """max |Zg_n - Zg_m| over [0,1) x [-xi, xi], from the closed-form lattice sums
    (``IllConditioned`` where they refuse): 64 x, 9 tau and omega in {0, 1/4, 1/2, 3/4}, where
    3/4 is not summed: real windows have conj Zg(x, s) = Zg(x, -conj(s)) = Zg(x, 1 - conj(s)),
    so the moduli at 3/4 + i tau are those at 1/4 + i tau (up to the lattice sums' rounding)."""
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    _check_strip(min(w_n, w_m, key=lambda w: w.a0), xi)
    return float(np.max(np.abs(_strip_values(w_n, float(xi)) - _strip_values(w_m, float(xi)))))


@functools.lru_cache(maxsize=2)  # of samples, not of a representation (the window holds its table)
def _strip_values(weights: WeightMultiset, xi: float) -> np.ndarray:
    """Zg on the strip grid, (9, 3, 64), omega in {0, 1/4, 1/2}; a sweep pairs each prefix with one reference."""
    xs = np.arange(64) / 64
    taus = np.linspace(-xi, xi, 9) if xi > 0 else np.asarray([0.0])
    out = weights.table.lattice_sum(xs, np.add.outer(1j * taus, [0.0, 0.25, 0.5]))[0]
    out.setflags(write=False)
    return out


def psi_decay_diagnostic(
    weights: WeightMultiset,
    omega: float,
    tau_samples: Sequence[float],
    p: int,
) -> float:
    """Fitted log-log slope of |1/Psi(omega + i tau)| against |tau|.

    The bound |1/Psi| <= M_p |tau|^{-p} (p <= n) predicts a slope <= -p;
    the constant is unknown, so only the exponent is diagnostic.
    """
    if p > weights.n:
        raise ValueError(f"p = {p} exceeds the number of weights n = {weights.n}")
    taus = np.asarray(tau_samples, dtype=float)
    # one distinct |tau| leaves the slope undetermined: polyfit would warn and return noise
    distinct = len(set(np.abs(taus).tolist()))  # not np.unique, whose first call imports numpy.ma
    if distinct < 2 or not (math.isfinite(omega) and np.all(np.isfinite(taus)) and np.all(taus != 0)):
        raise ValueError("need a finite omega and at least two tau samples, finite, nonzero and of distinct |tau|")
    # log|1/Psi| accumulated in log space to avoid overflow for large tau
    log_inv = np.zeros(taus.shape)
    for a in weights.raw:
        s = omega + 1j * taus
        log_inv -= np.log(np.abs(1.0 + s / a)) - omega / a
    slope = np.polyfit(np.log(np.abs(taus)), log_inv, 1)[0]
    return float(slope)


def convergence_sweep(
    gen: WeightGenerator,
    ns: Sequence[int],
    sigma: float | None = None,
    n_ref: int = 64,
) -> list[tuple[int, float, float, float]]:
    """Rows (n, sigma, distance to the n_ref prefix, tail proxy) for a sweep.

    Each distance is :func:`weighted_sup_distance` on its default grid, which
    depends only on min(a0) of the pair.  The n_ref prefix and every prefix on
    a grid are evaluated together, once per distinct grid: where their cluster
    nodes are runs of the widest one's (harmonic, alternating and geometric
    prefixes), one divided-difference recursion serves them all, and the rows
    are unchanged, bit for bit.
    """
    ref = truncate(gen, n_ref)
    grids = {}  # min(a0) -> (default grid, sigma, {n: prefix on it})
    for n in ns:
        w = truncate(gen, n)
        a0 = min(w.a0, ref.a0)
        if a0 not in grids:
            sig = 0.5 * a0 if sigma is None else sigma
            grids[a0] = (_sup_grid(a0, sig), sig, {})
        grids[a0][2][n] = w
    dist = {}  # n -> (sigma, distance)
    for grid, sig, prefixes in grids.values():
        ref_vals, *vals = _eval_windows([ref, *prefixes.values()], grid)
        dist.update((n, (sig, _sup_distance(v, ref_vals, grid, sig))) for n, v in zip(prefixes, vals))
    return [(int(n), float(dist[n][0]), dist[n][1], gen.square_sum_tail(n)) for n in ns]
