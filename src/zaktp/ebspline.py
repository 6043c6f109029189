"""Exponential B-splines by exact convolution, on one exp-poly term table.

A TP window of finite type and its exponential B-spline are both sums
p(t) e^{eta t} over one exponent set: the window on each half-line (its
partial fractions, ``weights.exp_sum_rep``), the spline on each unit interval.
:class:`ExpPolyTable` holds such sums as arrays and evaluates, reduces and
Zak-sums them, and sums a window's table over a lattice in closed form;
both representations run on it.

A spline with weight vector (lambda_1, ..., lambda_m) is the m-fold
convolution of the functions e^{lambda_j t} chi_[0,1).  Each convolution step
is carried out in closed form on the whole (piece, term, degree) table at once,
so no quadrature error enters any downstream identity; the constants a step
leaves in its own slot are summed in the recorded order their terms arose, and
e^eta is math.exp, so every coefficient keeps the bits of the earlier per-term
loop (``build_ebspline``).  Pieces live on local coordinates t = x - k in [0,1),
and every piece carries every distinct lambda, with degree below its multiplicity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import IllConditioned

_PI = np.longdouble("3.14159265358979323846264338327950288")
_COALESCE_TOL = 1e-9  # weights this close share a cluster: spline weights, make_weights' default
_UNDERFLOW = -746.0  # np.exp is exactly +0 below this: e^-746 is under half the least subnormal, e^-744.4
_FAR_FACTOR = "the quasi-periodic factor e^(2 pi i floor(x) s) takes the Zak transform past the double range"


def cluster_values(vals: Sequence[float], tol: float):
    """Chain-cluster ``vals`` (sorted neighbours at most ``tol`` apart share a
    cluster): ascending (mean, multiplicity) pairs, and each entry's cluster index."""
    labels = [0] * len(vals)
    groups: list[list[float]] = []
    for idx in np.argsort(vals):
        v = vals[idx]
        if groups and v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
        labels[idx] = len(groups) - 1
    # the mean as an offset from the first member: a run of equal values keeps its value
    return tuple((g[0] + math.fsum(v - g[0] for v in g) / len(g), len(g)) for g in groups), labels


def _spline_weights(values: Sequence[float]) -> tuple[list[float], tuple[tuple[float, int], ...]]:
    """A spline weight vector (zeros allowed, unlike TP weights) checked and clustered as by
    ``make_weights``: the entries, each its cluster's mean, and the ascending clusters."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("weight vector is empty")
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"weight {v!r} is not finite")
    clusters, labels = cluster_values(vals, _COALESCE_TOL)
    return [clusters[i][0] for i in labels], clusters


def _like_input(x, out: np.ndarray):
    """``out`` for an array ``x``; for a scalar ``x``, its one value as a Python float or complex."""
    if np.ndim(x):
        return out
    return (complex if out.dtype.kind == "c" else float)(out.flat[0])


class ExpPolyTable:
    """Pieces of sums of p(t) e^{eta t} over one exponent set, as arrays.

    ``etas`` (T,) lists the exponents in summation order; ``coeffs`` (P, T, D)
    holds the ascending coefficients of each term on each piece, zero-padded
    to D, and carries the table's dtype.  A term that is zero on a piece is
    skipped there.
    """

    def __init__(self, etas, coeffs):
        self.etas = np.asarray(etas, dtype=float)
        self.coeffs = np.asarray(coeffs)
        self._live_mask = np.any(self.coeffs != 0, axis=-1)  # (P, T)
        # on |t| <= 1, e^{eta t} underflows only if |eta| > 746: a spline's table (t in [0, 1)) never skips
        self._may_underflow = bool(np.any(np.abs(self.etas) > -_UNDERFLOW))

    def _keep(self, eta: float, t: np.ndarray, span: float):
        """Where a term of exponent eta is added at the points t, span = max |t| (0
        on a table whose terms cannot underflow on |t| <= 1).

        On a wide table a term whose |eta| span reaches 746 is added only where
        eta t >= -746 (NaN included).  Elsewhere np.exp(eta t) is exactly +0 and the
        product is +-0, and adding +-0 changes no bit: the sum starts at +0 and
        never becomes -0 (x + -x is +0), so +0 + -0 = +0 and v + (+-0) = v.  The
        only difference is at a Horner value that overflows, where inf * 0 was NaN.
        """
        with np.errstate(over="ignore"):  # an eta t past the double range is -inf: skipped
            return slice(None) if abs(eta) * span < -_UNDERFLOW else np.flatnonzero(~(eta * t < _UNDERFLOW))

    def pieces_at(self, t: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """The pieces ``rows`` (every piece by default) at the same 1-D points t,
        shape (len(rows), len(t)): the table's one evaluator.  Each e^{eta t} a live
        term needs is formed once and shared by the pieces (at most T np.exp calls,
        not P T); each piece adds padded Horner times it in slot order, where
        ``_keep`` says (without a skip, all rows at once).  No (T, n) array is formed.
        Each ``_keep`` set is found inside that of the same-sign term with the next
        smaller |eta|: rounded products are monotone in eta, so the sets nest."""
        coeffs, live = self.coeffs[rows], self._live_mask[rows]
        out = np.zeros((len(coeffs), len(t)), coeffs.dtype)
        span = np.max(np.abs(t), initial=0.0) if self._may_underflow else 0.0
        etas, keeps, chain = self.etas.tolist(), {}, {}  # chain: per sign, the last set found and its points
        for j in sorted(np.flatnonzero(live.any(axis=0) & self._may_underflow).tolist(), key=lambda j: abs(etas[j])):
            keep, tp = chain.get(etas[j] > 0, (slice(None), t))
            local = self._keep(etas[j], tp, span)  # a slice only while no smaller |eta| skipped
            if not isinstance(local, slice):
                keep = local if isinstance(keep, slice) else keep[local]
                chain[etas[j] > 0] = keep, tp[local]
            keeps[j] = keep
        terms = zip(etas, coeffs.transpose(1, 0, 2), live.T, live.sum(axis=0).tolist())
        for j, (eta, c, ps, n_live) in enumerate(terms):  # per term: its exponent, its (P, D) rows, which are live
            if not n_live:
                continue
            if self._may_underflow:
                keep = keeps.pop(j)  # released once added
                tk = t[keep]
                e = np.exp(eta * tk)
                for p in np.flatnonzero(ps):
                    out[p][keep] += _horner(c[p], tk) * e
            elif n_live == len(c):
                out += _horner(c, t) * np.exp(eta * t)
            else:
                out[ps] += _horner(c[ps], t) * np.exp(eta * t)
        return out

    def eval(self, piece, t) -> np.ndarray:
        """The terms of ``piece`` at t.  ``piece`` is an int or an int array
        shaped like t; indices outside the table give 0."""
        t = np.asarray(t, dtype=float)
        piece = np.broadcast_to(piece, t.shape)
        out = np.zeros(t.shape, self.coeffs.dtype)
        for p in range(len(self.coeffs)):
            sel = piece == p
            if np.any(sel):
                out[sel] = self.pieces_at(t[sel], slice(p, p + 1))[0]
        return out

    def reduce(self, eta0: float) -> "ExpPolyTable":
        """Each term p(t) e^{eta t} becomes (p' + (eta - eta0) p)(t) e^{eta t}."""
        out = (self.etas - eta0)[:, None] * self.coeffs
        out[..., :-1] += self.coeffs[..., 1:] * np.arange(1, self.coeffs.shape[-1])
        return ExpPolyTable(self.etas, out)

    def lattice_sum(self, x, s, alpha: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Sum_k f(x + alpha k) e^{-2 pi i k alpha s} in closed form and its rounding bound,
        shaped s.shape + x.shape; :class:`IllConditioned` where the bound passes
        1e-10 max(1, |Z|), as the partial fractions of crowded weights cancel, and
        where the shift's factor e^{2 pi i floor(x) s} takes a finite Z past the double range.

        f is a window's two-piece table (piece 0 on y < 0, piece 1 on y >= 0), each
        term decaying on its half-line, as inside the strip |Im s| < a0 / (2 pi).  From
        y0 = x + alpha k0 in [0, alpha) a term sums p(y0 + h m) e^{eta y0} q^m, m >= 0:
        h = alpha, q = e^{h (eta - 2 pi i s)} on the right, h = -alpha from y0 - alpha
        on the left.  By Taylor's formula that is e^{eta y0} Sum_i h^i p^(i)(y0)/i! S_i(q),
        S_i(q) = Sum_m m^i q^m = q A_i(q)/(1 - q)^(i+1) (Eulerian A_i): a factor in x times
        one in s, so one matrix product, in the coefficients' precision.  Inside the strip
        Im z = -h Im(2 pi i s) of z = log q is one row for all terms, so ``_moments`` forms
        its cosines and sines once per column.  kappa, the same sum over the terms' moduli,
        bounds each quantity on the way by its share.  The bound is (4 T D + 16) unit
        roundoffs of kappa (coefficients good to 2 T D units, Horner, moments, the sum), plus
        kappa_exp, the shares weighted by the exponents rounded on the way (eta y, h (eta -
        2 pi i s) via dS_i/dz = S_(i+1), the phases), plus 2^-52 |Z| for the rounding to complex128."""
        xs, ss = np.asarray(x, dtype=float), np.asarray(s, dtype=complex)
        xf, sf = xs.ravel(), ss.ravel()
        # y0 = fmod(x, alpha) (+ alpha) is exact but for the last addition, made in
        # the table's precision: a shift of y0 moves every term by |eta| times it
        real = self.coeffs.real.dtype.type
        r = np.fmod(xf, alpha)
        y0 = r.astype(real) + np.where(r < 0, alpha, 0.0)
        k0 = np.rint((r - xf) / alpha) + (r < 0)
        w = 2 * real(_PI) * 1j * sf.astype(np.result_type(real, complex))  # 2 pi i s, rounded once
        T, D = self.coeffs.shape[1:]
        parts = []  # per block of terms: factors in s and in x of Z, kappa and kappa_exp
        for p, h, y, pre in ((1, alpha, 0.0, 0.0), (0, -alpha, -alpha, alpha * w)):
            etas, c = self.etas[self._live_mask[p]], self.coeffs[p, self._live_mask[p]]
            if not len(etas):
                continue
            etas, y = etas.astype(real), y0 + y
            z = h * (etas[:, None] - w)  # (T, Ns): q = e^z
            eta_y = np.multiply.outer(etas, y)  # (T, Nx)
            ey, (moments, bounds) = np.exp(eta_y), _moments(z.real, z[0].imag, D)
            for i in range(D):
                taylor = c[:, i:] * [math.comb(j, i) for j in range(i, D)]
                scale, mod = np.exp(np.real(pre)) * abs(h) ** i, _horner(np.abs(taylor), np.abs(y)) * ey
                f_exp = scale * (np.abs(pre) * bounds[i] + 2 * np.abs(z) * bounds[i + 1])
                parts.append((np.exp(pre) * h**i * moments[i], _horner(taylor, y) * ey,
                              scale * bounds[i], mod, f_exp, mod * np.abs(eta_y)))
        shape = ss.shape + xs.shape
        if not parts:
            return np.zeros(shape, complex), np.zeros(shape)
        fs, es, *rest = (np.concatenate(v) for v in zip(*parts))
        out = fs.T @ es
        fa, ea, fx, ex = (v.astype(float) for v in rest)  # no cancellation: doubles do
        kappa, kappa_exp = fa.T @ ea, fx.T @ ea + fa.T @ ex
        if np.any(k0):  # kappa grows in the coefficients' precision: it may pass the double range where Z does not
            finite = np.isfinite(out)
            with np.errstate(over="ignore", invalid="ignore"):  # a finite Z that the factor takes past the range is refused
                shift = np.multiply.outer(-alpha * w, k0)
                out *= np.exp(shift)
                grow = np.exp(shift.real)
                kappa, kappa_exp = kappa * grow, (kappa_exp + np.abs(shift) * kappa) * grow
                out = out.astype(complex)
            if not np.isfinite(out[finite]).all():
                raise IllConditioned(_FAR_FACTOR)
        out = out.astype(complex, copy=False)
        unit = np.finfo(real).eps / 2
        bound = (unit * ((4 * T * D + 16) * kappa + kappa_exp) + 2.0**-52 * np.abs(out)).astype(float)
        worst = float(np.max(bound / np.maximum(1.0, np.abs(out)), initial=0.0))
        if not worst <= 1e-10:  # a NaN bound refuses too
            raise IllConditioned(
                f"partial fractions cancel: the lattice sum's rounding bound is {worst:.3e} "
                "x max(1, |Z|), above 1e-10; the weights are too crowded"
            )
        return out.reshape(shape), bound.reshape(shape)


def _horner(coeffs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row of ascending ``coeffs`` (..., d) at the points y; (..., 1) when d = 1."""
    acc = coeffs[..., -1:]
    for d in range(coeffs.shape[-1] - 2, -1, -1):
        acc = acc * y + coeffs[..., d : d + 1]
    return acc


def _moments(x: np.ndarray, y: np.ndarray, count: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """S_i(q) = Sum_m m^i q^m = q A_i(q) / (1 - q)^(i+1) (Eulerian A_i) for i < count at q = e^(x + i y),
    and for i <= count at q = e^x, x < 0.  y is one row, Im z in every row of x: cos y, sin y and
    sin(y/2) are formed once per column, and q and 1 - q have the bits of np.exp(z) and -np.expm1(z),
    by NumPy's formula e^z - 1 = (e^x - 1) cos y - 2 sin^2(y/2) + i e^x sin y (no cancellation)."""
    em1, ex, cos, sin, half = np.expm1(x), np.exp(x), np.cos(y), np.sin(y), np.sin(y / 2)
    q, omq = np.empty((2,) + x.shape, np.result_type(x, 1j))
    q.real, q.imag, omq.real, omq.imag = ex * cos, ex * sin, -(em1 * cos - 2 * half * half), -(ex * sin)
    return tuple([1.0 / o] + [p * _horner(_eulerian(i), p) / o ** (i + 1) for i in range(1, n)]
                 for p, o, n in ((q, omq, count), (ex, -em1, count + 1)))


def _eulerian(i: int) -> np.ndarray:
    """Ascending coefficients A(i, k) = sum_j (-1)^j C(i+1, j) (k+1-j)^i of the Eulerian A_i."""
    return np.array([sum((-1) ** j * math.comb(i + 1, j) * (k + 1 - j) ** i for j in range(k + 2)) for k in range(i)], float)


@dataclass(frozen=True)
class PiecewiseExpPoly:
    """Piecewise sums of poly(t) * e^{eta t} on unit knot intervals.

    ``pieces[k]`` is a tuple of (eta, ascending coefficients) terms valid for
    x in [k, k+1) with local coordinate t = x - k; support is exactly [0, m].
    Coefficients may be real or complex.  ``table`` is derived from the
    pieces, with the exponents ascending.  Two memos, which equality, hash,
    repr and ``replace`` ignore: ``half_zeros`` keeps, per tol, the zero of
    Z(., 1/2) that ``analysis.locate_zero_half`` found to it; ``series`` keeps
    the B/B'/B'' stack ``analysis._series_tables`` hands ``zak._zak_columns`` and
    the read-only tables of its last scan, at most 8,192 samples (64 KiB) each.
    """

    pieces: tuple[tuple[tuple[float, tuple], ...], ...]
    table: ExpPolyTable = field(init=False, repr=False, compare=False)
    half_zeros: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    series: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        etas = sorted({eta for piece in self.pieces for eta, _ in piece})
        slot = {eta: i for i, eta in enumerate(etas)}
        terms = [(k, slot[eta], c) for k, piece in enumerate(self.pieces) for eta, c in piece]
        ks, slots, cs = zip(*terms) if terms else ((), (), ())
        lens = np.array([len(c) for c in cs], dtype=int)
        values = np.array([v for c in cs for v in c])
        coeffs = np.zeros((len(self.pieces), len(etas), max(lens.tolist(), default=1)), np.result_type(float, values))
        index = np.repeat(ks, lens), np.repeat(slots, lens), np.arange(len(values)) - np.repeat(np.cumsum(lens) - lens, lens)
        np.add.at(coeffs, index, values)  # unbuffered: each coefficient sums its terms in order, from +0
        object.__setattr__(self, "table", ExpPolyTable(etas, coeffs))

    @classmethod
    def from_table(cls, table: ExpPolyTable) -> "PiecewiseExpPoly":
        """The piecewise sum with the table's pieces, trailing zeros trimmed."""
        c = table.coeffs
        lengths = ((c != 0) * np.arange(1, c.shape[-1] + 1)).max(axis=-1, initial=0).tolist()
        etas, zero = table.etas.tolist(), (c.dtype.type(0).item(),)
        return cls(tuple(
            tuple((eta, tuple(row[:n]) or zero) for eta, row, n in zip(etas, rows, ns))
            for rows, ns in zip(c.tolist(), lengths)
        ))

    @property
    def m(self) -> int:
        return len(self.pieces)

    def __call__(self, x):
        return eval_ebspline(self, x)


def _convolve_step(coeffs: np.ndarray, rank: np.ndarray, etas: np.ndarray, ex: np.ndarray, s: int):
    """Convolve the pieces ``coeffs`` (P, T, D) with e^{lam t} chi_[0,1), lam = etas[s], ex = e^etas.

    A term p e^{eta t} has the factor G, d/dv [G e^{(eta - lam) v}] = p e^{(eta - lam) v}:
    G = sum_k (-1)^k p^(k) / (eta - lam)^(k+1), or G = int p for eta = lam (its degree
    stays below the multiplicity).  Piece j gets G e^{eta t} (the A-part), piece j + 1
    gets -e^lam G e^{eta t} (the B-part), and slot s gets the constants -G(0) and
    e^eta G(1): in new piece j, those of old piece j - 1 by its ``rank``, then those of
    old piece j by its own.  ``rank`` (P, T) orders each piece's slots by arrival, inf
    where a slot has not arisen (its coefficients and constants are exact zeros).
    """
    P, T, D = coeffs.shape
    lam = etas[s]
    pw = np.empty((T, D))
    pw[:, 0] = etas - lam
    try:
        for k in range(2, D + 1):
            pw[:, k - 1] = [c**k for c in pw[:, 0].tolist()]
    except OverflowError:
        pw[:] = 0.0
    pw[s] = 1.0
    if not pw.all():  # float ** overflowed, or a power underflowed to 0: G would not be finite
        raise IllConditioned(f"spline weight {float(lam)!r}: a power of its gap to another weight leaves the double range")
    G, term = np.zeros((P, T, D)), coeffs
    for k in range(D):
        G[..., : D - k] += (-1.0) ** k * term / pw[:, k, None]
        term = term[..., 1:] * np.arange(1.0, D - k)
    G[:, s, 1:] = coeffs[:, s, :-1] / np.arange(1.0, D)
    G[:, s, 0] = 0.0
    new = np.zeros((P + 1, T, D))
    new[:-1] = G
    new[1:] -= ex[s] * G
    # per new piece: B-part constants in columns [0, T), A-part ones in (T, 2T]; T and -1 mask unarisen slots
    at, rows = np.where(rank < np.inf, rank, T).astype(int), np.arange(P)[:, None]
    consts = np.zeros((P + 1, 2 * T + 2))
    consts[rows + 1, at] = ex * _horner(G, 1.0)[..., 0]
    consts[rows, T + 1 + at] = -_horner(G, 0.0)[..., 0]
    consts[:, T] = consts[:, -1] = 0.0
    new[:, s, 0] = np.cumsum(consts, axis=1)[:, -1] + 0.0  # + 0.0: a sum from 0 is never -0
    # arrivals in new piece j: a term of rank r in old piece j - 1 adds to slot s, then to
    # its own, at 2r, 2r + 1; one in old piece j to its own, then to s, at 2T + 2r, 2T + 2r + 1
    pad = np.full((P + 2, T), np.inf)
    pad[1:-1] = rank
    prev, cur = pad[:-1], pad[1:]
    arrival = np.minimum(2 * prev + 1, 2 * T + 2 * cur)
    arrival[:, s] = np.minimum(2 * prev.min(axis=1), 2 * T + 2 * cur.min(axis=1) + 1)
    return new, np.where(arrival < np.inf, np.argsort(np.argsort(arrival, axis=1), axis=1), np.inf)


def build_ebspline(lam: Sequence[float]) -> PiecewiseExpPoly:
    """Construct the spline for the weight vector by exact convolution, one array
    step (``_convolve_step``) per weight after the first.

    Each coefficient is the same floating-point sum as in the per-term loop the step
    replaced: slot s's constants are added in the recorded order their terms arose,
    with one sequential cumsum, and each e^eta and (eta - lam)^k is a Python scalar
    (math.exp, float **), as NumPy's SIMD exp and power round some last bits
    differently.  :class:`IllConditioned`, naming a weight, where an e^eta, a power
    or a coefficient leaves the double range.
    """
    lambdas, clusters = _spline_weights(lam)
    etas = np.array([b for b, _ in clusters])
    try:
        ex = np.array([math.exp(eta) for eta in etas.tolist()])
    except OverflowError:
        raise IllConditioned(f"spline weight {float(etas[-1])!r}: e^{float(etas[-1])!r} leaves the double range") from None
    slot = {eta: i for i, eta in enumerate(etas.tolist())}
    coeffs, rank = np.zeros((1, len(etas), max(mu for _, mu in clusters))), np.full((1, len(etas)), np.inf)
    coeffs[0, slot[lambdas[0]], 0], rank[0, slot[lambdas[0]]] = 1.0, 0.0
    with np.errstate(all="ignore"):  # a non-finite coefficient is refused below
        for lj in lambdas[1:]:
            coeffs, rank = _convolve_step(coeffs, rank, etas, ex, slot[lj])
    if not np.isfinite(coeffs).all():
        raise IllConditioned(f"spline weight {float(etas[np.argmax(np.abs(etas))])!r}: the coefficients leave the double range")
    return PiecewiseExpPoly.from_table(ExpPolyTable(etas, coeffs))


def eval_ebspline(B: PiecewiseExpPoly, x):
    """Evaluate the spline at x (scalar or array); zero outside [0, m]."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    k = np.floor(xs)
    return _like_input(x, B.table.eval(np.where((xs >= 0) & (xs < B.m), k, -1), xs - k))
