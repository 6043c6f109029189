"""The spline build as it ran before its array step: a loop over every
(piece, term) pair through ``np.polynomial`` calls, with each new piece's
slots recorded in the order their terms arose, and the tuple round trip of
``PiecewiseExpPoly`` term by term.  Kept so that the tests compare the array
build with this algorithm bit for bit."""

import math

import numpy as np

from zaktp.ebspline import _spline_weights

_P = np.polynomial.polynomial


def _antideriv_exp(p: np.ndarray, c: float) -> np.ndarray:
    """q with d/dv [q(v) e^{c v}] = p(v) e^{c v}, for c != 0."""
    q = np.zeros(len(p))
    term = p
    for k in range(len(p)):
        q[: len(term)] += (-1.0) ** k * term / c ** (k + 1)
        term = _P.polyder(term)
    return q


def _convolve_factor(coeffs: np.ndarray, order: list, etas: list, s: int):
    """Convolve the pieces ``coeffs`` (P, T, D) with e^{lam t} chi_[0,1), lam = etas[s].

    ``order[j]`` lists the slots of piece j in the order their terms arose; terms
    are visited, and added into each slot, in that order, so every coefficient is
    one fixed floating-point sum.  Exponents come from one clustered weight
    vector, so they are compared exactly.
    """
    lam = etas[s]
    P, T, D = coeffs.shape
    new = np.zeros((P + 1, T, D))
    new_order: list[list[int]] = [[] for _ in range(P + 1)]

    def add(j: int, i: int, v):
        new[j, i, : len(v)] += v
        if i not in new_order[j]:
            new_order[j].append(i)

    e_lam = math.exp(lam)
    for j in range(P):
        for i in order[j]:
            p, eta = coeffs[j, i], etas[i]
            if i != s:
                q = _antideriv_exp(p, eta - lam)
                # A-part on piece j:  e^{lam t} (G(t) - G(0)), G = q e^{c v}
                add(j, i, q)
                add(j, s, [-_P.polyval(0.0, q)])
                # B-part on piece j+1:  e^{lam (t+1)} (G(1) - G(t))
                add(j + 1, s, [math.exp(eta) * _P.polyval(1.0, q)])
                add(j + 1, i, -e_lam * q)
            else:
                # Q(0) = 0, and the degree stays below the multiplicity: Q fits in D slots
                Q = _P.polyint(p)[:D]
                add(j, s, Q)
                QB = -Q
                QB[0] += _P.polyval(1.0, Q)
                add(j + 1, s, e_lam * QB)
    return new, new_order


def build_coeffs(lam):
    """The spline's (exponents, (P, T, D) coefficients) as the loop built them."""
    lambdas, clusters = _spline_weights(lam)
    etas = [b for b, _ in clusters]
    slot = {eta: i for i, eta in enumerate(etas)}
    first = slot[lambdas[0]]
    coeffs = np.zeros((1, len(etas), max(mu for _, mu in clusters)))
    coeffs[0, first, 0] = 1.0
    order = [[first]]
    for lj in lambdas[1:]:
        coeffs, order = _convolve_factor(coeffs, order, etas, slot[lj])
    return etas, coeffs


def pieces_from_table(etas, coeffs):
    """``PiecewiseExpPoly.from_table``'s tuples, one ``np.trim_zeros`` per term."""
    pieces = []
    for piece in coeffs:
        trimmed = [tuple(np.trim_zeros(c, "b")) or (c.dtype.type(0),) for c in piece]
        pieces.append(tuple(zip(map(float, etas), trimmed)))
    return tuple(pieces)


def table_from_pieces(pieces):
    """``PiecewiseExpPoly``'s (exponents, coefficients) table, one ``+=`` per term."""
    etas = sorted({eta for piece in pieces for eta, _ in piece})
    slot = {eta: i for i, eta in enumerate(etas)}
    arrays = [np.asarray(c) for piece in pieces for _, c in piece]
    shape = (len(pieces), len(etas), max((len(a) for a in arrays), default=1))
    coeffs = np.zeros(shape, np.result_type(float, *arrays))
    for k, piece in enumerate(pieces):
        for eta, c in piece:
            coeffs[k, slot[eta], : len(c)] += c
    return etas, coeffs
