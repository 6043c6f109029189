"""Per-term oracles for the spline's term table, shared by the tests: each
piece or slice as a list of (eta, ascending coefficients) terms, evaluated and
reduced one term at a time from the spline's pieces, not through ExpPolyTable;
and ``table_piece``, one piece of a table evaluated on its own."""

import numpy as np

from zaktp.ebspline import _horner


def piece(terms, t):
    """One piece by the per-term loop: polyval * exp, terms added in order."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=np.result_type(float, *[np.asarray(c) for _, c in terms]))
    for eta, coeffs in terms:
        out += np.polynomial.polynomial.polyval(t, np.asarray(coeffs)) * np.exp(eta * t)
    return out


def slice_terms(B, s):
    """Terms of the fundamental slice: phase-weighted pieces added per exponent in k order.
    Each phase is e^{-2 pi i (s k)}, the product s k rounded first, as the package forms it."""
    acc = {}
    for k, pc in enumerate(B.pieces):
        phase = np.exp(-2j * np.pi * (s * k))
        for eta, coeffs in pc:
            c = phase * np.asarray(coeffs, dtype=complex)
            if eta in acc:
                a = np.zeros(max(len(acc[eta]), len(c)), dtype=complex)
                a[: len(acc[eta])] += acc[eta]
                a[: len(c)] += c
                acc[eta] = a
            else:
                acc[eta] = c
    return [(eta, acc[eta]) for eta in sorted(acc)]


def reduce_terms(terms, eta0):
    """Each term p(t) e^{eta t} becomes (p' + (eta - eta0) p)(t) e^{eta t}."""
    out = []
    for eta, coeffs in terms:
        c = np.asarray(coeffs)
        red = (eta - eta0) * c
        red[:-1] += c[1:] * np.arange(1, len(c))
        out.append((eta, red))
    return out


def table_piece(table, p, t):
    """Piece p of an ExpPolyTable at the 1-D points t, term by term in slot order:
    padded Horner on the term's row times its exponential, added in where the
    table's ``_keep`` says.  The per-piece evaluator the table had beside
    ``pieces_at``."""
    out = np.zeros(t.shape, table.coeffs.dtype)
    terms = zip(table.etas[table._live_mask[p]], table.coeffs[p, table._live_mask[p]])
    if not table._may_underflow:
        for eta, row in terms:
            out += _horner(row, t) * np.exp(eta * t)
        return out
    span = np.max(np.abs(t), initial=0.0)
    for eta, row in terms:
        keep = table._keep(eta, t, span)
        out[keep] += _horner(row, t[keep]) * np.exp(eta * t[keep])
    return out
