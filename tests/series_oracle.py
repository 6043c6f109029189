"""The series tables behind certify_zero_free as they were built before the
one-pass kernel: three ExpPolyTable.eval passes (B, B' and B''), each masking
every piece and forming every exponential anew.  The tests compare the
one-pass tables with these byte for byte."""

import math

import numpy as np


def series_tables(B, tau: float, xg: np.ndarray):
    """(ks, G0, G1, G2) with G?[kidx, j] = B^{(?)}(x_j + k) e^{2 pi k tau}."""
    ks = np.arange(math.floor(-xg[-1]), math.ceil(B.m - xg[0]) + 1)
    d1 = B.table.reduce(0.0)
    weightk = np.exp(2.0 * np.pi * ks * tau)
    shifted = xg[None, :] + ks[:, None]
    k = np.floor(shifted)
    piece, t = np.where((shifted >= 0) & (shifted < B.m), k, -1), shifted - k
    G0, G1, G2 = (np.real(T.eval(piece, t)) * weightk[:, None] for T in (B.table, d1, d1.reduce(0.0)))
    return ks, G0, G1, G2
