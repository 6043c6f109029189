"""The series tables behind certify_zero_free as three ExpPolyTable.eval passes
(B, B' and B''), each masking every piece and forming every exponential anew:
B(x + k) is piece k + floor(x) at the exact local coordinate x - floor(x).  The
tests compare the kernel's tables with these byte for byte."""

import math

import numpy as np


def series_tables(B, tau: float, xg: np.ndarray):
    """(ks, G0, G1, G2) with G?[kidx, j] = B^{(?)}(x_j + k) e^{2 pi k tau}, ks from
    -floor(max x) to m - 1 - floor(min x)."""
    ks = np.arange(-math.floor(xg[-1]), B.m - math.floor(xg[0]))
    d1 = B.table.reduce(0.0)
    weightk = np.exp(2.0 * np.pi * ks * tau)
    fl = np.floor(xg)
    k = ks[:, None] + fl[None, :]
    piece, t = np.where((k >= 0) & (k < B.m), k, -1), np.broadcast_to(xg - fl, k.shape)
    G0, G1, G2 = (np.real(T.eval(piece, t)) * weightk[:, None] for T in (B.table, d1, d1.reduce(0.0)))
    return ks, G0, G1, G2
