"""Strong sign changes of fully reduced Zak slices: the count S^- behind the
paper's bound S^-(reduced slice on [0, N)) <= 2 N |omega| + m, kept with the
tests that check that bound (the library's zero search counts cyclic sign
changes with ``analysis._cyclic_sign_changes``)."""

import numpy as np

from zaktp.analysis import _slice_table


def strong_sign_changes(samples) -> int:
    """Count of strict sign alternations, skipping zeros."""
    v = np.asarray(samples, dtype=float)
    v = v[v != 0.0]
    if len(v) < 2:
        return 0
    s = np.sign(v)
    return int(np.sum(s[1:] * s[:-1] < 0))


def fully_reduced_sign_changes(weights, omega: float, N: int) -> int:
    """S^- of the fully reduced real Zak slice of B over [0, N).

    Applies D_{eta_1}^{mu_1 - 1} prod_j D_{eta_j}^{mu_j} to the fundamental
    slice, extends by quasi-periodicity, and counts strong sign changes of
    the real part, 256 samples per unit.
    """
    red = _slice_table(weights.spline.table, complex(omega))
    clusters = sorted(((-b, mu) for b, mu in weights.distinct))
    for idx, (eta, mu) in enumerate(clusters):
        for _ in range(mu - 1 if idx == 0 else mu):
            red = red.reduce(eta)
    base = red.pieces_at(np.arange(256) / 256)[0]
    samples = np.concatenate([np.real(np.exp(2j * np.pi * k * omega) * base) for k in range(N)])
    return strong_sign_changes(samples)
