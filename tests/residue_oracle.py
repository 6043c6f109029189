"""The partial-fraction coefficients of exp_sum_rep as they were formed before its
one-pass residues: one cluster at a time, its simple residue H(-b) a product of
its own; kept so that the tests compare the package's table with this loop,
coefficient by coefficient."""

import math

import numpy as np

from zaktp.weights import _EXT


def per_cluster_coeffs(weights) -> np.ndarray:
    """The (2, clusters, D) coefficients of ``exp_sum_rep(weights)``, cluster by cluster."""
    raws, nodes = np.sort(np.asarray(weights.raw)), weights.cluster_nodes().astype(_EXT)
    bs = np.array([b for b, _ in weights.distinct], _EXT)
    mus = np.array([mu for _, mu in weights.distinct])
    coeffs = np.zeros((2, len(bs), mus.max()), _EXT)
    for i, (b, mu) in enumerate(weights.distinct):
        hs = [np.prod(raws / np.where(nodes == b, 1.0, nodes - b))]
        d, mk = (np.delete(bs - b, i), np.delete(mus, i)) if mu > 1 else (None, None)

        def l_deriv(p):
            return -((-1.0) ** p) * math.factorial(p) * np.sum(mk / d ** (p + 1))

        for m_ in range(1, mu):
            hs.append(sum(math.comb(m_ - 1, l) * hs[l] * l_deriv(m_ - 1 - l) for l in range(m_)))
        cs = [hs[mu - j] / math.factorial(mu - j) for j in range(1, mu + 1)]
        c = [cs[j] / math.factorial(j) for j in range(mu)]
        if b > 0:
            coeffs[1, i, :mu] = c
        else:
            coeffs[0, i, :mu] = [-v for v in c]
    return coeffs
