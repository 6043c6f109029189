"""The divided difference behind eval_tp as it ran before its in-place
recursion: level-by-level tables, one new row at a time, kept so that the tests
compare the in-place kernel with this algorithm byte for byte."""

import math

import numpy as np


def dd_exp_chi(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Divided difference of t -> e^{-x t} * chi_[0,inf)(x t), vectorized in x.

    The x = 0 entries use the characteristic-function formula directly (value 1
    at positive nodes, all derivatives zero).
    """
    n = len(nodes)
    m = len(x)
    pos = x > 0
    neg = x < 0
    zero = ~pos & ~neg

    # active[i, j]: node i contributes for sample j
    active = np.empty((n, m), dtype=bool)
    active[:, pos] = (nodes > 0)[:, None]
    active[:, neg] = (nodes < 0)[:, None]
    active[:, zero] = (nodes > 0)[:, None]

    expo = -np.outer(nodes, x)
    expo[:, zero] = 0.0
    expo[~active] = -np.inf
    table = np.exp(expo)

    for level in range(1, n):
        nxt = np.empty((n - level, m))
        fact = math.factorial(level)
        for i in range(n - level):
            if nodes[i + level] == nodes[i]:
                # repeated node: f^{(level)}(t)/level! = (-x)^level e^{-x t}/level!
                row = np.zeros(m)
                mask = active[i] & ~zero & ~np.isinf(x)  # chi derivatives vanish at x = 0; 0 is the limit at +-inf
                row[mask] = ((-x[mask]) ** level) * np.exp(-nodes[i] * x[mask]) / fact
                nxt[i] = row
            else:
                nxt[i] = (table[i + 1] - table[i]) / (nodes[i + level] - nodes[i])
        table = nxt
    return table[0]
