"""The divided difference behind eval_tp as it ran before its in-place
recursion: level-by-level tables, one new row at a time, kept so that the tests
compare the in-place kernel with this algorithm byte for byte; and eval_tp's
divided-difference route on it, one window alone at every point."""

import math

import numpy as np

from zaktp.weights import _LOG_PRODUCT_SWITCH


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


def eval_tp_all_points(weights, x):
    """eval_tp's divided-difference route taken at every point, dead or not, on
    the level-by-level recursion above, for this window alone."""
    assert weights.log_abs_product <= _LOG_PRODUCT_SWITCH
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    dd = dd_exp_chi(weights.cluster_nodes(), xs)
    prod_a = float(np.prod(np.asarray(weights.raw)))
    sign_x = np.sign(xs)
    sign_x[sign_x == 0] = 1.0
    vals = (-1.0) ** (weights.n - 1) * sign_x * prod_a * dd
    vals[(vals < 0) & (vals > -1e-10)] = 0.0
    return vals
