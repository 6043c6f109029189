"""Closed forms of TP windows with distinct weights, evaluated in mpmath.

Nothing here calls zaktp.  A window with distinct weights a_1..a_n has the
partial-fraction form g(x) = sum_{a_i > 0} c_i e^{-a_i x} for x >= 0 and
g(x) = -sum_{a_i < 0} c_i e^{-a_i x} for x < 0, with
c_i = prod_j a_j / prod_{j != i} (a_j - a_i).  Lattice sums of g are then
geometric series, so Zak transforms, periodizations and Zak slices have
closed forms with no truncation.
"""
from __future__ import annotations

import mpmath as mp

mp.mp.dps = 40


class Window:
    """The TP window with the given distinct weights, in closed form."""

    def __init__(self, weights):
        a = [mp.mpf(float(v)) for v in weights]
        if len(set(a)) != len(a) or any(v == 0 for v in a):
            raise ValueError("the closed form needs distinct nonzero weights")
        prod = mp.fprod(a)
        self.a = a
        self.c = [prod / mp.fprod(aj - ai for j, aj in enumerate(a) if j != i) for i, ai in enumerate(a)]

    def g(self, x) -> mp.mpf:
        x = mp.mpf(float(x))
        if x >= 0:
            return mp.fsum(c * mp.exp(-a * x) for a, c in zip(self.a, self.c) if a > 0)
        return -mp.fsum(c * mp.exp(-a * x) for a, c in zip(self.a, self.c) if a < 0)

    def fourier(self, omega) -> mp.mpc:
        """g-hat(w) = prod a / (a + 2 pi i w)."""
        s = 2j * mp.pi * mp.mpf(float(omega))
        return mp.fprod(a / (a + s) for a in self.a)

    def zak(self, x, s, alpha=1):
        """Z_alpha g(x, s) = sum_k g(x + alpha k) e^{-2 pi i k alpha s}, s complex."""
        x = mp.mpf(float(x))
        alpha = mp.mpf(alpha)
        s = mp.mpc(complex(s))
        k0 = mp.ceil(-x / alpha)  # first k with x + alpha k >= 0
        out = mp.mpc(0)
        for a, c in zip(self.a, self.c):
            if a > 0:
                first = mp.exp(-a * (x + alpha * k0) - 2j * mp.pi * k0 * alpha * s)
                out += c * first / (1 - mp.exp(-alpha * (a + 2j * mp.pi * s)))
            else:
                last = mp.exp(-a * (x + alpha * (k0 - 1)) - 2j * mp.pi * (k0 - 1) * alpha * s)
                out -= c * last / (1 - mp.exp(alpha * (a + 2j * mp.pi * s)))
        return out

    def periodized(self, j, K) -> mp.mpf:
        """v_j = sum_k g(j + k K)."""
        return mp.re(self.zak(j, 0, alpha=K))

    def norm2(self) -> mp.mpf:
        """||g||^2 as the integral of |g-hat|^2, by quadrature of the product."""
        fa = [a * a for a in self.a]
        return mp.quad(lambda w: mp.fprod(q / (q + 4 * mp.pi**2 * w * w) for q in fa), [-mp.inf, 0, mp.inf])


def zak_prefactor(weights, s) -> mp.mpc:
    """prod a / (1 - e^{-(a + 2 pi i s)}): the factor relating Zg to ZB."""
    s = mp.mpc(complex(s))
    return mp.fprod(mp.mpf(float(a)) / (1 - mp.exp(-(mp.mpf(float(a)) + 2j * mp.pi * s))) for a in weights)


def log_inverse_psi(weights, omega, tau) -> mp.mpf:
    """log |1 / Psi(omega + i tau)| with Psi(s) = prod (1 + s/a) e^{-s/a}."""
    s = mp.mpc(float(omega), float(tau))
    return -mp.fsum(mp.log(abs((1 + s / mp.mpf(float(a))) * mp.exp(-s / mp.mpf(float(a))))) for a in weights)
