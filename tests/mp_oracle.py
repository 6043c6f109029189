"""mpmath oracle shared by the tests: a TP window's partial fractions and its
lattice sums, in the working precision of ``mp`` and independent of zaktp.

The window with weights a has the Fourier transform prod a / (a + s) at
s = 2 pi i w.  Its residues at s = -b give g(y) = sum_j c_j y^(j-1)/(j-1)! e^{-b y}
on the half-line where b y > 0, negated for b < 0; y = 0 counts as the right.
"""


def residues(mp, weights):
    """[(b, [c_1, ..., c_mu])] over the distinct weights b, with c_j the
    coefficient of (s + b)^-j: Taylor series of prod_{a != b} a / (a + s) at s = -b."""
    weights = [float(a) for a in weights]
    out = []
    for b in sorted(set(weights)):
        mu = weights.count(b)
        series = [mp.mpf(b) ** mu] + [mp.mpf(0)] * (mu - 1)
        for a in weights:
            if a == b:
                continue
            # a / (a - b + t) = sum_l a (-1)^l t^l / (a - b)^(l + 1)
            fac = [mp.mpf(a) * (-1) ** l / (mp.mpf(a) - b) ** (l + 1) for l in range(mu)]
            series = [mp.fsum(series[k] * fac[l - k] for k in range(l + 1)) for l in range(mu)]
        out.append((mp.mpf(b), [series[mu - j] for j in range(1, mu + 1)]))
    return out


def windows(mp, weights, ys):
    """[g(y) for y in ys], the residues formed once."""
    terms = residues(mp, weights)
    out = []
    for y in map(mp.mpf, ys):
        out.append(mp.fsum(
            (c if b > 0 else -c) * y ** (j - 1) / mp.factorial(j - 1) * mp.exp(-b * y)
            for b, cs in terms
            if (b > 0) == (y >= 0)
            for j, c in enumerate(cs, 1)
        ))
    return out


def lattice_sum(mp, weights, x, s, alpha=1):
    """Z_alpha g(x, s) = sum_k g(x + alpha k) e^{-2 pi i k alpha s}, s inside the strip.

    From the first lattice point on its half-line a term's values are a
    geometric series times y^(j-1): a simple term's series is summed in closed
    form, a higher one term by term until its terms fall below e^-100 of the first.
    """
    x, s, alpha = mp.mpf(x), mp.mpc(s), mp.mpf(alpha)
    k0 = int(mp.ceil(-x / alpha))  # the first k with x + alpha k >= 0
    total = mp.mpc(0)
    for b, cs in residues(mp, weights):
        step = 1 if b > 0 else -1
        k = k0 if b > 0 else k0 - 1
        y = x + alpha * k
        first = step * mp.exp(-b * y - 2j * mp.pi * k * alpha * s)
        q = mp.exp(-step * alpha * (b + 2j * mp.pi * s))  # from k to k + step
        for j, c in enumerate(cs, 1):
            if j == 1:
                total += c * first / (1 - q)
                continue
            count = int((100 + 10 * j) / -mp.log(abs(q)) + abs(y) / alpha) + 20
            total += c / mp.factorial(j - 1) * first * mp.fsum(
                (y + step * alpha * m) ** (j - 1) * q**m for m in range(count)
            )
    return total
