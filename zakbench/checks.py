"""Checks of every operation's output against computations made apart from zaktp.

Each check returns a list of (operation, ok, detail).  The references are
the mpmath closed forms in ``oracle`` and NumPy FFTs; nothing here calls
zaktp, and no stored copy of earlier output is used.
"""
from __future__ import annotations

import json
import math

import mpmath as mp
import numpy as np

import workloads as wl
from oracle import Window, log_inverse_psi, zak_prefactor

EVAL_TOL = 1e-10  # absolute error of window values, as a share of the peak
ZAK_TOL = 1e-9  # absolute error of Zak values (windows have peak below 1)


def _op(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return (name, bool(ok), detail)


def zero_ok(weights, x_star: float, even: bool) -> tuple[bool, str]:
    """x* is a sign change of Z(., 1/2) with |Z(x*, 1/2)| small; even windows have x* = 1/2."""
    win = Window(weights)

    def slice_(x):
        return float(mp.re(win.zak(x, 0.5)))

    scale = max(abs(slice_(k / 16)) for k in range(16))
    at = abs(slice_(x_star))
    flips = slice_(x_star - 1e-6) * slice_(x_star + 1e-6) < 0
    ok = 0.0 <= x_star < 1.0 and at <= 1e-9 * scale and flips
    if even:
        ok = ok and abs(x_star - 0.5) <= 1e-9
    return ok, f"x*={x_star!r} |Z|={at:.3g} scale={scale:.3g} flips={flips}"


def window_values_ok(weights, xs, values) -> tuple[bool, str]:
    """Absolute error of window values against the residue formula, relative to the peak."""
    win = Window(weights)
    a0 = min(abs(a) for a in weights)
    around = np.linspace(-(len(weights) + 2) / a0, (len(weights) + 2) / a0, 24)
    peak = max(abs(float(win.g(x))) for x in around)
    ref = np.array([float(win.g(x)) for x in xs])
    err = float(np.max(np.abs(np.asarray(values) - ref))) / peak
    return err <= EVAL_TOL, f"max error / peak = {err:.3g}"


def frame_bounds_ok(weights, N: int, A: float, B: float) -> tuple[bool, str]:
    """A_est <= N ||g||^2 <= B_est: N ||g||^2 is the cell mean of the summed squares."""
    target = N * float(Window(weights).norm2())
    ok = A <= target * (1 + 1e-9) and B >= target * (1 - 1e-9)
    if N == 1:  # the grid holds the Zak zero, so A_est vanishes
        ok = ok and A <= 1e-12 * B
    return ok, f"A={A:.6g} N||g||^2={target:.6g} B={B:.6g}"


def zak_spectrum(v, M: int) -> np.ndarray:
    """Frame-operator spectrum M |DFT_{K/M}(v[qM + r])|^2, r < M (Zibulski-Zeevi)."""
    v = np.asarray(v, dtype=float)
    return M * np.abs(np.fft.fft(v.reshape(len(v) // M, M), axis=0)) ** 2


def discrete_frame_ok(v, M: int, lam_min: float, lam_max: float) -> tuple[bool, str]:
    spec = zak_spectrum(v, M)
    err = max(abs(lam_min - spec.min()), abs(lam_max - spec.max())) / spec.max()
    return err <= 1e-9, f"spectrum error / lambda_max = {err:.3g}"


def strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _sample_indices(n: int, count: int = 16):
    return [((7 * k) % n, (13 * k + 5) % n) for k in range(count)]


def zak_grid_ok(weights, xs, oms, values, tau=0.0, count: int = 16) -> tuple[bool, str]:
    win = Window(weights)
    err = 0.0
    for i, j in _sample_indices(min(len(xs), len(oms)), count):
        i %= len(oms)
        j %= len(xs)
        ref = complex(win.zak(xs[j], complex(oms[i], tau)))
        err = max(err, abs(values[i][j] - ref))
    return err <= ZAK_TOL, f"max Zak error = {err:.3g}"


# ---------------------------------------------------------------------------
# Per workload


def check_zero_census(job: dict, out: dict) -> list:
    ok, detail = zero_ok(job["weights"], out["x_star"], job["even"])
    ops = [_op("zero_census.locate_zero_half", ok, detail)]
    for k, cert in enumerate(out["pieces"]):
        ops.append(_op(f"zero_census.certify.piece{k}", cert.verdict == "zero_free_certified", cert.verdict))
    box = out["box"]
    loc = box.zero_location
    ok = (
        box.verdict == "zero_found"
        and loc is not None
        and abs(loc[0] - out["x_star"]) <= 1e-6
        and abs(loc[1] - 0.5) <= 1e-6
    )
    ops.append(_op("zero_census.certify.box", ok, f"{box.verdict} at {loc}"))
    return ops


def check_frames_zak(job: dict, out: dict) -> list:
    ws = job["weights"]
    ops = []
    for N, fb in zip((1, 2), out["fb"]):
        ok, detail = frame_bounds_ok(ws, N, fb.A_est, fb.B_est)
        ops.append(_op(f"frames_zak.frame_bounds.N{N}", ok, detail))
    win = Window(ws)
    v = out["window"].values
    K = wl.DISCRETE_K
    err = max(abs(v[j] - float(win.periodized(j, K))) for j in (0, 1, 2, 3, K // 2, K - 3, K - 2, K - 1))
    ops.append(_op("frames_zak.periodize_sample", err <= 1e-12, f"max error = {err:.3g}"))
    dft = out["dft"]
    ok, detail = discrete_frame_ok(v, wl.DISCRETE_M, dft["lambda_min"], dft["lambda_max"])
    ops.append(_op("frames_zak.discrete_frame_test", ok, detail))
    g = out["grid"]
    ok, detail = zak_grid_ok(ws, g.x_samples, g.omega_samples, g.values)
    ops.append(_op("frames_zak.compute_zak_grid", ok, detail))
    err = max(abs(val - complex(win.fourier(om))) for om, val in zip(wl.INVERSION_OMEGAS, out["inversion"]))
    ops.append(_op("frames_zak.zak_inversion_check", err <= 1e-10, f"max error = {err:.3g}"))
    return ops


def spline_ok(weights, spline, points=((0.1, 0.2), (0.37, 0.5), (0.8, 0.9), (0.55, 0.05))) -> tuple[bool, str]:
    """Zak sum of the spline's own pieces equals Zg / prefactor (the factorization).

    The error is taken relative to the largest reference value, since ZB
    vanishes at (x*, 1/2) and one sample may fall near it.
    """
    win = Window(weights)
    errs, refs = [], []
    for x, om in points:
        t = mp.mpf(x)
        zb = mp.mpc(0)
        for k, piece in enumerate(spline.pieces):
            val = mp.fsum(mp.polyval([mp.mpf(float(c)) for c in reversed(cs)], t) * mp.exp(mp.mpf(eta) * t) for eta, cs in piece)
            zb += val * mp.expjpi(-2 * k * mp.mpf(om))
        ref = win.zak(x, om) / zak_prefactor(weights, om)
        errs.append(float(abs(zb - ref)))
        refs.append(float(abs(ref)))
    err = max(errs) / max(refs)
    return err <= 1e-9, f"max error / max |ZB| = {err:.3g}"


def family_weights(family: str, params, n: int) -> list[float]:
    """The first n weights of a generator family, written out here."""
    if family == "harmonic":
        return [params[0] * nu for nu in range(1, n + 1)]
    if family == "alternating":
        return [params[0] * nu * (-1) ** nu for nu in range(1, n + 1)]
    if family == "geometric":
        return [params[0] * params[1] ** nu for nu in range(1, n + 1)]
    raise ValueError(f"unknown family {family!r}")


def strip_ok(gen_family, params, ns, m, dists) -> tuple[bool, str]:
    """Distances fall strictly in n, and each is at least |Zg_n - Zg_m| at grid samples."""
    gen = family_weights(gen_family, params, m)
    ref = Window(gen)
    xi = 0.25 * min(abs(a) for a in gen) / (2 * math.pi)
    taus = np.linspace(-xi, xi, 9)
    omegas = (0.0, 0.25, 0.5, 0.75)
    samples = [(j / 64, complex(omegas[j % 4], taus[j % 9])) for j in (13, 29, 50, 63)]
    ref_z = [ref.zak(x, s) for x, s in samples]
    short = 0.0
    for n, d in zip(ns, dists):
        win = Window(gen[:n])
        for (x, s), zr in zip(samples, ref_z):
            short = max(short, abs(complex(win.zak(x, s) - zr)) - d)
    ok = strictly_decreasing(dists) and short <= ZAK_TOL
    return ok, f"distances {['%.3g' % d for d in dists]}, largest shortfall {short:.3g}"


def check_window_series(job: dict, out: dict) -> list:
    ws = job["weights"]
    pick = slice(0, wl.EVAL_POINTS, wl.EVAL_POINTS // 64)
    ops = []
    pts = job["points"]
    for name, weights, route in (
        ("eval_tp.divided_difference", ws, "dd"),
        ("eval_tp.log_explicit", wl.wide_weights(job["wide_c"]), "log"),
        ("eval_tp.near_coalesced", wl.NEAR_COALESCED, "near"),
    ):
        ok, detail = window_values_ok(weights, pts[route][pick], out[f"eval_{route}"][pick])
        ops.append(_op(f"window_series.{name}", ok, detail))
    ok, detail = spline_ok(ws, out["spline"])
    ops.append(_op("window_series.build_ebspline", ok, detail))
    g = out["grid"]
    ok, detail = zak_grid_ok(ws, g.x_samples, g.omega_samples, g.values, count=64)
    ok = ok and g.tail_bound <= 1e-10
    ops.append(_op("window_series.compute_zak_grid.direct", ok, f"{detail}, tail {g.tail_bound:.3g}"))
    x, om = job["point"]
    ref = complex(Window(ws).zak(x, om, alpha=job["alpha"]))
    err = max(abs(side - ref) for side in out["dilation"])
    ops.append(_op("window_series.zak_dilation_check", err <= ZAK_TOL, f"max error = {err:.3g}"))
    for family, rows in out["sweeps"].items():
        dists = [r[2] for r in rows]
        name = "sweep.harmonic_nref64" if family == "harmonic" else f"sweep.{family}"
        ops.append(_op(f"window_series.{name}", strictly_decreasing(dists), f"distances {['%.4g' % d for d in dists]}"))
    for family, dists in out["strips"].items():
        ns, m = wl.STRIP[family]
        ok, detail = strip_ok(family, job["gens"][family], ns, m, dists)
        ops.append(_op(f"window_series.zak_strip_distance.{family}", ok, detail))
    return ops


# ---------------------------------------------------------------------------
# cli_cold: parse the subcommand's standard output


def _csv(text: str):
    lines = text.strip().splitlines()
    return [tuple(float(c) for c in line.split(",")) for line in lines[1:]]


def check_cli(job: dict, code: int, stdout: str) -> list:
    kind = job["kind"]
    name = f"cli_cold.{kind}"
    if code != 0:
        return [_op(name, False, f"exit code {code}")]
    ws = job["weights"]
    try:
        if kind == "eval":
            rows = _csv(stdout)
            ok, detail = window_values_ok(ws, [r[0] for r in rows], [r[1] for r in rows])
            ok = ok and len(rows) == 201
        elif kind == "zak":
            d = json.loads(stdout)
            vals = np.asarray(d["re"]) + 1j * np.asarray(d["im"])
            ok, detail = zak_grid_ok(ws, d["x_samples"], d["omega_samples"], vals)
        elif kind == "zero":
            d = json.loads(stdout)
            ok, detail = zero_ok(ws, d["x_zero"], even=False)
        elif kind == "certify":
            d = json.loads(stdout)
            ok, detail = d["verdict"] == "zero_free_certified", d["verdict"]
        elif kind == "framebounds":
            d = json.loads(stdout)
            ok, detail = frame_bounds_ok(ws, 2, d["A_est"], d["B_est"])
        elif kind == "discrete-frame":
            d = json.loads(stdout)
            win = Window(ws)
            v = [float(win.periodized(j, d["K"])) for j in range(d["K"])]
            ok, detail = discrete_frame_ok(v, d["M"], d["lambda_min"], d["lambda_max"])
        elif kind == "converge":
            dists = [r[2] for r in _csv(stdout)]
            ok, detail = strictly_decreasing(dists) and len(dists) == 3, f"distances {dists}"
        elif kind == "psi":
            d = json.loads(stdout)
            taus = np.logspace(1.0, 4.0, 40)
            lx = np.log(taus)
            ly = np.array([float(log_inverse_psi(ws, 0.0, t)) for t in taus])
            slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / np.sum((lx - lx.mean()) ** 2))
            ok = abs(d["fitted_exponent"] - slope) <= 1e-8 and d["p"] == len(ws)
            detail = f"exponent {d['fitted_exponent']!r} vs {slope!r}"
        else:
            raise ValueError(f"unknown subcommand {kind!r}")
    except (ValueError, KeyError, IndexError) as exc:
        return [_op(name, False, f"unreadable output: {exc}")]
    return [_op(name, ok, detail)]


CHECKS = {"zero_census": check_zero_census, "frames_zak": check_frames_zak, "window_series": check_window_series}
