"""Workload inputs and jobs: each job is the complete study of one window.

Inputs come only from the seeded generator; the jobs call zaktp's public
API through the package attributes (``z.name``) at call time, so that the
tracer's wrappers are seen.  This module imports no checking code, so a
setup probe that imports it pays only for zaktp.
"""
from __future__ import annotations

import numpy as np

import zaktp as z

WORKLOADS = ("cli_cold", "zero_census", "frames_zak", "window_series")

# Operations that fail on every run because of faults in zaktp; their inputs
# do not depend on the seed.  See README.md.
KNOWN_FAULTS = ("window_series.eval_tp.near_coalesced", "window_series.sweep.harmonic_nref64")

NEAR_COALESCED = (1.0, 1.0 + 1e-8, 2.0)

# zero_census: half-width of the box around (x*, 1/2) and the scan steps
BOX_HALF = 1.0 / 32
PIECE_STEP = 1.0 / 512
BOX_STEP = 1.0 / 256
# weights |a| in [a0, hi]: the series behind the certificate runs to k ~ 60 / a0
ZERO_A0, ZERO_HI = 3.0, 7.0

# frames_zak sizes
FRAME_RES = (64, 64)
FRAME_REFINEMENTS = 3
DISCRETE_K, DISCRETE_M = 360, 8
GRID_N = 128
INVERSION_OMEGAS = (0.125, 0.3, 0.5, 0.8)

# window_series sizes
EVAL_POINTS = 100_000
SERIES_GRID = 8
SWEEP_NS = (4, 8, 16, 32)
SWEEP_NREF = 48
HARMONIC_NREF = 64
STRIP = {"harmonic": ((2, 4, 8), 16), "alternating": ((4, 8, 16), 32), "geometric": ((4, 8, 16), 32)}
WIDE_N = 40  # geometric r=2 prefix with sum log|a| > 500: the log-explicit route


def draw_window(rng, n: int, a0: float, hi: float, gap: float = 0.2, signs=None) -> tuple[float, ...]:
    """n distinct weights: |a| = a0 once, the rest in (a0, hi] at least ``gap`` apart."""
    while True:
        mags = np.concatenate([[a0], rng.uniform(a0 + gap, hi, n - 1)])
        if np.min(np.diff(np.sort(mags))) >= gap:
            break
    sgn = rng.choice([-1.0, 1.0], n) if signs is None else np.asarray(signs, dtype=float)
    return tuple(float(s * m) for s, m in zip(sgn, mags))


def draw_even_window(rng, k: int, a0: float, hi: float) -> tuple[float, ...]:
    """The symmetric set {+-b_1, ..., +-b_k} with min b = a0."""
    mags = draw_window(rng, k, a0, hi, signs=np.ones(k))
    return tuple(sorted(mags + tuple(-m for m in mags)))


def _weights_arg(ws) -> str:
    return ",".join(repr(float(a)) for a in ws)


# ---------------------------------------------------------------------------
# Rounds: every round of a workload runs the same operations.


def make_round(workload: str, rng) -> list[dict]:
    if workload == "cli_cold":
        w = draw_window(rng, 4, 1.0, 4.0)
        c = float(rng.uniform(0.8, 1.25))
        r = float(rng.uniform(1.6, 2.4))
        arg = "--weights=" + _weights_arg(w)
        cmds = {
            "eval": ["eval", arg, "--grid=-6:6:201"],
            "zak": ["zak", arg, "--nx", "16", "--nomega", "16", "--format", "json"],
            "zero": ["zero", arg],
            "certify": ["certify", arg, "--omega-range", "0,0.45", "--step", "0.00390625"],
            "framebounds": ["framebounds", arg, "--N", "2", "--res", "16x16", "--refinements", "1"],
            "discrete-frame": ["discrete-frame", arg, "--K", "48", "--M", "4"],
            "converge": ["converge", f"--gen=geometric:c={c!r},r={r!r}", "--ns", "4,8,16", "--n-ref", "32"],
            "psi": ["psi", arg],
        }
        return [
            {"kind": name, "weights": w, "argv": argv}
            for name, argv in cmds.items()
        ]
    if workload == "zero_census":
        even = draw_even_window(rng, 2, ZERO_A0, ZERO_HI)
        general = draw_window(rng, 4, ZERO_A0, ZERO_HI)
        return [
            {"weights": w, "even": e, "box_shift": float(rng.uniform(0.25, 0.75)) * BOX_STEP}
            for w, e in ((even, True), (general, False))
        ]
    if workload == "frames_zak":
        return [{"weights": draw_window(rng, 4, 1.0, 4.0)}]
    if workload == "window_series":
        weights = draw_window(rng, 6, 1.0, 4.0)
        wide_c = float(rng.uniform(0.8, 1.25))
        points = {
            "dd": eval_points(weights, rng),
            "log": eval_points(wide_weights(wide_c), rng),
            "near": np.linspace(-1.0, 30.0, EVAL_POINTS),  # fixed: a known fault
        }
        return [
            {
                "weights": weights,
                "wide_c": wide_c,
                "points": points,
                "alpha": float(rng.uniform(0.5, 2.0)),
                "point": (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 1.0))),
                "gens": {
                    "harmonic": (float(rng.uniform(0.8, 1.25)),),
                    "alternating": (float(rng.uniform(0.8, 1.25)),),
                    "geometric": (float(rng.uniform(0.8, 1.25)), float(rng.uniform(1.8, 2.2))),
                },
            }
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Jobs: the timed part.  Each returns the raw outputs for the checks.


def generator(family: str, params) -> "z.WeightGenerator":
    return getattr(z.WeightGenerator, family)(*params)


def cover(x_star: float, shift: float):
    """The zero-free pieces of the cell and the box around (x*, 1/2)."""
    h = BOX_HALF
    pieces = (
        z.Region(x=(0.0, 1.0), omega=(0.0, 0.5 - h)),
        z.Region(x=(0.0, 1.0), omega=(0.5 + h, 1.0)),
        z.Region(x=(x_star + h + shift, x_star + 1.0 - h + shift), omega=(0.5 - h, 0.5 + h)),
    )
    box = z.Region(x=(x_star - h + shift, x_star + h + shift), omega=(0.5 - h, 0.5 + h))
    return pieces, box


def zero_census_job(job: dict, phase=lambda name: None) -> dict:
    w = z.make_weights(job["weights"])
    x_star = z.locate_zero_half(w)
    pieces, box = cover(x_star, job["box_shift"])
    phase("pieces")
    certs = [z.certify_zero_free(w, r, PIECE_STEP) for r in pieces]
    phase("box")
    box_cert = z.certify_zero_free(w, box, BOX_STEP)
    phase(None)
    return {"x_star": x_star, "pieces": certs, "box": box_cert}


def frames_zak_job(job: dict, phase=None) -> dict:
    w = z.make_weights(job["weights"])
    fb1 = z.frame_bounds(w, 1, FRAME_RES, FRAME_REFINEMENTS)
    fb2 = z.frame_bounds(w, 2, FRAME_RES, FRAME_REFINEMENTS)
    window = z.periodize_sample(w, DISCRETE_K)
    dft = z.discrete_frame_test(window, DISCRETE_M)
    grid = z.compute_zak_grid(w, np.arange(GRID_N) / GRID_N, np.arange(GRID_N) / GRID_N)
    inversion = [z.zak_inversion_check(w, om) for om in INVERSION_OMEGAS]
    return {"fb": (fb1, fb2), "window": window, "dft": dft, "grid": grid, "inversion": inversion}


def eval_points(weights, rng) -> np.ndarray:
    """EVAL_POINTS random points over the window's support."""
    lo = -30.0 / min(abs(a) for a in weights) if min(weights) < 0 else -1.0
    hi = 30.0 / min(abs(a) for a in weights) if max(weights) > 0 else 1.0
    return rng.uniform(lo, hi, EVAL_POINTS)


def wide_weights(c: float) -> tuple[float, ...]:
    return tuple(c * 2.0**k for k in range(1, WIDE_N + 1))


def window_series_job(job: dict, phase=None) -> dict:
    w = z.make_weights(job["weights"])
    pts = job["points"]
    out = {
        "eval_dd": z.eval_tp(w, pts["dd"]),
        "eval_log": z.eval_tp(z.make_weights(wide_weights(job["wide_c"])), pts["log"]),
        "eval_near": z.eval_tp(z.make_weights(NEAR_COALESCED), pts["near"]),
        "spline": z.build_ebspline([-a for a in job["weights"]]),
    }
    xs = (np.arange(SERIES_GRID) + 0.5) / SERIES_GRID
    out["grid"] = z.compute_zak_grid(w, xs, xs, source="direct_series")
    x, om = job["point"]
    out["dilation"] = z.zak_dilation_check(w, job["alpha"], x, om)["d"]
    sweeps, strips = {}, {}
    for family, params in job["gens"].items():
        gen = generator(family, params)
        if family == "harmonic":
            sweeps[family] = z.convergence_sweep(generator(family, (1.0,)), SWEEP_NS, n_ref=HARMONIC_NREF)
        else:
            sweeps[family] = z.convergence_sweep(gen, SWEEP_NS, n_ref=SWEEP_NREF)
        ns, m = STRIP[family]
        ref = z.truncate(gen, m)
        xi = 0.25 * ref.a0 / (2.0 * np.pi)
        strips[family] = [z.zak_strip_distance(z.truncate(gen, n), ref, xi) for n in ns]
    out["sweeps"], out["strips"] = sweeps, strips
    return out


JOBS = {"zero_census": zero_census_job, "frames_zak": frames_zak_job, "window_series": window_series_job}


def warm_up(workload: str) -> None:
    """One small job on fixed inputs: lazy imports and first-call costs."""
    rng = np.random.default_rng(0)
    if workload == "zero_census":
        w = z.make_weights((3.0, -4.0))
        x = z.locate_zero_half(w)
        z.certify_zero_free(w, z.Region(x=(x + 0.1, x + 0.9), omega=(0.45, 0.55)), 1.0 / 64)
    elif workload == "frames_zak":
        w = z.make_weights((1.0, -2.0))
        z.frame_bounds(w, 1, (8, 8), 1)
        z.discrete_frame_test(z.periodize_sample(w, 16), 4)
        z.compute_zak_grid(w, np.arange(8) / 8, np.arange(8) / 8)
        z.zak_inversion_check(w, 0.3)
    elif workload == "window_series":
        w = z.make_weights((1.0, -2.0, 3.0))
        z.eval_tp(w, rng.uniform(-5, 5, 100))
        z.eval_tp(z.make_weights(wide_weights(1.0)), rng.uniform(0, 5, 100))
        z.build_ebspline([-1.0, 2.0])
        z.compute_zak_grid(w, [0.5], [0.5], source="direct_series")
        z.zak_dilation_check(w, 0.7, 0.2, 0.3)
        z.convergence_sweep(z.WeightGenerator.alternating(1.0), (2, 4), n_ref=8)
        z.zak_strip_distance(z.truncate(z.WeightGenerator.alternating(1.0), 2), z.truncate(z.WeightGenerator.alternating(1.0), 4), 0.01)
    elif workload != "cli_cold":
        raise ValueError(f"unknown workload {workload!r}")
