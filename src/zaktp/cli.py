"""Command-line front end: every analysis as a reproducible scripted run.

Weights are comma-separated reals (``--weights 1,-1``); truncation families
use ``--gen harmonic:c=1`` style specs with ``--n``.  Numeric output goes
through the deterministic report writers (17 significant digits, LF).
Exit codes: 0 success, 1 domain error (the error class name is printed),
2 usage error.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import Region, certify_zero_free, locate_zero_half
from .convergence import (
    WeightGenerator,
    convergence_sweep,
    psi_decay_diagnostic,
    truncate,
)
from .errors import ZakTPError
from .frames import discrete_frame_test, frame_bounds, periodize_sample
from .report_io import write_report
from .weights import WeightMultiset, eval_tp, make_weights
from .zak import compute_zak_grid


def _parse_gen(text: str) -> WeightGenerator:
    rule, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            params[key.strip()] = float(val)
    if rule == "harmonic":
        return WeightGenerator.harmonic(params.get("c", 1.0))
    if rule == "alternating":
        return WeightGenerator.alternating(params.get("c", 1.0))
    if rule == "geometric":
        return WeightGenerator.geometric(params.get("c", 1.0), params.get("r", 2.0))
    raise argparse.ArgumentTypeError(f"unknown generator rule {rule!r}")


def _parse_res(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad resolution {text!r}, expected like 64x64")


def _parse_floats(text: str, kind=float) -> list:
    try:
        return [kind(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad list {text!r}, expected comma-separated {kind.__name__}s")


def _parse_range(text: str) -> tuple[float, float]:
    vals = _parse_floats(text)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected two values like 0,0.48")
    return vals[0], vals[1]


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, count = text.split(":")
        if int(count) > 0:
            return float(lo), float(hi), int(count)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad grid {text!r}, expected lo:hi:count with count >= 1")


def _weights_from(args) -> WeightMultiset:
    """``--weights`` or ``--gen``; parse_and_run has checked that one is given."""
    if args.weights is not None:
        return make_weights(args.weights)  # ZeroWeight, EmptyInput: domain errors, exit 1
    return truncate(args.gen, args.n)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zaktp", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--weights", type=_parse_floats, help="comma-separated TP weights")
        sp.add_argument("--gen", type=_parse_gen, help="generator spec, e.g. harmonic:c=1")
        sp.add_argument("--n", type=int, default=8, help="truncation length for --gen")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("eval", help="evaluate the TP window on a grid")
    add_common(sp)
    sp.add_argument("--x", type=_parse_floats, help="comma-separated sample points")
    sp.add_argument("--grid", type=_parse_grid, help="lo:hi:count uniform grid")
    sp.add_argument(
        "--apply-shift",
        action="store_true",
        help="shift the argument by the mean sum(1/a_nu) so the peak sits near 0",
    )

    sp = sub.add_parser("zak", help="sample the Zak transform over a cell rectangle")
    add_common(sp)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--nx", type=int, default=64)
    sp.add_argument("--nomega", type=int, default=64)
    sp.add_argument("--tau", type=float, default=0.0)
    sp.add_argument("--source", choices=("ebspline_factorized", "direct_series"), default="ebspline_factorized")

    sp = sub.add_parser("zero", help="locate the zero of Z(., 1/2)")
    add_common(sp)
    sp.add_argument("--tol", type=float, default=1e-12)

    sp = sub.add_parser("certify", help="certify a region zero-free")
    add_common(sp)
    sp.add_argument("--x-range", type=_parse_range, default=(0.0, 1.0))
    sp.add_argument("--omega-range", type=_parse_range, default=(0.0, 0.48))
    sp.add_argument("--tau", type=float, default=0.0)
    sp.add_argument("--step", type=float, default=1 / 1024)

    sp = sub.add_parser("framebounds", help="Gabor frame-bound estimates for alpha=1, beta=1/N")
    add_common(sp)
    sp.add_argument("--N", type=int, default=1)
    sp.add_argument("--res", type=_parse_res, default=(64, 64))
    sp.add_argument("--refinements", type=int, default=3)

    sp = sub.add_parser("discrete-frame", help="periodized discrete Gabor frame test on C^K")
    add_common(sp)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--window-only", action="store_true", help="emit the discrete window instead of the test report")

    sp = sub.add_parser("converge", help="truncation convergence sweep for a generator")
    sp.add_argument("--gen", type=_parse_gen, required=True)
    sp.add_argument("--ns", type=lambda text: _parse_floats(text, int), default=[4, 8, 16, 32])
    sp.add_argument("--sigma", type=float, default=None)
    sp.add_argument("--n-ref", type=int, default=64)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("psi", help="decay diagnostic of the reciprocal Laplace transform")
    add_common(sp)
    sp.add_argument("--omega", type=float, default=0.0)
    sp.add_argument("--tau-min", type=float, default=10.0)
    sp.add_argument("--tau-max", type=float, default=1e4)
    sp.add_argument("--samples", type=int, default=40)
    sp.add_argument("--p", type=int, default=None)
    return p


def _run(args):
    """The subcommand's report and its format, csv or json."""
    if args.command == "converge":
        rows = convergence_sweep(args.gen, args.ns, args.sigma, args.n_ref)
        return [("n", "sigma", "distance", "tail_proxy")] + [tuple(r) for r in rows], "csv"
    w = _weights_from(args)
    if args.command == "eval":
        if args.x is not None:
            xs = np.asarray(args.x, dtype=float)
        elif args.grid is not None:
            xs = np.linspace(*args.grid)
        else:
            xs = np.linspace(-10.0 / w.a0, 10.0 / w.a0, 201)
        vals = eval_tp(w, xs + sum(1.0 / a for a in w.raw) if args.apply_shift else xs)
        return [("x", "g")] + [(float(x), float(v)) for x, v in zip(xs, vals)], "csv"
    if args.command == "zak":
        xs, oms = np.arange(args.nx) / args.nx, np.arange(args.nomega) / args.nomega
        return compute_zak_grid(w, xs, oms, tau=args.tau, source=args.source), args.format
    if args.command == "zero":
        return {"x_zero": locate_zero_half(w, tol=args.tol), "omega": 0.5}, "json"
    if args.command == "certify":
        region = Region(x=args.x_range, omega=args.omega_range, tau=args.tau)
        return certify_zero_free(w, region, grid_step=args.step), "json"
    if args.command == "framebounds":
        return frame_bounds(w, args.N, resolution=args.res, refinements=args.refinements), "json"
    if args.command == "discrete-frame":
        window = periodize_sample(w, args.K)
        return (window, "csv") if args.window_only else (discrete_frame_test(window, args.M), "json")
    p = args.p if args.p is not None else w.n  # psi
    with np.errstate(divide="ignore", invalid="ignore"):  # a tau bound <= 0 gives NaN samples: refused below
        taus = np.logspace(np.log10(args.tau_min), np.log10(args.tau_max), args.samples)
    return {"fitted_exponent": psi_decay_diagnostic(w, args.omega, taus, p), "p": p}, "json"


def parse_and_run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "weights", ()) is None and getattr(args, "gen", None) is None:
            parser.error(f"{args.command} needs --weights or --gen")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        write_report(*_run(args), args.out)
        return 0
    except (ZakTPError, ValueError, OSError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1


def main() -> None:
    sys.exit(parse_and_run())


if __name__ == "__main__":
    main()
