"""zaktp benchmark: one-window jobs in a closed loop, every output checked.

Usage, from the root of the repository:

    python3 zakbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_cold, zero_census, frames_zak, window_series (README.md).
The run runs rounds of jobs, one job at a time, until ``--seconds`` have
passed, and always whole rounds.  Spread over the run it times ``PROBES``
fresh interpreters that import zaktp and warm up; ``setup_s`` is their
median.  Each job's outputs are checked outside the timed region.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Details of the run go to
``zakbench/out/``.
"""
from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread, set before NumPy loads here and inherited by every
# child process.  The default two OpenBLAS threads make discrete_frame_test
# 20-50x slower and erratic on a 2-core machine.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBES = 5  # fresh interpreters timed for setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

TRACE_PREFIX = "ZAKBENCH_TRACE "


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_times(stderr: str) -> dict:
    """Cumulative import seconds from ``-X importtime``: zaktp and two SciPy parts."""
    rows = []
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                rows.append((len(name) - len(name.lstrip()), name.strip(), int(cum) * 1e-6))
    if not rows:
        return {}
    top = min(indent for indent, _, _ in rows)
    out = {"zaktp": sum(c for indent, name, c in rows if indent == top and name.startswith("zaktp"))}
    for indent, name, c in rows:
        if name in ("scipy.ndimage", "scipy.optimize"):
            out[name] = c
    return out


def trace_snapshot(text: str) -> dict:
    for line in reversed(text.splitlines()):
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX):])
    return {}


def run_child(argv: list[str], trace: bool, timeout: float = 150.0):
    """Start one interpreter, wait for it; return (seconds, process)."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + argv
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    return time.perf_counter() - t0, proc


def clear_caches() -> None:
    """Empty zaktp's memo caches, so a repeated round starts as cold as the first."""
    for name, mod in list(sys.modules.items()):
        if name == "zaktp" or name.startswith("zaktp."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


class Run:
    def __init__(self, workload: str, trace: bool):
        self.workload = workload
        self.trace = trace
        self.job_times: list[float] = []  # untraced jobs: the end-to-end sample
        self.traced_times: list[float] = []
        self.paired_untraced: list[float] = []
        self.ops: list[tuple] = []
        self.snapshot: dict = {}
        self.imports: list[dict] = []
        self.spans: list = []

    # -- one job -------------------------------------------------------------

    def warm_job(self, job: dict, tracer=None):
        fn = wl.JOBS[self.workload]
        try:
            t0 = time.perf_counter()
            out = fn(job, tracer.set_phase if tracer else (lambda name: None))
            dt = time.perf_counter() - t0
        except Exception as exc:  # a job that raises is a failed operation
            self.ops.append((f"{self.workload}.job", False, f"{type(exc).__name__}: {exc}"))
            return None
        self.ops.extend(checks.CHECKS[self.workload](job, out))
        return dt

    def cli_job(self, job: dict, traced: bool):
        argv = [os.path.join(HERE, "cli_job.py")] + (["--trace"] if traced else []) + job["argv"]
        dt, proc = run_child(argv, traced)
        self.ops.extend(checks.check_cli(job, proc.returncode, proc.stdout))
        if traced:
            snap = trace_snapshot(proc.stderr)
            if not self.spans:
                self.spans = snap.pop("spans", [])
            snap.pop("spans", None)
            tracer_mod.merge(self.snapshot, snap)
            self.imports.append(import_times(proc.stderr))
        return dt

    # -- rounds --------------------------------------------------------------

    def round(self, jobs: list[dict]) -> None:
        if self.workload == "cli_cold":
            for job in jobs:
                if self.trace:
                    self.paired_untraced.append(self.cli_job(job, False))
                    self.traced_times.append(self.cli_job(job, True))
                else:
                    self.job_times.append(self.cli_job(job, False))
            return
        if not self.trace:
            for job in jobs:
                dt = self.warm_job(job)
                if dt is not None:
                    self.job_times.append(dt)
            return
        for job in jobs:
            clear_caches()
            plain = self.warm_job(job)
            clear_caches()
            tracer = tracer_mod.Tracer()
            tracer.keep_spans = not self.spans
            tracer.install()
            try:
                traced = self.warm_job(job, tracer)
            finally:
                tracer.uninstall()
            tracer_mod.merge(self.snapshot, tracer.snapshot())
            if not self.spans:
                self.spans = tracer.spans
            if plain is not None and traced is not None:
                self.paired_untraced.append(plain)
                self.traced_times.append(traced)


class Setup:
    """Setup probes: fresh interpreters that import zaktp and warm up.

    The probes are spread over the run (one before the first job, the rest
    between rounds), because the machine's speed changes from second to
    second and probes started back to back all catch the same phase.
    """

    def __init__(self, workload: str, trace: bool):
        self.argv = [os.path.join(HERE, "probe.py"), workload] + (["--trace"] if trace else [])
        self.trace = trace
        self.times: list[float] = []
        self.imports: list[dict] = []
        self.snapshot: dict = {}

    def probe(self) -> None:
        dt, proc = run_child(self.argv, self.trace)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
        self.times.append(dt)
        if self.trace:
            self.imports.append(import_times(proc.stderr))
            tracer_mod.merge(self.snapshot, trace_snapshot(proc.stdout))


def per_layer(run: Run, imports: list[dict], probe_snap: dict) -> dict:
    jobs = max(len(run.traced_times), 1)
    stats = run.snapshot.get("stats", {})
    phased = run.snapshot.get("phased", {})

    def total(key, i):
        return stats.get(key, [0, 0.0, 0.0, 0])[i]

    m = {}
    for layer in tracer_mod.LAYERS:
        keys = [k for k in stats if k.startswith(layer + ".")]
        m[f"{layer}.self_s"] = (sum(stats[k][1] for k in keys) / jobs, "s/job")
        m[f"{layer}.calls"] = (sum(stats[k][0] for k in keys) / jobs, "calls/job")
    for name, key, i, unit in (
        ("cli.run_s", "cli.parse_and_run", 2, "s/job"),
        ("report_io.write_report.s", "report_io.write_report", 2, "s/job"),
        ("analysis.certify_zero_free.s", "analysis.certify_zero_free", 2, "s/job"),
        ("analysis.locate_zero_half.s", "analysis.locate_zero_half", 2, "s/job"),
        ("weights.exp_sum_rep.calls", "weights.exp_sum_rep", 0, "calls/job"),
        ("frames.frame_bounds.s", "frames.frame_bounds", 2, "s/job"),
        ("frames.discrete_frame_test.s", "frames.discrete_frame_test", 2, "s/job"),
        ("frames.periodize_sample.s", "frames.periodize_sample", 2, "s/job"),
        ("zak.zak_prefactor.calls", "zak.zak_prefactor", 0, "calls/job"),
        ("zak.zak_inversion_check.s", "zak.zak_inversion_check", 2, "s/job"),
        ("zak.compute_zak_grid.s", "zak.compute_zak_grid", 2, "s/job"),
        ("zak.zak_tp_with_tail.calls", "zak.zak_tp_with_tail", 0, "calls/job"),
        ("weights.eval_tp.s", "weights.eval_tp", 2, "s/job"),
        ("weights.eval_tp.points", "weights.eval_tp", 3, "points/job"),
        ("ebspline.build_ebspline.calls", "ebspline.build_ebspline", 0, "calls/job"),
        ("ebspline.build_ebspline.s", "ebspline.build_ebspline", 2, "s/job"),
        ("ebspline.eval_ebspline.points", "ebspline.eval_ebspline", 3, "points/job"),
        ("convergence.convergence_sweep.s", "convergence.convergence_sweep", 2, "s/job"),
        ("convergence.zak_strip_distance.s", "convergence.zak_strip_distance", 2, "s/job"),
    ):
        m[name] = (total(key, i) / jobs, unit)
    for phase in ("pieces", "box"):
        m[f"analysis.certify_zero_free.{phase}_s"] = (phased.get(f"analysis.certify_zero_free|{phase}", 0.0) / jobs, "s/job")

    def med(key):
        vals = [d[key] for d in imports if key in d]
        return statistics.median(vals) if vals else 0.0

    m["cli.import_s"] = (med("zaktp"), "s")
    m["cli.import.scipy_ndimage_s"] = (med("scipy.ndimage"), "s")
    m["cli.import.scipy_optimize_s"] = (med("scipy.optimize"), "s")
    build = probe_snap.get("stats", {}).get("ebspline.build_ebspline", [0, 0.0, 0.0, 0])
    m["setup.build_ebspline.calls"] = (build[0] / PROBES, "calls")
    m["setup.build_ebspline.s"] = (build[2] / PROBES, "s")
    plain, traced = sum(run.paired_untraced), sum(run.traced_times)
    m["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0) if plain else 0.0, "%")
    m["trace.jobs"] = (len(run.traced_times), "count")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("cli_cold", "zero_census", "frames_zak", "window_series"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zaktp", "__init__.py")):
        sys.stderr.write(f"zakbench: no zaktp sources under {SRC}\n")
        return 2

    global np, wl, checks, tracer_mod
    sys.path[:0] = [SRC, HERE]
    import numpy as np

    import checks
    import tracer as tracer_mod
    import workloads as wl

    trace = bool(args.trace)
    setup = Setup(args.workload, trace)
    setup.probe()
    wl.warm_up(args.workload)

    rng = np.random.default_rng(args.seed)
    run = Run(args.workload, trace)
    rounds = 0
    start = time.perf_counter()
    probing = 0.0  # time spent in probes during the loop, not part of --seconds

    def elapsed():
        return time.perf_counter() - start - probing

    while rounds == 0 or elapsed() < args.seconds:
        run.round(wl.make_round(args.workload, rng))
        rounds += 1
        while len(setup.times) < PROBES and len(setup.times) * args.seconds / PROBES <= elapsed():
            t0 = time.perf_counter()
            setup.probe()
            probing += time.perf_counter() - t0
    wall = elapsed()
    while len(setup.times) < PROBES:
        setup.probe()

    failed_ops = [op for op in run.ops if not op[1]]
    correct = all(name in wl.KNOWN_FAULTS for name, _, _ in failed_ops)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    if trace:
        metrics = per_layer(run, setup.imports + run.imports, setup.snapshot)
    else:
        times = run.job_times
        metrics = {
            "setup_s": (statistics.median(setup.times), "s"),
            "jobs_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
            "job_p50_s": (statistics.median(times) if times else 0.0, "s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        }

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "wall_s": wall,
        "setup_probe_s": setup.times,
        "job_s": run.job_times or run.traced_times,
        "paired_untraced_s": run.paired_untraced,
        "failed_ops": failed_ops,
        "unexpected_failures": [op for op in failed_ops if op[0] not in wl.KNOWN_FAULTS],
        "metrics": metrics,
        "trace_stats": run.snapshot if trace else None,
        "first_job_spans": run.spans if trace else None,
    }
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)
    for name, ok, msg in failed_ops[:20]:
        sys.stderr.write(f"FAILED {name}: {msg}\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.ops),
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
