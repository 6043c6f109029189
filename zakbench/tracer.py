"""In-memory spans around zaktp's public functions, installed from outside.

``Tracer.install`` replaces every public function of each layer module with
a timing wrapper, under its own name and under every name other zaktp
modules (and the package) import it by, and ``uninstall`` puts the
originals back.  No file under ``src/`` is touched.

Per function the tracer keeps calls, self time (span time minus the time
of the spans it caused), inclusive time of outermost calls, and the number
of points for the evaluators.  Inclusive time can also be split by a phase
label that the job sets.  With ``keep_spans`` it also records each span as
(id, parent id, function, start, end) for the trace file.
"""
from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("weights", "ebspline", "zak", "analysis", "frames", "convergence", "report_io", "cli")

# functions whose first positional argument after the window is a point set
POINT_ARGS = {"weights.eval_tp": 1, "ebspline.eval_ebspline": 1}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, self_s, incl_s, points]
        self.phased: dict[str, float] = {}  # "key|phase" -> inclusive s
        self.phase = None
        self.keep_spans = False
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [child time, span id]
        self._depth: dict[str, int] = {}
        self._patched: list[tuple] = []
        self._next_id = 0

    def set_phase(self, name) -> None:
        self.phase = name

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        point_arg = POINT_ARGS.get(key)
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            depth[key] = depth.get(key, 0) + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                depth[key] -= 1
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt - frame[0]
                if depth[key] == 0:
                    stats[2] += dt
                    if self.phase is not None:
                        pk = f"{key}|{self.phase}"
                        self.phased[pk] = self.phased.get(pk, 0.0) + dt
                if point_arg is not None and len(args) > point_arg:
                    stats[3] += _size(args[point_arg])
                if self.keep_spans:
                    self.spans.append((span_id, parent, key, start, start + dt))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        if self._patched:
            return
        mods = {name: importlib.import_module(f"zaktp.{name}") for name in LAYERS}
        holders = [importlib.import_module("zaktp")] + list(mods.values())
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for holder in holders:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, fn))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()}, "phased": dict(self.phased)}


def _size(x) -> int:
    try:
        return int(getattr(x, "size", None) or len(x))
    except TypeError:
        return 1


def merge(total: dict, part: dict) -> dict:
    """Add one snapshot's counts into another."""
    stats = total.setdefault("stats", {})
    for key, vals in part.get("stats", {}).items():
        acc = stats.setdefault(key, [0, 0.0, 0.0, 0])
        for i, v in enumerate(vals):
            acc[i] += v
    phased = total.setdefault("phased", {})
    for key, v in part.get("phased", {}).items():
        phased[key] = phased.get(key, 0.0) + v
    return total
