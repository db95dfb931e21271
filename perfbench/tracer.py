"""Span tracer that wraps coco_lab's public functions from outside.

A span is opened around every call of a wrapped function. Spans nest per
thread, so a span's self time is its duration minus the time covered by
the spans it caused on the same thread. Wrapping works by rebinding every
module-level name (and class attribute) that refers to the original
function, including the ``from .x import f`` copies other modules hold, and
``restore`` rebinds the originals and checks that no wrapper is left.

Spans are aggregated in memory as they close (calls, total duration, total
self time, and per-call durations where percentiles are wanted), one
aggregate table per thread, merged when read.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import threading
import time
from array import array

_MARK = "__perfbench_original__"


class Tracer:
    """Collects span aggregates; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter, keep_durations=(), cpu_spans=(),
                 cpu_clock=time.process_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.keep_durations = frozenset(keep_durations)
        self.cpu_spans = frozenset(cpu_spans)
        self.active = False
        self._local = threading.local()
        self._tables = []
        self._tables_lock = threading.Lock()
        self._rebound = []  # (namespace, name, original)
        self.persist_bytes = 0  # bytes of the artefacts traced persist calls wrote

    # -- span bookkeeping --------------------------------------------------

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = {}
            with self._tables_lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def open(self, name):
        stack, _ = self._thread_state()
        # frame: [name, start, time covered by child spans, counter, cpu start]
        cpu = self.cpu_clock() if name in self.cpu_spans else 0.0
        frame = [name, self.clock(), 0.0, 0, cpu]
        stack.append(frame)
        return frame

    def close(self, frame):
        end = self.clock()
        cpu = self.cpu_clock() - frame[4] if frame[0] in self.cpu_spans else 0.0
        stack, table = self._thread_state()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        agg = table.get(frame[0])
        if agg is None:
            agg = table[frame[0]] = empty_aggregate()
        agg["calls"] += 1
        agg["total_s"] += duration
        agg["self_s"] += duration - frame[2]
        agg["inner"] += frame[3]
        agg["cpu_s"] += cpu
        if frame[0] in self.keep_durations:
            agg["durations"].append(duration)
        return duration

    @contextlib.contextmanager
    def recording(self):
        """Record spans only inside this block."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def count_inside(self, parent_name):
        """Add one to the innermost open span if it is named ``parent_name``."""
        stack, _ = self._thread_state()
        if stack and stack[-1][0] == parent_name:
            stack[-1][3] += 1

    def stats(self) -> dict:
        """Aggregates merged over threads: name -> calls, total_s, self_s,
        inner (counted calls inside), cpu_s (process CPU, ``cpu_spans`` only)
        and durations (``keep_durations`` only)."""
        merged = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for name, agg in table.items():
                m = merged.setdefault(name, empty_aggregate())
                for key, value in agg.items():
                    if key == "durations":
                        m[key].extend(value)
                    else:
                        m[key] += value
        return merged

    # -- wrapping ----------------------------------------------------------

    def span_wrapper(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs)``, if given, runs once
        the span has closed."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)
                if after is not None:
                    after(args, kwargs)

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def count_wrapper(self, parent_name, fn):
        """Wrap ``fn`` so each call made directly inside ``parent_name`` is counted."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.count_inside(parent_name)
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", parent_name)
        return wrapper

    def rebind(self, original, wrapper, modules, classes=()):
        """Point every module-level name and class attribute that holds
        ``original`` at ``wrapper``; returns how many names were rebound."""
        n = 0
        for ns in list(modules) + list(classes):
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
                    self._rebound.append((ns, attr, original))
                    n += 1
        if n == 0:
            raise RuntimeError(f"nothing refers to {original!r}; cannot trace it")
        return n

    def restore(self):
        """Rebind every original, then check that no wrapper is reachable."""
        for ns, attr, original in reversed(self._rebound):
            setattr(ns, attr, original)
        rebound, self._rebound = self._rebound, []
        for ns, attr, original in rebound:
            if vars(ns).get(attr) is not original:
                raise RuntimeError(f"{ns!r}.{attr} was not restored")
        return len(rebound)


def empty_aggregate():
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "inner": 0, "cpu_s": 0.0,
            "durations": array("d")}


def package_namespaces(package="coco_lab"):
    """All loaded modules of ``package`` and every class they define."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    classes = []
    for m in modules:
        for value in vars(m).values():
            if isinstance(value, type) and value.__module__.startswith(package) \
                    and value not in classes:
                classes.append(value)
    return modules, classes


def leftover_wrappers(package="coco_lab"):
    """Names in ``package`` that still hold a wrapper (should be empty)."""
    modules, classes = package_namespaces(package)
    found = []
    for ns in modules + classes:
        for attr, value in vars(ns).items():
            if hasattr(value, _MARK):
                found.append(f"{getattr(ns, '__name__', ns)}.{attr}")
    return found


# span name -> (module, qualified attribute) of every traced public function
SPANS = {
    "geometry.intersection_project": [("geometry", "Intersection.project")],
    "geometry.intersection_init": [("geometry", "Intersection.__init__")],
    "scenarios.generate": [("scenarios", f"{cls}.generate") for cls in (
        "AlternatingScenario", "DisjointAlternatingScenario", "StaticScenario",
        "TrackingBallScenario", "OcoMixScenario", "TrivialScenario")],
    "scenarios.build_scenario": [("scenarios", "build_scenario")],
    "subroutines.ahag_round": [("subroutines", "ahag_round")],
    "subroutines.adahedge_step": [("subroutines", "adahedge_step")],
    "subroutines.adagrad_step": [("subroutines", "adagrad_step")],
    "coco.round": [("coco", "coco1_round"), ("coco", "coco2_round")],
    "coco.surrogate_subgradient": [("coco", "coco1_surrogate_subgradient"),
                                   ("coco", "coco2_surrogate_subgradient")],
    "core.decision_set_project": [("core", "DecisionSet.project")],
    "core.surrogate_grad_sq_sum": [("core", "RunRecord.surrogate_grad_sq_sum")],
    "harness.run": [("harness", "run")],
    "harness.persist": [("harness", "persist")],
    "harness.rounds_csv_text": [("harness", "rounds_csv_text")],
    "harness.plotdata_csv_text": [("harness", "plotdata_csv_text")],
    "harness.sweep": [("harness", "sweep")],
    "harness.verify_run": [("harness", "verify_run")],
    "harness.load_run": [("harness", "load_run")],
    "cli.main": [("cli", "main")],
}

# primitive projections counted when called directly inside Intersection.project
PRIMITIVES = [("geometry", "Box.project"), ("geometry", "Ball.project"),
              ("geometry", "Halfspace.project")]

KEEP_DURATIONS = ("geometry.intersection_project", "scenarios.generate",
                  "subroutines.ahag_round", "subroutines.adahedge_step", "coco.round")


def _lookup(module_name, qualname):
    obj = importlib.import_module(f"coco_lab.{module_name}")
    *owners, attr = qualname.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    return obj, attr


def _persist_bytes(tracer):
    def after(args, kwargs):
        out_dir = kwargs.get("out_dir", args[2] if len(args) > 2 else None)
        total = sum(os.path.getsize(os.path.join(out_dir, f))
                    for f in ("rounds.csv", "summary.json", "config.json", "plotdata.csv")
                    if os.path.exists(os.path.join(out_dir, f)))
        tracer.persist_bytes += total
    return after


def install(tracer: Tracer) -> int:
    """Wrap every function in ``SPANS`` and ``PRIMITIVES``; returns names rebound."""
    for module_name in {m for targets in SPANS.values() for m, _ in targets}:
        importlib.import_module(f"coco_lab.{module_name}")
    modules, classes = package_namespaces()
    n = 0
    for span, targets in SPANS.items():
        after = _persist_bytes(tracer) if span == "harness.persist" else None
        for module_name, qualname in targets:
            owner, attr = _lookup(module_name, qualname)
            original = vars(owner)[attr]
            wrapper = tracer.span_wrapper(span, original, after)
            n += tracer.rebind(original, wrapper, modules, classes)
    for module_name, qualname in PRIMITIVES:
        owner, attr = _lookup(module_name, qualname)
        original = vars(owner)[attr]
        wrapper = tracer.count_wrapper("geometry.intersection_project", original)
        n += tracer.rebind(original, wrapper, modules, classes)
    return n
