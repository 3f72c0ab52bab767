"""Span tracing of hessianlab's layers from outside the package.

`Tracer.install()` rebinds every public function of the traced modules to
a wrapper that records a span: name, start, end, parent and thread.  The
rebinding covers the function's own module and every module that imported
it by name (`liouville.solve_dirichlet`, the radial functions in `suites`
and `abp`, ...), plus a few class members listed in `CLASS_MEMBERS`.
`uninstall()` puts every original back.

Spans are kept in memory, on a stack per thread, so that self time stays
correct under the thread pool: a task that `map_ordered` runs in a worker
thread gets the `map_ordered` span that submitted it as its parent, and a
span's self time subtracts the union of its children's intervals, so
overlapping tasks are not subtracted twice.  Spans are written out with
`dump` when the traced work ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from workloads import SUITE_NAMES

PACKAGE = "hessianlab"

LAYERS = (
    "cli", "suites", "parallel", "report", "profile_io", "liouville", "abp",
    "capacity", "brezis_merle", "core", "families", "radial", "quadrature",
)
CHECK_MODULES = ("abp", "capacity", "brezis_merle", "core", "families")
RADIAL_FUNCTIONS = ("s_k_radial", "solve_dirichlet", "from_density", "profile_new")

# (module, class, attribute, span name) traced on top of module functions.
CLASS_MEMBERS = (
    ("radial", "RadialProfile", "__init__", "radial.profile_new"),
    ("radial", "RadialMeasure", "from_density", "radial.from_density"),
    ("radial", "RadialMeasure", "from_atom", "radial.from_atom"),
    ("radial", "RadialMeasure", "from_parts", "radial.from_parts"),
)

TASK_SUFFIX = ".task"


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _array_extra(args, kwargs, result) -> dict:
    # Work of a quadrature call, computed from the array sizes it was given
    # and returned; nothing is read from the kernel itself.
    arrays = [a for a in (*args, *kwargs.values()) if hasattr(a, "nbytes")]
    if hasattr(result, "nbytes"):
        arrays.append(result)
        points = result.size
    else:
        points = arrays[0].size if arrays else 0
    return {"points": int(points), "bytes": int(sum(a.nbytes for a in arrays))}


def _emit_extra(args, kwargs, result) -> dict:
    rows = args[0] if args else kwargs["rows"]
    return {"rows": len(rows), "bytes": len(result.encode("utf-8"))}


def _save_extra(args, kwargs, result) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _suite_extra(args, kwargs, result) -> dict:
    cfg = args[0] if args else kwargs["cfg"]
    return {"suite": cfg.suite}


EXTRAS = {
    "report.emit_report": _emit_extra,
    "profile_io.save_profile": _save_extra,
    "suites.run_suite": _suite_extra,
}


def _task_name(fn) -> str:
    module = getattr(fn, "__module__", None) or ""
    layer = module.rsplit(".", 1)[-1] if module.startswith(PACKAGE + ".") else "parallel"
    return layer + TASK_SUFFIX


class Tracer:
    """Records spans around hessianlab's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.paused = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None, extra=None):
        if self.paused:
            return fn(*args, **kwargs)
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(next(self._ids), name, parent, threading.get_ident())
        stack.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)
        if extra is not None:
            span.extra = extra(args, kwargs, result)
        return result

    def wrap(self, name, fn, extra=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, extra=extra)

        return traced

    def _wrap_map(self, original, thread_count):
        # Each item becomes a task span whose parent is this map_ordered
        # span, also when a worker thread runs it.
        tracer = self

        def run_items(fn, items):
            items = list(items)
            stack = tracer._stack()
            parent = stack[-1].id if stack and not tracer.paused else None
            name = _task_name(fn)

            def task(item):
                return tracer.call(name, fn, (item,), {}, parent=parent)

            return original(task, items)

        def extra(args, kwargs, result):
            items = len(result)
            workers = min(thread_count(), max(items, 1)) if items > 1 else 1
            return {"items": items, "workers": workers}

        return functools.wraps(original)(self.wrap("parallel.map_ordered", run_items, extra))

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name == "parallel.map_ordered":
                    wrappers[obj] = self._wrap_map(obj, modules["parallel"].thread_count)
                elif layer == "quadrature":
                    wrappers[obj] = self.wrap(name, obj, _array_extra)
                else:
                    wrappers[obj] = self.wrap(name, obj, EXTRAS.get(name))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._restore.append((module, attr, obj))
        for layer, cls_name, attr, name in CLASS_MEMBERS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))
            self._restore.append((cls, attr, raw))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        dump_processes(path, [self.spans])


def dump_processes(path, processes: list[list[Span]]) -> None:
    """One JSON line per span: process index, id, name, parent, thread,
    start, end, error and extra."""
    with open(path, "w", encoding="utf-8") as fh:
        for proc, spans in enumerate(processes):
            for s in spans:
                fh.write(json.dumps([proc, s.id, s.name, s.parent, s.thread, s.start, s.end, s.error, s.extra]) + "\n")


def load_spans(path) -> list[Span]:
    """The spans of a file written by `Tracer.dump` (one process)."""
    with open(path, encoding="utf-8") as fh:
        return [Span(*json.loads(line)[1:]) for line in fh]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its children cover.

    Children on one thread never overlap; tasks that the pool ran on
    several threads do, so the covered part is the union of the child
    intervals rather than their sum.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append((s.start, s.end))
    own = {}
    for s in spans:
        covered, reach = 0.0, -math.inf
        for start, end in sorted(children[s.id]):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        own[s.id] = s.seconds - covered
    return own


def _solve_iterations(spans: list[Span]) -> dict[int, int]:
    # Picard iterations of each solve_liouville span, counted from outside
    # as the solve_dirichlet calls it contains.
    by_id = {s.id: s for s in spans}
    counts = {s.id: 0 for s in spans if s.name == "liouville.solve_liouville"}
    for s in spans:
        if s.name != "radial.solve_dirichlet":
            continue
        node = by_id.get(s.parent)
        while node is not None and node.name != "liouville.solve_liouville":
            node = by_id.get(node.parent)
        if node is not None:
            counts[node.id] += 1
    return counts


def layer_metrics(processes: list[list[Span]]) -> dict[str, float]:
    """Per-layer metrics over the spans of one or more processes."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    fn_self: dict[str, float] = defaultdict(float)
    fn_calls: dict[str, int] = defaultdict(int)
    suite_wall: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    iterations: list[int] = []
    failed_iterations = 0
    failed_solves = 0
    for spans in processes:
        own = self_times(spans)
        by_id = {s.id: s for s in spans}
        per_solve = _solve_iterations(spans)
        for s in spans:
            self_s[s.layer] += own[s.id]
            fn_self[s.name] += own[s.id]
            fn_calls[s.name] += 1
            if not s.name.endswith(TASK_SUFFIX):
                calls[s.layer] += 1
            if s.name == "suites.run_suite":
                suite_wall[s.extra["suite"]] += s.seconds
            elif s.name == "cli.main":
                total["cli.main_s"] += s.seconds
            elif s.name == "parallel.map_ordered":
                total["parallel.items"] += s.extra["items"]
                total["parallel.wall_s"] += s.seconds
                total["parallel.capacity_s"] += s.seconds * s.extra["workers"]
            elif s.name == "report.emit_report":
                total["report.emit_s"] += s.seconds
                total["report.rows"] += s.extra["rows"]
                total["report.bytes"] += s.extra["bytes"]
            elif s.name == "profile_io.save_profile":
                total["profile_io.save_s"] += s.seconds
                total["profile_io.bytes"] += s.extra["bytes"]
            elif s.name == "profile_io.load_profile":
                total["profile_io.load_s"] += s.seconds
            elif s.layer == "quadrature":
                total["quadrature.points"] += s.extra["points"]
                total["quadrature.bytes_computed"] += s.extra["bytes"]
            if s.name.endswith(TASK_SUFFIX):
                parent = by_id.get(s.parent)
                if parent is not None and parent.name == "parallel.map_ordered":
                    total["parallel.busy_s"] += s.seconds
            if s.name == "liouville.solve_liouville":
                iterations.append(per_solve[s.id])
                if s.error == "NoSolutionError":
                    failed_solves += 1
                    failed_iterations += per_solve[s.id]

    out: dict[str, float] = {}
    out["cli.main_s"] = total["cli.main_s"]
    for name in (*SUITE_NAMES, "all"):
        out[f"suites.{name}.wall_s"] = suite_wall[name]
    capacity = total.pop("parallel.capacity_s", 0.0)
    out["parallel.calls"] = calls["parallel"]
    out["parallel.items"] = int(total["parallel.items"])
    out["parallel.wall_s"] = total["parallel.wall_s"]
    out["parallel.busy_s"] = total["parallel.busy_s"]
    out["parallel.efficiency"] = total["parallel.busy_s"] / capacity if capacity else 0.0
    out["report.emit_s"] = total["report.emit_s"]
    out["report.rows"] = int(total["report.rows"])
    out["report.bytes"] = int(total["report.bytes"])
    out["profile_io.save_s"] = total["profile_io.save_s"]
    out["profile_io.load_s"] = total["profile_io.load_s"]
    out["profile_io.bytes"] = int(total["profile_io.bytes"])
    n_iter = sum(iterations)
    out["liouville.solves"] = len(iterations)
    out["liouville.self_s"] = self_s["liouville"]
    out["liouville.iterations"] = n_iter
    out["liouville.iterations.max"] = max(iterations, default=0)
    out["liouville.failed_solves"] = failed_solves
    out["liouville.wasted_iteration_ratio"] = failed_iterations / n_iter if n_iter else 0.0
    for module in CHECK_MODULES:
        out[f"{module}.calls"] = calls[module]
        out[f"{module}.self_s"] = self_s[module]
    for fn in RADIAL_FUNCTIONS:
        out[f"radial.{fn}.calls"] = fn_calls[f"radial.{fn}"]
        out[f"radial.{fn}.self_s"] = fn_self[f"radial.{fn}"]
    n_quad = calls["quadrature"]
    out["quadrature.calls"] = n_quad
    out["quadrature.self_s"] = self_s["quadrature"]
    out["quadrature.us_per_call"] = 1e6 * self_s["quadrature"] / n_quad if n_quad else 0.0
    out["quadrature.points"] = int(total["quadrature.points"])
    out["quadrature.bytes_computed"] = int(total["quadrature.bytes_computed"])
    for layer in LAYERS:
        out[f"self_s.{layer}"] = self_s[layer]
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self time of `python -X importtime` lines, summed by top-level package."""
    by_package: dict[str, float] = defaultdict(float)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the column header
        package = parts[2].strip().split(".", 1)[0]
        by_package[package] += int(parts[0]) * 1e-6
    return {
        "import.total_s": sum(by_package.values()),
        "import.scipy_s": by_package["scipy"],
        "import.numpy_s": by_package["numpy"],
        "import.hessianlab_s": by_package[PACKAGE],
    }
