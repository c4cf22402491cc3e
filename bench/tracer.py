"""Timing spans around the public functions of gaugeqed, installed from outside.

The package imports functions by name (``from .linalg import hermitian_eig``),
so wrapping one module attribute is not enough: :meth:`Tracer.install`
rebinds every ``gaugeqed.*`` module attribute that *is* a target function
object, plus the numpy/scipy eigensolvers the package reaches through
attribute lookup.  ``OperatorMatrix.__post_init__`` is wrapped at class level,
and ``open`` is shadowed in the modules that write output files.

Spans stay in memory as (id, name, start, end, parent, thread, attrs) and are
summarised when the run ends.  A span's parent is the innermost open span on
its thread; work submitted to a ``ThreadPoolExecutor`` takes the submitting
span as its parent, so a sweep's points are children of ``run_sweep``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (layer, module, attribute) of every wrapped gaugeqed function; the span is
# named "<layer>.<attribute>"
PACKAGE_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli", "gaugeqed.cli", "main"),
    ("experiments", "gaugeqed.experiments", "run_sweep"),
    ("experiments", "gaugeqed.experiments", "converged_transitions"),
    ("experiments", "gaugeqed.experiments", "lowest_transitions"),
    ("experiments", "gaugeqed.experiments", "taylor_study"),
    ("rabi", "gaugeqed.rabi", "build_H_D"),
    ("rabi", "gaugeqed.rabi", "build_H_C_standard"),
    ("rabi", "gaugeqed.rabi", "build_H_C_correct"),
    ("rabi", "gaugeqed.rabi", "build_H_C_taylor"),
    ("rabi", "gaugeqed.rabi", "maclaurin_cos_sin"),
    ("dicke", "gaugeqed.dicke", "build_dicke_standard"),
    ("dicke", "gaugeqed.dicke", "build_dicke_correct"),
    ("particle1d", "gaugeqed.particle1d", "solve_particle"),
    ("particle1d", "gaugeqed.particle1d", "build_full_H_D"),
    ("particle1d", "gaugeqed.particle1d", "build_full_H_C"),
    ("linalg", "gaugeqed.linalg", "hermitian_eig"),
    ("linalg", "gaugeqed.linalg", "matrix_function"),
    ("linalg", "gaugeqed.linalg", "kron"),
    ("qops", "gaugeqed.qops", "fock_ops"),
    ("qops", "gaugeqed.qops", "spin_ops"),
)

# eigensolvers the package calls through module attribute lookup
LAPACK_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "eigh"),
    ("scipy.linalg", "eig_banded"),
    ("scipy.sparse.linalg", "eigsh"),
)

# modules whose output files are traced by shadowing the builtin open
WRITER_MODULES = ("gaugeqed.cli", "gaugeqed.experiments")

LAYERS = ("cli", "experiments", "rabi", "dicke", "particle1d", "linalg",
          "qops", "lapack", "io")

SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, _, attr in PACKAGE_TARGETS) \
    + tuple(f"lapack.{attr}" for _, attr in LAPACK_TARGETS) + ("io.write",)
OPERATOR_SPAN = "linalg.OperatorMatrix"

# fallback when gaugeqed.rabi no longer defines the double-precision limit
DOUBLE_SAFE_ARG_DEFAULT = 18.0

_MISSING = object()


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, id, name, start, end, parent, thread, attrs=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.attrs = attrs

    def as_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent,
                self.thread, self.attrs]

    @classmethod
    def from_list(cls, row: Sequence) -> "Span":
        return cls(*row)


class Tracer:
    """Collects spans; :meth:`install` wraps the targets, :meth:`uninstall`
    puts every original object back."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, time.perf_counter(), None,
                    stack[-1] if stack else None, threading.get_ident())
        stack.append(span.id)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span.id:
            stack.pop()
        else:
            stack.remove(span.id)

    def run_as_child_of(self, parent: Optional[int], fn, *args, **kwargs):
        """Run fn on this thread with ``parent`` as the enclosing span."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def wrap(self, name: str, fn, attrs: Optional[Callable] = None):
        """fn wrapped in a span; attrs(args, kwargs, result) -> dict."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; gaugeqed must already be imported."""
        import numpy as np

        rabi = importlib.import_module("gaugeqed.rabi")
        safe_arg = float(getattr(rabi, "DOUBLE_SAFE_ARG",
                                 DOUBLE_SAFE_ARG_DEFAULT))

        def maclaurin_attrs(args, kwargs, result):
            values = np.asarray(args[0] if args else kwargs["values"],
                                dtype=float)
            return {"values": int(values.size),
                    "mp_values": int(np.count_nonzero(np.abs(values) > safe_arg))}

        def dim_attrs(args, kwargs, result):
            a = args[0] if args else next(iter(kwargs.values()))
            return {"n": int(np.shape(a)[-1])}

        def cutoff_attrs(args, kwargs, result):
            return {"cutoff": int(result[1])}

        special = {"maclaurin_cos_sin": maclaurin_attrs,
                   "converged_transitions": cutoff_attrs}

        wrappers: Dict[int, object] = {}
        for layer, module, attr in PACKAGE_TARGETS:
            fn = getattr(importlib.import_module(module), attr)
            wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn,
                                              special.get(attr)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gaugeqed"
                                   or mod_name.startswith("gaugeqed.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

        for module, attr in LAPACK_TARGETS:
            mod = importlib.import_module(module)
            self._set(mod, attr, self.wrap(f"lapack.{attr}",
                                           getattr(mod, attr), dim_attrs))

        linalg = importlib.import_module("gaugeqed.linalg")
        cls = linalg.OperatorMatrix
        post_init = cls.__post_init__

        def operator_attrs(args, kwargs, result):
            return {"bytes": int(args[0].arr.nbytes)}

        self._set(cls, "__post_init__",
                  self.wrap(OPERATOR_SPAN, post_init, operator_attrs))

        for module in WRITER_MODULES:
            self._set(importlib.import_module(module), "open",
                      self._traced_open)

        tracer = self
        submit = ThreadPoolExecutor.submit

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            return submit(pool, tracer.run_as_child_of, tracer.current(), fn,
                          *args, **kwargs)

        self._set(ThreadPoolExecutor, "submit", traced_submit)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def _traced_open(self, file, mode="r", *args, **kwargs):
        if not any(c in mode for c in "wax+"):
            return open(file, mode, *args, **kwargs)
        span = self.open("io.write")
        try:
            return _WriteSpan(self, span, open(file, mode, *args, **kwargs))
        except BaseException:
            self.close(span)
            raise


class _WriteSpan:
    """File proxy whose span runs from open to close, counting bytes."""

    def __init__(self, tracer: Tracer, span: Span, fh):
        self._tracer = tracer
        self._span = span
        self._fh = fh
        self._bytes = 0

    def write(self, data):
        n = self._fh.write(data)
        self._bytes += len(data.encode() if isinstance(data, str) else data)
        return n

    def close(self):
        if self._span is not None:
            self._fh.close()
            self._tracer.close(self._span)
            self._span.attrs = {"bytes": self._bytes}
            self._span = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __getattr__(self, name):
        return getattr(self._fh, name)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def covered(intervals: Sequence[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= max(a, reach):
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: Dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start)
            - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def _ancestors(span: Span, by_id: Dict[int, Span]):
    parent = span.parent
    while parent is not None:
        node = by_id[parent]
        yield node
        parent = node.parent


def _quantile(values: Sequence[float], q: int) -> float:
    """q-th percentile (inclusive method); 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(spans: Sequence[Span], threads: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced run.

    Every span name and layer appears, with zeros where the run never
    entered it, so every workload reports the same metric set.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out: Dict[str, Tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def under(span, names):
        return any(a.name in names for a in _ancestors(span, by_id))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, ()) if s.attrs)

    for name in SPAN_NAMES + (OPERATOR_SPAN,):
        mine = by_name.get(name, ())
        calls_key = "inits" if name == OPERATOR_SPAN else "calls"
        put(f"{name}.{calls_key}", len(mine), "count")
        put(f"{name}.total_s", sum(s.end - s.start for s in mine), "s")
        put(f"{name}.self_s", sum(selfs[s.id] for s in mine), "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", sum(selfs[s.id] for s in spans
                                   if s.name.split(".", 1)[0] == layer), "s")

    put("linalg.OperatorMatrix.bytes", attr_sum(OPERATOR_SPAN, "bytes"), "B")
    put("rabi.maclaurin_cos_sin.values",
        attr_sum("rabi.maclaurin_cos_sin", "values"), "count")
    put("rabi.maclaurin_cos_sin.mp_values",
        attr_sum("rabi.maclaurin_cos_sin", "mp_values"), "count")
    for name in ("lapack.eigvalsh", "lapack.eigh"):
        put(f"{name}.n3_sum",
            sum(s.attrs["n"] ** 3 for s in by_name.get(name, ()) if s.attrs),
            "count")
    dense = by_name.get("lapack.eigvalsh", []) + by_name.get("lapack.eigh", [])
    put("lapack.eig.dim_max",
        max((s.attrs["n"] for s in dense if s.attrs), default=0), "count")
    put("lapack.eigh.calls_for_X",
        sum(1 for s in by_name.get("lapack.eigh", ())
            if under(s, {"linalg.matrix_function", "rabi.build_H_C_taylor"})),
        "count")

    points = by_name.get("experiments.converged_transitions", [])
    builds = sum(1 for s in by_name.get("experiments.lowest_transitions", ())
                 if under(s, {"experiments.converged_transitions"}))
    put("experiments.points", len(points), "count")
    put("experiments.builds", builds, "count")
    put("experiments.builds_per_point",
        builds / len(points) if points else 0.0, "ratio")
    put("experiments.useful_build_ratio",
        len(points) / builds if builds else 0.0, "ratio")
    put("experiments.cutoff_sum", attr_sum("experiments.converged_transitions",
                                           "cutoff"), "count")
    durations_ms = [1e3 * (s.end - s.start) for s in points]
    put("experiments.point_p50_ms", _quantile(durations_ms, 50), "ms")
    put("experiments.point_p90_ms", _quantile(durations_ms, 90), "ms")
    sweep_s = sum(s.end - s.start
                  for s in by_name.get("experiments.run_sweep", ()))
    busy = sum(s.end - s.start for s in points
               if under(s, {"experiments.run_sweep"}))
    put("experiments.pool_idle_frac",
        1.0 - busy / (threads * sweep_s) if sweep_s > 0 else 0.0, "ratio")

    put("io.bytes_written", attr_sum("io.write", "bytes"), "B")
    put("io.files", len(by_name.get("io.write", ())), "count")
    return out
