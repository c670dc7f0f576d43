"""Spans, layer probes and per-layer aggregation for the favest benchmark.

Every run records spans from the benchmark's own code: one ``op`` span per
operation and one ``call`` span around each public favest function the
operation calls.  A traced run adds layer probes.  While a traced operation
runs, each probe only captures the arguments its layer function receives
(no timing inside the program).  After the operation, ``replay`` calls each
captured function again with those arguments and records the call as a
``replay`` span whose parent is the span that made the original call.
Replay times are inclusive of deeper layers; a transform's self time is its
call span minus its direct replay children, so it can read slightly negative
when a replay runs slower than the original call.  Peak allocations come
from one more run of each transform call under tracemalloc.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable

# Public transform calls whose peak allocation a traced operation measures.
ALLOC_METRICS = {
    "transforms.forward_favest": "transforms.forward_peak_alloc_mb",
    "transforms.adjoint_favest": "transforms.adjoint_peak_alloc_mb",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    kind: str  # "op", "call", "replay" or "alloc"
    count: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _Call:
    span: int
    fn: Callable
    args: tuple
    kwargs: dict


class Trace:
    """In-memory span store; ``call`` times a public favest call as a span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op_id = "none"
        self.calls: list[_Call] = []  # direct calls of the current operation

    def _open(self, name: str, kind: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op_id, kind))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def operation(self, op_id: str):
        """Span of one operation; yields its index in ``spans``."""
        self.op_id = op_id
        self.calls = []
        sid = self._open("op", "op")
        try:
            yield sid
        finally:
            self._close(sid)

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        sid = self._open(name, "call")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)
            self.calls.append(_Call(sid, fn, args, kwargs))

    def count(self, sid: int, value: float) -> None:
        self.spans[sid].count = value

    def measure_allocations(self, op_sid: int) -> None:
        """Rerun each transform call of the operation under tracemalloc."""
        for call in self.calls:
            metric = ALLOC_METRICS.get(self.spans[call.span].name)
            if metric is None:
                continue
            tracemalloc.start()
            start = time.perf_counter()
            try:
                call.fn(*call.args, **call.kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            span = Span(metric, start, time.perf_counter(), op_sid, self.op_id, "alloc")
            span.count = peak / 2**20
            self.spans.append(span)

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# --- layer probes -----------------------------------------------------------

def _bind(fn: Callable, args: tuple, kwargs: dict, *names: str) -> list | None:
    """Named arguments of a captured call, or None if the signature lacks one."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return None
    if not all(n in bound.arguments for n in names):
        return None
    return [bound.arguments[n] for n in names]


def _legendre_values(fn, args, kwargs):
    got = _bind(fn, args, kwargs, "lmax", "t")
    if got is None:
        return None
    lmax, t = got
    return float(getattr(t, "size", 1)) * ((lmax + 1) * (lmax + 2) // 2)


def _cg_entries(fn, args, kwargs):
    # Nine coupling arrays over every (l, m) with l <= lmax + 1.
    got = _bind(fn, args, kwargs, "lmax")
    return None if got is None else 9.0 * (got[0] + 2) ** 2


def _gather_bytes(fn, args, kwargs):
    # spectrum[:, ms, :] gathers n_theta x (lmax+1)^2 x columns complex128 values.
    got = _bind(fn, args, kwargs, "f", "grid", "lmax")
    if got is None:
        return None
    f, grid, lmax = got
    columns = f.shape[1] if getattr(f, "ndim", 1) == 2 else 1
    return float(grid.n_theta) * (lmax + 1) ** 2 * columns * 16


@dataclass(frozen=True)
class Probe:
    metric: str  # span name of the replayed call
    module: str
    attr: str
    count: Callable | None = None  # computed work of one call, from its arguments


PROBES = (
    Probe("legendre.legendre_table", "favest.legendre", "legendre_table", _legendre_values),
    Probe("legendre.ylm_table", "favest.legendre", "ylm_table"),
    Probe("coupling.build_cg_tables", "favest.coupling", "build_cg_tables", _cg_entries),
    Probe("coupling.build_adjoint_coupling", "favest.coupling", "build_adjoint_coupling"),
    Probe("scalar.forward_fast", "favest.scalar", "_forward_fast_values", _gather_bytes),
    Probe("scalar.adjoint_fast", "favest.scalar", "_adjoint_fast_values"),
    Probe("scalar.forward_direct", "favest.scalar", "_forward_direct_values"),
    Probe("scalar.adjoint_direct", "favest.scalar", "_adjoint_direct_values"),
)


@dataclass
class _Record:
    probe: Probe
    fn: Callable
    args: tuple
    kwargs: dict
    parent_span: int | None  # a call span of the trace ...
    parent_record: int | None  # ... or an enclosing captured call


class Probes:
    """Argument capture at layer boundaries, and replay of what was captured.

    A probe whose function no longer exists under its name is ``absent``;
    it is reported as such and never replaced by another function.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.absent = {p.metric for p in PROBES
                       if not callable(getattr(sys.modules.get(p.module), p.attr, None))}
        self._records: list[_Record] = []
        self._open: list[int] = []  # records of the calls now running
        self._patched: list[tuple[Any, str, Callable]] = []

    def install(self) -> None:
        """Wrap every favest module global that refers to a probed function."""
        self._records.clear()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "favest" or n.startswith("favest."))]
        for p in PROBES:
            if p.metric in self.absent:
                continue
            original = getattr(sys.modules[p.module], p.attr)
            wrapper = self._wrapper(p, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrapper(self, probe: Probe, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            parent_record = self._open[-1] if self._open else None
            parent_span = self.trace.stack[-1] if self.trace.stack else None
            self._records.append(_Record(probe, fn, args, kwargs, parent_span, parent_record))
            self._open.append(len(self._records) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()

        return wrapper

    def replay(self) -> None:
        """Call each captured function again, in capture order, as a span."""
        records, self._records = self._records, []
        record_span: list[int] = []
        for rec in records:
            if rec.parent_record is None:
                parent = rec.parent_span
            else:
                parent = record_span[rec.parent_record]
            start = time.perf_counter()
            rec.fn(*rec.args, **rec.kwargs)
            span = Span(rec.probe.metric, start, time.perf_counter(), parent,
                        self.trace.op_id, "replay")
            if rec.probe.count is not None:
                span.count = rec.probe.count(rec.fn, rec.args, rec.kwargs)
            self.trace.spans.append(span)
            record_span.append(len(self.trace.spans) - 1)


# --- per-layer metrics --------------------------------------------------------

# (metric, unit, span name, what to take from the span)
PER_LAYER = (
    ("quadrature.gen_gl_tensor_s", "s", "quadrature.gen_gl_tensor", "time"),
    ("quadrature.verify_exactness_s", "s", "quadrature.verify_exactness", "time"),
    ("quadrature.harmonic_sums", "count", "quadrature.verify_exactness", "count"),
    ("legendre.legendre_table_s", "s", "legendre.legendre_table", "time"),
    ("legendre.values", "count", "legendre.legendre_table", "count"),
    ("legendre.ylm_table_s", "s", "legendre.ylm_table", "time"),
    ("coupling.build_cg_tables_s", "s", "coupling.build_cg_tables", "time"),
    ("coupling.build_adjoint_coupling_s", "s", "coupling.build_adjoint_coupling", "time"),
    ("coupling.entries", "count", "coupling.build_cg_tables", "count"),
    ("scalar.forward_fast_s", "s", "scalar.forward_fast", "time"),
    ("scalar.gather_bytes", "B", "scalar.forward_fast", "count"),
    ("scalar.adjoint_fast_s", "s", "scalar.adjoint_fast", "time"),
    ("scalar.forward_direct_s", "s", "scalar.forward_direct", "time"),
    ("scalar.adjoint_direct_s", "s", "scalar.adjoint_direct", "time"),
    ("transforms.forward_self_s", "s", "transforms.forward_favest", "self"),
    ("transforms.adjoint_self_s", "s", "transforms.adjoint_favest", "self"),
    ("transforms.forward_peak_alloc_mb", "MB", "transforms.forward_peak_alloc_mb", "count"),
    ("transforms.adjoint_peak_alloc_mb", "MB", "transforms.adjoint_peak_alloc_mb", "count"),
)


def per_layer_metrics(trace: Trace, ops: set[str], absent: set[str]) -> dict[str, float | None]:
    """Median over ``ops`` of each metric's per-operation sum.

    Only operations in which the span occurs enter the median; a layer the
    workload never reaches reads 0, and an absent probe reads None.
    """
    replay_time: dict[int, float] = {}
    for s in trace.spans:
        if s.kind == "replay" and s.parent is not None:
            replay_time[s.parent] = replay_time.get(s.parent, 0.0) + s.duration
    sums: dict[tuple[str, str], dict[str, float | None]] = {}
    for sid, s in enumerate(trace.spans):
        if s.op not in ops:
            continue
        values = {"time": s.duration, "count": s.count,
                  "self": s.duration - replay_time.get(sid, 0.0)}
        per_op = sums.setdefault((s.name, s.op), {"time": 0.0, "count": 0.0, "self": 0.0})
        for key, v in values.items():
            if per_op[key] is not None:
                per_op[key] = None if v is None else per_op[key] + v
    out: dict[str, float | None] = {}
    for metric, _, span_name, what in PER_LAYER:
        if span_name in absent:
            out[metric] = None
            continue
        values = [v[what] for (name, _), v in sums.items() if name == span_name]
        if any(v is None for v in values):
            out[metric] = None
        else:
            out[metric] = statistics.median(values) if values else 0.0
    return out
