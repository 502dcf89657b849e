"""Outside-in tracer: wraps bessprofit's public functions at their binding sites.

A module that imports a function by name holds its own reference, so a
layer is wrapped in every module that calls it (``BINDINGS``). Each call
records a span (id, parent id, name, thread, start, end, error, counts)
on a thread-local stack. A span opened on a worker thread with an empty
stack takes the innermost open span of the thread that installed the
tracer as its parent, so ``sweep --jobs 2`` nests under ``cli.main``.
Spans stay in memory; ``layer_metrics`` folds one pass of them into the
per-layer numbers. Untraced passes install nothing.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field

from bessprofit import cli, lp, optimizer, profitability
from bessprofit.errors import InfeasibleDispatchError


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)
    # (DispatchProblem, DispatchSolution) of a solve_dispatch span, audited
    # after the pass, outside the timed region
    payload: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _linprog_counts(span, args, result):
    span.counts = {"nit": int(result.nit)}


def _lp_solve_counts(span, args, result):
    span.counts = {"infeasible": int(result.status == lp.INFEASIBLE)}


def _build_lp_counts(span, args, result):
    span.counts = {"nnz": int(result.A_ub.nnz), "rows": int(result.n_rows),
                   "vars": int(result.n_vars)}


def _tune_counts(span, args, result):
    span.counts = {"solves": result.n_solves, "warnings": int(result.warning is not None)}


def _keep_dispatch(span, args, result):
    span.payload = (args[0], result)


# (module, attribute, span name, hook): every site a layer is called
# from. The benchmark itself calls cli.main and profitability.tune_friction
# through their modules, so those two entries cover its own call sites.
BINDINGS = (
    (cli, "main", "cli.main", None),
    (cli, "load_scenario", "timeseries.load_scenario", None),
    (cli, "baseline_metrics", "timeseries.baseline_metrics", None),
    (cli, "evaluate_candidate", "profitability.evaluate_candidate", None),
    (cli, "tune_friction", "profitability.tune_friction", _tune_counts),
    (cli, "render_table", "report.render_table", None),
    (cli, "write_report", "report.write_report", None),
    (profitability, "tune_friction", "profitability.tune_friction", _tune_counts),
    (profitability, "baseline_metrics", "timeseries.baseline_metrics", None),
    (profitability, "evaluate", "profitability.evaluate", None),
    (profitability, "select_ppc", "optimizer.select_ppc", None),
    (profitability, "solve_dispatch", "optimizer.solve_dispatch", _keep_dispatch),
    (profitability, "count_cycles", "cycles.count_cycles", None),
    (optimizer, "solve_dispatch", "optimizer.solve_dispatch", _keep_dispatch),
    (optimizer, "build_lp", "optimizer.build_lp", _build_lp_counts),
    (lp, "solve", "lp.solve", _lp_solve_counts),
    (lp, "linprog", "lp.highs", _linprog_counts),
)


class Tracer:
    """Installs span-recording wrappers; use as a context manager around one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack: list[Span] = []
        self._home_thread = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home_thread:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, hook=None):
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else (self._home_stack[-1] if self._home_stack else None)
            span = Span(next(self._ids), parent.id if parent else None, name,
                        threading.get_ident(), 0.0)
            self.spans.append(span)
            stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.end = time.perf_counter()
            span.error = type(exc).__name__
            raise
        else:
            span.end = time.perf_counter()
            if hook is not None:
                hook(span, args, result)
            return result
        finally:
            with self._lock:
                stack.pop()

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for module, attr, name, hook in BINDINGS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(span: Span, children: list[Span]) -> float:
    return span.duration - _covered([(c.start, c.end) for c in children])


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals for one pass; names as listed in BENCHMARK.json."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def self_total(name):
        return sum(self_time(s, children.get(s.id, [])) for s in by_name.get(name, ()))

    ppc_solves = [c for s in by_name.get("optimizer.select_ppc", ())
                  for c in children.get(s.id, []) if c.name == "optimizer.solve_dispatch"]
    wasted = [c for c in ppc_solves if c.error == InfeasibleDispatchError.__name__]
    candidate_s = [s.duration for s in by_name.get("profitability.evaluate_candidate", ())]
    main_s = total("cli.main")

    out = {}
    for name in ("lp.highs", "lp.solve", "optimizer.build_lp", "optimizer.solve_dispatch",
                 "optimizer.select_ppc", "profitability.tune_friction",
                 "profitability.evaluate_candidate", "profitability.evaluate",
                 "timeseries.baseline_metrics", "cycles.count_cycles",
                 "timeseries.load_scenario", "report.render_table", "report.write_report",
                 "cli.main"):
        out[f"{name}.s"] = total(name)
        out[f"{name}.calls"] = calls(name)
    out["lp.highs.nit"] = count("lp.highs", "nit")
    out["lp.solve.self_s"] = self_total("lp.solve")
    out["lp.solve.infeasible"] = count("lp.solve", "infeasible")
    for key in ("nnz", "rows", "vars"):
        out[f"optimizer.build_lp.{key}"] = count("optimizer.build_lp", key)
    out["optimizer.solve_dispatch.self_s"] = self_total("optimizer.solve_dispatch")
    out["optimizer.select_ppc.solves"] = len(ppc_solves)
    out["optimizer.select_ppc.infeasible"] = len(wasted)
    out["optimizer.select_ppc.wasted_s"] = sum(s.duration for s in wasted)
    out["optimizer.select_ppc.useful_ratio"] = (
        (len(ppc_solves) - len(wasted)) / len(ppc_solves) if ppc_solves else 0.0
    )
    out["profitability.tune_friction.solves"] = count("profitability.tune_friction", "solves")
    out["profitability.tune_friction.warnings"] = count("profitability.tune_friction", "warnings")
    out["profitability.evaluate_candidate.p50_s"] = _percentile(candidate_s, 50) if candidate_s else 0.0
    out["profitability.evaluate_candidate.p90_s"] = _percentile(candidate_s, 90) if candidate_s else 0.0
    out["cli.main.self_s"] = self_total("cli.main")
    out["cli.sweep.parallelism"] = sum(candidate_s) / main_s if main_s > 0 else 0.0
    return out
