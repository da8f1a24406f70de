"""Spans around calls into the simulator's layers, recorded from outside.

:func:`instrument` wraps public functions of each layer (trace synthesis,
wrong-path pools, machine build, the kernel, the model, the router, the
engine, the cache and stats serialization) so every call records a span:
name, start, end, parent span, thread and run id.  Spans stay in memory
and are written as JSON lines when the run ends (:meth:`Recorder.dump`).
A layer's self time is its spans' duration minus the part of each span
its child spans cover (:func:`self_times`).

Per-stage and memory-system time are too fine-grained for spans; they
come from a cProfile attached around the workload (:func:`stage_times`),
the same way ``repro.experiments.perf.profile_workload`` maps each
stage's ``tick`` back to its name.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Recorder:
    """In-memory span store; one per process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = True
        #: ``(id, parent, name, start, end, thread, attrs)`` tuples
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name: str, fn, args, kwargs, attrs_of=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = attrs_of(args, result) if attrs_of is not None else None
        self.spans.append(
            (span_id, parent, name, start, end, threading.get_ident(), attrs)
        )
        return result

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, thread, attrs in self.spans:
                doc = {
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "thread": thread,
                    "run": self.run_id,
                }
                if attrs:
                    doc["attrs"] = attrs
                fh.write(json.dumps(doc) + "\n")


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: summed duration minus the time child spans cover.

    Spans are keyed by ``(run, id)``, so spans of several runs (several
    processes) can be pooled.
    """
    children: dict[tuple, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["run"], s["parent"]].append((s["start"], s["end"]))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        kids = children.get((s["run"], s["id"]), ())
        out[s["name"]] += (
            s["end"] - s["start"] - _covered(s["start"], s["end"], kids)
        )
    return dict(out)


# -- instrumentation ----------------------------------------------------------


def _wrap(rec: Recorder, name: str, fn, attrs_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, attrs_of)

    return wrapper


def _run_attrs(args, stats) -> dict:
    proc = args[0]
    return {
        "sim_cycles": proc.cycle,
        "sim_committed": proc.total_committed,
        "cycles": stats.cycles,
        "ff_jumps": stats.ff_jumps,
        "ff_cycles_skipped": stats.ff_cycles_skipped,
        "loads": stats.loads_fp + stats.loads_int,
        "load_misses": stats.load_misses_fp + stats.load_misses_int,
        "mshr_alloc_failures": stats.mshr_alloc_failures,
        "blocked_requests": stats.blocked_requests,
        "line_fills": stats.line_fills,
        "bus_utilization": stats.bus_utilization,
    }


def _route_attrs(args, counts) -> dict:
    return {"n_screened": counts["n_screened"], "n_promoted": counts["n_promoted"]}


def instrument(rec: Recorder) -> None:
    """Install the layer spans for the rest of this process."""
    from importlib import import_module

    from repro.core.processor import Processor
    from repro.engine import Engine, ResultCache, RunSpec
    from repro.stats.counters import SimStats
    from repro.workloads.wrongpath import WrongPathGenerator

    # by module path: the packages re-export functions under these names
    analytic = import_module("repro.model.analytic")
    hybrid = import_module("repro.router.hybrid")
    multiprogram = import_module("repro.workloads.multiprogram")
    synth = import_module("repro.workloads.synth")

    def method(owner, attr: str, name: str, attrs_of=None) -> None:
        setattr(owner, attr, _wrap(rec, name, getattr(owner, attr), attrs_of))

    method(RunSpec, "instantiate", "engine.instantiate")
    method(Processor, "run", "core.run", _run_attrs)
    method(Engine, "map", "engine.map")
    method(ResultCache, "get", "engine.cache_get",
           lambda args, hit: {"hit": hit is not None})
    method(ResultCache, "put", "engine.cache_put")
    method(SimStats, "to_dict", "stats.to_dict")
    from_dict = SimStats.__dict__["from_dict"].__func__
    SimStats.from_dict = classmethod(_wrap(rec, "stats.from_dict", from_dict))

    synthesize = _wrap(rec, "workloads.synthesize", synth.synthesize)
    synth.synthesize = multiprogram.synthesize = synthesize
    method(analytic, "characterize", "model.characterize")
    method(analytic, "solve", "model.solve")
    method(hybrid, "route_grid", "router.route_grid", _route_attrs)

    # only the call that builds the pool is a span: the rest are list
    # slices on the fetch path, far too frequent to time one by one
    next_block = WrongPathGenerator.next_block

    def pool_attrs(args, _result) -> dict:
        gen = args[0]
        return {"pool": [gen.seed, gen.data_base, gen.data_span]}

    @functools.wraps(next_block)
    def traced_next_block(self, n):
        if self._pool is not None:
            return next_block(self, n)
        return rec.call(
            "workloads.wrongpath_build", next_block, (self, n), {}, pool_attrs
        )

    WrongPathGenerator.next_block = traced_next_block


# -- profiler attribution -----------------------------------------------------


def _stage_ticks() -> dict[tuple, str]:
    """``pstats`` key of each stage's ``tick`` -> stage name, spelled
    as in metric names (``issue/decoupled`` -> ``issue_decoupled``)."""
    from repro.core import stages

    out = {}
    for cls in vars(stages).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, stages.Stage)
            and "tick" in vars(cls)
            and cls is not stages.Stage
        ):
            code = vars(cls)["tick"].__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            out[key] = cls.name.replace("/", "_").replace("-", "_")
    return out


def _is_memory(func: tuple) -> bool:
    return "/repro/memory/" in func[0].replace("\\", "/")


def stage_times(stats: dict) -> dict[str, float]:
    """Split a ``pstats.Stats(...).stats`` table into layer self times.

    Self time of functions defined under ``repro/memory/`` goes to
    ``memory``.  Every other function's self time is shared among the
    stage ticks and memory functions that (transitively) call it, in
    proportion to the cumulative time each caller edge accounts for, so
    a helper called from two stages is split between them.  Time with no
    stage or memory caller (the engine, the run loop) is left out.
    Returns seconds per stage name plus ``memory``.
    """
    ticks = _stage_ticks()
    memo: dict[tuple, dict[str, float]] = {}

    def roots(func, visiting: frozenset) -> dict[str, float]:
        if _is_memory(func):
            return {"memory": 1.0}
        if func in ticks:
            return {ticks[func]: 1.0}
        if func in memo:
            return memo[func]
        if func in visiting or func not in stats:
            return {}
        callers = stats[func][4]
        total = sum(edge[3] for edge in callers.values())
        share: dict[str, float] = defaultdict(float)
        if total > 0:
            for caller, edge in callers.items():
                for layer, w in roots(caller, visiting | {func}).items():
                    share[layer] += w * edge[3] / total
        memo[func] = dict(share)
        return memo[func]

    out: dict[str, float] = {name: 0.0 for name in set(ticks.values())}
    out["memory"] = 0.0
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, w in roots(func, frozenset()).items():
            out[layer] += tt * w
    return out
