"""Tracing for the traced run: wrappers around each layer's functions.

The program is not changed.  :func:`install` replaces public functions
of every layer with wrappers that record a span (name, start, end,
parent, request id, thread); :meth:`Tracer.uninstall` puts the
originals back.  Spans stay in memory and are written as gzip-compressed
JSONL when the run ends.  A span's self time is its duration minus the
time of the wrapped calls nested directly inside it.

Request ids are assigned by the benchmark's client.  Exactly one
request is in flight at a time, so a span opened on a server thread
belongs to the request the client opened last.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rid", "thread", "child_s", "info")

    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.rid = 0
        self.paused = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span()
        span.id = next(self._ids)
        span.name = name
        span.parent = stack[-1].id if stack else 0
        span.rid = self.rid
        span.thread = threading.get_ident()
        span.child_s = 0.0
        span.info = None
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.end - span.start
        self.spans.append(span)

    @contextmanager
    def request(self, name: str):
        """A client-side root span with a fresh request id."""
        self.rid += 1
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Trace ``owner.attr`` (a module function, method, classmethod).

        ``before(args)`` runs ahead of the call; ``after(args, result,
        state)`` returns a dict stored on the span.
        """
        raw = vars(owner).get(attr)
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if descriptor else getattr(owner, attr)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer.paused:
                return func(*args, **kwargs)
            state = before(args) if before is not None else None
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                span.info = after(args, result, state)
            return result

        setattr(owner, attr, descriptor(traced) if descriptor else traced)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            if raw is None:
                delattr(owner, attr)  # the method was inherited
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    def write_jsonl(self, path) -> None:
        origin = min((span.start for span in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for span in self.spans:
                record = {
                    "id": span.id,
                    "name": span.name,
                    "start_us": round((span.start - origin) * 1e6, 3),
                    "end_us": round((span.end - origin) * 1e6, 3),
                    "parent": span.parent,
                    "request": span.rid,
                    "thread": span.thread,
                    "self_us": round(span.self_time() * 1e6, 3),
                }
                if span.info:
                    record.update(span.info)
                out.write(json.dumps(record) + "\n")


def _bitmap_ops(problem) -> int:
    """Logical bitmap ops so far on the problem's cached index."""
    index = problem.log.cached_vertical_index
    return sum(index.ops_snapshot()) if index is not None else 0


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    from repro.booldata import index, kernels
    from repro.core import greedy, ilp, itemsets, problem
    from repro.lp import simplex
    from repro.runtime import harness
    from repro.serve import admission, app, protocol, tenants
    from repro.store import durable, wal
    from repro.stream import cache, log
    from repro.stream import index as stream_index

    wrap = tracer.wrap
    for module in (app, protocol):  # app holds its own references
        wrap(module, "parse_solve", "serve.protocol.parse")
        wrap(module, "parse_ingest", "serve.protocol.parse")
    wrap(admission.AdmissionController, "try_acquire", "serve.admission.acquire",
         after=lambda args, result, _: {"shed": result})
    wrap(tenants.Tenant, "solve", "serve.tenants.solve")
    wrap(tenants.Tenant, "ingest", "serve.tenants.ingest")
    wrap(tenants, "recover", "store.recovery.recover",
         after=lambda args, result, _: {"replayed": result[1].records_replayed})
    wrap(cache.SolveCache, "run", "stream.cache.run")
    wrap(log.StreamingLog, "extend", "stream.log.extend",
         after=lambda args, result, _: {"queries": len(args[1])})
    wrap(log.StreamingLog, "snapshot", "stream.log.snapshot")
    wrap(stream_index.DeltaVerticalIndex, "compact", "stream.index.compact")
    wrap(wal.WriteAheadLog, "append", "store.wal.append",
         after=lambda args, result, _: {"bytes": len(args[1])})
    wrap(wal.WriteAheadLog, "_fsync", "store.wal.fsync")
    wrap(durable.DurableStreamingLog, "checkpoint", "store.durable.checkpoint")
    wrap(harness.SolverHarness, "run", "runtime.harness.run",
         before=lambda args: _bitmap_ops(args[1]),
         after=lambda args, result, ops: {
             "attempts": len(result.attempts),
             "bitmap_ops": _bitmap_ops(args[1]) - ops,
         })
    for solver in (
        greedy.ConsumeAttrSolver, greedy.ConsumeAttrCumulSolver,
        greedy.ConsumeQueriesSolver, greedy.CoverageGreedySolver,
    ):
        wrap(solver, "solve", "core.greedy.solve")
    wrap(ilp.IlpSolver, "solve", "core.ilp.solve",
         after=lambda args, result, _: {
             "nodes": result.stats.get("nodes_explored", 0),
             "iterations": result.stats.get("lp_iterations", 0),
         })
    wrap(itemsets.MaxFreqItemsetsSolver, "solve", "core.itemsets.solve")
    wrap(problem.VisibilityProblem, "evaluate", "core.problem.evaluate")
    wrap(problem.VisibilityProblem, "evaluate_many", "core.problem.evaluate")
    wrap(simplex.SimplexSolver, "solve", "lp.simplex.solve")
    wrap(itemsets, "mine_maximal_dfs", "mining.mine",
         after=lambda args, result, _: {"itemsets": len(result)})
    for kernel in ("python", "numpy"):
        if kernel in kernels.available_kernels():
            store = kernels.store_class(kernel)
            for method in ("counts", "subset_count", "subset_counts"):
                wrap(store, method, "booldata.kernels.count")
    wrap(index.VerticalIndex, "__init__", "booldata.index.build")
    wrap(index.VerticalIndex, "from_columns", "booldata.index.build")
    wrap(stream_index.DeltaVerticalIndex, "materialize", "booldata.index.build")


#: per-layer metrics in the order they are printed: name -> unit
LAYER_UNITS = {
    "serve.app.overhead_us": "us",
    "serve.app.hop_us": "us",
    "serve.protocol.parse_us": "us",
    "serve.admission.sheds": "count",
    "serve.tenants.solve_self_us": "us",
    "serve.tenants.ingest_self_us": "us",
    "stream.cache.hit_ratio": "ratio",
    "stream.cache.self_us": "us",
    "stream.log.extend_us_per_query": "us/query",
    "stream.log.snapshot_us": "us",
    "stream.index.compactions": "count",
    "stream.index.compact_ms": "ms",
    "store.wal.append_us_per_query": "us/query",
    "store.wal.bytes_per_query": "B/query",
    "store.wal.syncs": "count",
    "store.durable.checkpoints": "count",
    "store.durable.checkpoint_ms": "ms",
    "store.recovery.replayed_records": "count",
    "store.recovery.ms_per_tenant": "ms/tenant",
    "runtime.harness.self_us": "us",
    "runtime.harness.attempts_per_run": "count/run",
    "core.greedy.solve_us": "us",
    "core.ilp.solve_ms": "ms",
    "core.itemsets.solve_ms": "ms",
    "core.problem.evaluate_calls_per_solve": "count/solve",
    "lp.simplex.calls_per_solve": "count/solve",
    "lp.simplex_ms": "ms",
    "lp.nodes_per_solve": "count/solve",
    "lp.iterations_per_solve": "count/solve",
    "mining.mine_ms": "ms",
    "mining.maximal_itemsets": "count",
    "booldata.index.bitmap_ops_per_solve": "count/solve",
    "booldata.kernels.count_ms": "ms/solve",
    "booldata.index.build_ms": "ms",
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span], http: bool) -> tuple[dict, dict]:
    """Per-layer metrics (name -> value) and a note per metric.

    A layer the workload never reaches reads 0.  "Per solve" divides by
    the harness runs, i.e. the solves the cache did not answer.
    """
    names = {span.id: span.name for span in spans}
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        # a same-name span nested in another (a kernel method calling a
        # sibling) is already inside its parent's time
        if names.get(span.parent) != span.name:
            by_name[span.name].append(span)

    def durations(name, scale=1.0):
        return [span.duration() * scale for span in by_name[name]]

    def selfs(name, scale=1.0):
        return [span.self_time() * scale for span in by_name[name]]

    def infos(name, key):
        return [span.info[key] for span in by_name[name] if span.info]

    runs = by_name["runtime.harness.run"]
    per_solve = (lambda total: total / len(runs)) if runs else (lambda total: 0.0)
    metric, note = {}, {}

    overhead, hop = [], []
    if http:
        inside, tenant_start = defaultdict(float), {}
        for span in by_name["serve.tenants.solve"] + by_name["serve.tenants.ingest"]:
            inside[span.rid] += span.duration()
            tenant_start[span.rid] = span.start
        parse_end = {span.rid: span.end for span in by_name["serve.protocol.parse"]}
        for span in by_name["client.solve"] + by_name["client.ingest"]:
            if span.rid in inside:
                overhead.append((span.duration() - inside[span.rid]) * 1e6)
        hop = [
            (start - parse_end[rid]) * 1e6
            for rid, start in tenant_start.items() if rid in parse_end
        ]
    metric["serve.app.overhead_us"] = _mean(overhead)
    note["serve.app.overhead_us"] = f"n={len(overhead)} requests"
    metric["serve.app.hop_us"] = _mean(hop)
    note["serve.app.hop_us"] = f"n={len(hop)}"
    metric["serve.protocol.parse_us"] = _mean(durations("serve.protocol.parse", 1e6))
    metric["serve.admission.sheds"] = sum(
        1 for shed in infos("serve.admission.acquire", "shed") if shed is not None
    )
    note["serve.admission.sheds"] = f"of {len(by_name['serve.admission.acquire'])} admissions"
    metric["serve.tenants.solve_self_us"] = _mean(selfs("serve.tenants.solve", 1e6))
    metric["serve.tenants.ingest_self_us"] = _mean(selfs("serve.tenants.ingest", 1e6))

    lookups = by_name["stream.cache.run"]
    missed = {span.parent for span in runs}
    hits = sum(1 for span in lookups if span.id not in missed)
    metric["stream.cache.hit_ratio"] = hits / len(lookups) if lookups else 0.0
    note["stream.cache.hit_ratio"] = f"{hits}/{len(lookups)} lookups"
    metric["stream.cache.self_us"] = _mean(selfs("stream.cache.run", 1e6))
    queries = sum(infos("stream.log.extend", "queries"))
    metric["stream.log.extend_us_per_query"] = (
        sum(selfs("stream.log.extend", 1e6)) / queries if queries else 0.0
    )
    note["stream.log.extend_us_per_query"] = f"self time over {queries} queries"
    metric["stream.log.snapshot_us"] = _mean(selfs("stream.log.snapshot", 1e6))
    metric["stream.index.compactions"] = len(by_name["stream.index.compact"])
    metric["stream.index.compact_ms"] = _mean(durations("stream.index.compact", 1e3))

    metric["store.wal.append_us_per_query"] = _mean(durations("store.wal.append", 1e6))
    metric["store.wal.bytes_per_query"] = _mean(infos("store.wal.append", "bytes"))
    metric["store.wal.syncs"] = len(by_name["store.wal.fsync"])
    metric["store.durable.checkpoints"] = len(by_name["store.durable.checkpoint"])
    metric["store.durable.checkpoint_ms"] = _mean(durations("store.durable.checkpoint", 1e3))
    metric["store.recovery.replayed_records"] = sum(infos("store.recovery.recover", "replayed"))
    metric["store.recovery.ms_per_tenant"] = _mean(durations("store.recovery.recover", 1e3))
    note["store.recovery.ms_per_tenant"] = f"n={len(by_name['store.recovery.recover'])}"

    metric["runtime.harness.self_us"] = _mean(selfs("runtime.harness.run", 1e6))
    note["runtime.harness.self_us"] = f"n={len(runs)} runs"
    metric["runtime.harness.attempts_per_run"] = _mean(infos("runtime.harness.run", "attempts"))
    metric["core.greedy.solve_us"] = _mean(durations("core.greedy.solve", 1e6))
    note["core.greedy.solve_us"] = f"n={len(by_name['core.greedy.solve'])}"
    metric["core.ilp.solve_ms"] = _mean(durations("core.ilp.solve", 1e3))
    note["core.ilp.solve_ms"] = f"n={len(by_name['core.ilp.solve'])}"
    metric["core.itemsets.solve_ms"] = _mean(durations("core.itemsets.solve", 1e3))
    note["core.itemsets.solve_ms"] = f"n={len(by_name['core.itemsets.solve'])}"
    metric["core.problem.evaluate_calls_per_solve"] = per_solve(
        len(by_name["core.problem.evaluate"])
    )

    ilp_solves = len(by_name["core.ilp.solve"])
    metric["lp.simplex.calls_per_solve"] = (
        len(by_name["lp.simplex.solve"]) / ilp_solves if ilp_solves else 0.0
    )
    note["lp.simplex.calls_per_solve"] = f"per ILP solve, n={ilp_solves}"
    metric["lp.simplex_ms"] = _mean(durations("lp.simplex.solve", 1e3))
    metric["lp.nodes_per_solve"] = _mean(infos("core.ilp.solve", "nodes"))
    metric["lp.iterations_per_solve"] = _mean(infos("core.ilp.solve", "iterations"))
    metric["mining.mine_ms"] = _mean(durations("mining.mine", 1e3))
    note["mining.mine_ms"] = f"n={len(by_name['mining.mine'])}"
    metric["mining.maximal_itemsets"] = _mean(infos("mining.mine", "itemsets"))

    metric["booldata.index.bitmap_ops_per_solve"] = per_solve(
        sum(infos("runtime.harness.run", "bitmap_ops"))
    )
    metric["booldata.kernels.count_ms"] = per_solve(
        sum(durations("booldata.kernels.count", 1e3))
    )
    metric["booldata.index.build_ms"] = _mean(durations("booldata.index.build", 1e3))
    note["booldata.index.build_ms"] = f"n={len(by_name['booldata.index.build'])}"
    return metric, note


def self_time_summary(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """(span name, calls, total ms, self ms), largest self time first."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span in spans:
        calls[span.name] += 1
        total[span.name] += span.duration() * 1e3
        own[span.name] += span.self_time() * 1e3
    return sorted(
        ((name, calls[name], total[name], own[name]) for name in calls),
        key=lambda row: -row[3],
    )
