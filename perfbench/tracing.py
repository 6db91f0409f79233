"""Span recording for the traced run, from outside the program.

The traced run wraps the public calls of each layer at runtime (the
program's sources are not touched).  Every wrapped call records one span:
its name, start, end, its own id, its parent's id (the enclosing wrapped
call on the same thread) and the id of the benchmark operation that
caused it.  Spans stay in memory and are written out when the process
ends; pool workers, which fork from a traced coordinator, inherit the
wrappers and write their own file at exit.

A span's *self time* is its duration minus the time its child spans
cover.  :func:`layer_metrics` turns the span files of one run into the
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
import weakref
from collections import defaultdict
from pathlib import Path

#: Layer metrics whose value is a busy (self) time, by span name.
SELF_TIME_METRICS = {
    "workloads.build_s": "workloads.build",
    "cpu.trace_s": "cpu.trace",
    "cpu.execution_s": "cpu.execution",
    "pmu.retire_index_s": "pmu.retire_index",
    "pmu.collect_s": "pmu.collect",
    "core.attribute_s": "core.attribute",
    "core.score_s": "core.score",
    "instrumentation.reference_s": "instrumentation.reference",
    "cache.first_load_s": "cache.first_load",
    "cache.load_s": "cache.load",
    "cache.store_s": "cache.store",
    "fidelity.evaluate_s": "fidelity.evaluate",
    "sweep.journal_s": "sweep.journal",
    "sweep.report_s": "sweep.report",
    "api.validate_s": "api.validate",
    "api.serialize_s": "api.serialize",
}

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
PER_LAYER = {
    "workloads.build_s": "s",
    "cpu.trace_s": "s",
    "cpu.interp_instr_per_s": "1/s",
    "cpu.execution_s": "s",
    "pmu.retire_index_s": "s",
    "pmu.retire_index_builds": "count",
    "pmu.retire_index_reuse_ratio": "ratio",
    "pmu.collect_s": "s",
    "pmu.samples": "count",
    "pmu.ns_per_sample": "ns",
    "core.attribute_s": "s",
    "core.score_s": "s",
    "instrumentation.reference_s": "s",
    "core.cells_evaluated": "count",
    "core.cell_p50_ms": "ms",
    "cache.first_load_s": "s",
    "cache.load_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.hot_hits": "count",
    "cache.store_s": "s",
    "cache.writes": "count",
    "cache.evictions": "count",
    "parallel.wall_s": "s",
    "parallel.busy_fraction": "ratio",
    "fidelity.evaluate_s": "s",
    "sweep.journal_s": "s",
    "sweep.journal_records": "count",
    "sweep.report_s": "s",
    "api.validate_s": "s",
    "api.serialize_s": "s",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.run_s": "s",
    "serve.http_s": "s",
    "serve.rejected": "count",
    "tracing.unattributed_s": "s",
    "tracing.overhead_pct": "%",
}

#: Span of one benchmark operation (its self time is harness overhead).
OP_SPAN = "bench.op"
#: Spans that root one operation: the benchmark's own, and a daemon job.
OP_SPANS = (OP_SPAN, "serve.run")


class Tracer:
    """Records spans around wrapped calls; one per process."""

    def __init__(self, out_dir: str | Path, role: str) -> None:
        self.out_dir = Path(out_dir)
        self.role = role
        self.spans: list[tuple] = []
        self.default_op: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._loaded: weakref.WeakSet = weakref.WeakSet()
        self._loaded_lock = threading.Lock()
        self.marks: dict[str, list] = defaultdict(list)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- operation ids -----------------------------------------------------

    def set_op(self, op: object) -> None:
        self._local.op = op

    def current_op(self) -> object:
        return getattr(self._local, "op", self.default_op)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ---------------------------------------------------------

    def record(self, name, fn, args, kwargs, note=None):
        """Call ``fn`` inside one span; ``note(result, args)`` may attach
        a value (a count or a key) to the span."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        extra = None if note is None else note(result, args)
        self.spans.append((name, start, end, sid, parent, self.current_op(),
                           threading.get_ident(), extra))
        return result

    def wrap(self, fn, name, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.record(name, fn, args, kwargs, note)

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` (a function or method) by a traced
        wrapper; :meth:`unpatch` restores it."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        setattr(owner, attr, self.wrap(original, name, note))
        self._patches.append((owner, attr, original))

    def patch_everywhere(self, function, name: str, note=None) -> None:
        """Trace ``function`` under every module name that binds it
        (``from x import f`` copies the reference)."""
        traced = self.wrap(function, name, note)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, function))

    def patch_mapping(self, mapping: dict, name: str) -> None:
        for key, function in list(mapping.items()):
            mapping[key] = self.wrap(function, name)
            self._patches.append((mapping, key, function))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def first_load(self, cache) -> bool:
        """Whether this is the first lookup on a (fresh) cache object."""
        with self._loaded_lock:
            if cache in self._loaded:
                return False
            self._loaded.add(cache)
            return True

    # -- output ------------------------------------------------------------

    def dump(self, counters: dict | None = None) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.role}-{os.getpid()}.json"
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps({
            "pid": os.getpid(), "role": self.role, "spans": self.spans,
            "counters": counters or {}, "marks": self.marks,
        }), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def _after_fork(self) -> None:
        # A forked pool worker: the parent's spans and call stack are not
        # this process's.  Keep the operation that caused the fork.
        op = self.current_op()
        self.spans = []
        self.marks = defaultdict(list)
        self._local = threading.local()
        self.default_op = op
        self.role = "worker"
        multiprocessing.util.Finalize(self, self.dump, exitpriority=10)


# -- which calls are traced ---------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls (see the table in README.md)."""
    from repro import api
    from repro.core import cache as cache_mod
    from repro.core import experiment, parallel, runner
    from repro.core.accuracy import profile_error
    from repro.cpu.fastengine import FastEngine
    from repro.instrumentation.reference import collect_reference
    from repro.pmu import fastpath
    from repro import sweep
    from repro.sweep import engine as sweep_engine
    from repro.sweep import journal

    tracer.patch(FastEngine, "program", "workloads.build")
    tracer.patch(FastEngine, "trace", "cpu.trace",
                 note=lambda trace, _: trace.num_instructions)
    tracer.patch(FastEngine, "execution", "cpu.execution")
    tracer.patch(fastpath.RetireIndex, "__init__", "pmu.retire_index",
                 note=lambda _, args: [args[1].uarch.name,
                                       args[1].program.name,
                                       args[1].trace.num_instructions])
    tracer.patch(fastpath.FastSampler, "collect", "pmu.collect",
                 note=lambda batch, _: batch.num_samples)
    tracer.patch_mapping(runner._ATTRIBUTORS, "core.attribute")
    tracer.patch_everywhere(profile_error, "core.score")
    tracer.patch_everywhere(collect_reference, "instrumentation.reference")
    tracer.patch(experiment.Harness, "evaluate_cell", "core.cell")
    tracer.patch(experiment.Harness, "evaluate_cell_fidelity",
                 "fidelity.evaluate")
    tracer.patch_everywhere(parallel.evaluate_cells, "parallel.evaluate",
                            note=lambda _, args: len(args[1]))

    artifact_cache = cache_mod.ArtifactCache
    for attr in ("get_stats", "get_arrays", "get_fidelity"):
        _patch_cache_get(tracer, artifact_cache, attr)
    for attr in ("put_stats", "put_arrays", "put_fidelity"):
        tracer.patch(artifact_cache, attr, "cache.store")

    tracer.patch(journal.CampaignJournal, "record", "sweep.journal")
    tracer.patch(sweep_engine.CampaignResult, "save", "sweep.report")
    for attr in ("write_reports", "build_manifest", "write_manifest"):
        tracer.patch(sweep, attr, "sweep.report")

    tracer.patch(api.EvaluateRequest, "validate", "api.validate")
    tracer.patch(api.EvaluateRequest, "resolved", "api.validate")
    tracer.patch(api.EvaluateResult, "to_json", "api.serialize")


def _patch_cache_get(tracer: Tracer, cls, attr: str) -> None:
    original = cls.__dict__[attr]

    @functools.wraps(original)
    def traced(self, *args, **kwargs):
        name = "cache.first_load" if tracer.first_load(self) else "cache.load"
        return tracer.record(name, original, (self, *args), kwargs)

    setattr(cls, attr, traced)
    tracer._patches.append((cls, attr, original))


def install_serve(tracer: Tracer) -> None:
    """The daemon's extra boundaries: queue hand-off and job run."""
    from repro.serve import jobs, workers

    submitted: dict[str, float] = {}
    queue_submit = jobs.JobQueue.submit
    queue_pop = jobs.JobQueue.pop

    def submit(self, *args, **kwargs):
        job = queue_submit(self, *args, **kwargs)
        submitted[job.id] = time.perf_counter()
        return job

    def pop(self, *args, **kwargs):
        job = queue_pop(self, *args, **kwargs)
        if job is not None:
            popped = time.perf_counter()
            started = submitted.pop(job.id, None)
            if started is not None:
                tracer.marks["queue_wait_s"].append(popped - started)
        return job

    jobs.JobQueue.submit = submit
    jobs.JobQueue.pop = pop
    tracer._patches += [(jobs.JobQueue, "submit", queue_submit),
                        (jobs.JobQueue, "pop", queue_pop)]

    execute = workers.WorkerPool._execute

    def run_job(self, job):
        tracer.set_op(job.id)
        try:
            return tracer.record("serve.run", execute, (self, job), {})
        finally:
            tracer.set_op(None)

    workers.WorkerPool._execute = run_job
    tracer._patches.append((workers.WorkerPool, "_execute", execute))


# -- analysis -------------------------------------------------------------------


def load_dumps(trace_dir: str | Path) -> list[dict]:
    return [json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(Path(trace_dir).glob("spans-*.json"))]


def self_times(spans: list) -> list[float]:
    """Each span's self time: its duration minus its children's."""
    covered: dict[int, float] = defaultdict(float)
    for name, start, end, sid, parent, op, tid, extra in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(end - start) - covered[sid]
            for name, start, end, sid, parent, op, tid, extra in spans]


def layer_metrics(dumps: list[dict], window: tuple[float, float] | None,
                  jobs: int = 1) -> dict:
    """Per-layer metrics from one run's span dumps.

    ``window`` is the traced timed window (start, end on the system-wide
    monotonic clock ``perf_counter`` reads on Linux); spans outside it,
    in the coordinator or in pool workers forked during set-up, count
    only towards ``workloads.build_s``.  A daemon run passes ``None``:
    the traced daemon lives only inside its window.  ``jobs`` is the
    pool width ``parallel.busy_fraction`` divides by.
    """
    selfs: dict[str, float] = defaultdict(float)
    calls: dict[str, list] = defaultdict(list)
    counters: dict[str, float] = defaultdict(float)
    marks: dict[str, list] = defaultdict(list)
    shares = {"coordinator": defaultdict(float), "worker": defaultdict(float),
              "daemon": defaultdict(float)}
    worker_busy = 0.0
    op_self = op_total = 0.0
    negative = 0
    for dump in dumps:
        role = dump["role"]
        for name, value in dump["counters"].items():
            counters[name] += value
        for name, values in dump["marks"].items():
            marks[name].extend(values)
        for span, self_s in zip(dump["spans"], self_times(dump["spans"])):
            name, start, end, _, parent, _, _, extra = span
            negative += self_s < -1e-6
            if name == "workloads.build":
                selfs[name] += self_s
            if window is not None and not (window[0] <= start
                                           and end <= window[1]):
                continue
            calls[name].append((end - start, extra))
            if name in OP_SPANS:
                op_self += self_s
                op_total += end - start
                continue
            if name != "workloads.build":
                selfs[name] += self_s
            shares[role][name] += self_s
            if role == "worker" and parent is None:
                worker_busy += end - start

    metrics = {name: selfs.get(span, 0.0)
               for name, span in SELF_TIME_METRICS.items()}
    trace_calls = calls["cpu.trace"]
    trace_time = sum(duration for duration, _ in trace_calls)
    metrics["cpu.interp_instr_per_s"] = (
        sum(extra for _, extra in trace_calls) / trace_time
        if trace_time else 0.0)
    builds = [tuple(extra) for _, extra in calls["pmu.retire_index"]]
    metrics["pmu.retire_index_builds"] = len(builds)
    metrics["pmu.retire_index_reuse_ratio"] = (
        len(builds) / len(set(builds)) if builds else 0.0)
    samples = counters.get("samples.collected", 0)
    metrics["pmu.samples"] = samples
    metrics["pmu.ns_per_sample"] = (metrics["pmu.collect_s"] * 1e9 / samples
                                    if samples else 0.0)
    metrics["core.cells_evaluated"] = counters.get("harness.cells_evaluated",
                                                   0)
    cell_ms = sorted(duration * 1e3 for duration, _ in calls["core.cell"])
    metrics["core.cell_p50_ms"] = _median(cell_ms) if cell_ms else 0.0
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    metrics["cache.hits"] = hits
    metrics["cache.misses"] = misses
    metrics["cache.hit_ratio"] = hits / (hits + misses) if hits + misses \
        else 0.0
    metrics["cache.hot_hits"] = counters.get("cache.mem.hits", 0)
    metrics["cache.writes"] = counters.get("cache.writes", 0)
    # Evictions of the byte-budgeted disk tier (hot-tier turnover is by
    # design and shows in hot_hits instead).
    metrics["cache.evictions"] = counters.get("cache.disk.evictions", 0)
    parallel_wall = sum(duration for duration, _ in calls["parallel.evaluate"])
    metrics["parallel.wall_s"] = parallel_wall
    metrics["parallel.busy_fraction"] = (
        worker_busy / (jobs * parallel_wall) if parallel_wall else 0.0)
    metrics["sweep.journal_records"] = len(calls["sweep.journal"])
    waits = sorted(w * 1e3 for w in marks.get("queue_wait_s", []))
    metrics["serve.queue_wait_p50_ms"] = _median(waits) if waits else 0.0
    metrics["serve.queue_wait_p99_ms"] = _nearest(waits, 99) if waits else 0.0
    # A job's whole run is the serve layer's busy time; its self part
    # (run time no wrapped layer call covers) is in unattributed_s.
    metrics["serve.run_s"] = sum(d for d, _ in calls["serve.run"])
    metrics["serve.http_s"] = 0.0
    metrics["serve.rejected"] = counters.get("serve.rejected_busy", 0)
    metrics["tracing.unattributed_s"] = op_self
    metrics["tracing.overhead_pct"] = 0.0
    return {
        "metrics": metrics,
        "op_total_s": op_total,
        "layer_self_s": sum(shares["coordinator"].values()),
        "negative_self_spans": negative,
        "shares": {role: dict(values) for role, values in shares.items()},
        "worker_busy_s": worker_busy,
        "queue_wait_s": sum(marks.get("queue_wait_s", [])),
    }


def _median(ordered: list[float]) -> float:
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _nearest(ordered: list[float], q: float) -> float:
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
