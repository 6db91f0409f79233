"""One process of an in-process workload: set-up, then the timed window.

    python3 perfbench/child.py CONFIG.json SPAWN_TIME

``run.py`` starts this process and reads its result file.  The config
names the workload, the mode (``setup``: stop after set-up; ``measure``:
also run the timed window and a guard pass; ``fixture-*``: build a cache
root), the window length and whether to trace.  ``SPAWN_TIME`` is the
parent's ``time.monotonic()`` just before it started this process, so
set-up includes process start and ``import repro``.
"""

from __future__ import annotations

import json
import shutil
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracing  # noqa: E402


class Op:
    """One timed operation's numbers (outputs are checked afterwards)."""

    def __init__(self, wall, first_hit, latencies, outputs):
        self.wall = wall
        self.first_hit = first_hit
        self.latencies = latencies
        self.outputs = outputs


class Grid:
    """kernels-cold and table-warm: answer a paper-table grid, one cell
    request at a time through ``repro.api.evaluate_request``, on a fresh
    ``Harness`` per pass (and, with a cache root, a freshly opened cache)."""

    def __init__(self, api, workloads, cache_root):
        from repro.core.cache import resolve_cache

        self.api = api
        self.resolve_cache = resolve_cache
        self.cache_root = cache_root
        golden = common.load_golden("tables.json")
        cells = common.table_cells(workloads)
        self.expected = [golden["results"][common.cell_key(*c)] for c in cells]
        self.requests = [
            api.EvaluateRequest(**common.request_doc(
                cell, scale=common.TABLE_SCALE, repeats=common.TABLE_REPEATS,
                seed_base=common.SEED_BASE, engine="fast"))
            for cell in cells
        ]
        instructions = golden["trace_instructions"]
        self.nonblank = sum(not common.blank(c[0], c[2]) for c in cells)
        self.volume = sum(instructions[c[1]] * common.TABLE_REPEATS
                          for c in cells if not common.blank(c[0], c[2]))
        self.config = api.ExperimentConfig(
            scale=common.TABLE_SCALE, repeats=common.TABLE_REPEATS,
            seed_base=common.SEED_BASE)
        self.ops_per_pass = len(cells)

    def setup(self):
        return self.op()

    def op(self) -> Op:
        api = self.api
        evaluate = api.evaluate_request
        latencies = []
        outputs = []
        first_hit = None
        started = time.perf_counter()
        cache = (None if self.cache_root is None
                 else self.resolve_cache(self.cache_root))
        harness = api.Harness(self.config, cache=cache)
        for request in self.requests:
            begun = time.perf_counter()
            try:
                outputs.append(evaluate(request, harness=harness))
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                outputs.append(exc)
            done = time.perf_counter()
            latencies.append(done - begun)
            if first_hit is None:
                first_hit = done - started
        return Op(time.perf_counter() - started, first_hit, latencies,
                  outputs)

    def check(self, op: Op) -> tuple[int, int, list[str]]:
        """(attempted, failed, first mismatches) of one pass."""
        failed = 0
        notes = []
        for output, expected in zip(op.outputs, self.expected):
            if isinstance(output, Exception):
                body = f"<{type(output).__name__}: {output}>"
            else:
                body = common.engine_neutral(common.canonical(
                    output.to_dict()))
            if body != expected:
                failed += 1
                if len(notes) < 3:
                    notes.append(f"got {body[:160]!r} want {expected[:160]!r}")
        return len(op.outputs), failed, notes


class Campaign:
    """apps-campaign: ``repro.api.run_campaign`` into a fresh directory
    and an empty cache root on every run."""

    def __init__(self, api, work: Path):
        self.api = api
        self.work = work
        self.spec = api.CampaignSpec(**common.CAMPAIGN, engine="fast")
        self.digests = (self.spec.digest(),
                        api.CampaignSpec(**common.CAMPAIGN).digest())
        self.expected = {
            name: (common.GOLDENS / "campaign" / name).read_bytes()
            for name in common.CAMPAIGN_ARTIFACTS
        }
        instructions = common.load_golden("tables.json")["trace_instructions"]
        points = [(m, w, meth) for w in common.CAMPAIGN["workloads"]
                  for m in common.MACHINES
                  for meth in common.CAMPAIGN["methods"]
                  for _ in common.CAMPAIGN["periods"]]
        repeats = common.CAMPAIGN["seed_counts"][0]
        live = [p for p in points if not common.blank(p[0], p[2])]
        self.nonblank = len(live)
        self.volume = sum(instructions[w] * repeats for _, w, _ in live)
        self.ops_per_pass = 1
        self.runs = 0

    def setup(self):
        from repro.cpu.engine import get_engine

        engine = get_engine("fast")
        for workload in common.CAMPAIGN["workloads"]:
            engine.program(workload, common.CAMPAIGN["scale"])
        return self.op()

    def op(self) -> Op:
        self.runs += 1
        out = self.work / f"campaign-{self.runs}"
        cache = self.work / f"campaign-cache-{self.runs}"
        journal = out / "journal.jsonl"
        first = {}
        stop = threading.Event()

        def watch_first_point():
            # The journal's first line opens the campaign; the second is
            # the first finished cell.
            while not stop.is_set():
                try:
                    if journal.read_bytes().count(b"\n") >= 2:
                        first["t"] = time.perf_counter()
                        return
                except OSError:
                    pass
                stop.wait(0.001)

        watcher = threading.Thread(target=watch_first_point, daemon=True)
        started = time.perf_counter()
        watcher.start()
        try:
            self.api.run_campaign(self.spec, out, jobs=common.CAMPAIGN_JOBS,
                                  cache=str(cache))
            outputs = out
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            outputs = exc
        wall = time.perf_counter() - started
        stop.set()
        watcher.join()
        first_hit = first.get("t", started + wall) - started
        return Op(wall, first_hit, [wall], outputs)

    def check(self, op: Op) -> tuple[int, int, list[str]]:
        notes = []
        failed = 0
        if isinstance(op.outputs, Exception):
            failed, notes = 1, [repr(op.outputs)]
        else:
            fast_digest, reference_digest = self.digests
            for name, expected in self.expected.items():
                try:
                    text = (op.outputs / name).read_text(encoding="utf-8")
                except OSError as exc:
                    text = repr(exc)
                if name == "campaign.json":
                    text = text.replace('    "engine": "fast",\n', "", 1)
                text = text.replace(fast_digest, reference_digest)
                if text.encode("utf-8") != expected:
                    failed = 1
                    notes.append(f"{name} differs from its golden")
            shutil.rmtree(op.outputs, ignore_errors=True)
        shutil.rmtree(self.work / f"campaign-cache-{self.runs}",
                      ignore_errors=True)
        return 1, failed, notes


def make_workload(config: dict):
    from repro import api

    name = config["workload"]
    if name == "kernels-cold":
        return Grid(api, common.KERNELS, None)
    if name == "table-warm":
        return Grid(api, common.KERNELS + common.APPS, config["cache_root"])
    if name == "apps-campaign":
        return Campaign(api, Path(config["work"]))
    raise SystemExit(f"unknown in-process workload {name!r}")


def window(workload, seconds: float, tracer=None) -> dict:
    """Run whole operations until ``seconds`` of them have been timed."""
    ops = []
    measured = 0.0
    attempted = failed = 0
    notes: list[str] = []
    while measured < seconds:
        # The wall includes the pass's teardown (freeing its harness).
        begun = time.perf_counter()
        if tracer is None:
            op = workload.op()
        else:
            tracer.set_op(len(ops))
            tracer.default_op = len(ops)
            op = tracer.record(tracing.OP_SPAN, workload.op, (), {})
        op.wall = time.perf_counter() - begun
        measured += op.wall
        a, f, n = workload.check(op)
        attempted += a
        failed += f
        notes += n
        op.outputs = None
        ops.append(op)
    return summarize(workload, ops, attempted, failed, notes)


def summarize(workload, ops, attempted, failed, notes) -> dict:
    # Rates come from the median operation, so one operation slowed by
    # the host does not move them.
    op_wall = common.median([op.wall for op in ops])
    latencies = [lat for op in ops for lat in op.latencies]
    return {
        "ops": len(ops),
        "wall_s": sum(op.wall for op in ops),
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:5],
        "requests": len(latencies),
        "cells_per_s": workload.nonblank / op_wall,
        "sim_instr_per_s": workload.volume / op_wall,
        "requests_per_s": workload.ops_per_pass / op_wall,
        "latency_p50_ms": common.median(latencies) * 1e3,
        "latency_p99_ms": common.percentile(latencies, 99) * 1e3,
        "latency_samples": len(latencies),
        "open_to_first_hit_ms": common.median(
            [op.first_hit for op in ops]) * 1e3,
    }


def guard_pass(workload) -> dict:
    """One more operation under the program's own counters, for the
    validity guards (cells evaluated, cache traffic)."""
    from repro.obs import Collector, install

    collector = Collector(record_spans=False)
    previous = install(collector)
    try:
        op = workload.op()
    finally:
        install(previous)
    attempted, failed, notes = workload.check(op)
    counters = collector.metrics.counters()
    return {"counters": counters, "attempted": attempted, "failed": failed,
            "notes": notes}


# -- cache-root fixtures --------------------------------------------------------


def tree_size(root: Path) -> dict:
    files = [p for p in root.rglob("*") if p.is_file()]
    return {"entries": len(files),
            "bytes": sum(p.stat().st_size for p in files)}


def evaluate_into(root: Path, cells, scale: float, repeats: int) -> None:
    """Write real entries: evaluate ``cells`` through ``repro.api`` (fast
    engine) on a harness backed by the cache at ``root``."""
    from repro import api
    from repro.core.cache import resolve_cache

    config = api.ExperimentConfig(scale=scale, repeats=repeats,
                                  seed_base=common.SEED_BASE)
    harness = api.Harness(config, cache=resolve_cache(str(root)))
    for cell in cells:
        api.evaluate_request(api.EvaluateRequest(**common.request_doc(
            cell, scale=scale, repeats=repeats, seed_base=common.SEED_BASE,
            engine="fast")), harness=harness)


def table_warm_fixture(root: Path, seed: int) -> dict:
    """Both paper tables' real entries plus seeded filler entries written
    through ``ArtifactCache.write_entry``.  The real entries are built
    once per checkout into a template and copied."""
    from repro.core.cache import resolve_cache

    template = common.WORK / "table-warm-template"
    if not (template / "complete").is_file():
        shutil.rmtree(template, ignore_errors=True)
        evaluate_into(template / "root", common.table_cells(common.KERNELS)
                      + common.table_cells(common.APPS),
                      common.TABLE_SCALE, common.TABLE_REPEATS)
        (template / "complete").write_text("ok\n", encoding="utf-8")
    shutil.copytree(template / "root", root)
    cache = resolve_cache(str(root))
    payload = b'{"format": 1, "method": "filler", "errors": [0.5]}'
    for digest in common.filler_digests(seed, common.FILLER_ENTRIES):
        cache.write_entry("stats", digest, payload)
    return tree_size(root)


def serve_fixture(root: Path) -> dict:
    """The daemon's warm set, written by real evaluation."""
    evaluate_into(root, common.serve_warm_cells(), common.SERVE_SCALE,
                  common.SERVE_REPEATS)
    return tree_size(root)


def main(config_path: str, spawned: str) -> int:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    config["t_spawn"] = float(spawned)
    mode = config["mode"]
    if mode.startswith("fixture-"):
        root = Path(config["cache_root"])
        fixture = (table_warm_fixture(root, config["seed"])
                   if mode == "fixture-table-warm" else serve_fixture(root))
        common.write_json(Path(config["out"]), {"fixture": fixture})
        return 0
    tracer = None
    if config.get("trace"):
        tracer = tracing.Tracer(config["trace_dir"], role="coordinator")
    workload = make_workload(config)
    if tracer is not None:
        tracing.install(tracer)
    setup_op = workload.setup()
    setup_s = time.monotonic() - config["t_spawn"]
    result = {"setup_s": setup_s}
    attempted, failed, notes = workload.check(setup_op)
    result.update(setup_attempted=attempted, setup_failed=failed,
                  setup_notes=notes)
    if mode == "measure":
        seconds = config["seconds"]
        if tracer is None:
            result["window"] = window(workload, seconds)
        else:
            result.update(traced_window(workload, seconds, tracer))
        if isinstance(workload, Grid):
            result["guard"] = guard_pass(workload)
    common.write_json(Path(config["out"]), result)
    return 0


def traced_window(workload, seconds, tracer) -> dict:
    """Half the window untraced, half traced: the difference is the
    tracing overhead; the traced half gives the per-layer metrics."""
    from repro.obs import Collector, install

    tracer.unpatch()
    untraced = window(workload, seconds / 2)
    tracing.install(tracer)
    collector = Collector(record_spans=False)
    previous = install(collector)
    started = time.perf_counter()
    try:
        traced = window(workload, seconds / 2, tracer)
    finally:
        ended = time.perf_counter()
        install(previous)
        tracer.unpatch()
    tracer.dump(collector.metrics.counters())
    return {"window": traced, "untraced": untraced,
            "trace_window": [started, ended]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
