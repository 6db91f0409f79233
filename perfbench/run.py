"""perfbench: the repository's benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the program under ``src/`` and prints, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Every output is checked against the goldens in
``perfbench/goldens`` (made by the reference engine); a mismatch is a
failed operation.  All files the run writes live under
``.bench_build/perfbench`` and are removed at the end, except the
table-warm template cache, which later runs in the same checkout reuse.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracing  # noqa: E402

#: Set-up samples per untraced run (the median is reported): fresh
#: processes for the in-process workloads, fresh daemons for serve-mixed
#: (each also gives one open-to-first-hit sample).
SETUP_SAMPLES = 3
DAEMON_SAMPLES = 5
#: Hard limit on any one process the benchmark starts.
PROCESS_TIMEOUT_S = 150
#: serve-mixed reports the median over this many consecutive slices of
#: its window, each of at least ``MIN_SLICE_REQUESTS`` requests (so that
#: ten or more samples lie beyond each slice's p99).
SERVE_SLICES = 4
MIN_SLICE_REQUESTS = 1000
#: Reconciliation tolerance: layer self times plus unattributed time must
#: match the measured wall time within this share (plus one millisecond).
RECONCILE_TOLERANCE = 0.01


# -- processes ----------------------------------------------------------------


def wait_with_usage(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` and return ``(exit code, peak RSS in MB)``.

    ``wait4`` reports the peak resident set of the process and of every
    descendant it waited for (pool workers), which is the number wanted.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def spawn_child(config: dict, run_dir: Path, tag: str):
    """Run ``child.py`` once; returns (result document, peak RSS MB)."""
    config_path = run_dir / f"{tag}.config.json"
    out_path = run_dir / f"{tag}.result.json"
    common.write_json(config_path, {
        **{k: v for k, v in config.items() if k != "env"},
        "out": str(out_path)})
    with open(run_dir / f"{tag}.log", "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(common.HERE / "child.py"), str(config_path),
             repr(started)],
            env=config["env"], stdout=log, stderr=log, cwd=common.ROOT)
        code, rss_mb = wait_with_usage(proc, PROCESS_TIMEOUT_S)
    if code != 0 or not out_path.is_file():
        tail = (run_dir / f"{tag}.log").read_text(errors="replace")[-2000:]
        common.fail(f"{tag} process exited with {code}:\n{tail}")
    return json.loads(out_path.read_text(encoding="utf-8")), rss_mb


def build_fixture(kind: str, run_dir: Path, seed: int) -> tuple[Path, dict]:
    """Build a cache-root fixture in a helper process.

    Fixtures are built in their own process, never in this one: a process
    started later inherits this process's peak resident set in its own
    (``exec`` keeps the high-water mark), which would inflate
    ``peak_rss_mb``.
    """
    root = run_dir / f"{kind}-cache"
    result, _ = spawn_child({"mode": f"fixture-{kind}", "seed": seed,
                             "cache_root": str(root),
                             "env": common.program_env()}, run_dir, kind)
    return root, result["fixture"]


# -- in-process workloads -------------------------------------------------------------


def run_inprocess(args, run_dir: Path) -> dict:
    env = common.program_env()
    sentinel = Path(env["REPRO_CACHE_DIR"])
    shutil.rmtree(sentinel, ignore_errors=True)
    config = {"workload": args.workload, "seconds": args.seconds,
              "work": str(run_dir), "trace": bool(args.trace),
              "trace_dir": str(run_dir / "trace"), "env": env}
    meta: dict = {}
    if args.workload == "table-warm":
        root, meta["fixture"] = build_fixture("table-warm", run_dir,
                                              args.seed)
        config["cache_root"] = str(root)

    setups, attempted, failed, notes = [], 0, 0, []
    if not args.trace:
        for index in range(SETUP_SAMPLES - 1):
            result, _ = spawn_child({**config, "mode": "setup"}, run_dir,
                                    f"setup{index}")
            setups.append(result["setup_s"])
            attempted += result["setup_attempted"]
            failed += result["setup_failed"]
            notes += result["setup_notes"]
    result, rss_mb = spawn_child({**config, "mode": "measure"}, run_dir,
                                 "measure")
    setups.append(result["setup_s"])
    window = result["window"]
    # Only the grid workloads run a guard pass (a campaign is too long).
    guard = result.get("guard", {"counters": {}, "attempted": 0,
                                 "failed": 0, "notes": []})
    attempted += (result["setup_attempted"] + window["attempted"]
                  + guard["attempted"])
    failed += result["setup_failed"] + window["failed"] + guard["failed"]
    notes += result["setup_notes"] + window["notes"] + guard["notes"]

    invalid = grid_guards(args.workload, guard["counters"], sentinel)
    meta.update(setup_samples_s=setups, window=window,
                guard_counters=guard["counters"])
    if args.trace:
        metrics, more_invalid, meta["trace"] = traced_metrics(
            args.workload, result, run_dir / "trace")
        invalid += more_invalid
    else:
        metrics = {
            "setup_s": common.median(setups),
            **{name: window[name] for name in (
                "cells_per_s", "sim_instr_per_s", "open_to_first_hit_ms",
                "requests_per_s", "latency_p50_ms", "latency_p99_ms")},
            "peak_rss_mb": rss_mb,
        }
    return {"attempted": attempted, "failed": failed, "invalid": invalid,
            "notes": notes, "metrics": metrics, "meta": meta}


def grid_guards(workload: str, counters: dict, sentinel: Path) -> list[str]:
    invalid = []
    if workload == "table-warm":
        if counters.get("harness.cells_evaluated", 0) > 0:
            invalid.append("table-warm evaluated cells instead of hitting")
        if counters.get("cache.hits", 0) == 0:
            invalid.append("table-warm saw no cache hits")
    if workload == "kernels-cold":
        touched = sum(counters.get(name, 0) for name in
                      ("cache.hits", "cache.misses", "cache.writes"))
        if touched or sentinel.exists():
            invalid.append("kernels-cold touched a persistent cache")
    return invalid


def traced_metrics(workload: str, result: dict, trace_dir: Path):
    jobs = common.CAMPAIGN_JOBS if workload == "apps-campaign" else 1
    layers = tracing.layer_metrics(tracing.load_dumps(trace_dir),
                                   tuple(result["trace_window"]), jobs=jobs)
    metrics = layers["metrics"]
    traced, untraced = result["window"], result["untraced"]
    metrics["tracing.overhead_pct"] = (
        untraced["requests_per_s"] / traced["requests_per_s"] - 1) * 100
    invalid = []
    if layers["negative_self_spans"]:
        invalid.append(f"{layers['negative_self_spans']} spans have "
                       "negative self time")
    wall = traced["wall_s"]
    reconciled = layers["layer_self_s"] + metrics["tracing.unattributed_s"]
    if workload in ("kernels-cold", "table-warm") and abs(
            reconciled - wall) > RECONCILE_TOLERANCE * wall + 1e-3:
        invalid.append(f"layer self times + unattributed = {reconciled:.4f}s"
                       f" but the traced window measured {wall:.4f}s")
    if workload == "table-warm" and metrics["core.cells_evaluated"] > 0:
        invalid.append("table-warm evaluated cells in the traced window")
    meta = {"wall_s": wall, "layer_self_s": layers["layer_self_s"],
            "reconciled_s": reconciled, "shares": layers["shares"],
            "worker_busy_s": layers["worker_busy_s"]}
    return metrics, invalid, meta


# -- serve-mixed --------------------------------------------------------------------


class Daemon:
    """One ``repro-pmu serve`` process on an ephemeral port."""

    def __init__(self, root: Path, budget: int, run_dir: Path, tag: str,
                 trace_dir: Path | None = None):
        serve_args = ["serve", "--port", "0",
                      "--workers", str(common.SERVE_WORKERS),
                      "--cache-dir", str(root),
                      "--cache-max-bytes", str(budget),
                      "--cache-hot-entries", str(common.SERVE_HOT_ENTRIES)]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.core.cli", *serve_args]
        else:
            command = [sys.executable, str(common.HERE / "launch.py"),
                       str(trace_dir), *serve_args]
        self.log = open(run_dir / f"{tag}.log", "wb")
        started = time.monotonic()
        self.proc = subprocess.Popen(command, env=common.program_env(),
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     cwd=common.ROOT)
        try:
            line = self._first_line()
            self.host, port = line.rsplit("//", 1)[1].split(":")
            self.port = int(port)
            self._await_health()
        except BaseException:
            self.proc.kill()
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def _first_line(self) -> str:
        reader = {}
        thread = threading.Thread(
            target=lambda: reader.setdefault(
                "line", self.proc.stdout.readline().decode().strip()),
            daemon=True)
        thread.start()
        thread.join(60)
        line = reader.get("line", "")
        if not line.startswith("serving on http://"):
            raise RuntimeError(f"daemon did not start: {line!r}")
        return line

    def _await_health(self) -> None:
        deadline = time.monotonic() + 60
        while True:
            try:
                conn = http.client.HTTPConnection(self.host, self.port,
                                                  timeout=5)
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    conn.close()
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.002)

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def counter(self, name: str) -> float:
        """One counter from the daemon's ``/metrics`` (0 if absent)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        for line in text.splitlines():
            if line.startswith(name + " "):
                return float(line.split()[1])
        return 0.0

    def stop(self) -> float:
        """SIGTERM (the daemon drains and exits); returns peak RSS MB."""
        if self.proc.returncode is None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        rss_mb = 0.0
        if self.proc.returncode is None:
            _, rss_mb = wait_with_usage(self.proc, 60)
        self.proc.stdout.close()
        self.log.close()
        return rss_mb


def post(daemon: "Daemon", body: bytes):
    """One ``POST /v1/evaluate`` on its own connection, as the program's
    own clients (``urllib``) send it."""
    conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=60)
    try:
        conn.request("POST", "/v1/evaluate", body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def request_body(cell, seed_base: int) -> bytes:
    return json.dumps(common.request_doc(
        cell, scale=common.SERVE_SCALE, repeats=common.SERVE_REPEATS,
        seed_base=seed_base, engine="fast")).encode("utf-8")


def first_hit_ms(daemon: Daemon, cell, golden) -> tuple[float, bool]:
    """Latency of a fresh daemon's first answer from its cache, and
    whether the answer matched its golden."""
    started = time.perf_counter()
    status, body = post(daemon, request_body(cell, common.SEED_BASE))
    elapsed = time.perf_counter() - started
    ok = status == 200 and common.engine_neutral(
        body.decode("utf-8")) == golden["results"][common.cell_key(*cell)]
    return elapsed * 1e3, ok


def drive(daemon: Daemon, schedule, start: int, seconds: float,
          min_requests: int):
    """Closed loop: ``SERVE_CLIENTS`` clients, each sending its next
    request when the previous one is answered, for ``seconds`` and at
    least ``min_requests`` requests.  Returns (records, start, wall);
    a record is (schedule index, status, latency, body, completion)."""
    lock = threading.Lock()
    state = {"next": start}
    records = []
    began = time.perf_counter()
    deadline = began + seconds

    def client():
        while True:
            with lock:
                index = state["next"]
                if index >= len(schedule) or (
                        time.perf_counter() >= deadline
                        and index - start >= min_requests):
                    break
                state["next"] = index + 1
            cell, seed_base, fresh = schedule[index]
            body = request_body(cell, seed_base)
            sent = time.perf_counter()
            try:
                status, data = post(daemon, body)
            except (OSError, http.client.HTTPException) as exc:
                status, data = 0, repr(exc).encode()
            done = time.perf_counter()
            with lock:
                records.append((index, status, done - sent, data, done))

    threads = [threading.Thread(target=client)
               for _ in range(common.SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records.sort(key=lambda record: record[4])
    return records, began, time.perf_counter() - began


def check_serve(records, schedule, golden, oracle_root: Path):
    """Failures among served responses: warm bodies against the goldens,
    fresh ones against a reference-engine recomputation."""
    from repro import api
    from repro.core.cache import resolve_cache

    oracle = resolve_cache(str(oracle_root))
    failed, notes = 0, []
    for index, status, _, data, _ in records:
        cell, seed_base, fresh = schedule[index]
        if status != 200:
            failed += 1
            notes.append(f"HTTP {status}: {data[:120]!r}")
            continue
        if fresh:
            request = api.EvaluateRequest(**common.request_doc(
                cell, scale=common.SERVE_SCALE, repeats=common.SERVE_REPEATS,
                seed_base=seed_base, engine="reference"))
            expected = api.evaluate_request(request, cache=oracle).to_json()
        else:
            expected = golden["results"][common.cell_key(*cell)]
        if common.engine_neutral(data.decode("utf-8")) != expected:
            failed += 1
            notes.append(f"{'fresh' if fresh else 'warm'} "
                         f"{common.cell_key(*cell)} differs")
    return failed, notes[:5]


def serve_numbers(records, began: float, schedule, golden) -> dict:
    """End-to-end numbers of one window: the median over consecutive
    slices of the (completion-ordered) records, so that a slow stretch of
    the host does not move them."""
    instructions = golden["trace_instructions"]
    size = len(records) // SERVE_SLICES
    slices = []
    start = began
    for k in range(SERVE_SLICES):
        part = records[k * size:(k + 1) * size]
        wall = part[-1][4] - start
        start = part[-1][4]
        ok = [schedule[i][0] for i, status, *_ in part if status == 200]
        latencies = [latency for _, _, latency, _, _ in part]
        slices.append({
            "requests_per_s": len(part) / wall,
            "cells_per_s": len(ok) / wall,
            "sim_instr_per_s": sum(instructions[cell[1]] for cell in ok)
            * common.SERVE_REPEATS / wall,
            "latency_p50_ms": common.median(latencies) * 1e3,
            "latency_p99_ms": common.percentile(latencies, 99) * 1e3,
        })
    numbers = {name: common.median([sl[name] for sl in slices])
               for name in slices[0]}
    numbers.update(
        requests=len(records),
        wall_s=records[-1][4] - began,
        latency_samples=len(records),
        fresh_share=sum(schedule[i][2] for i, *_ in records) / len(records))
    return numbers


def run_serve(args, run_dir: Path) -> dict:
    golden = common.load_golden("serve.json")
    # The daemon and its clients share one CPU (children inherit this
    # affinity).  The daemon's request path is a chain of thread hand-offs
    # under one interpreter lock; spread over two virtual CPUs each
    # hand-off waits on a cross-CPU wake-up, whose latency varies with
    # the host's load by tens of percent from run to run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root, fixture = build_fixture("serve", run_dir, args.seed)
    budget = 2 * fixture["bytes"] + (16 << 20)
    schedule, hottest = common.serve_schedule(args.seed, 200_000)
    meta = {"fixture": fixture, "budget_bytes": budget}

    if args.trace:
        trace_dir = run_dir / "trace"
        with Daemon(root, budget, run_dir, "daemon-plain") as plain:
            untraced, _, untraced_wall = drive(plain, schedule, 0,
                                               args.seconds / 2,
                                               MIN_SLICE_REQUESTS)
        with Daemon(root, budget, run_dir, "daemon-traced",
                    trace_dir) as daemon:
            records, began, wall = drive(daemon, schedule, len(untraced),
                                         args.seconds / 2,
                                         MIN_SLICE_REQUESTS)
        records_all = untraced + records
        hits = []
        layers = tracing.layer_metrics(tracing.load_dumps(trace_dir), None)
        metrics = layers["metrics"]
        evictions = metrics["cache.evictions"]
        client_s = sum(record[2] for record in records)
        metrics["serve.http_s"] = (client_s - layers["queue_wait_s"]
                                   - metrics["serve.run_s"])
        metrics["serve.rejected"] += sum(record[1] in (429, 503)
                                         for record in records_all)
        metrics["tracing.overhead_pct"] = (
            (len(untraced) / untraced_wall) / (len(records) / wall) - 1) * 100
        numbers = serve_numbers(records, began, schedule, golden)
        meta["trace"] = {"shares": layers["shares"], "client_s": client_s}
    else:
        setups, hits = [], []
        for index in range(DAEMON_SAMPLES - 1):
            with Daemon(root, budget, run_dir, f"daemon{index}") as daemon:
                setups.append(daemon.setup_s)
                hits.append(first_hit_ms(daemon, hottest, golden))
        # The last daemon also serves the timed window.
        with Daemon(root, budget, run_dir, "daemon") as daemon:
            setups.append(daemon.setup_s)
            hits.append(first_hit_ms(daemon, hottest, golden))
            records_all, began, _ = drive(daemon, schedule, 0, args.seconds,
                                          SERVE_SLICES * MIN_SLICE_REQUESTS)
            evictions = daemon.counter("repro_cache_disk_evictions_total")
            rss_mb = daemon.stop()
        numbers = serve_numbers(records_all, began, schedule, golden)
        metrics = {
            "setup_s": common.median(setups),
            **{name: numbers[name] for name in (
                "cells_per_s", "sim_instr_per_s")},
            "open_to_first_hit_ms": common.median([ms for ms, _ in hits]),
            **{name: numbers[name] for name in (
                "requests_per_s", "latency_p50_ms", "latency_p99_ms")},
            "peak_rss_mb": rss_mb,
        }
        meta.update(setup_samples_s=setups, first_hits_ms=hits)

    failed, notes = check_serve(records_all, schedule, golden,
                                run_dir / "oracle-cache")
    attempted = len(records_all) + len(hits)
    failed += sum(not ok for _, ok in hits)
    invalid = []
    if evictions:
        invalid.append(f"the budgeted disk tier evicted {evictions:.0f} "
                       "entries")
    share = numbers["fresh_share"]
    if abs(share - 1 / common.SERVE_FRESH_EVERY) > 0.01:
        invalid.append(f"fresh share {share:.3f} is off its target")
    meta["window"] = numbers
    return {"attempted": attempted, "failed": failed,
            "invalid": invalid, "notes": notes, "metrics": metrics,
            "meta": meta}


# -- entry point ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        common.fail(f"no program at {common.SRC / 'repro'}; run from a "
                    "checkout of the repository")
    if args.seconds <= 0:
        common.fail("--seconds must be positive")
    sys.path.insert(0, str(common.SRC))

    run_dir = common.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        runner = run_serve if args.workload == "serve-mixed" \
            else run_inprocess
        outcome = runner(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = tracing.PER_LAYER if args.trace else common.END_TO_END
    metrics = {name: {"value": float(outcome["metrics"][name]), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "invalid": outcome["invalid"], "notes": outcome["notes"],
        "ops_failed_ratio": outcome["failed"] / max(outcome["attempted"], 1),
        **outcome["meta"]}}))
    print(json.dumps({
        "correct": outcome["failed"] == 0 and not outcome["invalid"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
