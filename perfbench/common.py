"""Workload definitions and golden-output helpers shared by every script.

Nothing here imports :mod:`repro` at module level: ``run.py`` must be able
to refuse to run (and say why) in a directory that holds no program.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("kernels-cold", "apps-campaign", "table-warm", "serve-mixed")

#: End-to-end metrics (untraced runs) and their units; BENCHMARK.json
#: lists the same names with their bounds.
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "sim_instr_per_s": "1/s",
    "open_to_first_hit_ms": "ms",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# -- the inputs -------------------------------------------------------------

MACHINES = ("magnycours", "westmere", "ivybridge")
TABLE_METHODS = ("classic", "precise", "precise_rand", "precise_prime",
                 "precise_prime_rand", "pdir_fix", "lbr")
KERNELS = ("latency_biased", "callchain", "g4box", "test40")
APPS = ("mcf", "povray", "omnetpp", "xalancbmk", "fullcms")

#: Methods each machine implements (the paper's non-blank cells).
AVAILABLE = {
    "magnycours": {"classic", "precise", "precise_rand", "precise_prime",
                   "precise_prime_rand"},
    "westmere": {"classic", "precise", "precise_rand", "precise_prime",
                 "precise_prime_rand", "lbr", "precise_fix"},
    "ivybridge": {"classic", "precise", "precise_rand", "precise_prime",
                  "precise_prime_rand", "pdir_fix", "lbr", "precise_fix"},
}

#: Default round base period of every kernel and application.
DEFAULT_PERIOD = {**{k: 2000 for k in KERNELS}, **{a: 500 for a in APPS}}

#: Paper-scale tables: kernels-cold and table-warm.
TABLE_SCALE = 1.0
TABLE_REPEATS = 5
SEED_BASE = 100

#: apps-campaign.  The apps go longest first: the pool hands out one
#: workload group per task in this order, and longest-first gave a
#: shorter and steadier makespan than the registry order (README.md).
CAMPAIGN = {
    "name": "apps-campaign",
    "workloads": ("xalancbmk", "omnetpp", "fullcms", "mcf", "povray"),
    "methods": ("classic", "precise_prime_rand", "pdir_fix", "lbr"),
    "periods": (1000, 2000),
    "seed_counts": (3,),
    "scale": 1.0,
    "fidelity": True,
}
CAMPAIGN_JOBS = 2
#: Campaign artifacts compared byte for byte against the goldens.
CAMPAIGN_ARTIFACTS = ("campaign.json", "report.md", "summary.csv",
                      "period_sensitivity.csv", "seed_convergence.csv",
                      "fidelity.csv")

#: serve-mixed.
SERVE_SCALE = 0.05
SERVE_REPEATS = 5
SERVE_PERIODS = (1000, 2000, 4000)
SERVE_FRESH_EVERY = 10          # one fresh request in every block of ten
SERVE_ZIPF_S = 1.1
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
SERVE_HOT_ENTRIES = 32
#: table-warm filler entries written beside the real ones.
FILLER_ENTRIES = 20_000


def cell_key(machine: str, workload: str, method: str, period: int) -> str:
    return f"{machine}/{workload}/{method}@{period}"


def blank(machine: str, method: str) -> bool:
    return method not in AVAILABLE[machine]


def table_cells(workloads) -> list[tuple[str, str, str, int]]:
    """A paper table's grid in the harness's plan order
    (workload → machine → method)."""
    return [(m, w, meth, DEFAULT_PERIOD[w])
            for w in workloads for m in MACHINES for meth in TABLE_METHODS]


def serve_warm_cells() -> list[tuple[str, str, str, int]]:
    """The daemon's warm set: every non-blank Table 1 cell at several
    periods."""
    return [(m, w, meth, p)
            for w in KERNELS for m in MACHINES for meth in TABLE_METHODS
            for p in SERVE_PERIODS if not blank(m, meth)]


def request_doc(cell, *, scale, repeats, seed_base, engine) -> dict:
    machine, workload, method, period = cell
    return {"machine": machine, "workload": workload, "method": method,
            "period": period, "scale": scale, "repeats": repeats,
            "seed_base": seed_base, "engine": engine}


def serve_schedule(seed: int, count: int):
    """The seeded request stream of serve-mixed.

    Yields ``(cell, seed_base, fresh)``.  Warm requests draw a warm-set
    cell by Zipf popularity over a seeded rank order; exactly one request
    in every block of ``SERVE_FRESH_EVERY`` (at a seeded position) is a
    fresh cell: a warm-set cell with a ``seed_base`` no earlier request
    used, so the daemon must simulate it and write it.
    """
    rng = random.Random(seed)
    warm = serve_warm_cells()
    # Seeded popularity order, interleaving the kernels (rank r belongs to
    # kernel r mod 4), so every seed asks for the same mix of trace
    # lengths and only which cells are hot changes.
    groups = [[c for c in warm if c[1] == kernel] for kernel in KERNELS]
    for group in groups:
        rng.shuffle(group)
    ranked = [cell for row in zip(*groups) for cell in row]
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(len(ranked))))
    fresh_base = 1_000_000 + (seed % 1000) * 1_000_000
    out = []
    fresh_slot = 0
    for index in range(count):
        if index % SERVE_FRESH_EVERY == 0:
            fresh_slot = index + rng.randrange(SERVE_FRESH_EVERY)
        if index == fresh_slot:
            out.append((rng.choice(warm), fresh_base + index, True))
        else:
            out.append((rng.choices(ranked, cum_weights=cumulative)[0],
                        SEED_BASE, False))
    return out, ranked[0]


def filler_digests(seed: int, count: int) -> list[str]:
    """Seeded 64-hex digests for table-warm's filler entries."""
    rng = random.Random(seed)
    return [f"{rng.getrandbits(256):064x}" for _ in range(count)]


# -- goldens ----------------------------------------------------------------


def canonical(document) -> str:
    """The program's canonical response encoding (sorted keys, compact
    separators, trailing newline)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def engine_neutral(body: str) -> str:
    """A served or returned result body with its ``engine`` echo removed.

    Goldens come from the reference engine, whose name stays off the
    wire; the benchmark runs the fast engine, whose responses echo
    ``"engine":"fast"``.  Dropping that one field is the only change, and
    the body must already be canonical for the comparison to pass.
    """
    document = json.loads(body)
    if canonical(document) != body:
        return "<non-canonical body>"
    request = document.get("request")
    if isinstance(request, dict) and request.get("engine") == "fast":
        del request["engine"]
    return canonical(document)


def load_golden(name: str):
    return json.loads((GOLDENS / name).read_text(encoding="utf-8"))


def write_json(path: Path, document) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


# -- statistics -------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median(values) -> float:
    return float(statistics.median(values))


def program_env() -> dict[str, str]:
    """Environment for processes that run the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    # No ambient cache: every workload names its cache explicitly, and a
    # stray default root must never be touched.
    env["REPRO_CACHE_DIR"] = str(WORK / "no-default-cache")
    return env


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)
