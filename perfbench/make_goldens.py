"""Produce the benchmark's golden outputs with the reference engine.

The reference engine is the program's differential oracle, so every
output the benchmark checks is computed here once, by it, and stored
under ``perfbench/goldens/``.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_goldens.py

It takes several minutes (the reference interpreter runs the paper-scale
tables and the whole application campaign).
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def _cells(api, cells, scale, repeats):
    config = api.ExperimentConfig(scale=scale, repeats=repeats,
                                  seed_base=common.SEED_BASE)
    harness = api.Harness(config)
    results = {}
    for cell in cells:
        request = api.EvaluateRequest(**common.request_doc(
            cell, scale=scale, repeats=repeats, seed_base=common.SEED_BASE,
            engine="reference"))
        results[common.cell_key(*cell)] = api.evaluate_request(
            request, harness=harness).to_json()
    instructions = {w: harness.trace(w).num_instructions
                    for w in dict.fromkeys(cell[1] for cell in cells)}
    return results, instructions


def main() -> int:
    from repro import api

    started = time.perf_counter()
    cells = (common.table_cells(common.KERNELS)
             + common.table_cells(common.APPS))
    results, instructions = _cells(api, cells, common.TABLE_SCALE,
                                   common.TABLE_REPEATS)
    common.write_json(common.GOLDENS / "tables.json", {
        "scale": common.TABLE_SCALE, "repeats": common.TABLE_REPEATS,
        "seed_base": common.SEED_BASE, "trace_instructions": instructions,
        "results": results})
    print(f"tables: {len(results)} cells "
          f"({time.perf_counter() - started:.0f}s)", flush=True)

    results, instructions = _cells(api, common.serve_warm_cells(),
                                   common.SERVE_SCALE, common.SERVE_REPEATS)
    common.write_json(common.GOLDENS / "serve.json", {
        "scale": common.SERVE_SCALE, "repeats": common.SERVE_REPEATS,
        "seed_base": common.SEED_BASE, "trace_instructions": instructions,
        "results": results})
    print(f"serve: {len(results)} warm cells "
          f"({time.perf_counter() - started:.0f}s)", flush=True)

    spec = api.CampaignSpec(**common.CAMPAIGN, engine="reference")
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-goldens-"))
    try:
        api.run_campaign(spec, scratch / "out", jobs=common.CAMPAIGN_JOBS,
                         cache=str(scratch / "cache"))
        target = common.GOLDENS / "campaign"
        target.mkdir(parents=True, exist_ok=True)
        for name in common.CAMPAIGN_ARTIFACTS:
            shutil.copyfile(scratch / "out" / name, target / name)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"campaign: {spec.digest()} "
          f"({time.perf_counter() - started:.0f}s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
