"""Exactness of the fast engine's :class:`~repro.pmu.fastpath.RetireIndex`.

The index answers retirement and uop queries from occurrence-level arrays
and a static phase table instead of per-instruction arrays.  Every answer
must equal the one the reference arrays give, on random programs and on
machine variants covering both retire-width divide paths (shift and
general divide) and both mispredict-penalty paths (none and folded).
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import IVY_BRIDGE, MAGNY_COURS, WESTMERE, Machine
from repro.core.experiment import CellSpec, ExperimentConfig, Harness
from repro.cpu.interpreter import run_program
from repro.cpu.trace import Trace
from repro.obs import collecting
from repro.pmu.fastpath import RetireIndex

from tests.cpu.test_fastengine import build_random_program


@st.composite
def indexed_executions(draw):
    """A random program observed on a variant of one of the machines."""
    program = build_random_program(draw(st.integers(0, 500)))
    base = draw(st.sampled_from((WESTMERE, IVY_BRIDGE, MAGNY_COURS)))
    penalty = draw(st.sampled_from((0, draw(st.integers(1, 20)))))
    uarch = dataclasses.replace(
        base,
        retire_width=draw(st.integers(1, 5)),
        mispredict_penalty_cycles=penalty,
    )
    trace = Trace(program, run_program(program).block_seq)
    return Machine(uarch).attach(trace)


@settings(max_examples=40, deadline=None)
@given(indexed_executions(), st.integers(0, 2**32 - 1))
def test_queries_match_reference_arrays(execution, shuffle_seed):
    index = RetireIndex(execution)
    retire = execution.retire_cycles
    n = execution.num_instructions
    assert index.n == n

    idx = np.arange(n, dtype=np.int64)
    assert np.array_equal(index.at(idx), retire)

    # Every cycle from before the first retirement to past the last one;
    # the tail resolves to the ``n`` sentinel.
    cycles = np.arange(-2, int(retire[-1]) + 3, dtype=np.int64)
    shuffled = np.random.default_rng(shuffle_seed).permutation(cycles)
    for side in ("left", "right"):
        for queries in (cycles, shuffled):
            assert np.array_equal(
                index.search(queries, side),
                np.searchsorted(retire, queries, side),
            ), side
    assert index.search(np.asarray([retire[-1] + 1]), "left")[0] == n
    assert index.search(np.asarray([retire[-1]]), "right")[0] == n

    cumulative = execution.trace.cumulative_uops
    assert index.total_uops == int(cumulative[-1])
    thresholds = np.arange(-1, int(cumulative[-1]) + 3, dtype=np.int64)
    assert np.array_equal(
        index.uop_search(thresholds),
        np.searchsorted(cumulative, thresholds, "left"),
    )


def test_empty_queries():
    program = build_random_program(0)
    trace = Trace(program, run_program(program).block_seq)
    index = RetireIndex(Machine(MAGNY_COURS).attach(trace))
    empty = np.asarray([], dtype=np.int64)
    assert index.at(empty).size == 0
    assert index.search(empty, "left").size == 0
    assert index.uop_search(empty).size == 0


def test_fast_cell_records_retire_index_builds():
    """Each (machine, trace) index build is a span and a counter."""
    harness = Harness(ExperimentConfig(scale=0.02, repeats=1))
    with collecting() as col:
        harness.evaluate_cell(
            CellSpec("ivybridge", "latency_biased", "classic", engine="fast")
        )
    builds = [s for s in col.spans if s.name == "retire_index"]
    assert len(builds) == 1
    assert builds[0].attrs["machine"] == "ivybridge"
    trace = harness.trace("latency_biased", engine="fast")
    assert builds[0].attrs["occurrences"] == trace.block_seq.size
    assert col.metrics.counters()["pmu.retire_index_builds"] == 1
