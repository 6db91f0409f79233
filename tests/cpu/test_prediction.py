"""Unit tests for the branch-prediction model."""

import gc
import weakref

import numpy as np

from repro import IVY_BRIDGE, MAGNY_COURS, WESTMERE
from repro.core.experiment import CellSpec, ExperimentConfig, Harness
from repro.cpu.fastengine import FastEngine
from repro.cpu.interpreter import run_program
from repro.cpu.prediction import BranchPredictor, _grouped_prev
from repro.cpu.trace import Trace
from repro.isa.builder import ProgramBuilder

from tests.conftest import build_branchy, build_counted_loop


def test_grouped_prev_basic():
    values = np.asarray([1, 2, 3, 4, 5], dtype=np.int64)
    groups = np.asarray([0, 1, 0, 1, 0], dtype=np.int64)
    prev = _grouped_prev(values, groups, 1)
    assert prev.tolist() == [-1, -1, 1, 2, 3]
    prev2 = _grouped_prev(values, groups, 2)
    assert prev2.tolist() == [-1, -1, -1, -1, 1]


def test_constant_loop_branch_rarely_mispredicts():
    program = build_counted_loop(iterations=100)
    trace = Trace(program, run_program(program).block_seq)
    predictor = BranchPredictor(trace)
    # Back edge is taken 99 times then falls through once: at most the
    # first occurrences and the final not-taken can mispredict.
    assert predictor.mispredict_count <= 3


def test_alternating_branch_is_learned():
    # Outcome alternates T/NT/T/NT: the two-outcome history predictor
    # matches outcome[i-2], so only warmup occurrences mispredict. The
    # Latency-Biased kernel's parity branch alternates exactly this way.
    from repro.workloads.kernels.latency_biased import build_latency_biased
    kernel = build_latency_biased(scale=0.001)
    ktrace = Trace(kernel, run_program(kernel).block_seq)
    predictor = BranchPredictor(ktrace)
    head = kernel.block("main.head").index
    head_occ = np.flatnonzero(ktrace.block_seq == head)
    head_mis = predictor.occurrence_mispredicts[head_occ]
    # The head branch alternates taken/not-taken every iteration; the
    # predictor must learn it after warmup.
    assert head_mis[4:].sum() == 0


def test_random_branches_mispredict_sometimes():
    program = build_branchy(iterations=200, seed=5)
    trace = Trace(program, run_program(program).block_seq)
    predictor = BranchPredictor(trace)
    rate = predictor.mispredict_rate()
    assert 0.02 < rate < 0.6


def test_unconditional_blocks_never_mispredict():
    program = build_counted_loop(iterations=10)
    trace = Trace(program, run_program(program).block_seq)
    predictor = BranchPredictor(trace)
    from repro.isa.block import BlockKind
    kinds = program.tables.block_kind[trace.block_seq]
    uncond = (kinds != int(BlockKind.COND)) & (kinds != int(BlockKind.ICALL))
    assert not predictor.occurrence_mispredicts[uncond].any()


def test_indirect_call_target_changes_mispredict():
    b = ProgramBuilder("icalls", data=np.asarray(
        [0, 0, 0, 1, 1, 1, 0, 1], dtype=np.int64))
    f = b.function("main")
    f.block("entry")
    f.li(0, 8)
    f.li(1, 0)
    f.block("head")
    f.load(2, 1)
    f.icall(2, ["a", "b"])
    f.block("latch")
    f.addi(1, 1, 1)
    f.subi(0, 0, 1)
    f.bnei(0, 0, "head")
    f.block("exit")
    f.halt()
    for name in ("a", "b"):
        g = b.function(name)
        g.block("body")
        g.nop()
        g.ret()
    program = b.build()
    trace = Trace(program, run_program(program).block_seq)
    predictor = BranchPredictor(trace)
    head = program.block("main.head").index
    occ = np.flatnonzero(trace.block_seq == head)
    mis = predictor.occurrence_mispredicts[occ]
    # Targets: a a a b b b a b -> mispredicts at occurrences 0, 3, 6, 7.
    assert mis.tolist() == [True, False, False, True, False, False, True,
                            True]


def test_mispredict_positions_are_branch_ends():
    program = build_branchy(iterations=64, seed=9)
    trace = Trace(program, run_program(program).block_seq)
    predictor = BranchPredictor(trace)
    positions = predictor.mispredict_positions
    assert (np.diff(positions) > 0).all()
    # Every position is the last instruction of some occurrence.
    ends = trace.occurrence_starts + trace.occurrence_sizes - 1
    assert np.isin(positions, ends).all()


def test_machines_share_one_prediction_per_trace():
    """Outcomes are machine-independent: every machine's execution of a
    trace sees the very same arrays, computed once."""
    program = build_branchy(iterations=64, seed=9)
    trace = Trace(program, run_program(program).block_seq)
    engine = FastEngine()
    executions = [engine.execution(uarch, trace)
                  for uarch in (WESTMERE, IVY_BRIDGE, MAGNY_COURS)]
    shared = trace.occurrence_mispredicts
    for execution in executions:
        assert execution.predictor.occurrence_mispredicts is shared
        assert execution.predictor.mispredict_positions \
            is trace.mispredict_positions


def test_dropped_harness_frees_its_trace_without_gc():
    """No reference cycle holds a trace once its fast Harness is gone:
    caching prediction on the trace must not make it wait for the cyclic
    collector (which would keep every pass's traces alive at once)."""
    gc.collect()
    gc.disable()
    try:
        harness = Harness(ExperimentConfig(scale=0.02, repeats=1))
        harness.evaluate_cell(
            CellSpec("ivybridge", "latency_biased", "lbr", engine="fast")
        )
        trace = harness.trace("latency_biased", engine="fast")
        assert trace.occurrence_mispredicts is not None
        ref = weakref.ref(trace)
        del trace, harness
        assert ref() is None
    finally:
        gc.enable()
