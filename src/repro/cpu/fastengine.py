"""The ``fast`` engine: lane-vectorized execution, shared observations.

Three layers, each bit-identical to the reference path:

* :func:`fast_run_program` — the reference interpreter's driver loop with a
  loop accelerator attached: when control reaches a static back-edge target,
  the counted-loop analysis from :mod:`repro.cpu.lanes` evaluates thousands
  of iterations as NumPy lanes and emits their block sequence in one go.
  Any iteration the analysis cannot prove runs through the plain per-block
  loop instead, so the emitted sequence is always exact.
* :class:`FastEngine` — shares one :class:`~repro.cpu.machine.Execution`
  per (machine, trace) so retirement and prediction are computed once per
  workload instead of once per cell, and hands sampling to the O(samples)
  collector in :mod:`repro.pmu.fastpath`.
* module-level warm caches — built programs and loop analyses are
  compilation artifacts (pure functions of workload name, scale, and seed),
  cached across harnesses the way a JIT caches machine code.  Execution
  *results* are never cached globally: a cold run re-simulates everything.

Deferred registers: when a loop carries a value the analysis cannot
reconstruct (e.g. an iterated data-dependent division), the register file
holds :data:`~repro.cpu.lanes.OPAQUE_REG` after the batch.  If nothing ever
reads it, nothing is paid; the first read raises and the whole run falls
back to the exact interpreter.  Final register files containing deferred
values are returned as :class:`LazyRegisters`, which re-runs the reference
interpreter on first access — block sequences and traces never wait on it.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.cpu import lanes
from repro.cpu.interpreter import (
    DEFAULT_FUEL, InterpreterResult, _run_program, compile_program,
)
from repro.cpu.lanes import OPAQUE_REG, OpaqueRegisterRead
from repro.cpu.machine import Execution, Machine
from repro.cpu.trace import Trace
from repro.cpu.uarch import Microarchitecture
from repro.errors import ExecutionError
from repro.isa.block import BlockKind
from repro.isa.builder import NUM_REGISTERS
from repro.isa.program import Program
from repro.obs import count, span

#: Consecutive zero-progress lane attempts before a header is abandoned
#: for the remainder of the run.
_MAX_ZERO_RUNS = 2
#: Analysis attempts (distinct entry states) cached per loop header.
_MAX_ANALYSES = 4
#: First lane-batch width for a loop header; consecutive batches double
#: from here up to :data:`repro.cpu.lanes.MAX_LANES`.
_BASE_LANES = 1024
#: Width used when a header is re-entered after its loop was seen ending
#: (partial or empty batch).  Mask work is O(width), so re-probing a loop
#: that usually runs dry again — an inner loop re-entered per outer
#: iteration, or a header revisited after exit — must be cheap; a genuinely
#: long re-entry just ramps back up by doubling.
_PROBE_LANES = 256

_FAILED = object()


class _ProgramArtifacts:
    """Compilation state for one program (weakly keyed, reused across runs)."""

    def __init__(self, program: Program) -> None:
        program.finalize()
        self.dlen = int(program.data.size)
        self.steps = compile_program(program, self.dlen)
        tables = program.tables
        self.kinds = [int(k) for k in tables.block_kind]
        self.conts = [int(c) for c in tables.fall_next]
        self.entry = program.function(program.entry).entry.index
        self.hot = lanes.loop_header_candidates(program)
        self.analyses: dict[int, object] = {}
        self._program = weakref.ref(program)

    def analysis_for(self, header: int, regs: list):
        """A cached loop analysis valid at ``regs``, or None."""
        slot = self.analyses.get(header)
        if slot is _FAILED:
            return None
        if slot is None:
            slot = []
            self.analyses[header] = slot
        for an in slot:
            if an.valid_for(regs):
                return an
        if len(slot) >= _MAX_ANALYSES:
            return None
        program = self._program()
        if program is None:  # pragma: no cover - program died mid-run
            return None
        an = lanes.analyze_loop(program, header, regs)
        if an is None:
            if not slot:
                self.analyses[header] = _FAILED
            return None
        slot.append(an)
        return an


_ARTIFACTS: "weakref.WeakKeyDictionary[Program, _ProgramArtifacts]" = \
    weakref.WeakKeyDictionary()


def _artifacts_for(program: Program) -> _ProgramArtifacts:
    art = _ARTIFACTS.get(program)
    if art is None:
        art = _ProgramArtifacts(program)
        _ARTIFACTS[program] = art
    return art


class LazyRegisters(list):
    """A final register file materialized on first access.

    The fast path defers loop-carried values it cannot reconstruct; reading
    any element re-runs the reference interpreter once and caches the exact
    register file.  All list behaviour (len, iteration, indexing, equality,
    repr) forces materialization first.
    """

    def __init__(self, program: Program, fuel: int,
                 registers: list | None) -> None:
        super().__init__()
        self._program = program
        self._fuel = fuel
        self._initial = list(registers) if registers is not None else None
        self._forced = False

    def _force(self) -> None:
        if not self._forced:
            result = _run_program(self._program, self._fuel, self._initial)
            list.extend(self, result.registers)
            self._forced = True

    def __len__(self):
        self._force()
        return list.__len__(self)

    def __getitem__(self, item):
        self._force()
        return list.__getitem__(self, item)

    def __iter__(self):
        self._force()
        return list.__iter__(self)

    def __eq__(self, other):
        self._force()
        return list(self) == other

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = None

    def __contains__(self, item):
        self._force()
        return list.__contains__(self, item)

    def __repr__(self):
        self._force()
        return list.__repr__(self)


def fast_run_program(
    program: Program,
    fuel: int = DEFAULT_FUEL,
    registers: list | None = None,
) -> InterpreterResult:
    """Drop-in for :func:`repro.cpu.interpreter.run_program` (fast path)."""
    with span("interpret", program=program.name, fuel=fuel) as sp:
        result = _fast_run(program, fuel, registers)
        sp.set(blocks=result.blocks_executed)
        count("interpret.blocks", result.blocks_executed)
    return result


def _fast_run(
    program: Program,
    fuel: int,
    registers: list | None,
) -> InterpreterResult:
    art = _artifacts_for(program)
    data = program.data.copy()
    steps = art.steps
    kinds = art.kinds
    conts = art.conts

    regs = list(registers) if registers is not None else [0] * NUM_REGISTERS
    if len(regs) != NUM_REGISTERS:
        raise ExecutionError(
            f"register file must have {NUM_REGISTERS} entries, got {len(regs)}"
        )

    k_call = int(BlockKind.CALL)
    k_icall = int(BlockKind.ICALL)
    k_ret = int(BlockKind.RET)
    k_halt = int(BlockKind.HALT)

    hot = art.hot
    disabled: set[int] = set()
    zero_runs: dict[int, int] = {}
    # Lane-batch ramp: run_batch pays O(width) mask work even when few
    # lanes are live, so a fixed width wastes a full batch of dead lanes
    # every time a short loop is re-entered.  Start small and double on
    # each consecutive batch of the same loop — overshoot is bounded by
    # one (final) batch while long loops still reach full width.
    widths: dict[int, int] = {}
    chunks: list[np.ndarray] = []
    seg: list[int] = []
    append = seg.append
    stack: list[int] = []
    cur = art.entry
    emitted = 0
    opaque_present = False

    def overflow() -> ExecutionError:
        return ExecutionError(
            f"program {program.name!r} exceeded fuel of {fuel} blocks"
        )

    try:
        while True:
            if cur in hot and not stack and cur not in disabled:
                an = art.analysis_for(cur, regs)
                if an is not None:
                    width = widths.get(cur, _BASE_LANES)
                    batch = an.run_batch(regs, data, width)
                    if batch is None:
                        widths[cur] = _PROBE_LANES
                        z = zero_runs.get(cur, 0) + 1
                        zero_runs[cur] = z
                        if z >= _MAX_ZERO_RUNS:
                            disabled.add(cur)
                    else:
                        chunk, n_blocks, n_iters = batch
                        # A full batch means the loop is still going: retry
                        # wider.  A partial one proves it ended mid-batch,
                        # so the next entry starts at probe width.
                        widths[cur] = (min(width * 2, lanes.MAX_LANES)
                                       if n_iters >= width else _PROBE_LANES)
                        zero_runs[cur] = 0
                        emitted += n_blocks
                        if emitted > fuel:
                            raise overflow()
                        if seg:
                            chunks.append(np.asarray(seg, dtype=np.int32))
                            seg = []
                            append = seg.append
                        chunks.append(chunk)
                        if an.carried and not opaque_present:
                            opaque_present = any(
                                regs[r] is OPAQUE_REG for r in an.carried
                            )
                        continue
            append(cur)
            emitted += 1
            if emitted > fuel:
                raise overflow()
            nxt = steps[cur](regs, data)
            k = kinds[cur]
            if k == k_ret:
                if not stack:
                    break
                cur = stack.pop()
            elif k == k_halt:
                break
            elif k == k_call or k == k_icall:
                stack.append(conts[cur])
                cur = nxt
            else:
                cur = nxt
    except OpaqueRegisterRead:
        # A deferred loop-carried value fed back into control or memory:
        # give up on vectorization for this run and replay exactly.
        return _run_program(program, fuel, registers)
    except (TypeError, ValueError, IndexError):
        # NumPy reports a poison index as IndexError/TypeError instead of
        # letting the _OpaqueRegister.__index__ trap propagate.
        if opaque_present:
            return _run_program(program, fuel, registers)
        raise

    if seg:
        chunks.append(np.asarray(seg, dtype=np.int32))
    block_seq = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    final_regs: list
    if opaque_present and any(r is OPAQUE_REG for r in regs):
        final_regs = LazyRegisters(program, fuel, registers)
    else:
        final_regs = regs
    return InterpreterResult(
        block_seq=np.ascontiguousarray(block_seq, dtype=np.int32),
        registers=final_regs,
        data=data,
    )


# -- built-program cache (warm compilation state, keyed by identity inputs) --

_PROGRAM_CACHE: dict[tuple, Program] = {}
_PROGRAM_CACHE_CAP = 64


def cached_program(workload_name: str, scale: float) -> Program:
    """Build (or reuse) a workload program.

    Workload builds are deterministic in (name, scale, default seed), so the
    built program is compilation state, not an execution result; sharing it
    across harnesses is what lets a cold cell pay simulation cost only.
    """
    from repro.workloads.registry import get_workload

    workload = get_workload(workload_name)
    key = (workload_name, float(scale), workload.default_seed)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_CAP:
            _PROGRAM_CACHE.clear()
        program = workload.build(scale=scale)
        program.finalize()
        _PROGRAM_CACHE[key] = program
    return program


class FastEngine:
    """Engine implementation backed by the lane interpreter and fast PMU."""

    name = "fast"

    def __init__(self) -> None:
        self._executions: dict[tuple, Execution] = {}
        self._retire_indexes: dict[tuple, object] = {}

    def program(self, workload_name: str, scale: float = 1.0) -> Program:
        return cached_program(workload_name, scale)

    def run(self, program: Program,
            fuel: int = DEFAULT_FUEL) -> InterpreterResult:
        return fast_run_program(program, fuel=fuel)

    def trace(self, program: Program, fuel: int = DEFAULT_FUEL) -> Trace:
        return Trace(program, self.run(program, fuel=fuel).block_seq)

    def execution(self, uarch: Microarchitecture, trace: Trace) -> Execution:
        """One shared Execution per (machine, trace).

        Sharing is engine-local (per harness), so prediction and retirement
        state never leak across benchmark rounds or processes.
        """
        key = (uarch.name, id(trace))
        execution = self._executions.get(key)
        if execution is None:
            execution = Machine(uarch).attach(trace)
            self._executions[key] = execution
        return execution

    def sampler(self, execution: Execution):
        from repro.pmu.fastpath import FastSampler, RetireIndex

        key = (execution.uarch.name, id(execution.trace))
        index = self._retire_indexes.get(key)
        if index is None:
            with span("retire_index", machine=execution.uarch.name,
                      occurrences=int(execution.trace.block_seq.size)):
                index = RetireIndex(execution)
            count("pmu.retire_index_builds")
            self._retire_indexes[key] = index
        return FastSampler(execution, index)
