"""Dynamic instruction traces.

A :class:`Trace` expands a dynamic block sequence into per-instruction numpy
arrays (addresses, latency classes, uop counts, taken-branch records) without
Python-level loops. It is microarchitecture-independent: the same trace is
reused across all three simulated machines, which only differ in retirement
timing and PMU features.

All derived arrays are ``functools.cached_property`` values so that unused
views cost nothing.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.cpu import prediction
from repro.errors import ExecutionError
from repro.isa.block import BlockKind
from repro.isa.program import Program
from repro.obs import count

#: Control-transfer kinds occupy the contiguous value range JMP..RET (with
#: COND in the middle); a range compare beats both ``np.isin`` and a LUT
#: gather on the hot occurrence-level path.  COND occurrences are fully
#: overwritten by the taken computation, so marking them "always taken"
#: in the first step is harmless.
_TRANSFER_LO = int(BlockKind.JMP)
_TRANSFER_HI = int(BlockKind.RET)


class Trace:
    """Per-instruction view of one program execution.

    Parameters
    ----------
    program:
        The finalized program that was executed.
    block_seq:
        Dynamic block-index sequence from the interpreter.
    """

    def __init__(self, program: Program, block_seq: np.ndarray) -> None:
        if block_seq.size == 0:
            raise ExecutionError("cannot build a trace from an empty execution")
        self.program = program
        self.block_seq = np.ascontiguousarray(block_seq, dtype=np.int32)

    # -- block-occurrence level -------------------------------------------

    @cached_property
    def occurrence_sizes(self) -> np.ndarray:
        """Instructions per dynamic block occurrence (int64).

        The static per-block sizes are widened *before* the gather so the
        occurrence-length result needs no second pass.
        """
        return self.program.tables.block_sizes.astype(np.int64)[self.block_seq]

    @cached_property
    def _occ_cumsizes(self) -> np.ndarray:
        """Inclusive size prefix per occurrence (int64); starts, ends, and
        the instruction total are all one vector op away from it."""
        return np.cumsum(self.occurrence_sizes)

    @cached_property
    def occurrence_starts(self) -> np.ndarray:
        """Trace index of the first instruction of each occurrence (int64)."""
        return self._occ_cumsizes - self.occurrence_sizes

    @cached_property
    def occurrence_ends(self) -> np.ndarray:
        """Trace index of the last instruction of each occurrence (int64)."""
        return self._occ_cumsizes - 1

    @cached_property
    def occurrence_kinds(self) -> np.ndarray:
        """Terminator :class:`BlockKind` value per occurrence.

        One shared gather — the taken/prediction/retirement layers all key
        off it.
        """
        return self.program.tables.block_kind[self.block_seq]

    @cached_property
    def num_instructions(self) -> int:
        """Total retired instructions."""
        total = int(self._occ_cumsizes[-1])
        # Once per trace (cached property), not per access.
        count("trace.instructions", total)
        return total

    @cached_property
    def _cond_occurrences(self) -> np.ndarray:
        """Occurrence indices ending in a conditional branch (int64)."""
        return np.flatnonzero(self.occurrence_kinds == int(BlockKind.COND))

    @cached_property
    def occurrence_taken(self) -> np.ndarray:
        """Whether each occurrence ends in a *taken* branch (bool).

        Unconditional transfers (JMP/CALL/ICALL/RET) are always taken;
        conditional branches are taken iff the next occurrence is not the
        static fall-through successor. The final occurrence is marked not
        taken because it has no successor to record a target from.
        """
        tables = self.program.tables
        seq = self.block_seq
        kinds = self.occurrence_kinds
        taken = (kinds >= _TRANSFER_LO) & (kinds <= _TRANSFER_HI)
        ct = self._cond_occurrences
        if ct.size:
            # Resolve takenness only at conditional occurrences (a small
            # subset) instead of gathering successors trace-wide.  The
            # final occurrence, if conditional, compares against itself
            # here — and is then unconditionally marked not taken below.
            sites = seq[ct]
            nxt = seq[np.minimum(ct + 1, seq.size - 1)]
            taken[ct] = nxt != tables.fall_next[sites]
        taken[-1] = False
        return taken

    @cached_property
    def occurrence_mispredicts(self) -> np.ndarray:
        """Whether each occurrence's terminator mispredicted (bool).

        Prediction outcomes are machine-independent, so they are computed
        once here and shared by every machine's execution of this trace
        (see :mod:`repro.cpu.prediction`).
        """
        return prediction.occurrence_mispredicts(self)

    @cached_property
    def mispredicted_occurrences(self) -> np.ndarray:
        """Indices of the occurrences whose terminator mispredicted (int64)."""
        return np.flatnonzero(self.occurrence_mispredicts)

    @cached_property
    def mispredict_positions(self) -> np.ndarray:
        """Trace indices of mispredicted branch instructions (int64)."""
        return self.occurrence_ends[self.mispredicted_occurrences]

    @cached_property
    def occurrence_cumulative_uops(self) -> np.ndarray:
        """``cumulative_uops`` at each occurrence's last instruction (int64).

        One occurrence-length pass: blocks tile the uop pool in index
        order, so per-block totals are a single ``reduceat``.
        """
        tables = self.program.tables
        block_uops = np.add.reduceat(
            tables.pool_uops.astype(np.int64), tables.instr_offset
        )
        occ = block_uops[self.block_seq]
        return np.cumsum(occ, out=occ)

    # -- instruction level ---------------------------------------------------

    @cached_property
    def instr_block(self) -> np.ndarray:
        """Block index of each retired instruction (int32)."""
        return np.repeat(self.block_seq, self.occurrence_sizes)

    # -- point lookups (no per-instruction materialization) ------------------
    #
    # ``blocks_at``/``addresses_at`` answer per-sample questions straight from
    # the occurrence tables; they match ``instr_block[idx]``/``addresses[idx]``
    # exactly but cost O(samples · log occurrences) instead of building the
    # full per-instruction arrays — the property the fast engine's O(samples)
    # sampling relies on.

    def _occurrence_of(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(occurrence index, within-occurrence offset) per trace index."""
        idx = np.asarray(idx, dtype=np.int64)
        k = np.searchsorted(self.occurrence_starts, idx, side="right") - 1
        return k, idx - self.occurrence_starts[k]

    def blocks_at(self, idx: np.ndarray) -> np.ndarray:
        """Block index of the given retired instructions (int32)."""
        k, _ = self._occurrence_of(idx)
        return self.block_seq[k]

    def addresses_at(self, idx: np.ndarray) -> np.ndarray:
        """Virtual address of the given retired instructions (int64)."""
        tables = self.program.tables
        k, within = self._occurrence_of(idx)
        pool = tables.instr_offset[self.block_seq[k]] + within
        return tables.pool_addr[pool]

    @cached_property
    def _pool_index(self) -> np.ndarray:
        """Index of each retired instruction in the static pools (int64)."""
        tables = self.program.tables
        sizes = self.occurrence_sizes
        # Position within the owning block occurrence.
        within = np.arange(self.num_instructions, dtype=np.int64)
        within -= np.repeat(self.occurrence_starts, sizes)
        return np.repeat(
            tables.instr_offset[self.block_seq], sizes
        ) + within

    @cached_property
    def addresses(self) -> np.ndarray:
        """Virtual address of each retired instruction (int64)."""
        return self.program.tables.pool_addr[self._pool_index]

    @cached_property
    def latency_classes(self) -> np.ndarray:
        """Latency class of each retired instruction (int8)."""
        return self.program.tables.pool_latclass[self._pool_index]

    @cached_property
    def uops(self) -> np.ndarray:
        """Uop count of each retired instruction (int16)."""
        return self.program.tables.pool_uops[self._pool_index]

    @cached_property
    def cumulative_uops(self) -> np.ndarray:
        """Inclusive cumulative uop count per instruction (int64)."""
        return np.cumsum(self.uops, dtype=np.int64)

    # -- taken-branch records (the LBR's raw material) -----------------------

    @cached_property
    def _taken_occurrences(self) -> np.ndarray:
        """Occurrence indices ending in a taken branch (int64)."""
        return np.flatnonzero(self.occurrence_taken)

    @cached_property
    def taken_mask(self) -> np.ndarray:
        """Bool per instruction: retired as a taken branch."""
        mask = np.zeros(self.num_instructions, dtype=bool)
        mask[self.taken_positions] = True
        return mask

    @cached_property
    def cumulative_taken(self) -> np.ndarray:
        """Inclusive cumulative taken-branch count per instruction (int64)."""
        return np.cumsum(self.taken_mask, dtype=np.int64)

    @cached_property
    def taken_positions(self) -> np.ndarray:
        """Trace indices of taken branches, ascending (int64)."""
        return self.occurrence_ends[self._taken_occurrences]

    @cached_property
    def taken_sources(self) -> np.ndarray:
        """Source address of each taken branch (int64).

        The source is always an occurrence's terminator, so its pool index
        follows directly from the occurrence tables — no occurrence search
        (``addresses_at``) needed.
        """
        return self.taken_sources_at(slice(None))

    @cached_property
    def taken_targets(self) -> np.ndarray:
        """Target address of each taken branch (int64).

        The target is the start address of the *next* block occurrence.
        """
        return self.taken_targets_at(slice(None))

    def taken_sources_at(self, idx) -> np.ndarray:
        """``taken_sources[idx]`` without materializing the full array.

        Attribution touches only the taken branches recorded in sampled LBR
        stacks — a few hundred — so gathering per index keeps that path
        O(samples) instead of O(taken branches).
        """
        tables = self.program.tables
        blocks = self.block_seq[self._taken_occurrences[idx]]
        pool = tables.instr_offset[blocks] + tables.block_sizes[blocks] - 1
        return tables.pool_addr[pool]

    def taken_targets_at(self, idx) -> np.ndarray:
        """``taken_targets[idx]`` without materializing the full array."""
        tables = self.program.tables
        occ_idx = self._taken_occurrences[idx]
        return tables.block_start_addr[self.block_seq[occ_idx + 1]]

    @cached_property
    def num_taken_branches(self) -> int:
        """Total taken branches retired."""
        return int(self.taken_positions.size)

    # -- exact reference counts (the "REF" ground truth) ---------------------

    @cached_property
    def block_exec_counts(self) -> np.ndarray:
        """Exact execution count per basic block (int64)."""
        return np.bincount(
            self.block_seq, minlength=self.program.num_blocks
        ).astype(np.int64)

    @cached_property
    def block_instr_counts(self) -> np.ndarray:
        """Exact retired-instruction count per basic block (int64)."""
        return self.block_exec_counts * self.program.tables.block_sizes

    # -- summary -------------------------------------------------------------

    def instructions_per_taken_branch(self) -> float:
        """Average retired instructions per taken branch.

        The paper (Section 2.3, citing Yasin et al.) characterises enterprise
        code by ratios around 6-12; workload tests assert on this.
        """
        taken = self.num_taken_branches
        if taken == 0:
            return float("inf")
        return self.num_instructions / taken

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Trace {self.program.name!r}: {self.block_seq.size} block "
            f"occurrences, {self.num_instructions} instructions>"
        )
