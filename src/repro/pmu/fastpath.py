"""Event-driven sampling: O(samples) overflow delivery.

The reference :class:`~repro.pmu.sampler.Sampler` materializes full
per-instruction arrays (latency classes, retirement cycles, cumulative uop
counts) and then touches only a handful of positions per sample.  This
module replaces those arrays with a :class:`RetireIndex`: a block-occurrence
level index answering exactly the queries sampling needs —

``at(idx)``
    the retirement cycle of instruction ``idx`` (point lookup),
``search(cycles, side)``
    ``np.searchsorted(retire_cycles, cycles, side)`` without the array, and
``uop_search(thresholds)``
    ``np.searchsorted(cumulative_uops, thresholds, "left")``.

Each query is a fixed handful of O(samples) gathers plus two binary
searches: one over an occurrence-length array, one over a small static
table.  The key identity: inside one occurrence of block ``b`` starting at
trace index ``start``, with phase ``s = start % W``,

``retire(start + j) = start // W + occ_base[k] + T[b, s, j]``,
``T[b, s, j] = (s + j) // W + prefix_b(j)``

where ``prefix_b`` is the block's static inclusive visible-stall prefix
and ``occ_base[k]`` folds the stalls of all earlier occurrences plus the
mispredict-refill penalties, which land exactly on occurrence boundaries.
``T`` depends only on the program and the machine, so the *phase table*
lays every (block, phase) row out once as one ascending key array.
Retirement is non-decreasing, so a threshold query binary-searches the
per-occurrence last-retire array for its occurrence ``k`` and then the
phase table for the position inside it; ``occ_base[k]`` never needs to be
stored, because ``retire(end_k) = occ_last_retire[k]`` anchors the row.
The only occurrence-length array a machine adds is ``occ_last_retire``;
uop prefixes and prediction outcomes are machine-independent and live on
the :class:`~repro.cpu.trace.Trace`.

:class:`FastSampler` mirrors :meth:`Sampler._collect` line for line —
same RNG draw order, same thresholds, same capture formulas — so its
:class:`~repro.pmu.sampler.SampleBatch` is bit-identical to the reference
(the differential suite in ``tests/cpu/test_fastengine.py`` enforces it).
"""

from __future__ import annotations

import numpy as np

from repro.cpu.machine import Execution
from repro.errors import PMUConfigError
from repro.obs import count, span
from repro.pmu.events import EventKind, Precision
from repro.pmu.lbr import LBRFacility
from repro.pmu.overflow import overflow_thresholds
from repro.pmu.sampler import SampleBatch, SamplingConfig, drop_flushed_ibs


class RetireIndex:
    """Occurrence-level index over one execution's retirement timeline."""

    def __init__(self, execution: Execution) -> None:
        trace = execution.trace
        uarch = execution.uarch
        tables = trace.program.tables
        width = uarch.retire_width
        self.n = trace.num_instructions
        self.width = width
        self.seq = trace.block_seq
        self.occ_starts = trace.occurrence_starts
        self._trace = trace
        pow2 = width & (width - 1) == 0
        self._phase_mask = width - 1 if pow2 else None

        # Blocks tile the instruction pools in block-index order
        # (Program._layout), so each pool slot's block and in-block
        # position are one repeat away.
        sizes = tables.block_sizes.astype(np.int64)
        offsets = tables.instr_offset
        pool_size = int(sizes.sum())
        owner = np.repeat(np.arange(sizes.size), sizes)
        within = np.arange(pool_size, dtype=np.int64) - offsets[owner]
        last = offsets + sizes - 1
        self._block_offsets = offsets

        # Phase table: row (s, b) holds T[b, s, j] for j < size_b.  Rows
        # are stacked in memory order, each lifted to start above the
        # previous row's top, so one searchsorted resolves any row and
        # a key below a row's first entry lands at (or before) its start.
        stall = uarch.visible_stall_lut()[tables.pool_latclass]
        stall = stall.astype(np.int64)
        cumstall = np.cumsum(stall)
        prefix = cumstall - (cumstall - stall)[offsets][owner]
        block_stall_total = prefix[last]
        table = (np.arange(width)[:, None] + within) // width + prefix
        row_top = table[:, last]
        lift = np.cumsum(row_top + 1).reshape(row_top.shape) - row_top - 1
        self._phase_keys = (table + lift[:, owner]).ravel()
        # Per-row anchors, indexed by b * W + s.
        self._row_top = (row_top + lift).T.ravel()
        self._row_first = (
            offsets[:, None] + np.arange(width) * pool_size
        ).ravel()

        # The one occurrence-length array per machine: the retire cycle of
        # each occurrence's last instruction.  A mispredict's refill bubble
        # delays the first instruction of the *next* occurrence, so adding
        # it before the prefix sum and taking it back out afterwards leaves
        # every occurrence carrying the bubbles of all earlier ones only.
        olr = block_stall_total[self.seq]
        pen = uarch.mispredict_penalty_cycles
        if pen > 0:
            mispredicted = trace.mispredicted_occurrences
            olr[mispredicted] += pen
            np.cumsum(olr, out=olr)
            olr[mispredicted] -= pen
        else:
            np.cumsum(olr, out=olr)
        # The only occurrence-wide division; every modelled machine with a
        # power-of-two retire width shifts instead.
        ends = trace.occurrence_ends
        olr += ends >> (width.bit_length() - 1) if pow2 else ends // width
        self.occ_last_retire = olr

        # Uop prefixes need no phase: the pool-wide inclusive uop sum is
        # already ascending, and a block's slice of it is its row.
        pool_cumuops = np.cumsum(tables.pool_uops, dtype=np.int64)
        self._pool_cumuops = pool_cumuops
        self._block_top_uops = pool_cumuops[last]

    def _rows(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(start index, phase-table row) of each occurrence in ``k``."""
        start = self.occ_starts[k]
        if self._phase_mask is not None:
            phase = start & self._phase_mask
        else:
            phase = start % self.width
        return start, self.seq[k] * self.width + phase

    # -- retirement-cycle queries -----------------------------------------

    def at(self, idx: np.ndarray) -> np.ndarray:
        """``retire_cycles[idx]`` for in-range trace indices (int64)."""
        idx = np.asarray(idx, dtype=np.int64)
        k = np.searchsorted(self.occ_starts, idx, side="right") - 1
        start, row = self._rows(k)
        key = self._phase_keys[self._row_first[row] + (idx - start)]
        return self.occ_last_retire[k] - self._row_top[row] + key

    def search(self, cycles: np.ndarray, side: str) -> np.ndarray:
        """``np.searchsorted(retire_cycles, cycles, side)`` (int64).

        Entries past the last retirement resolve to ``n`` (the same
        out-of-trace sentinel the reference arrays produce).
        """
        cycles = np.asarray(cycles, dtype=np.int64)
        olr = self.occ_last_retire
        k = np.searchsorted(olr, cycles, side=side)
        hit, k, cycles = self._in_trace(k, cycles)
        start, row = self._rows(k)
        # retire(start + j) - olr[k] = keys[first + j] - top: rebase the
        # query onto the row and search the phase table once.
        key = cycles - olr[k] + self._row_top[row]
        j = np.searchsorted(self._phase_keys, key, side=side)
        j -= self._row_first[row]
        # A key below the row's first entry (a cycle inside the refill
        # bubble before this occurrence, or before the first retirement)
        # resolves to the occurrence's first instruction.
        np.maximum(j, 0, out=j)
        return self._merge(hit, start + j)

    # -- cumulative-uop queries --------------------------------------------

    @property
    def total_uops(self) -> int:
        """``cumulative_uops[-1]`` without the per-instruction array."""
        return int(self._trace.occurrence_cumulative_uops[-1])

    def uop_search(self, thresholds: np.ndarray) -> np.ndarray:
        """``np.searchsorted(cumulative_uops, thresholds, "left")``."""
        thresholds = np.asarray(thresholds, dtype=np.int64)
        occ_cumuops = self._trace.occurrence_cumulative_uops
        k = np.searchsorted(occ_cumuops, thresholds, side="left")
        hit, k, thresholds = self._in_trace(k, thresholds)
        b = self.seq[k]
        key = thresholds - occ_cumuops[k] + self._block_top_uops[b]
        j = np.searchsorted(self._pool_cumuops, key, side="left")
        j -= self._block_offsets[b]
        np.maximum(j, 0, out=j)
        return self._merge(hit, self.occ_starts[k] + j)

    # -- past-the-end handling ---------------------------------------------

    def _in_trace(self, k: np.ndarray, values: np.ndarray):
        """(hit mask or None, in-trace ``k``, their values).

        The mask is None when every query lands inside the trace; ``k`` is
        empty when none does.
        """
        hit = k < self.seq.size
        if hit.all():
            return None, k, values
        return hit, k[hit], values[hit]

    def _merge(self, hit, resolved: np.ndarray) -> np.ndarray:
        """Scatter in-trace results into an ``n``-filled output."""
        if hit is None:
            return resolved
        out = np.full(hit.shape, self.n, dtype=np.int64)
        out[hit] = resolved
        return out


class FastSampler:
    """Drop-in for :class:`~repro.pmu.sampler.Sampler` using a RetireIndex.

    Every formula below restates the corresponding reference capture model
    (:mod:`repro.pmu.skid`, :mod:`repro.pmu.pebs`, :mod:`repro.pmu.ibs`)
    in terms of index queries; RNG consumption order is identical.
    """

    def __init__(self, execution: Execution, index: RetireIndex) -> None:
        self.execution = execution
        self.index = index

    def collect(
        self, config: SamplingConfig, rng: np.random.Generator
    ) -> SampleBatch:
        """Run one sampling session and return the delivered samples."""
        with span("sample",
                  event=config.event.name,
                  period=config.period.base,
                  lbr=config.collect_lbr) as sp:
            batch = self._collect(config, rng)
            sp.set(samples=batch.num_samples, dropped=batch.dropped)
        count("samples.collected", batch.num_samples)
        count("samples.dropped", batch.dropped)
        if batch.lbr_ranges is not None:
            start, end = batch.lbr_ranges
            count("lbr.records", int((end - start).sum()))
        return batch

    def _total_events(self, kind: EventKind) -> int:
        trace = self.execution.trace
        if kind is EventKind.INSTRUCTIONS:
            return trace.num_instructions
        if kind is EventKind.UOPS:
            return self.index.total_uops
        if kind is EventKind.TAKEN_BRANCHES:
            return trace.num_taken_branches
        raise PMUConfigError(f"unknown event kind {kind!r}")

    def _triggers_for(
        self, kind: EventKind, thresholds: np.ndarray
    ) -> np.ndarray:
        trace = self.execution.trace
        if kind is EventKind.INSTRUCTIONS:
            return thresholds - 1
        if kind is EventKind.UOPS:
            return self.index.uop_search(thresholds)
        if kind is EventKind.TAKEN_BRANCHES:
            # The k-th taken branch retires at taken_positions[k - 1]:
            # equivalent to searchsorted(cumulative_taken, k, "left").
            return trace.taken_positions[thresholds - 1]
        raise PMUConfigError(f"unknown event kind {kind!r}")

    def _collect(
        self, config: SamplingConfig, rng: np.random.Generator
    ) -> SampleBatch:
        config.validate_uarch(self.execution.uarch)
        trace = self.execution.trace
        uarch = self.execution.uarch
        index = self.index
        n = trace.num_instructions

        total = self._total_events(config.event.kind)
        phase = (
            int(rng.integers(0, config.period.base))
            if config.random_phase else 0
        )
        thresholds, periods = overflow_thresholds(
            config.period, total, rng, phase=phase
        )

        precision = config.event.precision
        if precision is Precision.IBS:
            group = uarch.ibs_dispatch_group
            quantized = thresholds
            if group > 1:
                quantized = (thresholds - 1) // group * group + 1
            tagged = index.uop_search(quantized)
            arming = uarch.ibs_arming_cycles
            if arming <= 0:
                reported = tagged
            else:
                reported = index.search(index.at(tagged) + arming,
                                        side="right")
            reported = drop_flushed_ibs(
                reported, n,
                trace.mispredict_positions,
                uarch.ibs_flush_window,
            )
            trigger = reported
        else:
            trigger = self._triggers_for(config.event.kind, thresholds)
            if precision is Precision.IMPRECISE:
                delivery = index.at(trigger) + uarch.pmi_skid_cycles
                if uarch.pmi_jitter_cycles > 0:
                    delivery = delivery + rng.integers(
                        0, uarch.pmi_jitter_cycles,
                        size=delivery.shape, dtype=np.int64,
                    )
                reported = index.search(delivery, side="left")
            elif precision is Precision.PEBS:
                reported = index.search(
                    index.at(trigger) + uarch.pebs_arming_cycles,
                    side="right",
                )
            elif precision is Precision.PDIR:
                reported = np.minimum(trigger + 1, n)
            else:  # pragma: no cover - enum is exhaustive
                raise PMUConfigError(f"unhandled precision {precision!r}")

        valid = reported < n
        dropped = int((~valid).sum())
        trigger = trigger[valid]
        reported = reported[valid]
        periods = periods[valid]

        lbr_ranges = None
        if config.collect_lbr:
            facility = LBRFacility(trace, uarch.lbr_depth)
            inclusive = precision is Precision.IMPRECISE
            lbr_ranges = facility.stack_ranges(reported, inclusive=inclusive)

        return SampleBatch(
            execution=self.execution,
            config=config,
            trigger_idx=trigger,
            reported_idx=reported,
            period_weights=periods,
            lbr_ranges=lbr_ranges,
            dropped=dropped,
        )
