"""Branch-prediction model.

Sampling accuracy interacts with speculation in two ways the paper's
machines exhibit:

* a mispredicted branch stalls retirement while the pipeline refills, so
  imprecise samples park on branch targets (another shadow source), and
* AMD's IBS tags uops at dispatch — a tag landing on a wrong-path uop is
  flushed with it and the sample is lost, biasing IBS away from code that
  follows hard-to-predict branches.

The predictor here is deliberately simple but vectorized: a conditional
branch is predicted correctly when its outcome matches either of its last
two outcomes (approximating a short-local-history predictor: constant
branches always predict, alternating branches are learned, random branches
mispredict ~25% of the time). Indirect calls predict the last observed
target (a BTB); returns and direct jumps/calls never mispredict (RAS/BTB).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.isa.block import BlockKind

if TYPE_CHECKING:
    from repro.cpu.trace import Trace


def _grouped_prevs(
    values: np.ndarray, groups: np.ndarray, lags: tuple[int, ...]
) -> list[np.ndarray]:
    """``values`` lagged by each ``lag`` within each group (stable order).

    Entries without ``lag`` predecessors in their group are returned as -1.
    ``values`` must be non-negative and of a *signed* integer dtype (the
    -1 sentinel lives in the same dtype).  All lags share one stable sort;
    group ids that fit in 16 bits (every real program — ids are block
    indices) take NumPy's radix path, which is O(n) instead of O(n log n).
    """
    if groups.size and int(groups.max()) <= np.iinfo(np.int16).max:
        keys = groups.astype(np.int16)
    else:  # pragma: no cover - >32k static branch sites
        keys = groups
    order = np.argsort(keys, kind="stable")
    sorted_groups = keys[order]
    sorted_values = values[order]
    outs = []
    for lag in lags:
        sorted_prev = np.full(values.size, -1, dtype=values.dtype)
        if values.size > lag:
            same_group = sorted_groups[lag:] == sorted_groups[:-lag]
            sorted_prev[lag:][same_group] = sorted_values[:-lag][same_group]
        # Scatter back to trace order (cheaper than building the inverse
        # permutation and gathering through it).
        prev = np.empty_like(sorted_prev)
        prev[order] = sorted_prev
        outs.append(prev)
    return outs


def _grouped_prev(values: np.ndarray, groups: np.ndarray, lag: int) -> np.ndarray:
    """``values`` lagged by ``lag`` within each group (stable group order)."""
    return _grouped_prevs(values, groups, (lag,))[0]


def occurrence_mispredicts(trace: Trace) -> np.ndarray:
    """Bool per block occurrence of ``trace``: its terminator mispredicted.

    Outcomes depend on the trace alone, never on the machine, so
    :attr:`Trace.occurrence_mispredicts` caches this once per trace.
    """
    seq = trace.block_seq
    kinds = trace.occurrence_kinds
    mis = np.zeros(seq.size, dtype=bool)

    # Conditional branches: compare the outcome to the last two outcomes
    # of the same static branch.
    cond = trace._cond_occurrences
    if cond.size:
        outcome = trace.occurrence_taken[cond].astype(np.int8)
        sites = seq[cond]
        prev1, prev2 = _grouped_prevs(outcome, sites, (1, 2))
        cond_mis = (outcome != prev1) & (outcome != prev2)
        mis[cond] = cond_mis

    # Indirect calls: a BTB predicting the last observed target.
    icall = np.flatnonzero(kinds == int(BlockKind.ICALL))
    if icall.size:
        # Target = the next block occurrence; the final occurrence has
        # no successor but an ICALL can never be final (its callee runs).
        targets = seq[icall + 1]
        sites = seq[icall]
        prev = _grouped_prev(targets, sites, 1)
        mis[icall] = targets != prev

    return mis


class BranchPredictor:
    """Misprediction flags and positions of one trace.

    A view over the trace's cached outcomes: every machine's
    :class:`~repro.cpu.machine.Execution` of a trace shares one set of
    arrays.  The trace never refers back to a predictor, so dropping the
    last reference to a trace frees it without waiting for the cyclic GC.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace

    @property
    def occurrence_mispredicts(self) -> np.ndarray:
        """Bool per block occurrence: its terminator mispredicted."""
        return self.trace.occurrence_mispredicts

    @property
    def mispredict_positions(self) -> np.ndarray:
        """Trace indices of mispredicted branch instructions (int64)."""
        return self.trace.mispredict_positions

    @property
    def mispredict_count(self) -> int:
        return int(self.mispredict_positions.size)

    def mispredict_rate(self) -> float:
        """Mispredicts per conditional-or-indirect branch occurrence."""
        kinds = self.trace.occurrence_kinds
        predictable = np.isin(
            kinds, [int(BlockKind.COND), int(BlockKind.ICALL)]
        ).sum()
        if predictable == 0:
            return 0.0
        return self.mispredict_count / int(predictable)
