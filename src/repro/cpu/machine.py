"""The :class:`Machine` façade: run a program, get an :class:`Execution`.

An :class:`Execution` bundles everything the PMU layer samples from: the
program, the microarchitecture, the instruction trace, and the retirement
timing. Traces are microarchitecture-independent, so callers that evaluate
the same workload on several machines should build the trace once (see
:meth:`Machine.attach`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.cpu.interpreter import DEFAULT_FUEL, run_program
from repro.cpu.prediction import BranchPredictor
from repro.cpu.retirement import retirement_cycles
from repro.cpu.trace import Trace
from repro.cpu.uarch import Microarchitecture
from repro.isa.program import Program


@dataclass(frozen=True)
class Execution:
    """One program execution observed on one machine."""

    program: Program
    uarch: Microarchitecture
    trace: Trace

    @cached_property
    def predictor(self) -> BranchPredictor:
        """The branch-prediction outcomes of this trace.

        Outcomes are machine-independent and cached on the trace, so every
        machine's execution of one trace shares the same arrays.
        """
        return BranchPredictor(self.trace)

    @cached_property
    def retire_cycles(self) -> np.ndarray:
        """Retirement cycle per instruction on this machine (int64)."""
        return retirement_cycles(
            self.trace.latency_classes,
            self.uarch,
            mispredict_positions=self.trace.mispredict_positions,
        )

    @property
    def num_instructions(self) -> int:
        return self.trace.num_instructions

    @cached_property
    def total_cycles(self) -> int:
        """Cycle at which the last instruction retires."""
        return int(self.retire_cycles[-1])

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        return self.num_instructions / max(1, self.total_cycles)


class Machine:
    """A simulated CPU instance of one microarchitecture."""

    def __init__(self, uarch: Microarchitecture) -> None:
        self.uarch = uarch

    def execute(self, program: Program, fuel: int = DEFAULT_FUEL) -> Execution:
        """Interpret ``program`` and observe it on this machine."""
        result = run_program(program, fuel=fuel)
        trace = Trace(program, result.block_seq)
        return Execution(program=program, uarch=self.uarch, trace=trace)

    def attach(self, trace: Trace) -> Execution:
        """Observe an existing trace on this machine (no re-execution).

        Programs are deterministic, so the dynamic block sequence is the
        same on every machine; only timing differs.
        """
        return Execution(program=trace.program, uarch=self.uarch, trace=trace)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Machine {self.uarch.name}>"
