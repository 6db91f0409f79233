"""The overhead guard: with no collector installed, the instrumentation's
no-op fast path must cost well under 5% of a small ``run_method`` call.

The guard measures (a) the wall time of one uninstrumented-path run, (b)
how many span/metric operations that run performs (observed with a live
collector), and (c) the per-operation cost of the disabled primitives, and
asserts (b) x (c) < 5% of (a). This bounds the *instrumentation* overhead
directly instead of differencing two noisy end-to-end timings.
"""

import time

from repro.core.runner import run_method
from repro.obs import collecting, count, enabled, span


#: Interleaved timing rounds; each quantity keeps its best round.
ROUNDS = 15


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_disabled_path_overhead_under_5_percent(branchy_execution):
    assert not enabled()

    def one_run():
        run_method(branchy_execution, "precise", base_period=40, rng=0)

    one_run()  # warm caches (trace properties, method resolution)

    # Count the obs operations a run performs.
    with collecting() as col:
        one_run()
        operations = len(col.spans) + col.metrics.updates
    assert operations > 0

    # Cost of one disabled span + one disabled counter update.
    reps = 20_000

    def noop_loop():
        for _ in range(reps):
            with span("guard", x=1):
                count("guard.ops")

    assert not enabled()
    # Time both quantities in the same rounds, so a burst of machine load
    # slows both rather than only one side of the ratio.
    run_wall = per_operation = float("inf")
    for _ in range(ROUNDS):
        run_wall = min(run_wall, _timed(one_run))
        per_operation = min(per_operation, _timed(noop_loop) / reps)

    estimated_overhead = operations * per_operation
    assert estimated_overhead < 0.05 * run_wall, (
        f"disabled-path overhead {estimated_overhead * 1e6:.1f}us "
        f"({operations} ops x {per_operation * 1e9:.0f}ns) exceeds 5% of "
        f"run_method wall {run_wall * 1e6:.1f}us"
    )
