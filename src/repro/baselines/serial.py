"""Single-threaded baseline executor.

The paper's Section 4.2 uses the single-threaded implementation as the
reference point ("9x slower than the single-threaded implementation",
"7x faster than the single-threaded version").  The executor really runs
the Python functions (so results are identical to the distributed runs)
while accumulating *modeled* compute time on a virtual clock, making its
times directly comparable with the simulated cluster's virtual time.
"""

from __future__ import annotations

from typing import Any, Callable


class SerialExecutor:
    """Runs tasks inline, one after another, with zero system overhead."""

    def __init__(self) -> None:
        self.clock = 0.0
        self.tasks_executed = 0

    def run(self, fn: Callable, *args: Any, duration: float = 0.0, **kwargs: Any) -> Any:
        """Execute ``fn`` now; advance the clock by its modeled duration."""
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        self.clock += duration
        self.tasks_executed += 1
        return fn(*args, **kwargs)

    def elapsed(self) -> float:
        return self.clock
