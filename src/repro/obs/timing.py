"""Benchmark timing helpers shared by everything under ``benchmarks/``.

The seed benchmarks each hand-rolled their own ``perf_counter`` loops;
these helpers give them one vocabulary — and pair every wall-time
measurement with the peak-RSS delta, since the paper's tables report
time and memory side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from types import TracebackType
from typing import Callable, Optional, Type, TypeVar

from repro.obs.memory import peak_rss_kb

T = TypeVar("T")


class Stopwatch:
    """A reusable wall-clock context manager::

        with Stopwatch() as sw:
            work()
        print(sw.elapsed_seconds)
    """

    def __init__(self) -> None:
        self.elapsed_seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.elapsed_seconds = perf_counter() - self._start


@dataclass(frozen=True)
class Measurement:
    """One measured call: its result, wall time, and peak-RSS growth."""

    result: object
    elapsed_seconds: float
    peak_rss_delta_kb: int


def measure(fn: Callable[[], T]) -> Measurement:
    """Run ``fn`` once, recording wall time and peak-RSS growth.

    Peak RSS is a high-water mark, so the delta is only attributable to
    ``fn`` when it is the biggest thing the process has run; benchmarks
    therefore measure their heaviest configuration last or in a child
    process.
    """
    rss_before = peak_rss_kb()
    start = perf_counter()
    result = fn()
    elapsed = perf_counter() - start
    return Measurement(result=result, elapsed_seconds=elapsed,
                       peak_rss_delta_kb=peak_rss_kb() - rss_before)


def best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Minimum wall time over ``repeats`` runs (the standard
    noise-resistant point estimate for micro-benchmarks)."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best
