"""Attribution of cyclic garbage-collector pauses.

CPython's cyclic collector runs whenever allocations cross a
generation's threshold, so its pauses land in whatever span is open.
While observability is enabled, :class:`CollectorWatch` sits in
``gc.callbacks`` and records, per collection:

* the counter ``runtime.gc.collections.gen<N>`` (N = 0, 1, 2);
* the counter ``runtime.gc_pause_s`` (seconds, summed) and the gauge
  ``runtime.gc_pause_max_s`` (the longest single pause);
* for a generation-2 collection, the counts ``gc_gen2_pauses`` and
  ``gc_gen2_s`` on the innermost open span, so ``profile`` shows where
  the full collections fell.

:func:`repro.obs.enable` installs the watch and :func:`repro.obs.disable`
removes it; the disabled path adds nothing to ``gc.callbacks``.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Dict

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer


class CollectorWatch:
    """A ``gc.callbacks`` hook feeding one registry and tracer."""

    def __init__(self, registry: MetricsRegistry, tracer: Tracer) -> None:
        self.registry = registry
        self.tracer = tracer
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        pause = perf_counter() - self._started
        generation = info["generation"]
        registry = self.registry
        registry.add(f"runtime.gc.collections.gen{generation}", 1)
        registry.add("runtime.gc_pause_s", pause)
        registry.gauge("runtime.gc_pause_max_s").track_max(pause)
        if generation == 2:
            span = self.tracer.innermost
            if span is not None:
                span.count("gc_gen2_pauses")
                span.count("gc_gen2_s", pause)

    def install(self) -> None:
        gc.callbacks.append(self)

    def uninstall(self) -> None:
        if self in gc.callbacks:
            gc.callbacks.remove(self)
