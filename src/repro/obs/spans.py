"""Span-based tracing: a wall-time phase tree with memory sampling.

A *span* is one timed phase (``pipeline.analysis``,
``vindicate.construct``, ...). Spans nest: the tracer keeps an open-span
stack, and a span closed while another is open becomes its child, so a
full pipeline run produces a tree whose per-phase times sum (up to
uninstrumented gaps) to the total wall time — exactly the shape of the
paper's per-phase cost breakdown (Tables 2–4).

Usage::

    with obs.span("dc.analysis") as sp:
        ...
        sp.annotate("events", len(trace))

Each span records wall time (``perf_counter``), free-form numeric
annotations, and a memory sample at open and close
(:mod:`repro.obs.memory`). The disabled path is the shared
:data:`NULL_SPAN` singleton — entering/exiting it does nothing and
allocates nothing.

Like the rest of :mod:`repro.obs`, the tracer is deliberately
single-threaded: the detection pipeline is a single-threaded event loop
(the paper's analyses are sequentially consistent over one trace), so a
plain list is the correct — and fastest — stack.
"""

from __future__ import annotations

from time import perf_counter
from types import TracebackType
from typing import Callable, Dict, List, Optional, Type, Union

from repro.obs.memory import MemorySample, delta, sample

#: ``on_close`` callback: (closed span, depth of its parent).
CloseHook = Callable[["Span", int], None]


class Span:
    """One timed phase; a context manager wired to its tracer."""

    __slots__ = ("name", "elapsed_seconds", "counts", "tags", "children",
                 "mem_before", "mem_after", "_start", "_tracer")

    def __init__(self, name: str, tracer: "Tracer") -> None:
        self.name = name
        self.elapsed_seconds = 0.0
        #: Free-form numeric annotations (event counts, sizes, ...).
        self.counts: Dict[str, Union[int, float]] = {}
        #: Free-form string annotations (backend names, variants, ...),
        #: kept apart from :attr:`counts` so the export schema can type
        #: each channel.
        self.tags: Dict[str, str] = {}
        self.children: List["Span"] = []
        self.mem_before: Optional[MemorySample] = None
        self.mem_after: Optional[MemorySample] = None
        self._start = 0.0
        self._tracer = tracer

    # ------------------------------------------------------------------
    # Context manager protocol
    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._open(self)
        if self._tracer.sample_memory:
            self.mem_before = sample(self._tracer.deep_memory)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.elapsed_seconds = perf_counter() - self._start
        if self._tracer.sample_memory:
            self.mem_after = sample(self._tracer.deep_memory)
        self._tracer._close(self)

    # ------------------------------------------------------------------
    # Annotations
    # ------------------------------------------------------------------
    def annotate(self, key: str, value: Union[int, float]) -> None:
        """Attach a numeric annotation (overwrites)."""
        self.counts[key] = value

    def count(self, key: str, amount: Union[int, float] = 1) -> None:
        """Accumulate into a numeric annotation."""
        self.counts[key] = self.counts.get(key, 0) + amount

    def tag(self, key: str, value: str) -> None:
        """Attach a string annotation (overwrites)."""
        self.tags[key] = value

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    @property
    def child_seconds(self) -> float:
        return sum(c.elapsed_seconds for c in self.children)

    @property
    def self_seconds(self) -> float:
        """Wall time not attributed to any child span."""
        return max(0.0, self.elapsed_seconds - self.child_seconds)

    def memory_delta(self) -> Dict[str, int]:
        if self.mem_before is None or self.mem_after is None:
            return {}
        return delta(self.mem_before, self.mem_after)

    def to_dict(self) -> Dict[str, object]:
        """JSON-able recursive form (the snapshot exporter's span tree)."""
        out: Dict[str, object] = {
            "name": self.name,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.counts:
            out["counts"] = dict(self.counts)
        if self.tags:
            out["tags"] = dict(self.tags)
        mem = self.memory_delta()
        if mem:
            out["memory"] = mem
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:
        return (f"Span({self.name}, {self.elapsed_seconds * 1e3:.2f} ms, "
                f"{len(self.children)} children)")


class NullSpan:
    """Shared no-op span for the disabled tracer."""

    __slots__ = ()
    name = "null"
    elapsed_seconds = 0.0

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        return None

    def annotate(self, key: str, value: Union[int, float]) -> None:
        pass

    def count(self, key: str, amount: Union[int, float] = 1) -> None:
        pass

    def tag(self, key: str, value: str) -> None:
        pass


NULL_SPAN = NullSpan()


class Tracer:
    """Collects spans into a forest (usually a single root per run).

    Args:
        sample_memory: Take a :func:`repro.obs.memory.sample` at every
            span open/close (cheap; on by default).
        deep_memory: Also count gc-tracked objects per sample (linear in
            heap size — profile runs only).
        on_close: Streaming hook called with ``(span, depth)`` as each
            span closes — the JSONL exporter's event source.
    """

    enabled = True

    def __init__(self, sample_memory: bool = True, deep_memory: bool = False,
                 on_close: Optional[CloseHook] = None) -> None:
        self.sample_memory = sample_memory
        self.deep_memory = deep_memory
        self.on_close = on_close
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str) -> Span:
        """Create a span; it attaches itself on ``__enter__``."""
        return Span(name, self)

    # ------------------------------------------------------------------
    # Span plumbing (called by Span.__enter__/__exit__)
    # ------------------------------------------------------------------
    def _open(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - defensive
            # Mis-nested exit (an inner span leaked): unwind to it.
            while self._stack and self._stack.pop() is not span:
                pass
        if self.on_close is not None:
            self.on_close(span, len(self._stack))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._stack)

    @property
    def innermost(self) -> Optional[Span]:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def total_seconds(self) -> float:
        return sum(root.elapsed_seconds for root in self.roots)

    def to_dicts(self) -> List[Dict[str, object]]:
        return [root.to_dict() for root in self.roots]

    def render(self, min_ms: float = 0.0) -> str:
        """The phase tree as aligned text (the ``profile`` output)."""
        lines: List[str] = []
        total = self.total_seconds() or 1e-12

        def wanted(span: Span) -> bool:
            return span.elapsed_seconds * 1e3 >= min_ms

        def emit(span: Span, depth: int) -> None:
            label = "  " * depth + span.name
            pct = span.elapsed_seconds / total
            parts = [f"{k}={v}" for k, v in span.tags.items()]
            parts.extend(
                f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in span.counts.items())
            extra = " ".join(parts)
            mem = span.memory_delta()
            rss = mem.get("peak_rss_kb", 0)
            if rss:
                extra = (extra + " " if extra else "") + f"+{rss}kB-peak-rss"
            lines.append(f"{label:<42s} {span.elapsed_seconds * 1e3:>10.1f} ms"
                         f" {pct:>5.0%}" + (f"  {extra}" if extra else ""))
            for child in span.children:
                if wanted(child):
                    emit(child, depth + 1)

        for root in self.roots:
            emit(root, 0)
        return "\n".join(lines)


class NullTracer:
    """The disabled tracer: every span is the shared :data:`NULL_SPAN`."""

    enabled = False
    sample_memory = False
    deep_memory = False

    def span(self, name: str) -> NullSpan:
        return NULL_SPAN

    @property
    def depth(self) -> int:
        return 0

    def total_seconds(self) -> float:
        return 0.0

    def to_dicts(self) -> List[Dict[str, object]]:
        return []

    def render(self, min_ms: float = 0.0) -> str:
        return ""


NULL_TRACER = NullTracer()

AnyTracer = Union[Tracer, NullTracer]
AnySpan = Union[Span, NullSpan]
