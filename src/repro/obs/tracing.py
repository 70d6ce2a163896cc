"""Span tracing for the detection pipeline.

A *span* is one timed stage of a pipeline run — fusion, segmentation,
one subTPIIN's patterns-tree build, a WAL replay — with monotonic-clock
start/end times, free-form scalar attributes (nodes seen, trails
emitted, cache hits, ...) and child spans.  A :class:`Tracer` collects
spans into a tree which can be rendered as text
(:meth:`SpanRecord.render`), exported as one JSON document
(:meth:`SpanRecord.to_dict`) or emitted as JSONL trace events
(:meth:`Tracer.to_jsonl`).

Tracing is **opt-in and zero-overhead when disabled**: the module-level
:data:`NULL_TRACER` singleton answers every ``span()`` call with the
shared :data:`NULL_SPAN`, so an untraced ``detect()`` pays one attribute
lookup and one no-argument method call per stage — no dict, no
:class:`SpanRecord`, no string formatting is ever allocated.  Hot loops
must guard attribute reporting with ``if tracer.enabled:`` so that even
the keyword-argument dict of ``span.set(...)`` is skipped.

The clock is :func:`time.perf_counter` throughout; span times are only
meaningful relative to one another within a single process.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterator, Protocol, Union

__all__ = [
    "Attr",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "SpanHandle",
    "SpanRecord",
    "Tracer",
    "TraceSpec",
    "TracerLike",
    "resolve_tracer",
]

#: Scalar attribute values a span may carry.
Attr = Union[int, float, str, bool]


@dataclass(slots=True)
class SpanRecord:
    """One finished (or in-flight) span of the trace tree."""

    name: str
    start: float
    end: float = 0.0
    attributes: dict[str, Attr] = field(default_factory=dict)
    children: list["SpanRecord"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Wall-clock seconds between start and end (0.0 while open)."""
        return max(0.0, self.end - self.start)

    def walk(self) -> Iterator[tuple[int, "SpanRecord"]]:
        """Depth-first ``(depth, span)`` pairs, pre-order, iteratively."""
        stack: list[tuple[int, SpanRecord]] = [(0, self)]
        while stack:
            depth, span = stack.pop()
            yield depth, span
            stack.extend((depth + 1, child) for child in reversed(span.children))

    def find(self, name: str) -> list["SpanRecord"]:
        """Every span named ``name`` in this subtree, pre-order."""
        return [span for _, span in self.walk() if span.name == name]

    def self_seconds(self) -> float:
        """Duration not covered by direct children (own work)."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def to_dict(self) -> dict[str, object]:
        """JSON-ready nested form (durations in seconds)."""
        payload: dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "duration_seconds": round(self.duration, 9),
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def render(self, *, unit_scale: float = 1e3) -> str:
        """Indented tree with per-span durations (milliseconds).

        ``unit_scale`` converts seconds to the display unit (default
        milliseconds); attributes are appended ``key=value``.
        """
        lines: list[str] = []
        for depth, span in self.walk():
            attrs = " ".join(f"{k}={v}" for k, v in span.attributes.items())
            line = (
                f"{'  ' * depth}{span.name:<{max(1, 28 - 2 * depth)}} "
                f"{span.duration * unit_scale:10.3f} ms"
            )
            if attrs:
                line += f"  [{attrs}]"
            lines.append(line)
        return "\n".join(lines)


class SpanHandle(Protocol):
    """What engine code may do with an open span (real or null)."""

    def __enter__(self) -> "SpanHandle": ...

    def __exit__(self, *exc_info: object) -> None: ...

    def set(self, **attrs: Attr) -> None:
        """Attach scalar attributes to the span."""
        ...

    def add(self, key: str, amount: int = 1) -> None:
        """Increment a numeric span attribute (creates it at 0)."""
        ...

    @property
    def record(self) -> "SpanRecord | None":
        """The underlying record (``None`` for the null span)."""
        ...


class TracerLike(Protocol):
    """The tracer surface the pipeline is instrumented against."""

    @property
    def enabled(self) -> bool: ...

    def span(self, name: str) -> SpanHandle:
        """Open a child span of the innermost open span."""
        ...

    def record(self, name: str, duration: float, **attrs: Attr) -> None:
        """Attach an already-measured span (e.g. a worker's) at the cursor."""
        ...


class NullSpan:
    """The do-nothing span; a single shared instance, never allocated."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: Attr) -> None:
        return None

    def add(self, key: str, amount: int = 1) -> None:
        return None

    @property
    def record(self) -> None:
        return None


NULL_SPAN = NullSpan()


class NullTracer:
    """The disabled tracer: every ``span()`` answers :data:`NULL_SPAN`."""

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str) -> NullSpan:
        return NULL_SPAN

    def record(self, name: str, duration: float, **attrs: Attr) -> None:
        return None


#: Module-level singleton; the annotation is the only spelling of its type.
NULL_TRACER: NullTracer = NullTracer()

#: What ``trace`` accepts: ``False`` (off), ``True`` (collect into a
#: fresh tracer, attached to the result), or a caller-owned tracer.
TraceSpec = Union[bool, TracerLike]


def resolve_tracer(trace: "TraceSpec | None") -> TracerLike:
    """The tracer a run reports to: fresh, caller-owned, or null."""
    if trace is True:
        return Tracer()
    if trace is False or trace is None:
        return NULL_TRACER
    return trace


class _OpenSpan:
    """Context handle for one open :class:`SpanRecord` of a tracer."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self._record = record

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._close(self._record)

    def set(self, **attrs: Attr) -> None:
        self._record.attributes.update(attrs)

    def add(self, key: str, amount: int = 1) -> None:
        attrs = self._record.attributes
        current = attrs.get(key, 0)
        attrs[key] = (current if isinstance(current, (int, float)) else 0) + amount

    @property
    def record(self) -> SpanRecord:
        return self._record


class Tracer:
    """Collects a span tree; one instance per traced pipeline run.

    Spans nest by call order: ``span()`` opens a child of the innermost
    open span (or a new root).  The tracer is not thread-safe — each
    traced run owns its tracer; parallel workers report back via
    :meth:`record` at the join point instead of sharing one.
    """

    __slots__ = ("_roots", "_stack")

    def __init__(self) -> None:
        self._roots: list[SpanRecord] = []
        self._stack: list[SpanRecord] = []

    @property
    def enabled(self) -> bool:
        return True

    @property
    def roots(self) -> list[SpanRecord]:
        """The completed top-level spans (usually exactly one)."""
        return self._roots

    @property
    def root(self) -> SpanRecord | None:
        """The first top-level span, if any — the whole-run tree."""
        return self._roots[0] if self._roots else None

    def span(self, name: str) -> _OpenSpan:
        record = SpanRecord(name=name, start=time.perf_counter())
        if self._stack:
            self._stack[-1].children.append(record)
        else:
            self._roots.append(record)
        self._stack.append(record)
        return _OpenSpan(self, record)

    def record(self, name: str, duration: float, **attrs: Attr) -> None:
        """Attach a pre-timed span (a worker's wall time) at the cursor.

        The span is stamped as ending *now* and starting ``duration``
        seconds earlier, which places remote work on this tracer's
        clock without requiring cross-process clock agreement.
        """
        now = time.perf_counter()
        record = SpanRecord(name=name, start=now - duration, end=now)
        if attrs:
            record.attributes.update(attrs)
        if self._stack:
            self._stack[-1].children.append(record)
        else:
            self._roots.append(record)

    def _close(self, record: SpanRecord) -> None:
        record.end = time.perf_counter()
        # Pop through abandoned children so an exception inside a nested
        # span cannot leave the cursor pointing at a closed frame.
        while self._stack:
            top = self._stack.pop()
            if top.end == 0.0:
                top.end = record.end
            if top is record:
                break

    def span_count(self) -> int:
        """Total spans collected (instrumentation call-site census)."""
        return sum(1 for root in self._roots for _ in root.walk())

    def to_jsonl(self) -> str:
        """One JSON event per span: flat, depth-annotated, pre-order."""
        lines: list[str] = []
        for root in self._roots:
            for depth, span in root.walk():
                event: dict[str, object] = {
                    "name": span.name,
                    "depth": depth,
                    "start": round(span.start, 9),
                    "duration_seconds": round(span.duration, 9),
                }
                if span.attributes:
                    event["attributes"] = dict(span.attributes)
                lines.append(json.dumps(event, separators=(",", ":")))
        return "\n".join(lines)

    def render(self) -> str:
        """Text tree of every root span (see :meth:`SpanRecord.render`)."""
        return "\n".join(root.render() for root in self._roots)
