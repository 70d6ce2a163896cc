"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the common failure families.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "ArcNotFoundError",
    "DuplicateNodeError",
    "ValidationError",
    "NotADagError",
    "FusionError",
    "MiningError",
    "DataGenError",
    "EvaluationError",
    "SerializationError",
    "ServiceError",
    "BackpressureError",
    "ServiceClientError",
    "WALError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """A structural graph operation failed (missing node, bad arc, ...)."""


class NodeNotFoundError(GraphError, KeyError):
    """A referenced node does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class ArcNotFoundError(GraphError, KeyError):
    """A referenced arc does not exist in the graph."""

    def __init__(self, tail: object, head: object, color: object = None) -> None:
        label = f"arc ({tail!r} -> {head!r})"
        if color is not None:
            label += f" with color {color!r}"
        super().__init__(f"{label} is not in the graph")
        self.tail = tail
        self.head = head
        self.color = color


class DuplicateNodeError(GraphError):
    """A node was added twice with conflicting colors or attributes."""


class ValidationError(ReproError):
    """A network violates one of the paper's structural constraints.

    The homogeneous graphs of Section 4.1 and the fused TPIIN of
    Definition 1 each carry structural invariants (bipartiteness of the
    influence graph, acyclicity of the antecedent network, ...).  This
    error reports the first violated invariant.
    """


class NotADagError(ValidationError):
    """An operation that requires a DAG was given a cyclic graph."""


class FusionError(ReproError):
    """The multi-network fusion pipeline received inconsistent inputs."""


class MiningError(ReproError):
    """Suspicious-group mining failed on a malformed TPIIN."""


class DataGenError(ReproError):
    """A synthetic-data generator received an invalid configuration."""


class EvaluationError(ReproError):
    """An ITE-phase judgment method received inconsistent transaction data."""


class SerializationError(ReproError):
    """Reading or writing one of the on-disk formats failed."""


class ServiceError(ReproError):
    """The detection service hit an unrecoverable operational fault."""


class BackpressureError(ServiceError):
    """An ingest queue is saturated; the caller should retry later.

    Raised by the daemon's admission control instead of
    blocking (blocking every HTTP worker on a full queue would deadlock
    the drain path).  The server maps it to ``429 Too Many Requests``
    with a ``Retry-After`` header of ``retry_after`` seconds.
    """

    def __init__(self, message: str, *, retry_after: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceClientError(ServiceError):
    """An HTTP call to the detection service failed.

    Carries the HTTP ``status`` (0 when the request never reached the
    server) so callers can distinguish rejections from outages, and —
    for 429 rejections — the daemon's suggested ``retry_after`` delay
    in seconds (``None`` when the response carried no such hint).
    """

    def __init__(
        self, message: str, *, status: int = 0, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class WALError(SerializationError):
    """The write-ahead log is corrupt beyond the tolerated torn tail."""
