"""Core vocabulary of the detector plugin framework.

The paper mines one pattern — interest-affiliated transaction (IAT)
groups — but a production tax administration runs a *portfolio* of
detectors over the same TPIIN (circular trading, VAT missing traders,
household-controlled syndicates; see docs/DETECTORS.md).  This module
defines the shared contract:

* :class:`Finding` — one typed, scored detection (the common output
  currency of every detector);
* :class:`Detector` — the protocol a pluggable detector implements:
  class-level ``name`` / ``version`` / ``summary`` / ``config_type``
  identity plus a ``run(context)`` method;
* :class:`DetectionContext` — one shared, lazily-frozen view of the
  TPIIN handed to every detector of a portfolio run, so N detectors pay
  for one trading-adjacency freeze instead of N;
* :class:`FindingsReport` — the merged, per-detector-keyed outcome of
  :func:`repro.detectors.runner.run_detectors`.

Detectors receive the TPIIN *read-only*: they must not mutate the graph
or the registry (the context is shared across the whole portfolio run).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.errors import MiningError
from repro.fusion.tpiin import TPIIN
from repro.graph.digraph import Node
from repro.mining.detector import DetectionResult
from repro.obs.tracing import NULL_TRACER, Attr, SpanRecord, TracerLike

__all__ = [
    "DetectionContext",
    "Detector",
    "DetectorInfo",
    "DetectorOutcome",
    "DetectorRun",
    "Finding",
    "FindingsReport",
    "FrozenTradingView",
    "config_schema",
]


@dataclass(frozen=True, slots=True)
class Finding:
    """One scored detection: a suspicious structure and its evidence.

    ``members`` is the sorted node set implicated by the finding (the
    ground-truth unit the planted-case accuracy tests match against);
    ``arcs`` the trading arcs cited as evidence; ``score`` a suspicion
    strength in ``[0, 1]``.  ``details`` carries detector-specific
    scalar attributes as a stable key/value tuple so the finding stays
    hashable.
    """

    detector: str
    kind: str
    members: tuple[Node, ...]
    arcs: tuple[tuple[Node, Node], ...] = ()
    score: float = 1.0
    summary: str = ""
    details: tuple[tuple[str, Attr], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise MiningError(
                f"finding score must be in [0, 1], got {self.score!r}"
            )
        object.__setattr__(self, "members", tuple(sorted(self.members, key=str)))

    @property
    def member_set(self) -> frozenset[Node]:
        return frozenset(self.members)

    def to_dict(self) -> dict[str, object]:
        """A JSON-ready view (files, ``/v1/result?detector=`` payloads)."""
        payload: dict[str, object] = {
            "detector": self.detector,
            "kind": self.kind,
            "members": [str(n) for n in self.members],
            "arcs": sorted([[str(a), str(b)] for a, b in self.arcs]),
            "score": round(self.score, 6),
            "summary": self.summary,
        }
        if self.details:
            payload["details"] = {key: value for key, value in self.details}
        return payload


class FrozenTradingView:
    """An immutable snapshot of the trading network, built once per run.

    Every portfolio detector needs trading adjacency (cycle search, fan
    in/out profiling, intra-syndicate trade counting).  Freezing the
    arcs into tuple adjacency once — and sharing the result through the
    :class:`DetectionContext` — keeps an N-detector run at one scan
    instead of N.  ``arcs`` are fused trading arcs, each once: a TPIIN's
    own :meth:`~repro.fusion.tpiin.TPIIN.trading_arcs`, or a live arc set
    passed through :meth:`~repro.fusion.tpiin.TPIIN.map_trading_arcs`.
    """

    __slots__ = ("arcs", "_out", "_in", "companies")

    def __init__(
        self, arcs: Iterable[tuple[Node, Node]], companies: Iterable[Node]
    ) -> None:
        #: Every trading arc, in the given order.
        self.arcs: tuple[tuple[Node, Node], ...] = tuple(arcs)
        self._out = _adjacency(self.arcs)
        # Built on the first in-adjacency read: only missing-trader
        # reads it, so a circular-trading read never pays for it.
        self._in: dict[Node, tuple[Node, ...]] | None = None
        #: Every company node of the TPIIN (traders and non-traders).
        self.companies: tuple[Node, ...] = tuple(companies)

    def sellers(self) -> Iterable[Node]:
        """Every node with a trading arc out, once, in first-arc order."""
        return self._out.keys()

    def buyers_of(self, seller: Node) -> tuple[Node, ...]:
        return self._out.get(seller, ())

    def sellers_to(self, buyer: Node) -> tuple[Node, ...]:
        return self._in_index().get(buyer, ())

    def out_degree(self, node: Node) -> int:
        return len(self._out.get(node, ()))

    def in_degree(self, node: Node) -> int:
        return len(self._in_index().get(node, ()))

    def _in_index(self) -> dict[Node, tuple[Node, ...]]:
        if self._in is None:
            self._in = _adjacency((buyer, seller) for seller, buyer in self.arcs)
        return self._in

    def __len__(self) -> int:
        return len(self.arcs)


def _adjacency(arcs: Iterable[tuple[Node, Node]]) -> dict[Node, tuple[Node, ...]]:
    """Tail -> heads of ``arcs``: tails in first-arc order, heads in arc order."""
    heads_of: dict[Node, list[Node]] = {}
    for tail, head in arcs:
        heads = heads_of.get(tail)
        if heads is None:
            heads_of[tail] = [head]
        else:
            heads.append(head)
    return {tail: tuple(heads) for tail, heads in heads_of.items()}


@dataclass(slots=True)
class DetectionContext:
    """Shared, read-only state for one portfolio run.

    The context owns the lazily-built :class:`FrozenTradingView` (the
    "one shared freeze" of a portfolio run) and resolves registry
    lookups detectors need (declared capital, industry).  By default
    the view holds ``tpiin``'s own trading arcs and ``iat-groups`` mines
    ``tpiin``.  A caller holding a live arc set over an antecedent view
    (the serving daemon) passes its ``live_arcs`` and its ``iat_result``
    instead, so no trading graph is built.  Detectors must treat every
    part of the context as immutable.
    """

    tpiin: TPIIN
    tracer: TracerLike = NULL_TRACER
    #: Live trading arcs in original company ids, frozen (through
    #: :meth:`~repro.fusion.tpiin.TPIIN.map_trading_arcs`) in place of
    #: ``tpiin.trading_arcs()``.
    live_arcs: Sequence[tuple[Node, Node]] | None = None
    #: A finished IAT result for ``iat-groups`` to report instead of
    #: mining ``tpiin``.
    iat_result: DetectionResult | None = None
    _trading: FrozenTradingView | None = field(default=None, repr=False)

    @property
    def trading(self) -> FrozenTradingView:
        """The frozen trading view (built on first access, then shared)."""
        if self._trading is None:
            with self.tracer.span("freeze_trading") as span:
                arcs = (
                    self.tpiin.trading_arcs()
                    if self.live_arcs is None
                    else self.tpiin.map_trading_arcs(self.live_arcs)[0]
                )
                view = FrozenTradingView(arcs, self.tpiin.companies())
                if self.tracer.enabled:
                    span.set(arcs=len(view), companies=len(view.companies))
            self._trading = view
        return self._trading

    def registered_capital(self, node: Node, default: float) -> float:
        """Declared registered capital of one company node.

        Falls back to ``default`` when the TPIIN carries no registry,
        the node is unknown, or the company never declared capital.
        """
        registry = self.tpiin.registry
        if registry is None:
            return default
        company = registry.companies.get(str(node))
        if company is None or company.registered_capital is None:
            return default
        return company.registered_capital

    def industry_of(self, node: Node) -> str:
        """Registry industry label of one company (``"general"`` fallback)."""
        registry = self.tpiin.registry
        if registry is None:
            return "general"
        company = registry.companies.get(str(node))
        return company.industry if company is not None else "general"


@dataclass(slots=True)
class DetectorOutcome:
    """What one detector's ``run`` returns before the driver wraps it.

    ``attributes`` are scalar tallies attached to the detector's span
    (and surfaced in :meth:`DetectorRun.to_dict`); ``detection`` is the
    raw group-level :class:`~repro.mining.detector.DetectionResult`,
    filled only by the IAT reference detector so legacy consumers (sus
    files, ``/v1/result``) keep their full payload; ``state`` is what a
    later run can be advanced from instead of rerun, filled only by
    ``circular-trading`` (a :class:`~repro.detectors.circular.RingState`).
    """

    findings: list[Finding] = field(default_factory=list)
    attributes: dict[str, Attr] = field(default_factory=dict)
    detection: DetectionResult | None = None
    state: object | None = None


@runtime_checkable
class Detector(Protocol):
    """The pluggable detector contract (TPIIN in, findings out).

    Implementations are lightweight, stateless-after-construction
    objects: identity lives in the class attributes ``name`` /
    ``version`` / ``summary`` / ``config_type``, per-run tuning in the
    frozen ``config`` dataclass instance, and all work happens in
    ``run`` against the shared :class:`DetectionContext`.
    """

    name: str
    version: str
    summary: str
    config: object

    def run(self, context: DetectionContext) -> DetectorOutcome:
        """Execute the detector over the context's TPIIN."""
        ...


def config_schema(config: object) -> dict[str, dict[str, object]]:
    """Field name -> ``{type, default}`` schema of one config dataclass.

    The ``/v1/detectors`` listing publishes this so API clients can
    discover each detector's knobs without importing the library.
    Non-scalar defaults (e.g. an attached transaction book) are
    rendered by ``repr`` — the schema is documentation, not a codec.
    """
    if not dataclasses.is_dataclass(config):
        raise MiningError(
            f"detector config must be a dataclass, got {type(config).__name__}"
        )
    schema: dict[str, dict[str, object]] = {}
    for spec in dataclasses.fields(config):
        value = getattr(config, spec.name)
        default: object
        if value is None or isinstance(value, (bool, int, float, str)):
            default = value
        elif isinstance(value, (tuple, list)):
            default = [str(item) for item in value]
        else:
            default = repr(value)
        schema[spec.name] = {"type": str(spec.type), "default": default}
    return schema


@dataclass(frozen=True, slots=True)
class DetectorInfo:
    """Registry-facing identity card of one detector."""

    name: str
    version: str
    summary: str
    schema: dict[str, dict[str, object]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "version": self.version,
            "summary": self.summary,
            "config": {key: dict(spec) for key, spec in self.schema.items()},
        }


@dataclass(slots=True)
class DetectorRun:
    """One detector's completed execution inside a portfolio run."""

    name: str
    version: str
    findings: tuple[Finding, ...]
    elapsed_seconds: float
    attributes: dict[str, Attr] = field(default_factory=dict)
    detection: DetectionResult | None = None
    #: The outcome's ``state`` (:class:`DetectorOutcome`), not serialized.
    state: object | None = None

    def summary(self) -> str:
        line = (
            f"detector={self.name} v{self.version} "
            f"findings={len(self.findings)} "
            f"elapsed={self.elapsed_seconds * 1e3:.1f}ms"
        )
        if self.attributes:
            extras = " ".join(f"{k}={v}" for k, v in sorted(self.attributes.items()))
            line += f" [{extras}]"
        return line

    def to_dict(self) -> dict[str, object]:
        return {
            "detector": self.name,
            "version": self.version,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "attributes": dict(self.attributes),
            "findings": [finding.to_dict() for finding in self.findings],
        }


@dataclass(slots=True)
class FindingsReport:
    """Merged outcome of one ``run_detectors`` portfolio run.

    ``runs`` is keyed by detector name in execution order; ``trace`` is
    the root span of the run when tracing was requested.
    """

    runs: dict[str, DetectorRun] = field(default_factory=dict)
    trace: SpanRecord | None = None

    @property
    def findings(self) -> tuple[Finding, ...]:
        """Every finding of every run, in execution order."""
        return tuple(f for run in self.runs.values() for f in run.findings)

    def names(self) -> tuple[str, ...]:
        return tuple(self.runs)

    def __getitem__(self, name: str) -> DetectorRun:
        try:
            return self.runs[name]
        except KeyError:
            raise MiningError(
                f"no run for detector {name!r} (ran: {', '.join(self.runs) or 'none'})"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.runs

    def __len__(self) -> int:
        return len(self.runs)

    def summary(self) -> str:
        """One line per detector, in execution order."""
        if not self.runs:
            return "no detectors ran"
        return "\n".join(run.summary() for run in self.runs.values())

    def to_dict(self) -> dict[str, object]:
        return {
            "detectors": list(self.runs),
            "total_findings": sum(len(run.findings) for run in self.runs.values()),
            "runs": {name: run.to_dict() for name, run in self.runs.items()},
        }
