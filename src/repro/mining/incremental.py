"""Incremental (streaming) suspicious-group detection.

The paper motivates the MSG-phase with NTICS-scale data: a billion
tax-related records a year with daily peaks of ten million.  At that
rate re-mining the whole TPIIN per batch is wasteful.  The key
observation — provable from Definition 2 — is that detection is
**arc-decomposable**: a suspicious group contains exactly one trading
arc, so the groups behind one trading relationship depend only on that
arc and the (comparatively stable) antecedent network, never on other
trading arcs.

:class:`IncrementalDetector` exploits this: it indexes the antecedent
network once — packed root-ancestor bitsets, a frozen
:class:`~repro.graph.csr.CSRGraph` of the influence arcs (reused for
every path walk across the detector's lifetime, which is what the
serving daemon amortizes between requests), and lazy per-root path
caches — and then processes trading-arc insertions and deletions in
isolation.  A whole arc set (the TPIIN's own trades, a daemon's
snapshot) is loaded once through :meth:`IncrementalDetector.seed`, one
compact mine split into per-arc buckets.  After any sequence of updates
the aggregate result equals a batch run over the same arc set — a
property the hypothesis suite verifies.  The live arcs are also
bucketed by antecedent component (the paper's subTPIINs), so a read
about one company touches one bucket
(:meth:`IncrementalDetector.component_result`).  Running tallies kept
at each mutation answer :meth:`IncrementalDetector.summary` without
touching a group, and a sorted index of the suspicious arcs serves the
groups a page at a time (:meth:`IncrementalDetector.groups_page`).

The groups behind one trading arc ``(c1, c2)`` are enumerated as
``paths(r, c1) x paths(r, c2)`` over the endpoints' common influence
roots ``r`` (matched groups) plus the influence paths ``c2 ~> c1``
(circle groups).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.errors import MiningError
from repro.fusion.tpiin import TPIIN
from repro.graph.bitset import RootAncestorIndex
from repro.graph.csr import CSRGraph
from repro.graph.digraph import Node
from repro.graph.traversal import weakly_connected_components
from repro.mining.detector import (
    IAT_DETECTOR_NAME,
    IAT_DETECTOR_VERSION,
    DetectionResult,
)
from repro.mining.groups import GroupKind, SuspiciousGroup
from repro.mining.parallel import parallel_detect
from repro.mining.scs_groups import scs_group, scs_membership
from repro.model.colors import EColor, VColor
from repro.obs.registry import get_registry
from repro.obs.tracing import NULL_TRACER, TracerLike

__all__ = [
    "ArcUpdate",
    "DetectionSummary",
    "IncrementalDetector",
    "PageCursor",
    "PathCacheStats",
]

#: ``DetectionResult.engine`` of :meth:`IncrementalDetector.result`: the
#: producer's name, not an engine :func:`repro.mining.detect` accepts.
_RESULT_ENGINE = "incremental"

#: A fused arc's page key, ``(str(tail), str(head))``, and a page
#: cursor: the last arc a page read from and how many of its groups it
#: has returned.
_Label = tuple[str, str]
PageCursor = tuple[str, str, int]


@dataclass(frozen=True, slots=True)
class PathCacheStats:
    """Counters for the per-root influence-path cache.

    A long-lived detector (the serving daemon) needs these to bound its
    memory and to report cache effectiveness on ``/metrics``.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int | None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict[str, int | float | None]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True, slots=True)
class DetectionSummary:
    """The scalars of :meth:`IncrementalDetector.result`, without its groups.

    Field for field what the result reports under the same names (its
    ``pattern_trail_count`` is ``None`` too), plus the suspicious-arc
    count; read from tallies, so it costs the same for any group count.
    """

    subtpiin_count: int
    total_trading_arcs: int
    cross_component_trades: int
    group_count: int
    simple_group_count: int
    suspicious_arc_count: int
    detector: str = IAT_DETECTOR_NAME
    detector_version: str = IAT_DETECTOR_VERSION
    engine: str = _RESULT_ENGINE
    pattern_trail_count: int | None = None

    @property
    def complex_group_count(self) -> int:
        return self.group_count - self.simple_group_count


@dataclass(frozen=True, slots=True)
class ArcUpdate:
    """Outcome of one streaming update."""

    arc: tuple[Node, Node]
    suspicious: bool
    groups: tuple[SuspiciousGroup, ...]
    applied: bool  # False for duplicate adds / removals of absent arcs

    @property
    def group_count(self) -> int:
        return len(self.groups)


class IncrementalDetector:
    """Streaming detector over a fixed antecedent network.

    The antecedent network must be a DAG (Property 1): a cyclic one
    raises :class:`~repro.errors.NotADagError` at construction.

    Parameters
    ----------
    tpiin:
        The fused TPIIN.  Its influence arcs, contraction provenance and
        saved SCS subgraphs define the static antecedent side; any
        trading arcs already present (including recorded intra-SCS
        trades) are loaded through :meth:`seed`.  Pass
        :meth:`TPIIN.antecedent_view` to load arcs yourself.
    max_cached_roots:
        Upper bound on the number of roots whose influence-path
        enumerations are kept in the LRU cache.  ``None`` disables the
        cap (the pre-bounded behaviour); the default is generous enough
        that batch-equivalent workloads never evict.
    tracer:
        Observability tracer for the construction phases (antecedent
        indexing and the :meth:`seed` of the TPIIN's own trading arcs);
        defaults to the null tracer.  Long-lived callers (the daemon)
        trace per-mutation with their own tracers instead.
    """

    def __init__(
        self,
        tpiin: TPIIN,
        *,
        max_cached_roots: int | None = 4096,
        tracer: TracerLike = NULL_TRACER,
    ) -> None:
        if max_cached_roots is not None and max_cached_roots < 1:
            raise MiningError(
                f"max_cached_roots must be positive or None, got {max_cached_roots}"
            )
        self._graph = tpiin.antecedent_graph()
        # The trading-free view every read shares: never copied, never
        # mutated, so it may be read without the owner's lock.
        self._tpiin = TPIIN(
            graph=self._graph,
            registry=tpiin.registry,
            node_map=tpiin.node_map,
            scs_subgraphs=tpiin.scs_subgraphs,
            arc_provenance=tpiin.arc_provenance,
        )
        with tracer.span("index_antecedent") as index_span:
            self._index = RootAncestorIndex(self._graph, EColor.INFLUENCE)
            # The antecedent side is immutable for the detector's
            # lifetime: freeze it once and let every per-arc path walk
            # (across all requests of a serving daemon) run over the
            # CSR kernel.
            self._csr = CSRGraph.freeze(self._graph, colors=(EColor.INFLUENCE,))
            if tracer.enabled:
                index_span.set(nodes=len(self._csr))
        self._max_cached_roots = max_cached_roots
        self._path_cache: OrderedDict[
            Node, dict[Node, list[tuple[Node, ...]]]
        ] = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        # Process-wide mirrors of the per-instance cache counters; held
        # as objects so the hot path pays one inc(), not a registry
        # lookup.  Shared across detectors by design (cumulative).
        registry = get_registry()
        self._hits_counter = registry.counter(
            "repro_path_cache_hits_total",
            help="Per-root influence-path cache hits.",
        )
        self._misses_counter = registry.counter(
            "repro_path_cache_misses_total",
            help="Per-root influence-path cache misses.",
        )
        self._evictions_counter = registry.counter(
            "repro_path_cache_evictions_total",
            help="Per-root influence-path cache LRU evictions.",
        )
        self._member_to_scs = scs_membership(tpiin)
        # The valid trading endpoints: one set probe per endpoint, where
        # a node lookup plus a color read cost a fifth of a boot seed.
        self._companies = frozenset(self._graph.nodes(VColor.COMPANY))

        self._component_of: dict[Node, int] = {}
        components = weakly_connected_components(self._graph, EColor.INFLUENCE)
        for i, component in enumerate(components):
            for node in component:
                self._component_of[node] = i
        self._component_count = len(components)

        # Each live arc's groups; an arc is suspicious iff it has any.
        self._arcs: dict[tuple[Node, Node], tuple[SuspiciousGroup, ...]] = {}
        # The arcs inside one component (subTPIIN), bucketed by it in
        # arc order.  Every group lies inside one component, so a bucket
        # holds all of its subTPIIN's groups.
        self._buckets: dict[int, dict[tuple[Node, Node], tuple[SuspiciousGroup, ...]]] = {}
        # Tallies over the fused arcs (the live arcs as a batch run over
        # ``with_trading_arcs`` counts them): how many, how many of those
        # cross two components, and their groups, simple groups included.
        # A fused arc's groups count once however many live arcs fuse
        # onto it; ``_fused_refs`` counts those live arcs, and is only
        # kept when something is contracted.
        self._fused_refs: dict[tuple[Node, Node], int] = {}
        self._fused_arcs = 0
        self._cross_trades = 0
        self._group_total = 0
        self._simple_total = 0
        # Each suspicious fused arc's groups and simple-group count by
        # page key, and those keys sorted: the order pages walk.
        self._pages: dict[_Label, tuple[tuple[SuspiciousGroup, ...], int]] = {}
        self._page_order: list[_Label] = []

        baseline = [*tpiin.trading_arcs(), *tpiin.intra_scs_trades]
        if baseline:
            self.seed(baseline, tracer=tracer)

    def seed(
        self, arcs: Iterable[tuple[Node, Node]], *, tracer: TracerLike = NULL_TRACER
    ) -> None:
        """Load a whole arc set into this empty detector with one batch mine.

        Every arc is checked as :meth:`add_trading_arc` checks it before
        anything changes; a repeated arc loads once, in first-seen order.
        Groups are arc-decomposable (Definition 2), so one
        :func:`~repro.mining.parallel.parallel_detect` over the
        cross-node arcs is bucketed by trading arc; an intra-SCS arc gets
        its witness group.  A bucket's group order may differ from the
        streamed one.  Raises :class:`MiningError` on a non-empty
        detector or an invalid arc (naming it; the detector stays empty).
        """
        if self._arcs:
            raise MiningError(
                f"seed needs an empty detector, this one holds {len(self._arcs)} arcs"
            )
        with tracer.span("seed") as span:
            mapped: dict[tuple[Node, Node], tuple[Node, Node]] = {}
            groups: dict[tuple[Node, Node], tuple[SuspiciousGroup, ...]] = {}
            for seller, buyer in arcs:
                arc = (seller, buyer)
                if arc in mapped:
                    continue
                try:
                    mapped[arc] = self._resolve_arc(seller, buyer)
                    if mapped[arc][0] == mapped[arc][1]:
                        groups[arc] = self._groups_for(seller, buyer, mapped[arc])
                except MiningError as exc:
                    raise MiningError(f"seed arc ({seller!r} -> {buyer!r}): {exc}") from None
            cross = [arc for arc in mapped if arc not in groups]
            if cross:
                mined = parallel_detect(self._tpiin.with_trading_arcs(cross), tracer=tracer)
                buckets: dict[tuple[Node, Node], list[SuspiciousGroup]] = {}
                for group in mined.groups:
                    buckets.setdefault(group.trading_arc, []).append(group)
                for arc in cross:
                    groups[arc] = tuple(buckets.get(mapped[arc], ()))
            for arc, ends in mapped.items():
                self._file(arc, ends, groups[arc], ordered=False)
            self._page_order.sort()
            if tracer.enabled:
                span.set(arcs=len(self._arcs), suspicious=len(self.suspicious_arcs))

    # ------------------------------------------------------------------
    # stream operations
    # ------------------------------------------------------------------
    def add_trading_arc(self, seller: Node, buyer: Node) -> ArcUpdate:
        """Process one new trading relationship.

        Returns the arc's suspiciousness and its proof-chain groups
        (this is what an online monitoring system would alert on).
        Duplicate insertions are idempotent (``applied=False``).
        """
        mapped = self._resolve_arc(seller, buyer)
        key = (seller, buyer)
        groups = self._arcs.get(key)
        if groups is not None:
            return ArcUpdate(key, bool(groups), groups, False)
        groups = self._groups_for(seller, buyer, mapped)
        self._file(key, mapped, groups)
        return ArcUpdate(key, bool(groups), groups, True)

    def remove_trading_arc(self, seller: Node, buyer: Node) -> ArcUpdate:
        """Retract a trading relationship (e.g. a corrected filing)."""
        key = (seller, buyer)
        groups = self._arcs.pop(key, None)
        if groups is None:
            return ArcUpdate(key, False, (), False)
        mapped = (self._map(seller), self._map(buyer))
        tail, head = self._component_of[mapped[0]], self._component_of[mapped[1]]
        if tail == head:
            del self._buckets[tail][key]
        fused = _fused_key(key, mapped)
        if not self._tpiin.node_map or self._release(fused):
            self._fused_arcs -= 1
            self._cross_trades -= tail != head
            if groups:
                label = (str(fused[0]), str(fused[1]))
                _, simple = self._pages.pop(label)
                del self._page_order[bisect_left(self._page_order, label)]
                self._group_total -= len(groups)
                self._simple_total -= simple
        return ArcUpdate(key, bool(groups), groups, True)

    def __contains__(self, arc: tuple[Node, Node]) -> bool:
        return arc in self._arcs

    def __len__(self) -> int:
        return len(self._arcs)

    def has_fused_arc(self, tail: Node, head: Node) -> bool:
        """Whether a live arc fuses onto the graph arc ``tail -> head``
        (two fused ids, ``tail != head``)."""
        if self._tpiin.node_map:
            return (tail, head) in self._fused_refs
        return (tail, head) in self._arcs

    def trading_arcs(self) -> list[tuple[Node, Node]]:
        """The currently live trading arcs, in insertion order.

        This is the state a serving layer must persist to reconstruct
        the detector (the antecedent network is immutable).
        """
        return list(self._arcs)

    # ------------------------------------------------------------------
    # aggregate view
    # ------------------------------------------------------------------
    @property
    def suspicious_arcs(self) -> set[tuple[Node, Node]]:
        return {arc for arc, groups in self._arcs.items() if groups}

    @property
    def path_cache_stats(self) -> PathCacheStats:
        """Hit/miss/eviction counters of the per-root path cache."""
        return PathCacheStats(
            hits=self._cache_hits,
            misses=self._cache_misses,
            evictions=self._cache_evictions,
            size=len(self._path_cache),
            capacity=self._max_cached_roots,
        )

    def groups_for_arc(self, seller: Node, buyer: Node) -> list[SuspiciousGroup]:
        return list(self._arcs.get((seller, buyer), ()))

    def is_suspicious_arc(self, seller: Node, buyer: Node) -> bool:
        """Whether the (present) arc backs at least one group — O(1)."""
        return bool(self._arcs.get((seller, buyer)))

    @property
    def component_count(self) -> int:
        """Number of antecedent components (subTPIINs)."""
        return self._component_count

    @property
    def antecedent(self) -> TPIIN:
        """The antecedent network as a trading-free TPIIN.

        Every node, the influence arcs, the registry and the contraction
        provenance; shared, not copied.  It never changes during the
        detector's lifetime, so it may be read without the owner's lock.
        """
        return self._tpiin

    def component_of(self, node: Node) -> int:
        """The antecedent-component (subTPIIN) index of ``node``.

        Accepts original company ids (contracted members are mapped to
        their SCS node first).  This is the subTPIIN key the service's
        ``/v1/trace/{subtpiin}`` endpoint files mutation traces under.
        """
        mapped = self._map(node)
        try:
            return self._component_of[mapped]
        except KeyError:
            raise MiningError(f"node {node!r} is unknown to the TPIIN") from None

    def result(self) -> DetectionResult:
        """A :class:`DetectionResult` equal to a batch run over the live arcs.

        Live arcs whose endpoints fuse onto one graph arc (their
        sellers, or their buyers, contracted into one syndicate) each
        hold that arc's groups; a batch run over
        :meth:`~repro.fusion.tpiin.TPIIN.with_trading_arcs` mines the
        fused arc once, so the groups are the page index's, one entry
        per suspicious fused arc, and the arc counts are of fused arcs.
        Groups come in the order their fused arcs went live, which is
        live-arc order unless a fused arc outlived the live arc that
        filed it (it keeps that arc's place).
        """
        return DetectionResult(
            groups=[g for arc_groups, _ in self._pages.values() for g in arc_groups],
            total_trading_arcs=self._fused_arcs,
            cross_component_trades=self._cross_trades,
            subtpiin_count=self._component_count,
            engine=_RESULT_ENGINE,
        )

    def summary(self) -> DetectionSummary:
        """:meth:`result`'s counts, read from tallies; touches no group."""
        return DetectionSummary(
            subtpiin_count=self._component_count,
            total_trading_arcs=self._fused_arcs,
            cross_component_trades=self._cross_trades,
            group_count=self._group_total,
            simple_group_count=self._simple_total,
            suspicious_arc_count=len(self._pages),
        )

    def groups_page(
        self, after: PageCursor | None, limit: int
    ) -> tuple[list[SuspiciousGroup], PageCursor | None]:
        """Up to ``limit`` of :meth:`result`'s groups, and the next page's cursor.

        Pages walk the suspicious fused arcs in ``(str(tail), str(head))``
        order, each arc's groups in :meth:`result`'s order; the cursor is
        ``None`` after the last group.  ``after`` is a cursor returned
        earlier: ``(tail, head, n)`` resumes after the first ``n``
        groups of that arc, or at the next arc once it is no longer
        suspicious.  The antecedent network never changes, so an arc
        keeps its groups while it stays live, and a walk over
        interleaved writes never repeats or skips a group of an arc
        that stayed live.  Raises :class:`MiningError` for an ``n``
        past that arc's groups.
        """
        order = self._page_order
        i = skip = 0
        if after is not None:
            label = (after[0], after[1])
            i = bisect_left(order, label)
            if i < len(order) and order[i] == label:
                skip = after[2]
                held = len(self._pages[label][0])
                if skip > held:
                    raise MiningError(
                        f"cursor offset {skip} is past the {held} groups of "
                        f"arc ({label[0]!r} -> {label[1]!r})"
                    )
        page: list[SuspiciousGroup] = []
        cursor: PageCursor | None = None
        while i < len(order) and len(page) < limit:
            label = order[i]
            groups = self._pages[label][0]
            end = min(len(groups), skip + limit - len(page))
            page.extend(groups[skip:end])
            if end < len(groups):
                return page, (*label, end)
            cursor = (*label, end)
            i, skip = i + 1, 0
        return page, cursor if i < len(order) else None

    def component_result(self, node: Node) -> DetectionResult:
        """:meth:`result` restricted to ``node``'s subTPIIN: ``susGroup(i)``.

        Holds the live arcs with both mapped endpoints in ``node``'s
        antecedent component, in live-arc order and with :meth:`result`'s
        per-fused-arc dedup.  A group never leaves its component, so
        these carry all of the component's groups.  Raises
        :class:`MiningError` for a node the TPIIN lacks.
        """
        bucket = self._buckets.get(self.component_of(node), {})
        groups, total = self._fused(bucket)
        return DetectionResult(
            groups=groups,
            total_trading_arcs=total,
            cross_component_trades=0,
            subtpiin_count=1,
            engine=_RESULT_ENGINE,
        )

    def _fused(
        self, arcs: dict[tuple[Node, Node], tuple[SuspiciousGroup, ...]]
    ) -> tuple[list[SuspiciousGroup], int]:
        """The groups of one bucket's ``arcs``, each fused graph arc's
        taken once, and the fused trading-arc count."""
        groups: list[SuspiciousGroup] = []
        node_map = self._tpiin.node_map
        if not node_map:
            # Nothing is contracted: each live arc is its own graph arc.
            for arc_groups in arcs.values():
                groups.extend(arc_groups)
            return groups, len(arcs)
        fused: set[tuple[Node, Node]] = set()
        for arc, arc_groups in arcs.items():
            seller, buyer = arc
            key = _fused_key(arc, (node_map.get(seller, seller), node_map.get(buyer, buyer)))
            if key not in fused:
                fused.add(key)
                groups.extend(arc_groups)
        return groups, len(fused)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _map(self, node: Node) -> Node:
        return self._tpiin.node_map.get(node, node)

    def _resolve_arc(self, seller: Node, buyer: Node) -> tuple[Node, Node]:
        if seller == buyer:
            raise MiningError(f"self trade on {seller!r}")
        mapped = (self._map(seller), self._map(buyer))
        if mapped[0] in self._companies and mapped[1] in self._companies:
            return mapped
        for original, node in zip((seller, buyer), mapped):
            if not self._graph.has_node(node):
                raise MiningError(
                    f"trading endpoint {original!r} is unknown to the TPIIN"
                )
            if self._graph.node_color(node) != VColor.COMPANY:
                raise MiningError(f"trading endpoint {original!r} is not a company")
        return mapped

    def _file(
        self,
        arc: tuple[Node, Node],
        mapped: tuple[Node, Node],
        groups: tuple[SuspiciousGroup, ...],
        *,
        ordered: bool = True,
    ) -> None:
        """Record a new live arc in the arc table, its component's bucket
        and, for the first live arc on its fused arc, the tallies and
        the page index (kept sorted unless ``ordered`` is off; ``seed``
        sorts once at the end instead)."""
        self._arcs[arc] = groups
        tail, head = self._component_of[mapped[0]], self._component_of[mapped[1]]
        if tail == head:
            self._buckets.setdefault(tail, {})[arc] = groups
        if self._tpiin.node_map and not self._claim(_fused_key(arc, mapped)):
            return
        self._fused_arcs += 1
        self._cross_trades += tail != head
        if groups:
            fused = _fused_key(arc, mapped)
            label = (str(fused[0]), str(fused[1]))
            simple = sum(1 for g in groups if g.is_simple)
            self._pages[label] = (groups, simple)
            if ordered:
                insort(self._page_order, label)
            else:
                self._page_order.append(label)
            self._group_total += len(groups)
            self._simple_total += simple

    def _claim(self, fused: tuple[Node, Node]) -> bool:
        """Count one more live arc on ``fused``; True if it is the first."""
        held = self._fused_refs.get(fused, 0)
        self._fused_refs[fused] = held + 1
        return not held

    def _release(self, fused: tuple[Node, Node]) -> bool:
        """Count one live arc off ``fused``; True if it was the last."""
        held = self._fused_refs.pop(fused) - 1
        if held:
            self._fused_refs[fused] = held
        return not held

    def _paths_of(self, root: Node) -> dict[Node, list[tuple[Node, ...]]]:
        cached = self._path_cache.get(root)
        if cached is not None:
            self._cache_hits += 1
            self._hits_counter.inc()
            self._path_cache.move_to_end(root)
            return cached
        self._cache_misses += 1
        self._misses_counter.inc()
        cached = _enumerate_root_paths(self._csr, root)
        self._path_cache[root] = cached
        if (
            self._max_cached_roots is not None
            and len(self._path_cache) > self._max_cached_roots
        ):
            self._path_cache.popitem(last=False)
            self._cache_evictions += 1
            self._evictions_counter.inc()
        return cached

    def _groups_for(
        self, seller: Node, buyer: Node, mapped: tuple[Node, Node]
    ) -> tuple[SuspiciousGroup, ...]:
        c1, c2 = mapped
        if c1 == c2:
            # Both endpoints inside one contracted SCS: suspicious by
            # construction, witnessed by an investment trail.
            return (scs_group(self._tpiin, self._member_to_scs, seller, buyer),)
        return tuple(_enumerate_arc_groups(self._csr, self._index, self._paths_of, c1, c2))


def _fused_key(arc: tuple[Node, Node], mapped: tuple[Node, Node]) -> tuple[Node, Node]:
    """The trading arc a live arc's groups name: its fused graph arc, or
    the arc itself when both ends lie in one syndicate (its SCS group)."""
    return arc if mapped[0] == mapped[1] else mapped


# ----------------------------------------------------------------------
# per-arc path enumeration over the frozen influence kernel
# ----------------------------------------------------------------------
def _enumerate_root_paths(
    csr: CSRGraph, root: Node
) -> dict[Node, list[tuple[Node, ...]]]:
    """All influence paths from ``root``, grouped by their end node.

    Includes the trivial path ``(root,)`` under ``root`` itself — a root
    that is a company can support a group with itself as antecedent.
    The DFS runs in id space over pre-sorted rows (so emission order
    matches a ``str``-sorted walk); paths are decoded as they are
    emitted.  The antecedent net is a DAG, so the on-path guard only
    keeps malformed input from looping.
    """
    offsets, targets = csr.out_adjacency(EColor.INFLUENCE)
    decode = csr.decode_table
    r = csr.encode(root)
    by_end: dict[Node, list[tuple[Node, ...]]] = {root: [(root,)]}
    path = [r]
    on_path = {r}
    cursor = [offsets[r]]
    ends = [offsets[r + 1]]
    while cursor:
        i = cursor[-1]
        if i == ends[-1]:
            cursor.pop()
            ends.pop()
            on_path.discard(path.pop())
            continue
        cursor[-1] = i + 1
        nxt = targets[i]
        if nxt in on_path:
            continue
        path.append(nxt)
        on_path.add(nxt)
        by_end.setdefault(decode[nxt], []).append(tuple(decode[u] for u in path))
        cursor.append(offsets[nxt])
        ends.append(offsets[nxt + 1])
    return by_end


def _paths_between(
    csr: CSRGraph, source: Node, target: Node
) -> list[tuple[Node, ...]]:
    """All simple influence paths ``source ~> target``.

    Prunes the search to nodes that can still reach ``target`` (one
    reverse DFS), so dead branches cost nothing; used for circle-group
    enumeration where such paths are rare and short.
    """
    s = csr.encode(source)
    t = csr.encode(target)
    in_offsets, in_targets = csr.in_adjacency(EColor.INFLUENCE)
    can_reach = {t}
    stack = [t]
    while stack:
        u = stack.pop()
        for i in range(in_offsets[u], in_offsets[u + 1]):
            prev = in_targets[i]
            if prev not in can_reach:
                can_reach.add(prev)
                stack.append(prev)
    if s not in can_reach:
        return []
    if s == t:
        return [(source,)]
    offsets, targets = csr.out_adjacency(EColor.INFLUENCE)
    decode = csr.decode_table
    results: list[tuple[Node, ...]] = []
    path = [s]
    on_path = {s}
    cursor = [offsets[s]]
    ends = [offsets[s + 1]]
    while cursor:
        i = cursor[-1]
        if i == ends[-1]:
            cursor.pop()
            ends.pop()
            on_path.discard(path.pop())
            continue
        cursor[-1] = i + 1
        nxt = targets[i]
        if nxt not in can_reach or nxt in on_path:
            continue
        if nxt == t:
            results.append(tuple(decode[u] for u in path) + (target,))
            continue
        path.append(nxt)
        on_path.add(nxt)
        cursor.append(offsets[nxt])
        ends.append(offsets[nxt + 1])
    return results


def _enumerate_arc_groups(
    csr: CSRGraph,
    index: RootAncestorIndex,
    paths_of: Callable[[Node], dict[Node, list[tuple[Node, ...]]]],
    c1: Node,
    c2: Node,
) -> list[SuspiciousGroup]:
    """All matched and circle groups behind the trading arc ``c1 -> c2``.

    ``paths_of(root)`` must return the per-end-node influence path lists
    of :func:`_enumerate_root_paths` (the detector's cached lookup).
    """
    groups: list[SuspiciousGroup] = []
    for back_path in _paths_between(csr, c2, c1):
        groups.append(
            SuspiciousGroup(
                trading_trail=back_path + (c2,),
                support_trail=(c2,),
                kind=GroupKind.CIRCLE,
            )
        )
    if index.shares_root(c1, c2):
        for root in sorted(index.common_roots(c1, c2), key=str):
            by_end = paths_of(root)
            lead_paths = by_end.get(c1, ())
            support_paths = by_end.get(c2, ())
            if not lead_paths or not support_paths:
                continue
            for lead in lead_paths:
                if c2 in lead:
                    continue  # would revisit the end node: not a simple trail
                for support in support_paths:
                    groups.append(
                        SuspiciousGroup(
                            trading_trail=lead + (c2,),
                            support_trail=support,
                            kind=GroupKind.MATCHED,
                        )
                    )
    return groups
