"""Algorithm 1: end-to-end suspicious-group detection on a TPIIN.

``detect`` orchestrates the three-step approach of Section 4.3:

1. segment the TPIIN into subTPIINs (divide and conquer);
2. per subTPIIN, build the patterns tree and component pattern base
   (Algorithm 2);
3. match component patterns sharing an antecedent into suspicious
   groups, and add the intra-SCS trade groups.

Two engines implement identical semantics:

* ``"faithful"`` — the paper's algorithm literally: materializes the
  pattern base and matches it (this module); the reference oracle;
* ``"parallel"`` — a count-first compact kernel over one frozen CSR
  graph, in-process (:mod:`repro.mining.parallel`).

Their outputs are cross-validated by property tests.  The streaming
:class:`~repro.mining.incremental.IncrementalDetector` loads a whole
arc set through the parallel engine and then updates it arc by arc.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.fusion.tpiin import TPIIN
from repro.graph.digraph import Node
from repro.mining.groups import GroupKind, SuspiciousGroup
from repro.mining.matching import match_component_patterns
from repro.mining.options import Engine, TraceSpec
from repro.mining.patterns import build_patterns_tree
from repro.mining.scs_groups import scs_suspicious_groups
from repro.mining.segmentation import segment
from repro.model.colors import EColor
from repro.obs.profile import SUBTPIIN_SPAN
from repro.obs.registry import get_registry
from repro.obs.tracing import SpanRecord, TracerLike, resolve_tracer

__all__ = [
    "DetectionResult",
    "IAT_DETECTOR_NAME",
    "IAT_DETECTOR_VERSION",
    "SubTPIINResult",
    "detect",
]

#: Canonical identity of the paper's IAT group miner in the detector
#: registry (:mod:`repro.detectors`).  Declared here — not in the
#: detectors package — because every engine-produced
#: :class:`DetectionResult` carries it, and the mining layer sits below
#: the plugin framework in the declared architecture.
IAT_DETECTOR_NAME = "iat-groups"
IAT_DETECTOR_VERSION = "1.0.0"

#: Bucket bounds (milliseconds) for the detect() wall-time histogram;
#: densest-720 runs land mid-range, toy fixtures in the first bucket.
_DETECT_BUCKETS_MS = (1.0, 5.0, 25.0, 100.0, 250.0, 1000.0, 5000.0, 30000.0)


@dataclass(slots=True)
class SubTPIINResult:
    """Per-subTPIIN mining outcome (the paper's ``susGroup(i)`` content)."""

    index: int
    node_count: int
    trading_arc_count: int
    pattern_trail_count: int
    # A plain list for the eager engines, a lazily-materialized
    # :class:`~repro.mining.compact.LazyGroups` for the parallel engine.
    groups: Sequence[SuspiciousGroup] = field(default_factory=list)

    @property
    def suspicious_arcs(self) -> set[tuple[Node, Node]]:
        return {g.trading_arc for g in self.groups}


@dataclass(slots=True)
class DetectionResult:
    """Aggregated outcome of Algorithm 1 over a whole TPIIN.

    The parallel engine fills the ``*_override`` fields from its compact
    tallies, so reading the kind counts or the suspicious arcs never
    materializes its lazy groups.
    """

    # Eager engines fill a plain list; the parallel engine supplies a
    # sized, lazily-materialized sequence (``len`` is O(1) either way).
    groups: Sequence[SuspiciousGroup]
    total_trading_arcs: int
    cross_component_trades: int
    subtpiin_count: int
    engine: str
    pattern_trail_count: int | None = None
    sub_results: list[SubTPIINResult] = field(default_factory=list)
    kind_counts_override: Counter[GroupKind] | None = None
    suspicious_arcs_override: set[tuple[Node, Node]] | None = None
    # Root span of the traced run (None unless detect(..., trace=...)
    # collected one); excluded from equality-style comparisons by tests.
    trace: SpanRecord | None = None
    # Which detector produced this result.  Every engine of this module
    # implements the paper's IAT miner, so the defaults apply; the
    # plugin framework (repro.detectors) stamps ports of other miners.
    detector: str = IAT_DETECTOR_NAME
    detector_version: str = IAT_DETECTOR_VERSION
    _simple_group_count: int | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _groups_by_arc: dict[tuple[Node, Node], list[SuspiciousGroup]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def suspicious_trading_arcs(self) -> set[tuple[Node, Node]]:
        """Distinct trading arcs behind at least one group.

        Intra-SCS trades are reported in their original (pre-contraction)
        company ids, exactly as the fusion pipeline recorded them.
        """
        if self.suspicious_arcs_override is not None:
            return self.suspicious_arcs_override
        return {g.trading_arc for g in self.groups}

    @property
    def simple_group_count(self) -> int:
        """Simple groups (Definition 3), including circle and SCS groups.

        Classified once per result and kept: the groups of a result
        never change after detection.
        """
        if self._simple_group_count is None:
            self._simple_group_count = sum(1 for g in self.groups if g.is_simple)
        return self._simple_group_count

    @property
    def complex_group_count(self) -> int:
        """Complex groups: every group that is not simple (one
        classification pass, shared with :attr:`simple_group_count`'s)."""
        return self.group_count - self.simple_group_count

    @property
    def group_count(self) -> int:
        """Total groups: ``len(groups)``, never a simple/complex
        classification pass, which scans every group's interiors and
        would materialize lazy group sequences.
        """
        return len(self.groups)

    @property
    def suspicious_arc_count(self) -> int:
        return len(self.suspicious_trading_arcs)

    @property
    def suspicious_arc_share(self) -> float:
        """Suspicious share of all trading relationships (Table 1, last col)."""
        if self.total_trading_arcs == 0:
            return 0.0
        return self.suspicious_arc_count / self.total_trading_arcs

    def kind_counts(self) -> Counter[GroupKind]:
        if self.kind_counts_override is not None:
            return self.kind_counts_override
        return Counter(g.kind for g in self.groups)

    def groups_for_arc(self, arc: tuple[Node, Node]) -> list[SuspiciousGroup]:
        """Every group certifying one trading arc (the proof chains), in
        group order.

        The first call files every group under its trading arc and keeps
        the index, as :attr:`simple_group_count` keeps its tally: the
        groups of a result never change after detection.
        """
        if self._groups_by_arc is None:
            by_arc: dict[tuple[Node, Node], list[SuspiciousGroup]] = {}
            for group in self.groups:
                trail = group.trading_trail
                by_arc.setdefault((trail[-2], trail[-1]), []).append(group)
            self._groups_by_arc = by_arc
        return list(self._groups_by_arc.get(arc, ()))

    def summary(self) -> str:
        kinds = self.kind_counts()
        return (
            f"detector={self.detector} v{self.detector_version} "
            f"engine={self.engine} subTPIINs={self.subtpiin_count} "
            f"groups={self.group_count} "
            f"(complex={self.complex_group_count}, simple={self.simple_group_count}; "
            f"matched={kinds.get(GroupKind.MATCHED, 0)}, "
            f"circle={kinds.get(GroupKind.CIRCLE, 0)}, "
            f"scs={kinds.get(GroupKind.SCS, 0)}) "
            f"suspicious_arcs={self.suspicious_arc_count}/{self.total_trading_arcs} "
            f"({100.0 * self.suspicious_arc_share:.4f}%)"
        )

    def render_sub_report(self, *, max_rows: int = 20) -> str:
        """Per-subTPIIN table (faithful/parallel engines only).

        Shows the divide-and-conquer at work: each MWCS's size, pattern
        base, groups found and suspicious arcs, largest first.
        """
        if not self.sub_results:
            return "no per-subTPIIN data (engine did not segment)"
        # analysis imports mining at module scope; stay function-local.
        from repro.analysis.reporting import render_table  # reprolint: disable=R010

        ranked = sorted(self.sub_results, key=lambda s: -len(s.groups))
        rows = [
            [
                sub.index,
                sub.node_count,
                sub.trading_arc_count,
                sub.pattern_trail_count,
                len(sub.groups),
                len(sub.suspicious_arcs),
            ]
            for sub in ranked[:max_rows]
        ]
        table = render_table(
            ["subTPIIN", "nodes", "trades", "trails", "groups", "sus arcs"],
            rows,
        )
        if len(ranked) > max_rows:
            table += f"\n... and {len(ranked) - max_rows} more subTPIINs"
        return table

    # ------------------------------------------------------------------
    def write_files(self, directory: str | Path) -> list[Path]:
        """Write the paper's ``susGroup(i)`` / ``susTrade(i)`` output files.

        One pair of files per subTPIIN that produced any group (faithful
        and parallel engines), or a single aggregated pair for a result
        without per-subTPIIN data
        (:meth:`~repro.mining.incremental.IncrementalDetector.result`'s).
        Returns the written paths.
        """
        # io.results_io type-imports DetectionResult; stay function-local.
        from repro.io.results_io import write_sus_files  # reprolint: disable=R010

        return write_sus_files(self, Path(directory))


def detect(
    tpiin: TPIIN,
    *,
    engine: str | Engine = Engine.FAITHFUL,
    trace: TraceSpec = False,
) -> DetectionResult:
    """Detect all suspicious tax evasion groups in ``tpiin``.

    Parameters
    ----------
    engine:
        :class:`~repro.mining.options.Engine` or its string name.
        ``"faithful"`` (the default) runs the paper's Algorithm 1/2
        literally and is the reference the others are tested against
        (subTPIINs without a trading arc are skipped, as they cannot
        host a group);
        ``"parallel"`` runs the compact kernel over one frozen
        :class:`~repro.graph.csr.CSRGraph` in this process (same
        groups, much faster; see docs/PERFORMANCE.md).  It needs an
        acyclic antecedent network (Property 1) and raises
        :class:`~repro.errors.NotADagError` on a cyclic one, which
        the faithful engine's guarded walk still accepts.
    trace:
        ``True`` collects a span tree onto ``DetectionResult.trace``;
        a caller-owned :class:`~repro.obs.Tracer` nests the run under
        the caller's open span instead.  Group sets are identical
        either way (property-tested).
    """
    engine = Engine.coerce(engine)
    tracer = resolve_tracer(trace)
    started = time.perf_counter()
    if tracer.enabled:
        span = tracer.span("detect")
        with span:
            span.set(engine=engine.value)
            result = _run_engine(tpiin, engine, tracer)
        result.trace = span.record
    else:
        result = _run_engine(tpiin, engine, tracer)
    _count_run(engine, result, time.perf_counter() - started)
    return result


def _run_engine(tpiin: TPIIN, engine: Engine, tracer: TracerLike) -> DetectionResult:
    # The parallel engine imports DetectionResult from this module, so
    # its import must stay function-local to break the cycle.
    if engine is Engine.PARALLEL:
        from repro.mining.parallel import parallel_detect  # reprolint: disable=R010

        return parallel_detect(tpiin, tracer=tracer)
    return _detect_faithful(tpiin, tracer)


def _count_run(engine: Engine, result: DetectionResult, elapsed: float) -> None:
    """Flush one run's tallies into the process-wide metrics registry."""
    registry = get_registry()
    registry.counter(
        "repro_detect_runs_total",
        help="Completed detect() runs.",
        engine=engine.value,
    ).inc()
    registry.counter(
        "repro_detect_groups_total",
        help="Suspicious groups found by detect() runs.",
        engine=engine.value,
    ).inc(result.group_count)
    registry.histogram(
        "repro_detect_duration_ms",
        buckets=_DETECT_BUCKETS_MS,
        help="detect() wall time in milliseconds.",
        engine=engine.value,
    ).observe(elapsed * 1e3)


def _detect_faithful(tpiin: TPIIN, tracer: TracerLike) -> DetectionResult:
    """The paper's Algorithm 1 literally (segment / mine / match)."""
    with tracer.span("segment") as seg_span:
        segmentation = segment(tpiin, skip_trivial=True)
        if tracer.enabled:
            seg_span.set(
                subtpiins=len(segmentation.subtpiins),
                components=segmentation.total_components,
                cross_component_trades=len(segmentation.cross_component_trades),
            )
    groups: list[SuspiciousGroup] = []
    sub_results: list[SubTPIINResult] = []
    trail_total = 0
    for sub in segmentation.subtpiins:
        with tracer.span(SUBTPIIN_SPAN) as sub_span:
            with tracer.span("patterns_tree") as tree_span:
                tree = build_patterns_tree(sub.graph, build_tree=False)
                if tracer.enabled:
                    tree_span.set(trails=len(tree.trails))
            with tracer.span("match") as match_span:
                sub_groups = match_component_patterns(tree.trails)
                if tracer.enabled:
                    match_span.set(groups=len(sub_groups))
            if tracer.enabled:
                sub_span.set(
                    index=sub.index,
                    nodes=len(sub.nodes),
                    trading_arcs=sub.trading_arc_count,
                    trails=len(tree.trails),
                    groups=len(sub_groups),
                )
        trail_total += len(tree.trails)
        groups.extend(sub_groups)
        sub_results.append(
            SubTPIINResult(
                index=sub.index,
                node_count=len(sub.nodes),
                trading_arc_count=sub.trading_arc_count,
                pattern_trail_count=len(tree.trails),
                groups=sub_groups,
            )
        )

    with tracer.span("scs_groups") as scs_span:
        scs_groups = scs_suspicious_groups(tpiin)
        if tracer.enabled:
            scs_span.set(groups=len(scs_groups))
    groups.extend(scs_groups)

    total_trading = tpiin.graph.number_of_arcs(EColor.TRADING) + len(
        tpiin.intra_scs_trades
    )
    return DetectionResult(
        groups=groups,
        total_trading_arcs=total_trading,
        cross_component_trades=len(segmentation.cross_component_trades),
        subtpiin_count=segmentation.total_components,
        engine="faithful",
        pattern_trail_count=trail_total,
        sub_results=sub_results,
    )
