"""In-process parallel-kernel mining (``engine="parallel"``).

Algorithm 1's divide-and-conquer segmentation makes every influence
component an independent mining job.  This engine exploits that
independence with vectorized kernels instead of a slice per
subTPIIN:

* the whole TPIIN is frozen **once** into a
  :class:`~repro.graph.csr.CSRGraph`; nothing is sliced into
  per-component graphs;
* the :class:`~repro.mining.compact.MiningPlan` labels components and
  estimates each one's mining work (the path-count tree size), which
  picks the kernel per component;
* the compact kernels
  (:func:`~repro.mining.csr_engine.mine_components`: batched frontier
  expansion for large acyclic components, the guarded stack walk for
  the rest) return flat count + tree arrays, never group objects;
* group objects materialize **lazily**
  (:class:`~repro.mining.compact.LazyGroups`), only if a caller
  actually reads them.

Everything runs in the calling process; docs/PERFORMANCE.md records
why there is no worker pool.
"""

from __future__ import annotations

from collections import Counter

from repro.fusion.tpiin import TPIIN
from repro.graph.csr import CSRGraph
from repro.mining.compact import (
    LazyGroups,
    build_plan,
    count_mine,
    make_group_store,
    unpack_arcs,
)
from repro.mining.csr_engine import mine_components
from repro.mining.detector import DetectionResult, SubTPIINResult
from repro.mining.groups import GroupKind
from repro.mining.scs_groups import scs_suspicious_groups
from repro.model.colors import EColor
from repro.obs.tracing import NULL_TRACER, TracerLike

__all__ = ["parallel_detect"]


def parallel_detect(
    tpiin: TPIIN, *, tracer: TracerLike = NULL_TRACER
) -> DetectionResult:
    """Detection over the compact CSR kernels, in this process.

    Results are identical to ``detect(engine="faithful")`` up to group
    ordering; the property suite compares them as sets.
    """
    with tracer.span("freeze") as freeze_span:
        csr = CSRGraph.freeze(
            tpiin.graph, colors=(EColor.INFLUENCE, EColor.TRADING)
        )
        if tracer.enabled:
            freeze_span.set(nodes=len(csr), arcs=csr.number_of_arcs())
    with tracer.span("plan") as plan_span:
        plan = build_plan(csr, tpiin.graph.nodes())
        selected = plan.nontrivial()
        if tracer.enabled:
            plan_span.set(
                components=plan.n_components,
                nontrivial=int(selected.size),
                cross_component_trades=plan.cross_count,
                estimated_work=float(plan.est_work[selected].sum()),
            )

    with tracer.span("mine"):
        mine = mine_components(csr, plan, selected)
        counts = count_mine(mine, plan)

    decode = csr.decode_table
    store = make_group_store(mine, decode, plan.comp_id)
    groups_by_comp = counts.matched_by_comp + counts.circle_by_comp
    sub_results: list[SubTPIINResult] = []
    for running_index, comp in enumerate(selected.tolist()):
        sub_results.append(
            SubTPIINResult(
                index=running_index,
                node_count=int(plan.comp_sizes[comp]),
                trading_arc_count=int(plan.trading_by_comp[comp]),
                pattern_trail_count=int(counts.trails_by_comp[comp]),
                groups=LazyGroups(store, comp, int(groups_by_comp[comp])),
            )
        )

    with tracer.span("scs_groups") as scs_span:
        scs_groups = scs_suspicious_groups(tpiin)
        if tracer.enabled:
            scs_span.set(groups=len(scs_groups))

    matched_total = int(counts.matched_by_comp.sum())
    circle_total = int(counts.circle_by_comp.sum())
    arc_tails, arc_heads = unpack_arcs(counts.suspicious_arcs, plan.n_nodes)
    suspicious_arcs = {
        (decode[tail], decode[head])
        for tail, head in zip(arc_tails.tolist(), arc_heads.tolist())
    }
    suspicious_arcs.update(g.trading_arc for g in scs_groups)
    kind_counts: Counter[GroupKind] = Counter()
    kind_counts[GroupKind.MATCHED] = matched_total
    kind_counts[GroupKind.CIRCLE] = circle_total
    kind_counts[GroupKind.SCS] = len(scs_groups)

    total_trading = tpiin.graph.number_of_arcs(EColor.TRADING) + len(
        tpiin.intra_scs_trades
    )
    groups: LazyGroups = LazyGroups(
        store, None, matched_total + circle_total, tail=scs_groups
    )
    return DetectionResult(
        groups=groups,
        total_trading_arcs=total_trading,
        cross_component_trades=plan.cross_count,
        subtpiin_count=plan.n_components,
        engine="parallel",
        pattern_trail_count=int(counts.trails_by_comp.sum()),
        sub_results=sub_results,
        kind_counts_override=kind_counts,
        suspicious_arcs_override=suspicious_arcs,
    )
