"""The paper's IAT group miner, behind the detector protocol.

This is the *reference* detector of the plugin framework: it adapts
:func:`repro.mining.detect` (Algorithm 1, any of its three engines) to
the :class:`~repro.detectors.base.Detector` contract without changing
its behavior — the property suite in
``tests/property/test_detector_equivalence.py`` holds the plugin path
and the legacy call identical across every engine.

Findings are emitted per suspicious trading arc (the unit the paper's
``susTrade`` files report), scored by the number of independent proof
chains (groups) certifying the arc; the raw group-level
:class:`~repro.mining.detector.DetectionResult` rides along on
:attr:`~repro.detectors.base.DetectorOutcome.detection` so legacy
consumers lose nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detectors.base import DetectionContext, DetectorOutcome, Finding
from repro.graph.digraph import Node
from repro.mining.detector import IAT_DETECTOR_NAME, IAT_DETECTOR_VERSION, detect
from repro.mining.options import DetectOptions

__all__ = ["IATConfig", "IATGroupDetector"]


@dataclass(frozen=True, slots=True)
class IATConfig:
    """Tuning of the wrapped :func:`repro.mining.detect` run.

    Mirrors the engine-facing fields of
    :class:`~repro.mining.options.DetectOptions`: the engine, the
    faithful engine's trail cap and the incremental engine's
    ``collect_groups``.  Tracing is supplied by the portfolio runner,
    and ``detectors`` recursion is forbidden by construction.
    """

    engine: str = "faithful"
    max_trails_per_subtpiin: int | None = None
    collect_groups: bool = True

    @classmethod
    def from_options(cls, options: DetectOptions) -> "IATConfig":
        """Lift the engine-facing fields out of a ``DetectOptions`` bag."""
        return cls(
            engine=options.engine.value,
            max_trails_per_subtpiin=options.max_trails_per_subtpiin,
            collect_groups=options.collect_groups,
        )

    def to_options(self) -> DetectOptions:
        return DetectOptions(
            engine=self.engine,
            max_trails_per_subtpiin=self.max_trails_per_subtpiin,
            collect_groups=self.collect_groups,
        )


class IATGroupDetector:
    """Interest-affiliated-transaction group mining (Tian et al., 2017)."""

    name = IAT_DETECTOR_NAME
    version = IAT_DETECTOR_VERSION
    summary = (
        "Suspicious IAT groups: trading arcs whose parties share a "
        "common interested antecedent (the paper's Algorithm 1)."
    )
    config_type = IATConfig

    def __init__(self, config: IATConfig | None = None) -> None:
        self.config = config if config is not None else IATConfig()

    def run(self, context: DetectionContext) -> DetectorOutcome:
        result = detect(
            context.tpiin,
            self.config.to_options(),
            # Nest the engine's spans under the portfolio runner's.
            trace=context.tracer if context.tracer.enabled else None,
        )
        certifying: dict[tuple[Node, Node], int] = {}
        if result.groups:
            for group in result.groups:
                arc = group.trading_arc
                certifying[arc] = certifying.get(arc, 0) + 1
        else:
            # Count-only engines keep the arc set without the groups.
            certifying = dict.fromkeys(result.suspicious_trading_arcs, 1)
        findings = [
            Finding(
                detector=self.name,
                kind="iat-suspicious-arc",
                members=(seller, buyer),
                arcs=((seller, buyer),),
                # More independent proof chains -> closer to 1.0.
                score=1.0 - 1.0 / (1.0 + count),
                summary=(
                    f"trade {seller} -> {buyer} certified by {count} "
                    f"interest-affiliated group{'s' if count != 1 else ''}"
                ),
                details=(("group_count", count),),
            )
            for (seller, buyer), count in sorted(
                certifying.items(), key=lambda item: (str(item[0][0]), str(item[0][1]))
            )
        ]
        return DetectorOutcome(
            findings=findings,
            attributes={
                "engine": result.engine,
                "groups": result.group_count,
                "suspicious_arcs": result.suspicious_arc_count,
            },
            detection=result,
        )
