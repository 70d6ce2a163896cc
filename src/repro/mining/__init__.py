"""Suspicious-group mining (Section 4.3, Algorithms 1 and 2)."""

from repro.mining.detector import DetectionResult, SubTPIINResult, detect
from repro.mining.groups import GroupKind, SuspiciousGroup, minimal_groups
from repro.mining.incremental import ArcUpdate, IncrementalDetector, PathCacheStats
from repro.mining.matching import match_component_patterns, match_pairs_naive
from repro.mining.options import Engine, TraceSpec
from repro.mining.oracle import suspicious_arc_oracle, suspicious_arc_oracle_closure
from repro.mining.parallel import parallel_detect
from repro.mining.patterns import (
    PatternsTreeResult,
    PatternTrail,
    PatternTreeNode,
    build_patterns_tree,
    list_d_order,
)
from repro.mining.scs_groups import scs_suspicious_groups
from repro.mining.segmentation import SegmentationResult, SubTPIIN, segment
from repro.mining.temporal import TimedTrade, WindowResult, sliding_window_detect

__all__ = [
    "ArcUpdate",
    "DetectionResult",
    "Engine",
    "GroupKind",
    "IncrementalDetector",
    "PathCacheStats",
    "PatternTrail",
    "PatternTreeNode",
    "PatternsTreeResult",
    "SegmentationResult",
    "SubTPIIN",
    "SubTPIINResult",
    "SuspiciousGroup",
    "TimedTrade",
    "TraceSpec",
    "WindowResult",
    "sliding_window_detect",
    "build_patterns_tree",
    "detect",
    "list_d_order",
    "match_component_patterns",
    "match_pairs_naive",
    "minimal_groups",
    "parallel_detect",
    "scs_suspicious_groups",
    "segment",
    "suspicious_arc_oracle",
    "suspicious_arc_oracle_closure",
]
