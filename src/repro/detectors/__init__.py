"""Detector plugin framework: fraud-scenario detectors over one TPIIN.

The subsystem generalizes the paper's single IAT group miner into a
portfolio of :class:`Detector` classes, listed by name in the static
:data:`DETECTORS` table and executed by :func:`run_detectors` over one
shared frozen graph, merged into a per-detector-keyed
:class:`FindingsReport`.  Four detectors ship: the reference
``iat-groups`` port of :func:`repro.mining.detect` plus
``circular-trading``, ``missing-trader`` and ``shared-household``.
"""

from repro.detectors.base import (
    DetectionContext,
    Detector,
    DetectorInfo,
    DetectorOutcome,
    DetectorRun,
    Finding,
    FindingsReport,
    FrozenTradingView,
    config_schema,
)
from repro.detectors.circular import CircularTradingConfig, CircularTradingDetector
from repro.detectors.evaluation import AccuracyReport, accuracy
from repro.detectors.household import SharedHouseholdConfig, SharedHouseholdDetector
from repro.detectors.iat import IATConfig, IATGroupDetector
from repro.detectors.missing_trader import MissingTraderConfig, MissingTraderDetector
from repro.detectors.registry import (
    ALL_DETECTORS,
    DETECTORS,
    create_detector,
    detector_info,
    resolve_detectors,
)
from repro.detectors.runner import run_detectors

__all__ = [
    "ALL_DETECTORS",
    "AccuracyReport",
    "DETECTORS",
    "CircularTradingConfig",
    "CircularTradingDetector",
    "DetectionContext",
    "Detector",
    "DetectorInfo",
    "DetectorOutcome",
    "DetectorRun",
    "Finding",
    "FindingsReport",
    "FrozenTradingView",
    "IATConfig",
    "IATGroupDetector",
    "MissingTraderConfig",
    "MissingTraderDetector",
    "SharedHouseholdConfig",
    "SharedHouseholdDetector",
    "accuracy",
    "config_schema",
    "create_detector",
    "detector_info",
    "resolve_detectors",
    "run_detectors",
]
