"""The detector table: stable public name -> detector class.

The built-in portfolio (see docs/DETECTORS.md):

=====================  ==============================================
``iat-groups``         the paper's IAT suspicious-group miner
``circular-trading``   non-trivial trading SCCs with flow balance
``missing-trader``     under-capitalized high-throughput hubs
``shared-household``   kinship syndicates running trading clusters
=====================  ==============================================

A new detector is one more class in this package and one more entry
in :data:`DETECTORS`.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping
from types import MappingProxyType

from repro.detectors.base import Detector, DetectorInfo, config_schema
from repro.detectors.circular import CircularTradingDetector
from repro.detectors.household import SharedHouseholdDetector
from repro.detectors.iat import IATGroupDetector
from repro.detectors.missing_trader import MissingTraderDetector
from repro.errors import MiningError

__all__ = [
    "ALL_DETECTORS",
    "DETECTORS",
    "create_detector",
    "detector_info",
    "resolve_detectors",
]

#: The selection token meaning "every detector".
ALL_DETECTORS = "all"

#: Every detector class, keyed by its public name (CLI flag values,
#: API routes), in name order.
DETECTORS: Mapping[str, type] = MappingProxyType(
    {
        CircularTradingDetector.name: CircularTradingDetector,
        IATGroupDetector.name: IATGroupDetector,
        MissingTraderDetector.name: MissingTraderDetector,
        SharedHouseholdDetector.name: SharedHouseholdDetector,
    }
)


def _detector_class(name: str) -> type:
    try:
        return DETECTORS[name]
    except KeyError:
        raise MiningError(
            f"unknown detector {name!r} (choices: {', '.join(DETECTORS)}, or 'all')"
        ) from None


def create_detector(
    name: str, overrides: Mapping[str, object] | None = None
) -> Detector:
    """Instantiate one detector, its config built from ``overrides``.

    ``None`` means the default config; a field the detector's config
    does not declare raises :class:`MiningError` naming the valid ones.
    """
    cls = _detector_class(name)
    if overrides is not None:
        fields = [field.name for field in dataclasses.fields(cls.config_type)]
        unknown = sorted(set(overrides) - set(fields))
        if unknown:
            raise MiningError(
                f"detector {name!r} has no config field "
                f"{', '.join(map(repr, unknown))} (valid: {', '.join(fields)})"
            )
    detector: Detector = (
        cls() if overrides is None else cls(cls.config_type(**overrides))
    )
    return detector


def detector_info(name: str) -> DetectorInfo:
    """Identity + config schema of one detector (default config)."""
    detector = create_detector(name)
    return DetectorInfo(
        name=detector.name,
        version=detector.version,
        summary=detector.summary,
        schema=config_schema(detector.config),
    )


def resolve_detectors(selection: "str | Iterable[str]") -> tuple[str, ...]:
    """Normalize a selection into detector names, in stable order.

    ``"all"`` (anywhere in the selection) expands to every detector;
    unknown names raise :class:`MiningError`.  Duplicates collapse,
    first occurrence wins the ordering.
    """
    tokens = [selection] if isinstance(selection, str) else list(selection)
    if not tokens:
        raise MiningError("detector selection is empty")
    ordered: dict[str, None] = {}
    for token in tokens:
        for name in DETECTORS if token == ALL_DETECTORS else (token,):
            _detector_class(name)
            ordered.setdefault(name)
    return tuple(ordered)
