"""Consolidated options for :func:`repro.mining.detect`.

The public detection API grew one keyword at a time — a string-typed
``engine``, per-engine tuning knobs, and (now) tracing.  This module
consolidates them:

* :class:`Engine` — the closed set of engine names, usable anywhere a
  plain string was accepted before (it *is* a ``str``);
* :class:`DetectOptions` — one frozen bag of every detection knob,
  constructed once and passed to ``detect(tpiin, options=...)`` (or to
  service/CLI layers that forward it).  Explicit ``detect`` keywords
  override the corresponding option field, so existing call sites keep
  working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Union

from repro.errors import MiningError
from repro.obs.tracing import NULL_TRACER, Tracer, TracerLike

__all__ = ["DetectOptions", "Engine", "TraceSpec"]


class Engine(str, Enum):
    """The detection engines (all produce identical group sets).

    Subclasses ``str`` so every call site that compared against
    ``"parallel"`` (or stored the engine name in JSON) keeps working.
    """

    FAITHFUL = "faithful"
    PARALLEL = "parallel"
    INCREMENTAL = "incremental"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def coerce(cls, value: "str | Engine") -> "Engine":
        """``Engine`` from a name, with a helpful error on typos."""
        if isinstance(value, Engine):
            return value
        try:
            return cls(value)
        except ValueError:
            choices = ", ".join(engine.value for engine in cls)
            raise MiningError(
                f"unknown engine {value!r} (choices: {choices})"
            ) from None


#: What ``trace`` accepts: ``False`` (off), ``True`` (collect into a
#: fresh tracer, attached to the result), or a caller-owned tracer.
TraceSpec = Union[bool, TracerLike]


@dataclass(frozen=True, slots=True)
class DetectOptions:
    """Every knob of :func:`repro.mining.detect`, in one frozen value.

    ``engine`` accepts an :class:`Engine` or its string name (coerced on
    construction).  ``trace=True`` collects a span tree onto
    ``DetectionResult.trace``; passing a :class:`~repro.obs.Tracer`
    instead lets the caller nest the run under its own spans.
    """

    engine: Engine = Engine.FAITHFUL
    max_trails_per_subtpiin: int | None = None
    collect_groups: bool = True
    trace: TraceSpec = False
    # Extra portfolio detectors (repro.detectors registry names, or
    # "all") to run alongside the IAT mining; their merged findings
    # report is attached to DetectionResult.findings.  None = IAT only.
    detectors: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", Engine.coerce(self.engine))
        if isinstance(self.detectors, str):
            object.__setattr__(self, "detectors", (self.detectors,))
        elif self.detectors is not None:
            object.__setattr__(self, "detectors", tuple(self.detectors))
        if self.max_trails_per_subtpiin is not None and self.max_trails_per_subtpiin < 1:
            raise MiningError(
                f"max_trails_per_subtpiin must be >= 1, got {self.max_trails_per_subtpiin}"
            )

    def with_overrides(self, **overrides: object) -> "DetectOptions":
        """A copy with every non-``None`` override applied.

        This is the keywords-beat-options merge rule of ``detect``:
        ``None`` means "not supplied", so an explicit keyword always
        wins over the corresponding options field.
        """
        supplied = {key: value for key, value in overrides.items() if value is not None}
        if not supplied:
            return self
        return replace(self, **supplied)  # type: ignore[arg-type]

    def resolve_tracer(self) -> TracerLike:
        """The tracer this run reports to (fresh, caller-owned, or null)."""
        if self.trace is True:
            return Tracer()
        if self.trace is False or self.trace is None:
            return NULL_TRACER
        return self.trace
