"""The closed vocabulary of :func:`repro.mining.detect`.

* :class:`Engine` — the closed set of engine names, usable anywhere a
  plain string was accepted before (it *is* a ``str``);
* :data:`TraceSpec` — what ``trace`` accepts (defined beside the
  resolver in :mod:`repro.obs.tracing`).
"""

from __future__ import annotations

from enum import Enum

from repro.errors import MiningError
from repro.obs.tracing import TraceSpec

__all__ = ["Engine", "TraceSpec"]


class Engine(str, Enum):
    """The detection engines (all produce identical group sets).

    Subclasses ``str`` so every call site that compared against
    ``"parallel"`` (or stored the engine name in JSON) keeps working.
    """

    FAITHFUL = "faithful"
    PARALLEL = "parallel"

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
