"""Whole-program analyzer configuration: the declared architecture.

The project passes need facts that live outside any one source file:
the declared layer architecture (R012), which functions are marked hot
(R015), which calls count as blocking I/O under a lock (R014), which
extra trees should be indexed as *reference* sources whose imports
keep modules and exports alive (R013), and which functions the
console scripts enter (R013).  The constants below are the one
declaration of all of it; :class:`LintConfig` carries them to the rules
and lets tests point the rules at fixture trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["LintConfig", "discover_config"]

#: Declared architecture, lowest layer first (R012): a module may import
#: from its own layer and below, never from above.  Only module-level
#: imports are judged; function-body cycle breakers answer to R010.  The
#: key is the component directly below ``repro``, so submodules ride
#: their package's entry (``service`` covers ``service.sharding``).
_DEFAULT_LAYERS: tuple[tuple[str, ...], ...] = (
    ("errors",),
    ("graph", "obs"),
    ("model",),
    ("fusion",),
    ("mining",),
    ("baseline", "datagen", "weights"),
    ("io", "ite"),
    ("detectors",),
    ("analysis",),
    ("service",),
    ("repro", "cli", "__main__", "devtools"),
)

#: Functions whose innermost loops must stay allocation-lean (R015), as
#: ``module::qualname``.
_DEFAULT_HOT_FUNCTIONS: tuple[str, ...] = (
    "repro.mining.csr_engine::mine_frontier_compact",
    "repro.mining.compact::_circle_flags",
)

#: Calls that block while holding the service ``ReadWriteLock`` (R014).
_DEFAULT_BLOCKING_CALLS: tuple[str, ...] = (
    "self._wal.append",
    "self._wal.sync",
    "self._wal.truncate",
    "self._wal.close",
    "write_snapshot",
    "read_snapshot",
    "os.fsync",
    "self.wfile.write",
)

#: Trees indexed as reference sources (R013): a module must be read
#: from outside ``tests``; a single export may be read from any of them.
_DEFAULT_REFERENCE_ROOTS: tuple[str, ...] = (
    "src",
    "tests",
    "benchmarks",
    "examples",
    "perfbench",
)

#: The ``[project.scripts]`` targets in ``pyproject.toml``; R013 treats
#: them as live.  A test holds the two in sync.
_DEFAULT_ENTRY_POINTS: tuple[str, ...] = (
    "repro.cli:main",
    "repro.devtools.cli:main",
)


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Resolved project-analysis configuration.

    ``root`` anchors the relative ``reference_roots``; everything else
    parameterizes one project rule.
    """

    root: Path
    layers: tuple[tuple[str, ...], ...] = _DEFAULT_LAYERS
    hot_functions: tuple[str, ...] = _DEFAULT_HOT_FUNCTIONS
    blocking_calls: tuple[str, ...] = _DEFAULT_BLOCKING_CALLS
    reference_roots: tuple[str, ...] = _DEFAULT_REFERENCE_ROOTS
    entry_points: tuple[str, ...] = _DEFAULT_ENTRY_POINTS
    _layer_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        table: dict[str, int] = {}
        for level, names in enumerate(self.layers):
            for name in names:
                table[name] = level
        object.__setattr__(self, "_layer_of", table)

    def layer_of(self, package: str) -> int | None:
        """Layer index of one top-level package key (``None`` = undeclared)."""
        return self._layer_of.get(package)


def discover_config(start: Path) -> LintConfig:
    """Root the configuration at the nearest ``pyproject.toml`` at or above ``start``.

    Falls back to ``start`` itself when no pyproject exists on the
    ancestor chain (e.g. fixture trees).
    """
    base = start.resolve()
    if base.is_file():
        base = base.parent
    for candidate in (base, *base.parents):
        if (candidate / "pyproject.toml").is_file():
            return LintConfig(root=candidate)
    return LintConfig(root=base)
