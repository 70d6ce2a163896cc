"""Whole-program analyzer configuration (``[tool.reprolint]``).

The project passes need facts that live outside any one source file:
the declared layer architecture (R012), which functions are marked hot
(R015), which calls count as blocking I/O under a lock (R014), and
which extra trees should be indexed as *reference* sources so exports
used only by tests are not declared dead (R013).  All of it is read
from ``pyproject.toml`` so the architecture is declared next to the
packaging metadata, with the repository's own values embedded here as
the fallback for interpreters without :mod:`tomllib`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["LintConfig", "discover_config", "load_config"]

#: The repository's own declared architecture, duplicated from
#: ``pyproject.toml`` for pre-3.11 interpreters (no ``tomllib``); a
#: regression test holds the two in sync.  Lower layers first; a module
#: may import from its own layer and below, never from above.
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

_DEFAULT_HOT_FUNCTIONS: tuple[str, ...] = (
    "repro.mining.csr_engine::mine_frontier_compact",
    "repro.mining.compact::_circle_flags",
)

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

_DEFAULT_REFERENCE_ROOTS: tuple[str, ...] = (
    "src",
    "tests",
    "benchmarks",
    "examples",
)

_DEFAULT_ENTRY_POINTS: tuple[str, ...] = (
    "repro.cli:main",
    "repro.devtools.cli:main",
)


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Resolved project-analysis configuration.

    ``root`` anchors the relative ``reference_roots`` and the default
    baseline path; everything else parameterizes one project rule.
    """

    root: Path
    layers: tuple[tuple[str, ...], ...] = _DEFAULT_LAYERS
    hot_functions: tuple[str, ...] = _DEFAULT_HOT_FUNCTIONS
    blocking_calls: tuple[str, ...] = _DEFAULT_BLOCKING_CALLS
    reference_roots: tuple[str, ...] = _DEFAULT_REFERENCE_ROOTS
    entry_points: tuple[str, ...] = _DEFAULT_ENTRY_POINTS
    baseline_path: str = "lint-baseline.json"
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

    def default_baseline(self) -> Path:
        return self.root / self.baseline_path


def _str_tuple(raw: object, what: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise ValueError(f"[tool.reprolint] {what} must be a list of strings")
    return tuple(raw)


def load_config(pyproject: Path) -> LintConfig:
    """Parse ``[tool.reprolint]`` from one ``pyproject.toml``.

    Missing tables and keys fall back to the embedded defaults, so a
    bare pyproject yields the repository's own architecture.  On
    interpreters without :mod:`tomllib` the defaults are used as-is.
    """
    root = pyproject.resolve().parent
    try:
        import tomllib
    except ImportError:  # Python 3.10: defaults mirror pyproject.toml
        return LintConfig(root=root)
    try:
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except (OSError, tomllib.TOMLDecodeError):
        return LintConfig(root=root)

    tool = data.get("tool", {}).get("reprolint", {})
    kwargs: dict[str, object] = {}

    layers_raw = tool.get("layers", {}).get("order")
    if layers_raw is not None:
        if not isinstance(layers_raw, list):
            raise ValueError("[tool.reprolint.layers] order must be a list")
        kwargs["layers"] = tuple(
            _str_tuple(layer, "layers.order entries") for layer in layers_raw
        )
    hot_raw = tool.get("hot", {}).get("functions")
    if hot_raw is not None:
        kwargs["hot_functions"] = _str_tuple(hot_raw, "hot.functions")
    blocking_raw = tool.get("lock", {}).get("blocking-calls")
    if blocking_raw is not None:
        kwargs["blocking_calls"] = _str_tuple(blocking_raw, "lock.blocking-calls")
    roots_raw = tool.get("reference-roots")
    if roots_raw is not None:
        kwargs["reference_roots"] = _str_tuple(roots_raw, "reference-roots")
    baseline_raw = tool.get("baseline")
    if baseline_raw is not None:
        if not isinstance(baseline_raw, str):
            raise ValueError("[tool.reprolint] baseline must be a string path")
        kwargs["baseline_path"] = baseline_raw

    scripts = data.get("project", {}).get("scripts", {})
    if scripts:
        kwargs["entry_points"] = tuple(sorted(str(v) for v in scripts.values()))

    return LintConfig(root=root, **kwargs)  # type: ignore[arg-type]


def discover_config(start: Path) -> LintConfig:
    """Locate the nearest ``pyproject.toml`` at or above ``start``.

    Falls back to a default config rooted at ``start`` when no
    pyproject exists on the ancestor chain (e.g. fixture trees).
    """
    base = start.resolve()
    if base.is_file():
        base = base.parent
    for candidate in (base, *base.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return load_config(pyproject)
    return LintConfig(root=base)
