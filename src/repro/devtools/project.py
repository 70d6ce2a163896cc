"""Phase 1 of the whole-program analyzer: the project index.

One pass over every source file builds a :class:`ProjectIndex` holding,
per module: its dotted name, AST, module-level first-party imports
(the import graph R012 walks), its exported surface (``__all__`` plus
public top-level definitions, for R013), and every cross-module symbol
reference it makes (``from m import n``, aliased attribute chains,
star imports).  Phase 2 passes (:mod:`repro.devtools.project_rules`)
are pure functions over this index — no file is re-read or re-parsed.

Module naming is positional, mirroring :class:`FileContext`'s package
scoping: the dotted name starts at the *last* path component that is a
recognized root (``repro``, ``tests``, ``benchmarks``, ``examples``,
``perfbench``), so fixture trees under
``tests/devtools/fixtures/.../repro/...`` index as first-party modules.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from repro.devtools.diagnostics import Diagnostic, node_suppress_lines

__all__ = [
    "ImportEdge",
    "ModuleInfo",
    "ProjectIndex",
    "SymbolDef",
    "build_index",
    "module_name_for",
]

#: Path components at which a dotted module name may start.
_ROOT_MARKERS = frozenset({"repro", "tests", "benchmarks", "examples", "perfbench"})


def module_name_for(display_path: str) -> str | None:
    """Dotted module name for one display path, or ``None`` if unrooted.

    ``src/repro/graph/csr.py`` -> ``repro.graph.csr``;
    ``tests/mining/test_x.py`` -> ``tests.mining.test_x``;
    ``.../fixtures/R012/repro/graph/bad.py`` -> ``repro.graph.bad``
    (the *last* root marker wins, so fixture trees opt in by layout).
    ``__init__.py`` maps to its package's dotted name.
    """
    parts = PurePosixPath(display_path).parts
    anchor = None
    for i, part in enumerate(parts[:-1]):
        if part in _ROOT_MARKERS:
            anchor = i
    if anchor is None:
        return None
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    dotted = list(parts[anchor:-1])
    if stem != "__init__":
        dotted.append(stem)
    return ".".join(dotted)


@dataclass(frozen=True, slots=True)
class ImportEdge:
    """One first-party import statement, resolved to its target module."""

    target: str
    line: int
    col: int
    #: Names bound by ``from target import a, b`` (empty for plain import).
    names: tuple[str, ...] = ()
    #: True when the statement sits inside a function body (R010's
    #: domain); R012 layering only judges module-level edges.
    in_function: bool = False


@dataclass(frozen=True, slots=True)
class SymbolDef:
    """One exportable top-level definition (or ``__all__`` entry)."""

    name: str
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class ModuleInfo:
    """Everything phase 2 may ask about one indexed module."""

    module: str
    display_path: str
    tree: ast.Module
    text: str
    package: str
    is_package: bool
    imports: tuple[ImportEdge, ...]
    #: Public top-level definitions/assignments, name -> location.
    definitions: dict[str, SymbolDef]
    #: Literal ``__all__`` entries, name -> location of the entry.
    exports: dict[str, SymbolDef]
    has_all: bool
    #: Cross-module symbol references this module makes.
    references: frozenset[tuple[str, str]]
    #: Modules star-imported (``from m import *``) — every export used.
    star_imports: frozenset[str]
    #: Local binding -> ``(module, original_name)`` for ``from m import n``;
    #: lets R013 trace a re-export back to the symbol it aggregates.
    import_bindings: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: Names used structurally in this module's own interface: function
    #: annotations and defaults, class bases, annotated assignments.  A
    #: return type of a live function is reachable through its return
    #: value even when nothing imports it by name, so R013 treats these
    #: as referenced.
    signature_names: frozenset[str] = frozenset()

    def diagnostic(
        self, node: ast.AST | None, rule_id: str, message: str, hint: str = ""
    ) -> Diagnostic:
        line = getattr(node, "lineno", 1) if node is not None else 1
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Diagnostic(
            path=self.display_path,
            line=line,
            col=col + 1,
            rule_id=rule_id,
            message=message,
            hint=hint,
            suppress_lines=node_suppress_lines(node),
        )


class ProjectIndex:
    """The whole-program symbol and import index (phase 1 output)."""

    __slots__ = ("modules", "_subjects", "_referenced", "_star_imported")

    def __init__(self, modules: dict[str, ModuleInfo], subjects: frozenset[str]) -> None:
        self.modules = modules
        self._subjects = subjects
        referenced: set[tuple[str, str]] = set()
        star_imported: set[str] = set()
        for info in modules.values():
            referenced.update(info.references)
            star_imported.update(info.star_imports)
        self._referenced = frozenset(referenced)
        self._star_imported = frozenset(star_imported)

    def is_subject(self, module: str) -> bool:
        """True when the module's file was explicitly linted (not merely
        indexed as a reference source)."""
        return module in self._subjects

    def subject_modules(self) -> Iterator[ModuleInfo]:
        for name in sorted(self._subjects):
            info = self.modules.get(name)
            if info is not None:
                yield info

    def references_to(
        self, module: str, name: str, *, excluding: str | None = None
    ) -> bool:
        """True when any *other* module references ``module.name``.

        ``excluding`` drops one module's own references from the count —
        a package ``__init__`` re-importing a submodule symbol must not
        keep that symbol alive all by itself.
        """
        if module in self._star_imported:
            return True
        if excluding is None:
            return (module, name) in self._referenced
        for info in self.modules.values():
            if info.module == excluding:
                continue
            if (module, name) in info.references or module in info.star_imports:
                return True
        return False

    def has_module(self, dotted: str) -> bool:
        return dotted in self.modules


def _resolve_relative(package: str, level: int, module: str | None) -> str | None:
    """Absolute module for ``from ..x import y`` seen inside ``package``."""
    parts = package.split(".")
    if level - 1 >= len(parts):
        return None
    base = parts[: len(parts) - (level - 1)]
    if module:
        base = base + module.split(".")
    return ".".join(base) if base else None


def _first_party(module: str) -> bool:
    head = module.split(".", 1)[0]
    return head in _ROOT_MARKERS


def _parse_all_entries(node: ast.Assign | ast.AugAssign) -> list[tuple[str, int, int]]:
    value = node.value
    entries: list[tuple[str, int, int]] = []
    if isinstance(value, (ast.List, ast.Tuple)):
        for elt in value.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                entries.append((elt.value, elt.lineno, elt.col_offset + 1))
    return entries


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _collect_signature_names(tree: ast.Module) -> frozenset[str]:
    """Names appearing in annotations, defaults and class bases.

    Forward references (string annotations) contribute every identifier
    token they contain; over-approximating here only makes R013 more
    conservative about declaring an export dead.
    """
    exprs: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *filter(None, (args.vararg, args.kwarg)),
            ):
                if arg.annotation is not None:
                    exprs.append(arg.annotation)
            exprs.extend(args.defaults)
            exprs.extend(d for d in args.kw_defaults if d is not None)
            if node.returns is not None:
                exprs.append(node.returns)
        elif isinstance(node, ast.ClassDef):
            exprs.extend(node.bases)
            exprs.extend(kw.value for kw in node.keywords)
        elif isinstance(node, ast.AnnAssign):
            exprs.append(node.annotation)
    names: set[str] = set()
    for expr in exprs:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.update(_IDENTIFIER.findall(sub.value))
    return frozenset(names)


def _index_module(display_path: str, text: str, tree: ast.Module) -> ModuleInfo | None:
    module = module_name_for(display_path)
    if module is None:
        return None
    filename = PurePosixPath(display_path).name
    is_package = filename == "__init__.py"
    package = module if is_package else module.rsplit(".", 1)[0]

    imports: list[ImportEdge] = []
    definitions: dict[str, SymbolDef] = {}
    exports: dict[str, SymbolDef] = {}
    has_all = False
    references: set[tuple[str, str]] = set()
    star_imports: set[str] = set()
    import_bindings: dict[str, tuple[str, str]] = {}
    #: local binding -> dotted first-party target (module or module.attr)
    aliases: dict[str, str] = {}

    # --- top-level definitions and __all__ -----------------------------
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            definitions[node.name] = SymbolDef(node.name, node.lineno, node.col_offset + 1)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names: list[ast.Name] = []
                if isinstance(target, ast.Name):
                    names = [target]
                elif isinstance(target, (ast.Tuple, ast.List)):
                    names = [e for e in target.elts if isinstance(e, ast.Name)]
                for name_node in names:
                    if name_node.id == "__all__":
                        has_all = True
                        for entry, line, col in _parse_all_entries(node):
                            exports.setdefault(entry, SymbolDef(entry, line, col))
                    else:
                        definitions.setdefault(
                            name_node.id,
                            SymbolDef(name_node.id, node.lineno, node.col_offset + 1),
                        )
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.target.id == "__all__":
                has_all = True
            else:
                definitions.setdefault(
                    node.target.id,
                    SymbolDef(node.target.id, node.lineno, node.col_offset + 1),
                )

    # --- imports (module-level vs function-body) -----------------------
    nested_in_function: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if sub is not node:
                    nested_in_function.add(id(sub))

    for node in ast.walk(tree):
        in_function = id(node) in nested_in_function
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not _first_party(alias.name):
                    continue
                imports.append(
                    ImportEdge(alias.name, node.lineno, node.col_offset + 1,
                               in_function=in_function)
                )
                bound = alias.asname or alias.name.split(".", 1)[0]
                aliases[bound] = alias.name if alias.asname else alias.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level > 0:
                target = _resolve_relative(package, node.level, node.module)
            else:
                target = node.module
            if target is None or not _first_party(target):
                continue
            bound_names: list[str] = []
            for alias in node.names:
                if alias.name == "*":
                    star_imports.add(target)
                    continue
                bound_names.append(alias.name)
                references.add((target, alias.name))
                aliases[alias.asname or alias.name] = f"{target}.{alias.name}"
                import_bindings[alias.asname or alias.name] = (target, alias.name)
            imports.append(
                ImportEdge(
                    target,
                    node.lineno,
                    node.col_offset + 1,
                    names=tuple(bound_names),
                    in_function=in_function,
                )
            )

    # --- attribute references through aliases --------------------------
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain: list[str] = []
        cursor: ast.expr = node
        while isinstance(cursor, ast.Attribute):
            chain.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            continue
        resolved = aliases.get(cursor.id)
        if resolved is None:
            continue
        dotted = resolved.split(".") + list(reversed(chain))
        # Longest prefix of the chain that is itself a module path gets
        # the reference; ``repro.graph.csr.CSRGraph.freeze`` references
        # ``CSRGraph`` in ``repro.graph.csr``.
        for split in range(len(dotted) - 1, 0, -1):
            prefix = ".".join(dotted[:split])
            if _first_party(prefix):
                references.add((prefix, dotted[split]))
                break

    return ModuleInfo(
        module=module,
        display_path=display_path,
        tree=tree,
        text=text,
        package=package,
        is_package=is_package,
        imports=tuple(imports),
        definitions=definitions,
        exports=exports,
        has_all=has_all,
        references=frozenset(references),
        star_imports=frozenset(star_imports),
        import_bindings=import_bindings,
        signature_names=_collect_signature_names(tree),
    )


def build_index(
    files: Iterable[tuple[str, str, ast.Module]],
    subject_paths: Iterable[str] = (),
) -> ProjectIndex:
    """Index parsed files into a :class:`ProjectIndex`.

    ``files`` yields ``(display_path, text, tree)`` triples — typically
    straight out of the walker so nothing is parsed twice.
    ``subject_paths`` marks which of those files were explicitly linted;
    the rest contribute references (and import edges) only.
    """
    subjects_by_path = set(subject_paths)
    modules: dict[str, ModuleInfo] = {}
    subjects: set[str] = set()
    for display_path, text, tree in files:
        info = _index_module(display_path, text, tree)
        if info is None:
            continue
        modules[info.module] = info
        if display_path in subjects_by_path:
            subjects.add(info.module)
    return ProjectIndex(modules, frozenset(subjects))
