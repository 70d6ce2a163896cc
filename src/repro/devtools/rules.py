"""The reprolint rule catalogue (R001-R010).

Each rule machine-checks one invariant of the TPIIN reproduction; the
invariant and its paper grounding are spelled out in the rule's
docstring and in ``docs/DEVTOOLS.md``.  Rules are pure AST passes: no
imports are executed and no file is ever run.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rulebase import FileContext, register

__all__ = [
    "DataclassSlotsRule",
    "DunderAllRule",
    "ForbiddenDependencyRule",
    "FrozenMutationRule",
    "NoBareExceptRule",
    "NoFunctionBodyImportRule",
    "NoPrintRule",
    "NoRecursiveTraversalRule",
    "RawColorLiteralRule",
    "UnseededRandomnessRule",
]

# Scope of the iterative-traversal and slots disciplines: the packages
# on the TPIIN hot path (segmentation, contraction, patterns-tree).
_TRAVERSAL_PACKAGES = ("graph", "fusion", "mining")
_SLOTS_PACKAGES = ("graph", "mining")

# The fused vocabulary of Definition 1; comparing against these raw
# strings bypasses the EColor/VColor enums.
_RESERVED_COLOR_VALUES = frozenset({"IN", "TR", "Person", "Company"})

# numpy.random attributes that are part of the seeded Generator API and
# therefore fine outside datagen/rng.py (when given an explicit seed).
_SEEDED_NUMPY_API = frozenset(
    {
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local binding -> imported dotted module path.

    ``import numpy as np`` binds ``np -> numpy``;
    ``from numpy import random as npr`` binds ``npr -> numpy.random``;
    ``from random import choice`` binds ``choice -> random.choice``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname is not None:
                    aliases[name.asname] = name.name
                else:
                    head = name.name.split(".", 1)[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def _resolve(dotted: str, aliases: dict[str, str]) -> str:
    head, sep, rest = dotted.partition(".")
    target = aliases.get(head)
    if target is None:
        return dotted
    return target + sep + rest if sep else target


@register
class UnseededRandomnessRule:
    """R001 - randomness must flow through :mod:`repro.datagen.rng`.

    A dataset must be reproducible from one root seed (the paper's
    Table-1 sweep depends on it), so stdlib ``random`` is banned
    outside ``datagen/rng.py``, as are numpy's legacy global-state
    functions (``numpy.random.rand`` and friends) and unseeded
    ``numpy.random.default_rng()`` calls.
    """

    rule_id = "R001"
    title = "no unseeded randomness outside datagen/rng.py"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.in_test_tree or ctx.path_endswith("datagen/rng.py"):
            return
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.name == "random" or name.name.startswith("random."):
                        yield ctx.diagnostic(
                            node,
                            self.rule_id,
                            "stdlib 'random' is banned; streams must be derivable "
                            "from one root seed",
                            "use repro.datagen.rng.derive_rng(root_seed, label)",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module and (
                    node.module == "random" or node.module.startswith("random.")
                ):
                    yield ctx.diagnostic(
                        node,
                        self.rule_id,
                        "stdlib 'random' is banned; streams must be derivable "
                        "from one root seed",
                        "use repro.datagen.rng.derive_rng(root_seed, label)",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, aliases)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, aliases: dict[str, str]
    ) -> Iterator[Diagnostic]:
        dotted = _dotted_name(node.func)
        if dotted is None:
            return
        resolved = _resolve(dotted, aliases)
        if not resolved.startswith("numpy.random."):
            return
        tail = resolved[len("numpy.random.") :]
        if tail == "default_rng":
            unseeded = not node.args or (
                isinstance(node.args[0], ast.Constant) and node.args[0].value is None
            )
            if unseeded:
                yield ctx.diagnostic(
                    node,
                    self.rule_id,
                    "default_rng() without a seed draws OS entropy",
                    "pass a seed derived via repro.datagen.rng.derive_seed",
                )
        elif tail not in _SEEDED_NUMPY_API and "." not in tail:
            yield ctx.diagnostic(
                node,
                self.rule_id,
                f"numpy.random.{tail}() uses the legacy global RNG state",
                "use a Generator from repro.datagen.rng.derive_rng",
            )


@register
class NoRecursiveTraversalRule:
    """R002 - graph traversal in the hot packages must be iterative.

    A provincial TPIIN chains tens of thousands of influence arcs;
    Python's default recursion limit is ~1000 frames, so any
    self-recursive walk in :mod:`repro.graph`, :mod:`repro.fusion` or
    :mod:`repro.mining` is a latent crash on deep inputs (the reason
    Tarjan's SCC and the patterns-tree DFS are written with explicit
    stacks).  Flags calls to the enclosing function's own name,
    including ``self.f(...)`` and ``child.f(...)`` forms.
    """

    rule_id = "R002"
    title = "no recursive traversal in graph/, fusion/, mining/"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.in_test_tree or not ctx.in_package(*_TRAVERSAL_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Diagnostic]:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            recursive = (
                isinstance(func, ast.Name) and func.id == fn.name
            ) or (
                isinstance(func, ast.Attribute)
                and func.attr == fn.name
                and isinstance(func.value, ast.Name)
            )
            if recursive:
                yield ctx.diagnostic(
                    node,
                    self.rule_id,
                    f"'{fn.name}' calls itself; deep TPIINs blow the stack",
                    "rewrite iteratively with an explicit stack/deque",
                )


@register
class DataclassSlotsRule:
    """R003 - hot-path dataclasses must declare ``slots=True``.

    :mod:`repro.graph` and :mod:`repro.mining` allocate these records
    per node/arc/group; ``slots=True`` removes the per-instance
    ``__dict__`` (roughly halving footprint) and turns attribute typos
    into hard errors.
    """

    rule_id = "R003"
    title = "dataclasses in graph/ and mining/ must declare slots=True"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.in_test_tree or not ctx.in_package(*_SLOTS_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                if self._is_slotless_dataclass(dec):
                    yield ctx.diagnostic(
                        dec,
                        self.rule_id,
                        f"dataclass '{node.name}' does not declare slots=True",
                        "use @dataclass(slots=True, ...)",
                    )

    @staticmethod
    def _is_slotless_dataclass(dec: ast.expr) -> bool:
        if isinstance(dec, ast.Call):
            name = _dotted_name(dec.func)
            if name not in ("dataclass", "dataclasses.dataclass"):
                return False
            for kw in dec.keywords:
                if kw.arg == "slots":
                    value = kw.value
                    return not (isinstance(value, ast.Constant) and value.value is True)
            return True
        return _dotted_name(dec) in ("dataclass", "dataclasses.dataclass")


@register
class DunderAllRule:
    """R004 - ``__all__`` must exactly match the public surface.

    Every public top-level definition must be exported, every export
    must exist, and package ``__init__`` modules must list exactly
    their public re-exports.  Keeps ``from repro.x import *`` and the
    API docs honest.  ``__main__.py`` entry modules are exempt.
    """

    rule_id = "R004"
    title = "__all__ must exactly match public definitions"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.in_test_tree or ctx.filename == "__main__.py":
            return
        is_init = ctx.filename == "__init__.py"
        defined: dict[str, ast.AST] = {}
        imported: dict[str, ast.AST] = {}
        all_node: ast.Assign | None = None
        exported: list[str] | None = None

        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = node
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in node.names:
                    if name.name == "*":
                        continue
                    bound = name.asname or name.name.split(".", 1)[0]
                    imported[bound] = node
            elif isinstance(node, ast.Assign):
                for target in self._assign_names(node):
                    if target == "__all__":
                        parsed = self._parse_all(node)
                        if parsed is not None:
                            all_node, exported = node, parsed
                    else:
                        defined[target] = node
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if node.target.id != "__all__":
                    defined[node.target.id] = node

        public_defs = {n for n in defined if not n.startswith("_")}
        public_imports = {n for n in imported if not n.startswith("_")}
        required = public_defs | (public_imports if is_init else set())

        if exported is None:
            if required:
                yield ctx.diagnostic(
                    None,
                    self.rule_id,
                    "module has public definitions but no literal __all__",
                    "add __all__ listing: " + ", ".join(sorted(required)),
                )
            return

        available = set(defined) | set(imported)
        for name in exported:
            if name not in available:
                yield ctx.diagnostic(
                    all_node,
                    self.rule_id,
                    f"'{name}' is exported by __all__ but never defined or imported",
                    "remove it from __all__ or define it",
                )
        seen = set()
        for name in exported:
            if name in seen:
                yield ctx.diagnostic(
                    all_node,
                    self.rule_id,
                    f"'{name}' is listed twice in __all__",
                    "drop the duplicate entry",
                )
            seen.add(name)
        for name in sorted(required - seen):
            yield ctx.diagnostic(
                defined.get(name, imported.get(name)),
                self.rule_id,
                f"public name '{name}' is missing from __all__",
                "add it to __all__ or rename it with a leading underscore",
            )

    @staticmethod
    def _assign_names(node: ast.Assign) -> Iterator[str]:
        for target in node.targets:
            if isinstance(target, ast.Name):
                yield target.id
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        yield elt.id

    @staticmethod
    def _parse_all(node: ast.Assign) -> list[str] | None:
        if not isinstance(node.value, (ast.List, ast.Tuple)):
            return None
        names: list[str] = []
        for elt in node.value.elts:
            if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
                return None
            names.append(elt.value)
        return names


@register
class ForbiddenDependencyRule:
    """R005 - no ``networkx``/``scipy`` imports in library code.

    The runtime dependency surface is numpy only; networkx and scipy
    are dev-extra comparators for the test suite.  An import here
    would silently break production installs.
    """

    rule_id = "R005"
    title = "no networkx/scipy imports in src/"

    _FORBIDDEN = ("networkx", "scipy")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.in_test_tree:
            return
        for node in ast.walk(ctx.tree):
            module: str | None = None
            if isinstance(node, ast.Import):
                for name in node.names:
                    if self._forbidden(name.name):
                        yield self._diag(ctx, node, name.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module
                if module is not None and self._forbidden(module):
                    yield self._diag(ctx, node, module)

    def _forbidden(self, module: str) -> bool:
        return any(
            module == banned or module.startswith(banned + ".")
            for banned in self._FORBIDDEN
        )

    def _diag(self, ctx: FileContext, node: ast.AST, module: str) -> Diagnostic:
        return ctx.diagnostic(
            node,
            self.rule_id,
            f"'{module}' is a dev-only dependency and must not be imported "
            "from library code",
            "keep comparator code in tests/ or gate it behind the dev extra",
        )


@register
class NoBareExceptRule:
    """R006 - no bare ``except`` and no silently swallowed exceptions.

    Every library failure derives from :class:`repro.errors.ReproError`;
    a bare ``except:`` (or a ``pass``-only broad handler) hides
    ``KeyboardInterrupt``/``SystemExit`` and masks pipeline bugs that
    the audit trail is supposed to surface.
    """

    rule_id = "R006"
    title = "no bare except / swallowed exceptions"

    _BROAD = ("Exception", "BaseException")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.diagnostic(
                    node,
                    self.rule_id,
                    "bare 'except:' catches SystemExit and KeyboardInterrupt",
                    "catch a repro.errors.ReproError subclass (or Exception)",
                )
            elif self._is_broad(node.type) and self._swallows(node.body):
                yield ctx.diagnostic(
                    node,
                    self.rule_id,
                    "broad exception handler silently swallows the error",
                    "narrow the exception type or handle/log the failure",
                )

    def _is_broad(self, type_node: ast.expr) -> bool:
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt) for elt in type_node.elts)
        return _dotted_name(type_node) in self._BROAD

    @staticmethod
    def _swallows(body: list[ast.stmt]) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            for stmt in body
        )


@register
class NoPrintRule:
    """R007 - no ``print()`` in library code.

    Reporting goes through :mod:`repro.analysis.reporting` and the CLI
    front ends; a stray ``print`` in the pipeline corrupts the CSV/JSON
    streams the paper's ``susGroup``/``susTrade`` files are piped into.
    ``cli.py`` modules and ``analysis/reporting.py`` are exempt.
    """

    rule_id = "R007"
    title = "no print() outside cli.py / analysis/reporting.py"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if (
            ctx.in_test_tree
            or ctx.filename == "cli.py"
            or ctx.path_endswith("analysis/reporting.py")
        ):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield ctx.diagnostic(
                    node,
                    self.rule_id,
                    "print() in library code",
                    "return the text, or route it through analysis.reporting",
                )


@register
class RawColorLiteralRule:
    """R008 - never compare colors against raw string literals.

    ``EColor``/``VColor`` are ``str`` enums, so ``color == "IN"``
    happens to work today -- until a vocabulary change (say, new
    ``AffiliationKind`` folds) silently never matches.  Comparisons
    must name the enum member.
    """

    rule_id = "R008"
    title = "EColor/VColor must not be compared against raw strings"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    for literal, other in ((left, right), (right, left)):
                        if self._reserved_literal(literal) and not isinstance(
                            other, ast.Constant
                        ):
                            yield self._diag(ctx, literal)
                elif isinstance(op, (ast.In, ast.NotIn)) and isinstance(
                    right, (ast.Tuple, ast.List, ast.Set)
                ):
                    for elt in right.elts:
                        if self._reserved_literal(elt):
                            yield self._diag(ctx, elt)

    @staticmethod
    def _reserved_literal(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in _RESERVED_COLOR_VALUES
        )

    def _diag(self, ctx: FileContext, literal: ast.expr) -> Diagnostic:
        value = literal.value if isinstance(literal, ast.Constant) else "?"
        member = {
            "IN": "EColor.INFLUENCE",
            "TR": "EColor.TRADING",
            "Person": "VColor.PERSON",
            "Company": "VColor.COMPANY",
        }.get(str(value), "the enum member")
        return ctx.diagnostic(
            literal,
            self.rule_id,
            f'comparison against raw color literal "{value}"',
            f"compare against {member} instead",
        )


@register
class FrozenMutationRule:
    """R009 - no ``object.__setattr__`` outside ``__post_init__``.

    Frozen dataclasses (groups, patterns, diagnostics) are hashable
    cache keys; mutating one after construction corrupts every set and
    dict it already sits in.  ``__post_init__`` (initialisation) and
    ``__setstate__`` (unpickling a not-yet-initialised instance) are
    the only sanctioned escape hatches.
    """

    rule_id = "R009"
    title = "no object.__setattr__ outside __post_init__/__setstate__"

    _ALLOWED = ("__post_init__", "__setstate__")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        yield from self._visit(ctx, ctx.tree.body, inside_allowed=False)

    def _visit(
        self, ctx: FileContext, body: list[ast.stmt], inside_allowed: bool
    ) -> Iterator[Diagnostic]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                allowed = inside_allowed or stmt.name in self._ALLOWED
                yield from self._visit(ctx, stmt.body, allowed)
            elif isinstance(stmt, ast.ClassDef):
                yield from self._visit(ctx, stmt.body, False)
            else:
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.Call)
                        and _dotted_name(node.func) == "object.__setattr__"
                        and not inside_allowed
                    ):
                        yield ctx.diagnostic(
                            node,
                            self.rule_id,
                            "object.__setattr__ mutates a frozen instance after "
                            "construction",
                            "restrict it to __post_init__/__setstate__ or use "
                            "dataclasses.replace",
                        )


@register
class NoFunctionBodyImportRule:
    """R010 - no function-body imports of first-party ``repro`` modules.

    A ``repro.*`` import buried in a function body hides the module's
    real dependency graph, re-pays import-machinery overhead on hot
    paths, and usually papers over an import cycle that should either
    not exist or be documented where it is broken.  Imports of
    third-party or stdlib modules inside functions are not flagged —
    only first-party ones.
    """

    rule_id = "R010"
    title = "no function-body imports of first-party repro modules"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.in_test_tree:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Diagnostic]:
        # ast.walk revisits nested functions on its own; only report the
        # imports belonging *directly* to this function so each site is
        # diagnosed exactly once.
        nested: set[int] = set()
        for stmt in ast.walk(fn):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt is not fn:
                    nested.update(id(n) for n in ast.walk(stmt))
        for node in ast.walk(fn):
            if id(node) in nested:
                continue
            if isinstance(node, ast.Import):
                for name in node.names:
                    if self._first_party(name.name):
                        yield self._diag(ctx, node, fn.name, name.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level > 0:
                    yield self._diag(ctx, node, fn.name, "." * node.level + (node.module or ""))
                elif node.module is not None and self._first_party(node.module):
                    yield self._diag(ctx, node, fn.name, node.module)

    @staticmethod
    def _first_party(module: str) -> bool:
        return module == "repro" or module.startswith("repro.")

    def _diag(
        self, ctx: FileContext, node: ast.AST, fn_name: str, module: str
    ) -> Diagnostic:
        return ctx.diagnostic(
            node,
            self.rule_id,
            f"function '{fn_name}' imports first-party module '{module}' "
            "in its body",
            "import at module scope; for a genuine import cycle, suppress "
            "with '# reprolint: disable=R010' and cite the cycle",
        )
