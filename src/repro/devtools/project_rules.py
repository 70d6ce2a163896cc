"""Phase 2 of the whole-program analyzer: rules R012-R015.

These passes need more than one file's AST: the declared layer
architecture and the import graph (R012), the cross-module reference
table (R013), a flow-sensitive walk of lock-guarded state (R014), and
the configured hot-function set (R015).  Each is a pure function over
the :class:`~repro.devtools.project.ProjectIndex` built in phase 1.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.config import LintConfig
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.project import ModuleInfo, ProjectIndex
from repro.devtools.rulebase import register_project

__all__ = [
    "DeadExportRule",
    "HotPathAllocationRule",
    "LayeringRule",
    "LockDisciplineRule",
]

#: Dunder exports (``__version__`` & co.) are interface metadata, read
#: by tooling rather than imports; R013 never calls them dead.
_METADATA_EXPORT_PREFIX = "__"


def _package_key(module: str) -> str:
    """Layer key of one dotted module: the component below ``repro``.

    ``repro.graph.csr`` -> ``graph``; top-level modules key by their own
    name (``repro.cli`` -> ``cli``); the package root itself keys as
    ``repro``.
    """
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


@register_project
class LayeringRule:
    """R012 - the import graph must respect the declared layers.

    The architecture is declared as ``LintConfig.layers`` (the
    ``_DEFAULT_LAYERS`` constant in :mod:`repro.devtools.config`): an
    ordered list of layers, lowest first, each naming top-level ``repro`` packages.  A module may
    import from its own layer or below — ``graph``/``model`` import
    nothing above them, ``service`` is importable by nothing below it —
    and every package must be assigned, so a new subsystem cannot ship
    undeclared.  Only module-level imports are judged: function-body
    cycle breakers are R010's domain and must carry their own
    justification there.
    """

    rule_id = "R012"
    title = "module-level imports must respect the declared layer order"

    def check_project(
        self, index: ProjectIndex, config: LintConfig
    ) -> Iterator[Diagnostic]:
        for info in index.subject_modules():
            if _package_key(info.module) == "tests" or not info.module.startswith(
                ("repro.", "repro")
            ):
                continue
            if info.module.split(".", 1)[0] != "repro":
                continue
            subject_key = _package_key(info.module)
            subject_layer = config.layer_of(subject_key)
            if subject_layer is None:
                yield info.diagnostic(
                    None,
                    self.rule_id,
                    f"package '{subject_key}' is not assigned to a layer in "
                    "the declared architecture",
                    "declare the new package's layer in _DEFAULT_LAYERS "
                    "(repro/devtools/config.py)",
                )
                continue
            for edge in info.imports:
                if edge.in_function:
                    continue
                if edge.target.split(".", 1)[0] != "repro":
                    continue
                target_key = _package_key(edge.target)
                if target_key == subject_key:
                    continue
                target_layer = config.layer_of(target_key)
                anchor = _ImportAnchor(edge.line, edge.col - 1)
                if target_layer is None:
                    yield info.diagnostic(
                        anchor,
                        self.rule_id,
                        f"imports '{edge.target}' from package '{target_key}', "
                        "which is not assigned to a layer",
                        "declare the package's layer in _DEFAULT_LAYERS "
                        "(repro/devtools/config.py)",
                    )
                elif target_layer > subject_layer:
                    yield info.diagnostic(
                        anchor,
                        self.rule_id,
                        f"layer violation: '{subject_key}' (layer {subject_layer}) "
                        f"imports '{edge.target}' from higher layer "
                        f"'{target_key}' (layer {target_layer})",
                        "depend downward only; invert the dependency or move "
                        "the shared piece into a lower layer",
                    )


class _ImportAnchor:
    """Minimal node-like carrier of an import statement's location."""

    __slots__ = ("lineno", "col_offset", "end_lineno")

    def __init__(self, lineno: int, col_offset: int) -> None:
        self.lineno = lineno
        self.col_offset = col_offset
        self.end_lineno = lineno


@register_project
class DeadExportRule:
    """R013 - every export must have a cross-module reader.

    An ``__all__`` entry (or, in modules without ``__all__``, a public
    top-level definition) with zero references from any other indexed
    module is dead surface: it misleads readers about the real API and
    rots silently.  Reference sources include the test, benchmark and
    example trees (configured via ``reference-roots``), so "used only
    by tests" still counts as used.

    A *re-export* (an ``__all__`` entry bound by ``from submodule
    import name``, the package ``__init__`` aggregation idiom) inherits
    the liveness of the symbol it aggregates: it is dead only when
    nothing anywhere uses the symbol through *either* import path.
    Preferring the submodule path over the package path is a style
    choice, not drift.  The package root's re-exports and the
    console-script entry points are the API roots and are exempt.
    """

    rule_id = "R013"
    title = "no dead exports (public names nothing references)"

    def check_project(
        self, index: ProjectIndex, config: LintConfig
    ) -> Iterator[Diagnostic]:
        entry_points = set()
        for spec in config.entry_points:
            module, _, attr = spec.partition(":")
            if attr:
                entry_points.add((module, attr))

        for info in index.subject_modules():
            if info.module.split(".", 1)[0] != "repro":
                continue
            if info.module == "repro" or info.module.endswith("__main__"):
                # The package root and entry modules are API roots.
                continue
            if info.has_all:
                candidates = info.exports
            else:
                candidates = {
                    n: d for n, d in info.definitions.items() if not n.startswith("_")
                }
            for name in sorted(candidates):
                if name.startswith(_METADATA_EXPORT_PREFIX):
                    continue
                if (info.module, name) in entry_points:
                    continue
                if index.references_to(info.module, name, excluding=info.module):
                    continue
                if name in info.signature_names:
                    # Structurally reachable: a return type, default value
                    # or base class of this module's own interface.
                    continue
                binding = info.import_bindings.get(name)
                if binding is not None:
                    home = index.modules.get(binding[0])
                    if index.references_to(
                        binding[0], binding[1], excluding=info.module
                    ) or (home is not None and binding[1] in home.signature_names):
                        # Re-export of a symbol that is alive via its home
                        # module; the aggregated path is a style choice.
                        continue
                sym = candidates[name]
                anchor = _ImportAnchor(sym.line, sym.col - 1)
                yield info.diagnostic(
                    anchor,
                    self.rule_id,
                    f"'{name}' is exported by '{info.module}' but nothing in "
                    "the project references it",
                    "delete the export (and its definition if now unused) or "
                    "rename it with a leading underscore",
                )


# ----------------------------------------------------------------------
# R014 - lock discipline
# ----------------------------------------------------------------------

#: Lock state lattice for the flow walk: no lock < read < write.
_NO_LOCK, _READ, _WRITE = 0, 1, 2


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _literal_str_set(node: ast.expr) -> frozenset[str] | None:
    """``frozenset({"a", "b"})`` / set / tuple / list literal of strings."""
    if isinstance(node, ast.Call) and _dotted(node.func) == "frozenset" and node.args:
        return _literal_str_set(node.args[0])
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        names = []
        for elt in node.elts:
            if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
                return None
            names.append(elt.value)
        return frozenset(names)
    return None


@register_project
class LockDisciplineRule:
    """R014 - guarded service state obeys the read/write lock protocol.

    A class in :mod:`repro.service` opts in by declaring
    ``_lock_guarded = frozenset({"_attr", ...})`` in its body; the rule
    then walks every method flow-sensitively through
    ``with self._lock.read()/.write():`` blocks and flags:

    * reads of ``self.<guarded>`` while holding no lock;
    * writes of ``self.<guarded>`` without the write lock;
    * nested acquisition of the (non-reentrant) lock — a deadlock;
    * blocking I/O (configured ``blocking-calls``: WAL append/fsync,
      snapshot writes, socket sends) while holding either lock;
    * calls of ``*_locked`` helpers without the write lock held.

    Helpers named ``*_locked`` are analyzed assuming the write lock is
    already held (``*_rlocked``: the read lock); ``__init__`` and
    ``__post_init__`` run before the instance is shared and are exempt.
    """

    rule_id = "R014"
    title = "lock-guarded service state must be touched under the lock"

    _EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

    def check_project(
        self, index: ProjectIndex, config: LintConfig
    ) -> Iterator[Diagnostic]:
        for info in index.subject_modules():
            if not info.module.startswith("repro.service"):
                continue
            for node in info.tree.body:
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(info, node, config)

    def _check_class(
        self, info: ModuleInfo, cls: ast.ClassDef, config: LintConfig
    ) -> Iterator[Diagnostic]:
        guarded: frozenset[str] | None = None
        lock_attr = "_lock"
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    if target.id == "_lock_guarded":
                        guarded = _literal_str_set(stmt.value)
                    elif target.id == "_lock_attr" and isinstance(
                        stmt.value, ast.Constant
                    ):
                        lock_attr = str(stmt.value.value)
        if not guarded:
            return
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name in self._EXEMPT_METHODS:
                    continue
                walker = _LockFlowWalker(
                    info, self.rule_id, guarded, lock_attr, config.blocking_calls
                )
                if stmt.name.endswith("_rlocked"):
                    initial = _READ
                elif stmt.name.endswith("_locked"):
                    initial = _WRITE
                else:
                    initial = _NO_LOCK
                walker.visit_body(stmt.body, initial)
                yield from walker.diagnostics


class _LockFlowWalker:
    """Statement-level flow walk of one method under a lock-state."""

    def __init__(
        self,
        info: ModuleInfo,
        rule_id: str,
        guarded: frozenset[str],
        lock_attr: str,
        blocking_calls: tuple[str, ...],
    ) -> None:
        self._info = info
        self._rule_id = rule_id
        self._guarded = guarded
        self._lock_attr = lock_attr
        self._blocking = blocking_calls
        self.diagnostics: list[Diagnostic] = []

    # -- helpers -------------------------------------------------------
    def _diag(self, node: ast.AST, message: str, hint: str) -> None:
        self.diagnostics.append(
            self._info.diagnostic(node, self._rule_id, message, hint)
        )

    def _lock_call_state(self, expr: ast.expr) -> int | None:
        """``self._lock.read()`` -> _READ, ``.write()`` -> _WRITE."""
        if not isinstance(expr, ast.Call):
            return None
        dotted = _dotted(expr.func)
        if dotted == f"self.{self._lock_attr}.read":
            return _READ
        if dotted == f"self.{self._lock_attr}.write":
            return _WRITE
        return None

    # -- statement flow ------------------------------------------------
    def visit_body(self, body: list[ast.stmt], state: int) -> None:
        for stmt in body:
            self.visit_stmt(stmt, state)

    def visit_stmt(self, stmt: ast.stmt, state: int) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = state
            for item in stmt.items:
                acquired = self._lock_call_state(item.context_expr)
                if acquired is not None:
                    if state != _NO_LOCK:
                        self._diag(
                            item.context_expr,
                            "nested acquisition of the non-reentrant "
                            "ReadWriteLock deadlocks",
                            "restructure so the outer critical section already "
                            "holds the needed mode",
                        )
                    inner = max(inner, acquired)
                else:
                    self._check_expr(item.context_expr, state)
            self.visit_body(stmt.body, inner)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Nested definitions execute later, under unknown lock state;
            # out of scope for the flow walk.
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._check_expr(stmt.iter, state)
            self._check_store(stmt.target, state)
            self.visit_body(stmt.body, state)
            self.visit_body(stmt.orelse, state)
            return
        if isinstance(stmt, ast.While):
            self._check_expr(stmt.test, state)
            self.visit_body(stmt.body, state)
            self.visit_body(stmt.orelse, state)
            return
        if isinstance(stmt, ast.If):
            self._check_expr(stmt.test, state)
            self.visit_body(stmt.body, state)
            self.visit_body(stmt.orelse, state)
            return
        if isinstance(stmt, ast.Try):
            self.visit_body(stmt.body, state)
            for handler in stmt.handlers:
                self.visit_body(handler.body, state)
            self.visit_body(stmt.orelse, state)
            self.visit_body(stmt.finalbody, state)
            return
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            value = stmt.value
            if value is not None:
                self._check_expr(value, state)
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                self._check_store(target, state)
                if isinstance(stmt, ast.AugAssign):
                    # ``self.x += 1`` also reads; the store check already
                    # demands the stronger write mode.
                    pass
            return
        if isinstance(stmt, (ast.Return, ast.Expr)):
            if stmt.value is not None:
                self._check_expr(stmt.value, state)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._check_store(target, state)
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.expr):
                    self._check_expr_node(sub, state)
            return
        # Pass/Break/Continue/Import/Global/... carry no guarded access.

    # -- expression checks ---------------------------------------------
    def _check_store(self, target: ast.expr, state: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store(elt, state)
            return
        if isinstance(target, ast.Subscript):
            # ``self.x[k] = v`` mutates the guarded container.
            self._check_store(target.value, state)
            self._check_expr(target.slice, state)
            return
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr in self._guarded
        ):
            if state < _WRITE:
                self._diag(
                    target,
                    f"mutation of lock-guarded 'self.{target.attr}' "
                    + (
                        "under the read lock"
                        if state == _READ
                        else "without holding the lock"
                    ),
                    "wrap the mutation in 'with self._lock.write():'",
                )
            return
        self._check_expr(target, state)

    def _check_expr(self, expr: ast.expr, state: int) -> None:
        for node in ast.walk(expr):
            self._check_expr_node(node, state)

    def _check_expr_node(self, node: ast.AST, state: int) -> None:
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self._guarded
                and state == _NO_LOCK
            ):
                self._diag(
                    node,
                    f"read of lock-guarded 'self.{node.attr}' without "
                    "holding the lock",
                    "wrap the read in 'with self._lock.read():'",
                )
        elif isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is None:
                return
            if self._lock_call_state(node) is not None:
                # Handled at the With statement; a bare call is misuse.
                return
            if state != _NO_LOCK and self._is_blocking(dotted):
                self._diag(
                    node,
                    f"blocking I/O '{dotted}' while holding the lock stalls "
                    "every reader and writer",
                    "move the I/O outside the critical section, or suppress "
                    "with a comment citing the ordering requirement",
                )
            if dotted.startswith("self.") and "." not in dotted[5:]:
                name = dotted[5:]
                if name.endswith("_rlocked") and state == _NO_LOCK:
                    self._diag(
                        node,
                        f"call of '{name}' (assumes the read lock) without "
                        "holding a lock",
                        "acquire self._lock.read() first",
                    )
                elif name.endswith("_locked") and not name.endswith("_rlocked"):
                    if state < _WRITE:
                        self._diag(
                            node,
                            f"call of '{name}' (assumes the write lock) "
                            + (
                                "under the read lock"
                                if state == _READ
                                else "without holding the lock"
                            ),
                            "acquire self._lock.write() first",
                        )

    def _is_blocking(self, dotted: str) -> bool:
        return any(
            dotted == pattern or dotted.endswith("." + pattern)
            for pattern in self._blocking
        )


# ----------------------------------------------------------------------
# R015 - hot-path allocation lint
# ----------------------------------------------------------------------


@register_project
class HotPathAllocationRule:
    """R015 - innermost loops of hot functions stay allocation-lean.

    Functions marked hot in ``LintConfig.hot_functions`` (the
    compact mining kernel and its circle walk) are the per-node/per-arc
    loops the benchmarks gate.  Inside their innermost ``for``/``while``
    loops the rule flags:

    * comprehensions and generator expressions (a new container or
      frame per iteration);
    * ``list()``/``dict()``/``set()``/``sorted()`` calls and non-empty
      list/set/dict display literals (mutable heap allocation per
      iteration; tuples are exempt — emission payloads are tuples);
    * repeated attribute lookups ``base.attr`` of a loop-invariant base
      (two or more occurrences) — hoist to a local before the loop.

    A hot-list entry whose module is linted but defines no function of
    that qualname is reported too, so a renamed or deleted kernel
    cannot drop out of the check silently.  Entries for modules outside
    the run (a lint of ``tests/`` alone) stay silent.
    """

    rule_id = "R015"
    title = "no per-iteration allocation in marked hot loops"

    _ALLOC_CALLS = frozenset({"list", "dict", "set", "sorted"})

    def check_project(
        self, index: ProjectIndex, config: LintConfig
    ) -> Iterator[Diagnostic]:
        targets: dict[str, set[str]] = {}
        for spec in config.hot_functions:
            module, _, qualname = spec.partition("::")
            if qualname:
                targets.setdefault(module, set()).add(qualname)
        for info in index.subject_modules():
            wanted = targets.get(info.module)
            if not wanted:
                continue
            found: set[str] = set()
            for qualname, fn in _named_functions(info.tree):
                if qualname in wanted:
                    found.add(qualname)
                    yield from self._check_function(info, fn)
            for qualname in sorted(wanted - found):
                yield info.diagnostic(
                    None,
                    self.rule_id,
                    f"hot-list entry '{info.module}::{qualname}' names no "
                    "function in this module, so nothing is checked",
                    "update or remove the entry in _DEFAULT_HOT_FUNCTIONS "
                    "(repro/devtools/config.py)",
                )

    def _check_function(
        self, info: ModuleInfo, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Diagnostic]:
        for loop in _innermost_loops(fn):
            yield from self._check_loop(info, loop)

    def _check_loop(
        self, info: ModuleInfo, loop: ast.For | ast.While
    ) -> Iterator[Diagnostic]:
        loop_bound = _names_bound_in(loop)
        attr_sites: dict[tuple[str, str], list[ast.Attribute]] = {}
        for node in _walk_loop_body(loop):
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                kind = type(node).__name__
                yield info.diagnostic(
                    node,
                    self.rule_id,
                    f"{kind} inside an innermost hot loop allocates per "
                    "iteration",
                    "build incrementally outside the loop or rewrite as an "
                    "explicit loop over a preallocated container",
                )
            elif isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name in self._ALLOC_CALLS:
                    yield info.diagnostic(
                        node,
                        self.rule_id,
                        f"'{name}()' inside an innermost hot loop allocates a "
                        "container per iteration",
                        "hoist the container out of the loop or reuse a "
                        "preallocated buffer",
                    )
            elif isinstance(node, (ast.List, ast.Set, ast.Dict)) and _display_elts(node):
                kind = type(node).__name__.lower()
                yield info.diagnostic(
                    node,
                    self.rule_id,
                    f"non-empty {kind} display inside an innermost hot loop "
                    "allocates per iteration",
                    "hoist the container or use a tuple",
                )
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id not in loop_bound
                and node.value.id != "self"
            ):
                attr_sites.setdefault((node.value.id, node.attr), []).append(node)
        for (base, attr), sites in sorted(attr_sites.items()):
            if len(sites) < 2:
                continue
            first = min(sites, key=lambda n: (n.lineno, n.col_offset))
            yield info.diagnostic(
                first,
                self.rule_id,
                f"'{base}.{attr}' is looked up {len(sites)} times per "
                "iteration of an innermost hot loop",
                f"hoist it once before the loop: '{attr}_ = {base}.{attr}'",
            )


def _display_elts(node: ast.List | ast.Set | ast.Dict) -> bool:
    """True for a non-empty display literal (``[]``/``{}`` are harmless)."""
    if isinstance(node, ast.Dict):
        return bool(node.keys)
    return bool(node.elts)


def _named_functions(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield ``(qualname, node)`` for top-level and class-level defs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub


def _innermost_loops(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.For | ast.While]:
    """Loops (For/While statements) containing no nested loop statement."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.While)):
            nested = any(
                isinstance(sub, (ast.For, ast.While))
                for sub in ast.walk(node)
                if sub is not node
            )
            if not nested:
                yield node


def _walk_loop_body(loop: ast.For | ast.While) -> Iterator[ast.AST]:
    """Every node of the loop *body* (the per-iteration work).

    The iterable/test of the loop header evaluates per iteration too
    (``while`` tests) or once (``for`` iterables); the body is where
    per-step allocation hurts, so that is what the rule inspects.
    """
    for stmt in loop.body:
        yield from ast.walk(stmt)


def _names_bound_in(loop: ast.For | ast.While) -> frozenset[str]:
    """Names assigned anywhere in the loop (header target included)."""
    bound: set[str] = set()
    if isinstance(loop, ast.For):
        for node in ast.walk(loop.target):
            if isinstance(node, ast.Name):
                bound.add(node.id)
    for stmt in loop.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                bound.add(node.id)
    return frozenset(bound)
