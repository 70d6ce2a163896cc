"""Patterns-tree construction and the component pattern base (Algorithm 2).

Starting from every indegree-zero node of a subTPIIN's antecedent
network, a depth-first search follows arcs and terminates a branch on one
of the two stop criteria:

* **Rule 1** — the current node has no outgoing arc at all; the emitted
  walk is an *InOT-OutOSP* walk (Definition 5), a pure influence trail;
* **Rule 2** — a trading arc is traversed; the walk ends at that arc's
  head and is an *InOT-FTAOP* walk (Definition 6), an influence trail
  closed by its first trading arc.

Every root-to-leaf branch of the resulting *patterns tree* is one
**potential component pattern** (a *suspicious relationship trail*); the
collection is the pattern base of Fig. 10.

Note on start nodes: the paper computes indegrees over the whole
subTPIIN, whose roots are persons in every example.  For completeness on
networks where a company has incoming *trading* arcs but no influence
ancestor at all, this implementation takes indegree-zero with respect to
the **influence** arcs (a superset of the paper's start set); each extra
start is a company that no person or investor influences, and its walks
are exactly the Definition-5/6 walks anchored there.  DESIGN.md records
the decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.graph.digraph import DiGraph, Node
from repro.model.colors import EColor

__all__ = [
    "PatternTrail",
    "PatternTreeNode",
    "PatternsTreeResult",
    "list_d_order",
    "build_patterns_tree",
]


@dataclass(frozen=True, slots=True)
class PatternTrail:
    """One entry of the component pattern base.

    ``nodes`` is the influence walk ``A1, ..., Am``; ``trading_target``
    is ``Cj`` when the walk was closed by a trading arc (an InOT-FTAOP
    walk, case (b)) and ``None`` for a pure influence walk (an
    InOT-OutOSP walk, case (a)).
    """

    nodes: tuple[Node, ...]
    trading_target: Node | None = None

    @property
    def antecedent(self) -> Node:
        """The walk's start node ``A1``."""
        return self.nodes[0]

    @property
    def is_ftaop(self) -> bool:
        """True for case (b): ends with a trading arc (Definition 6)."""
        return self.trading_target is not None

    @property
    def is_outosp(self) -> bool:
        """True for case (a): a pure influence walk (Definition 5)."""
        return self.trading_target is None

    @property
    def trading_arc(self) -> tuple[Node, Node] | None:
        if self.trading_target is None:
            return None
        return (self.nodes[-1], self.trading_target)

    @property
    def has_circle(self) -> bool:
        """True when the trading arc closes a circle within the walk."""
        return self.trading_target is not None and self.trading_target in self.nodes

    def render(self) -> str:
        """The Fig. 10 textual form, e.g. ``"L1, C2, C5 -> C6"``."""
        body = ", ".join(str(n) for n in self.nodes)
        if self.trading_target is None:
            return body
        return f"{body} -> {self.trading_target}"

    def __len__(self) -> int:
        return len(self.nodes) + (1 if self.trading_target is not None else 0)


@dataclass(slots=True)
class PatternTreeNode:
    """A node of the patterns tree (Fig. 9)."""

    node: Node
    via_trading: bool = False
    children: list["PatternTreeNode"] = field(default_factory=list)

    def render(self, indent: int = 0) -> str:
        lines: list[str] = []
        stack: list[tuple[PatternTreeNode, int]] = [(self, indent)]
        while stack:
            current, depth = stack.pop()
            marker = "=> " if current.via_trading else ""
            lines.append(" " * depth + marker + str(current.node))
            stack.extend(
                (child, depth + 2) for child in reversed(current.children)
            )
        return "\n".join(lines)

    def leaf_count(self) -> int:
        count = 0
        stack: list[PatternTreeNode] = [self]
        while stack:
            current = stack.pop()
            if current.children:
                stack.extend(current.children)
            else:
                count += 1
        return count


@dataclass(slots=True)
class PatternsTreeResult:
    """The patterns tree plus its flattened component pattern base."""

    roots: list[PatternTreeNode]
    trails: list[PatternTrail]
    list_d: list[Node]

    def render_tree(self) -> str:
        """Fig. 9-style indented rendering of the whole forest."""
        return "\n".join(root.render() for root in self.roots)

    def render_base(self) -> str:
        """Fig. 10-style numbered rendering of the pattern base."""
        return "\n".join(
            f"{i}. {trail.render()}" for i, trail in enumerate(self.trails, start=1)
        )

    def trails_by_antecedent(self) -> dict[Node, list[PatternTrail]]:
        grouped: dict[Node, list[PatternTrail]] = {}
        for trail in self.trails:
            grouped.setdefault(trail.antecedent, []).append(trail)
        return grouped

    def __iter__(self) -> Iterator[PatternTrail]:
        return iter(self.trails)


def list_d_order(graph: DiGraph) -> list[Node]:
    """Algorithm 2, steps 1-2: the ``ListD`` node ordering.

    Nodes sorted by increasing indegree, ties broken by decreasing
    outdegree (both over all arcs of the subTPIIN), then by node id for
    determinism.  The indegree-zero prefix of this list seeds the
    pattern search.
    """
    return sorted(
        graph.nodes(),
        key=lambda n: (graph.in_degree(n), -graph.out_degree(n), str(n)),
    )


def build_patterns_tree(
    graph: DiGraph,
    *,
    build_tree: bool = True,
) -> PatternsTreeResult:
    """Run Algorithm 2 on one subTPIIN graph.

    Parameters
    ----------
    graph:
        A subTPIIN: influence + trading arcs over Person/Company nodes.
    build_tree:
        When ``False``, only the trail base is produced and the explicit
        tree nodes are skipped — the mining path uses this to avoid
        materializing the Fig. 9 structure it never reads.

    Returns the tree forest (one root per start node), the component
    pattern base, and the ``ListD`` ordering.
    """
    list_d = list_d_order(graph)
    start_nodes = [n for n in list_d if graph.in_degree(n, EColor.INFLUENCE) == 0]

    trails: list[PatternTrail] = []
    forest: list[PatternTreeNode] = []

    # Sorted (successor, is_trading) lists, memoized per node for the
    # duration of this call: a node revisited along many walks pays the
    # O(d log d) string sort once, not once per DFS step.
    arc_cache: dict[Node, tuple[tuple[Node, bool], ...]] = {}

    def out_arcs_of(node: Node) -> Iterator[tuple[Node, bool]]:
        """(successor, is_trading) pairs in deterministic order."""
        cached = arc_cache.get(node)
        if cached is None:
            pairs: list[tuple[Node, bool]] = []
            for head, colors in sorted(
                ((h, graph.arc_colors(node, h)) for h in graph.successors(node)),
                key=lambda item: str(item[0]),
            ):
                if EColor.INFLUENCE in colors:
                    pairs.append((head, False))
                if EColor.TRADING in colors:
                    pairs.append((head, True))
            cached = tuple(pairs)
            arc_cache[node] = cached
        return iter(cached)

    for start in start_nodes:
        root = PatternTreeNode(start) if build_tree else None
        if root is not None:
            forest.append(root)
        # Iterative DFS.  Each stack frame: (node, tree_node, iterator of
        # remaining out-arcs).  `path`/`on_path` hold the influence walk.
        path: list[Node] = [start]
        on_path: set[Node] = {start}
        emitted_any: list[bool] = [False]

        stack: list[tuple[Node, PatternTreeNode | None, Iterator[tuple[Node, bool]]]] = [
            (start, root, out_arcs_of(start))
        ]
        while stack:
            node, tree_node, arcs = stack[-1]
            step = next(arcs, None)
            if step is None:
                if not emitted_any[-1]:
                    # Rule 1: no outgoing arc consumed a continuation —
                    # emit the pure influence walk.  (A node with only a
                    # trading successor never reaches here: the trading
                    # branch below marks the frame as emitted.)
                    trails.append(PatternTrail(tuple(path)))
                stack.pop()
                emitted_any.pop()
                on_path.discard(path.pop())
                continue
            successor, is_trading = step
            if is_trading:
                # Rule 2: traverse the first trading arc and stop.
                trails.append(PatternTrail(tuple(path), trading_target=successor))
                emitted_any[-1] = True
                if tree_node is not None:
                    tree_node.children.append(
                        PatternTreeNode(successor, via_trading=True)
                    )
                continue
            if successor in on_path:
                # Cannot happen on a valid (DAG) antecedent network;
                # guarded so malformed inputs terminate rather than loop.
                continue
            child = PatternTreeNode(successor) if tree_node is not None else None
            if tree_node is not None and child is not None:
                tree_node.children.append(child)
            path.append(successor)
            on_path.add(successor)
            emitted_any[-1] = True
            emitted_any.append(False)
            stack.append((successor, child, out_arcs_of(successor)))
    return PatternsTreeResult(forest, trails, list_d)
