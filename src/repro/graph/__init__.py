"""Graph substrate: colored digraphs and the algorithms the paper cites.

Everything in this package is implemented from scratch (no ``networkx``
at runtime): the colored digraph core, DFS/BFS and the ``findsubgraph``
weak-component extraction of Appendix B, Tarjan's SCC algorithm [26], DAG
utilities backing Property 1, the paper's ``r x 3`` edge-list format, a
packed-bit root-ancestor index used by the incremental detector, and the
frozen color-partitioned CSR kernel the mining hot paths run on.
"""

from repro.graph.bitset import RootAncestorIndex
from repro.graph.csr import CSRGraph
from repro.graph.dag import (
    ancestor_closure,
    count_paths_from_roots,
    enumerate_paths_from,
    is_dag,
    leaves,
    roots,
    topological_order,
)
from repro.graph.digraph import DiGraph, Node, UnGraph
from repro.graph.edgelist import COLOR_INFLUENCE, COLOR_TRADING, EdgeList
from repro.graph.tarjan import nontrivial_sccs, strongly_connected_components
from repro.graph.traversal import (
    ancestors,
    bfs_order,
    descendants,
    dfs_preorder,
    find_subgraphs,
    has_path,
    weakly_connected_components,
)

__all__ = [
    "CSRGraph",
    "DiGraph",
    "UnGraph",
    "Node",
    "EdgeList",
    "COLOR_INFLUENCE",
    "COLOR_TRADING",
    "RootAncestorIndex",
    "ancestor_closure",
    "ancestors",
    "bfs_order",
    "count_paths_from_roots",
    "descendants",
    "dfs_preorder",
    "enumerate_paths_from",
    "find_subgraphs",
    "has_path",
    "is_dag",
    "leaves",
    "nontrivial_sccs",
    "roots",
    "strongly_connected_components",
    "topological_order",
    "weakly_connected_components",
]
