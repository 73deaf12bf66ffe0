"""Stage 1: sample the schema DAG, classify tables, and attach row/column metadata."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

import networkx as nx

from .core import GenConfig, SeededRng, StructuralError, draw

__all__ = [
    "TableMeta",
    "SchemaGraph",
    "sample_schema_graph",
    "assign_table_metadata",
    "topological_order",
    "kahn_order",
    "random_tree_edges",
    "orient_by_permutation",
    "orient_tree",
]

ENTITY = "entity"
ACTIVITY = "activity"


@dataclass(frozen=True)
class TableMeta:
    kind: str  # entity | activity
    num_rows: int
    num_feature_columns: int
    fk_parents: tuple[int, ...]  # parent table indices, ascending
    has_timestamp: bool


@dataclass(frozen=True)
class SchemaGraph:
    """DAG over tables; an edge (p, c) means table c holds a foreign key into p."""

    names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]  # sorted (parent, child) index pairs
    meta: tuple[TableMeta, ...] | None = None

    @property
    def num_tables(self) -> int:
        return len(self.names)

    def parents(self, t: int) -> tuple[int, ...]:
        return tuple(sorted(p for p, c in self.edges if c == t))

    def in_degree(self, t: int) -> int:
        return sum(1 for _, c in self.edges if c == t)

    def out_degree(self, t: int) -> int:
        return sum(1 for p, _ in self.edges if p == t)


# ---------------------------------------------------------------------------
# Base graph samplers
# ---------------------------------------------------------------------------


def random_tree_edges(n: int, rng: SeededRng) -> list[tuple[int, int]]:
    """Uniform labeled tree on n nodes via Prufer-sequence decoding."""
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [int(rng.integers(0, n - 1)) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def orient_by_permutation(
    undirected: list[tuple[int, int]], n: int, rng: SeededRng
) -> list[tuple[int, int]]:
    """Orient each edge from lower to higher rank under a random node permutation.

    Guarantees acyclicity regardless of the base graph.
    """
    rank = {int(node): pos for pos, node in enumerate(rng.permutation(n))}
    return [(u, v) if rank[u] < rank[v] else (v, u) for u, v in undirected]


def orient_tree(
    tree_edges: list[tuple[int, int]], n: int, root: int, toward_leaves: bool
) -> list[tuple[int, int]]:
    """Orient tree edges away from (or toward) a chosen root."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in tree_edges:
        adj[u].append(v)
        adj[v].append(u)
    oriented = []
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in sorted(adj[u]):
            if v in seen:
                continue
            seen.add(v)
            oriented.append((u, v) if toward_leaves else (v, u))
            stack.append(v)
    return oriented


def _undirected_edge_list(graph: nx.Graph) -> list[tuple[int, int]]:
    return sorted((min(u, v), max(u, v)) for u, v in graph.edges())


# ---------------------------------------------------------------------------
# Schema operations
# ---------------------------------------------------------------------------


def sample_schema_graph(config: GenConfig, rng: SeededRng) -> SchemaGraph:
    """Draw the table-relationship DAG; metadata is attached separately."""
    n = draw(config.num_tables, rng)
    family = draw(config.schema_graph_priors, rng)
    if family == "barabasi-albert":
        m = min(int(draw(config.ba_attachment, rng)), n - 1)
        dropout = float(draw(config.ba_edge_dropout, rng))
        base = nx.barabasi_albert_graph(n, m, seed=rng.bits64())
        und = _undirected_edge_list(base)
        keep = rng.uniform(size=len(und)) >= dropout
        und = [e for e, k in zip(und, keep) if k]
        edges = orient_by_permutation(und, n, rng)
    elif family == "watts-strogatz":
        p = float(draw(config.ws_rewire_prob, rng))
        base = nx.watts_strogatz_graph(n, 2, p, seed=rng.bits64())
        edges = orient_by_permutation(_undirected_edge_list(base), n, rng)
    elif family == "reverse-random-tree":
        tree = random_tree_edges(n, rng)
        root = int(rng.integers(0, n - 1))
        edges = orient_tree(tree, n, root, toward_leaves=True)
    else:
        raise StructuralError(f"unhandled schema graph family {family!r}")
    names = tuple(f"table_{i}" for i in range(n))
    return SchemaGraph(names=names, edges=tuple(sorted(edges)))


def assign_table_metadata(graph: SchemaGraph, config: GenConfig, rng: SeededRng) -> SchemaGraph:
    """Classify tables by out-degree and sample row/column counts.

    Foreign-key column count equals the table's in-degree; tables referenced
    by others (out-degree >= 1) become entity tables, the rest activity tables
    with a timestamp column.
    """
    metas: list[TableMeta | None] = [None] * graph.num_tables
    for t in topological_order(graph):
        ncols = draw(config.num_columns, rng, config.power_law_exponent)
        if graph.out_degree(t) >= 1:
            kind, rows_prior = ENTITY, config.rows_entity
        else:
            kind, rows_prior = ACTIVITY, config.rows_activity
        metas[t] = TableMeta(
            kind=kind,
            num_rows=int(draw(rows_prior, rng)),
            num_feature_columns=int(ncols),
            fk_parents=graph.parents(t),
            has_timestamp=kind == ACTIVITY,
        )
    return replace(graph, meta=tuple(metas))


def topological_order(graph: SchemaGraph) -> list[int]:
    """Parents before children; ties broken by ascending table index."""
    return kahn_order(graph.num_tables, graph.edges)


def kahn_order(num_nodes: int, edges) -> list[int]:
    """Kahn's sort of nodes 0..num_nodes-1, lowest index first; raises on a self-loop or cycle."""
    indeg = [0] * num_nodes
    children: list[list[int]] = [[] for _ in range(num_nodes)]
    for p, c in edges:
        if p == c:
            raise StructuralError(f"self-loop on node {p}")
        indeg[c] += 1
        children[p].append(c)
    ready = [t for t in range(num_nodes) if indeg[t] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        t = heapq.heappop(ready)
        order.append(t)
        for c in children[t]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != num_nodes:
        raise StructuralError("cycle detected in graph")
    return order
