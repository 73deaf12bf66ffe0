"""Stage 1: sample the schema DAG, classify tables, and attach row/column metadata."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, replace

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
    "random_tree_dag",
    "barabasi_albert_edges",
    "watts_strogatz_edges",
]

ENTITY = "entity"
ACTIVITY = "activity"


@dataclass(frozen=True)
class TableMeta:
    kind: str  # entity | activity
    num_rows: int
    num_feature_columns: int


@dataclass(frozen=True)
class SchemaGraph:
    """DAG over tables; an edge (p, c) means table c holds a foreign key into p."""

    names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]  # sorted (parent, child) index pairs
    meta: tuple[TableMeta, ...] | None = None  # the generation plan; None for a database's graph

    @property
    def num_tables(self) -> int:
        return len(self.names)

    def parents(self, t: int) -> tuple[int, ...]:
        return tuple(sorted(p for p, c in self.edges if c == t))

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


def random_tree_dag(n: int, rng: SeededRng, toward_leaves: bool) -> list[tuple[int, int]]:
    """A uniform random tree on n nodes, oriented away from (or toward) a uniform root."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in random_tree_edges(n, rng):
        adj[u].append(v)
        adj[v].append(u)
    root = int(rng.integers(0, n - 1))
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


def barabasi_albert_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Barabasi-Albert preferential attachment as sorted (low, high) node pairs.

    Starts from a star on nodes 0..m; each later node attaches to m distinct
    targets drawn from a list that holds every node once per incident edge.
    Needs 1 <= m < n. Draws exactly as networkx 3.6.1's
    ``barabasi_albert_graph(n, m, seed)``, so output bytes are the same as
    those of earlier releases, which called it.
    """
    if not 1 <= m < n:
        raise StructuralError(f"barabasi-albert needs 1 <= m < n, got m={m}, n={n}")
    rnd = random.Random(seed)
    edges = [(0, v) for v in range(1, m + 1)]
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rnd.choice(repeated))
        edges.extend((t, source) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return sorted(edges)


def watts_strogatz_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """Watts-Strogatz ring on n nodes (k = 2) as sorted (low, high) node pairs.

    Each ring edge (u, u + 1) is rewired with probability p to (u, w), w
    uniform, rejecting self-loops and existing edges, and skipped once u has
    degree n - 1, so n == 2 keeps its one edge. Needs n >= 2. Gives the same
    edges as networkx 3.6.1's ``watts_strogatz_graph(n, 2, p, seed)``, so
    output bytes are the same as those of earlier releases, which called it.
    """
    if n < 2:
        raise StructuralError(f"watts-strogatz needs n >= 2, got n={n}")
    rnd = random.Random(seed)
    nodes = list(range(n))
    adj = [{(u - 1) % n, (u + 1) % n} for u in nodes]
    for u in nodes:
        if rnd.random() < p:
            w = rnd.choice(nodes)
            while w == u or w in adj[u]:
                w = rnd.choice(nodes)
                if len(adj[u]) >= n - 1:
                    break
            else:
                v = (u + 1) % n
                adj[u].remove(v)
                adj[v].remove(u)
                adj[u].add(w)
                adj[w].add(u)
    return sorted((u, v) for u in nodes for v in adj[u] if u < v)


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
        und = barabasi_albert_edges(n, m, rng.bits64())
        keep = rng.uniform(size=len(und)) >= dropout
        und = [e for e, k in zip(und, keep) if k]
        edges = orient_by_permutation(und, n, rng)
    elif family == "watts-strogatz":
        p = float(draw(config.ws_rewire_prob, rng))
        edges = orient_by_permutation(watts_strogatz_edges(n, p, rng.bits64()), n, rng)
    elif family == "reverse-random-tree":
        edges = random_tree_dag(n, rng, toward_leaves=True)
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
        ncols = draw(config.num_columns, rng, float(config.power_law_exponent.payload))
        if graph.out_degree(t) >= 1:
            kind, rows_prior = ENTITY, config.rows_entity
        else:
            kind, rows_prior = ACTIVITY, config.rows_activity
        metas[t] = TableMeta(
            kind=kind,
            num_rows=int(draw(rows_prior, rng)),
            num_feature_columns=int(ncols),
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
