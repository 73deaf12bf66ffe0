"""Stage 3: per-table structural causal models with temporal exogenous inputs.

Each table owns a causal DAG over typed nodes. Source nodes are driven by
trend/cycle/fluctuation signals of the row index, clamped by the module
constants below, with a cycle period of the row count times the drawn
frequency; every other node projects its in-graph predecessors and the
feature values of parent-table rows (looked up through the sampled foreign
keys) into a shared latent space, aggregates, and reconstructs a value of its
own type. Feature-node values become table cells.

A built SCM is the whole recipe of its table. It holds only the live nodes,
the feature nodes and their ancestors, and for each only what ``build_scm``
draws: for a source, the five draws of each signal (``TemporalParams``:
trend exponent and scale, cycle frequency and scale, noise scale); for a
mechanism, its scalars and the (init scheme, activation) tags of its
projectors and reconstruction head, but no weight arrays. Realization reads
everything else from the causal graph and the parent tables: an input's type
and cardinality, and its weight, the causal edge's or 1 / (the parent's
feature count). Node ``v`` draws from its own stream,
``split_seed(scm.seed, 1 + v)``, when it is realized: a source its temporal
noise and categories; a mechanism its exogenous Beta input, then its MLP
weights and embeddings, which it drops once it is done, so set-up memory
does not grow with a table's projector count.

Projections run once per distinct input, with the edge weight folded into
the projector's second-layer matrix: a parent feature column is projected at
parent-row granularity, a categorical input projects its embedding table
once and is indexed by category. The projections of one parent table's
columns are summed at parent-row granularity, and the sum is gathered once
through the foreign key. An MLP acts on each row alone and the sum is
elementwise, so this gives the values of projecting every gathered row and
adding in the same order. They agree bit for bit on OpenBLAS at the default
hidden width of 32; a one-row batch (a one-row table, or a one-category
input), which numpy hands to a matrix-vector routine, and hidden widths of
300 or more can round the last bit differently.

Every projection adds into a sum; a parent's summed projections start at
zero. A matrix product's outputs start from +0.0, so no projection is -0.0,
and 0.0 + p is p bit for bit.

Beside its values, a table's realization holds the current node's latent sum
``u`` (rows x hidden), one parent table's summed projections, and two scratch
arrays of max(rows, parent rows) x hidden, allocated once per table, that
numeric projections and reconstruction heads write into. Activations,
categorical projections and the gathers through a foreign key run one block
of ``neural._BLOCK_CELLS`` (8 192) cells at a time, so no other temporary
grows with the table. Each MLP's two matrix products still run over all
rows, and the blocked steps are elementwise, so the block size changes no
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import GenConfig, SeededRng, StructuralError, draw, parse_date, split_seed
from .fk_gen import populate_foreign_keys
from .neural import decode_category, init_embedding, init_mlp, mlp_forward, row_blocks
from .schema_gen import (
    ACTIVITY,
    SchemaGraph,
    TableMeta,
    assign_table_metadata,
    barabasi_albert_edges,
    kahn_order,
    orient_by_permutation,
    random_tree_dag,
    sample_schema_graph,
    topological_order,
)

__all__ = [
    "NUMERIC",
    "CATEGORICAL",
    "TIMESTAMP",
    "TemporalParams",
    "trend",
    "cycle",
    "fluc_from_noise",
    "temporal_signal",
    "softmax",
    "categorical_source_sample",
    "CausalGraph",
    "sample_causal_graph",
    "ScmSpec",
    "build_scm",
    "realize_table_values",
    "GeneratedTable",
    "RelationalDatabase",
    "generate_table",
    "inject_nulls",
    "generate_database",
]

NUMERIC = "numeric"
CATEGORICAL = "categorical"
TIMESTAMP = "timestamp"  # an activity table's timestamp column: its name and its cell type

# fixed clamps keeping temporal signals O(1) for well-conditioned MLP inputs
TREND_OFFSET = 0.0
TREND_BOUND = 3.0
CYCLE_LOWER = -1.0
CYCLE_UPPER = 1.0
FLUC_LOWER = -3.0
FLUC_UPPER = 3.0


# ---------------------------------------------------------------------------
# Temporal building blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TemporalParams:
    """The five draws of one source signal, named after their config fields."""

    trend_exponent: float
    trend_scale: float
    cycle_frequency: float
    cycle_scale: float
    noise_scale: float


def trend(r, total_rows, exponent, scale, offset, bound):
    """min(scale * (r / total_rows)^exponent + offset, bound) at row index r (or an array)."""
    return np.minimum(scale * (r / total_rows) ** exponent + offset, bound)


def cycle(r, period, scale, lower, upper):
    """min(max(scale * sin(pi * r / period), lower), upper) at row index r (or an array)."""
    if period <= 0:
        raise ValueError(f"cycle period must be positive, got {period}")
    return np.clip(scale * np.sin(np.pi * r / period), lower, upper)


def fluc_from_noise(noise, scale, lower, upper):
    """min(max(scale * noise, lower), upper) for given standard-normal draw(s)."""
    return np.clip(scale * noise, lower, upper)


def temporal_signal(r, num_rows: int, p: TemporalParams, rng: SeededRng):
    """Arithmetic mean of the trend, cycle, and fluctuation components at row index r.

    ``r`` may be an array of row indices; one standard-normal draw is made per index.
    """
    noise = rng.standard_normal(np.shape(r))
    return (
        trend(r, num_rows, p.trend_exponent, p.trend_scale, TREND_OFFSET, TREND_BOUND)
        + cycle(r, num_rows * p.cycle_frequency, p.cycle_scale, CYCLE_LOWER, CYCLE_UPPER)
        + fluc_from_noise(noise, p.noise_scale, FLUC_LOWER, FLUC_UPPER)
    ) / 3.0


def softmax(v: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis."""
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def categorical_source_sample(
    r, num_rows: int, category_params: tuple[TemporalParams, ...], rng: SeededRng
):
    """Draw a 1-based category from the softmax of the per-category temporal signals.

    ``r`` may be an array of row indices; one category is drawn per index.
    """
    g = np.stack([temporal_signal(r, num_rows, p, rng) for p in category_params], axis=-1)
    return rng.categorical_rows(softmax(g)) + 1


# ---------------------------------------------------------------------------
# Causal graph sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CausalGraph:
    """Typed causal DAG; feature_nodes (ascending) map to table columns in order."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    edge_weights: dict[tuple[int, int], float]
    node_types: tuple[str, ...]
    cardinalities: tuple[int | None, ...]
    feature_nodes: tuple[int, ...]

    @cached_property
    def _predecessor_lists(self) -> tuple[tuple[int, ...], ...]:
        preds: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, w in self.edges:
            preds[w].append(u)
        return tuple(tuple(sorted(p)) for p in preds)

    def predecessors(self, v: int) -> tuple[int, ...]:
        return self._predecessor_lists[v]

    @cached_property
    def live_nodes(self) -> frozenset[int]:
        """The feature nodes and their ancestors: every node a table column depends on."""
        live = set(self.feature_nodes)
        stack = list(live)
        while stack:
            for u in self.predecessors(stack.pop()):
                if u not in live:
                    live.add(u)
                    stack.append(u)
        return frozenset(live)

    def topo_order(self) -> list[int]:
        return kahn_order(self.num_nodes, self.edges)


def _total_node_count(num_feature_cols: int, config: GenConfig, rng: SeededRng) -> int:
    frac = float(draw(config.feature_node_fraction, rng))
    if config.feature_node_fraction.kind == "range-uniform":
        lo, hi = config.feature_node_fraction.payload
    else:
        lo = hi = frac
    total = math.ceil(num_feature_cols / frac)
    # ceil rounding may push the realized fraction outside [lo, hi]; clamp back
    total = min(total, math.floor(num_feature_cols / lo))
    total = max(total, math.ceil(num_feature_cols / hi), num_feature_cols)
    return total


def _sample_causal_edges(
    total: int, family: str, config: GenConfig, rng: SeededRng
) -> list[tuple[int, int]]:
    if family == "layered":
        depth = int(draw(config.layered_depth, rng))
        dropout = float(draw(config.layered_edge_dropout, rng))
        layer = rng.integers(0, depth - 1, size=total)
        # candidates (u, v) with v one layer below u, in row-major (u, v) order
        u, v = np.nonzero(layer[None, :] == layer[:, None] + 1)
        keep = rng.uniform(size=u.size) >= dropout
        return list(zip(u[keep].tolist(), v[keep].tolist()))
    if family == "erdos-renyi":
        p = float(draw(config.er_edge_prob, rng))
        u, v = np.triu_indices(total, 1)
        keep = rng.uniform(size=u.size) < p
        return orient_by_permutation(list(zip(u[keep].tolist(), v[keep].tolist())), total, rng)
    if family == "barabasi-albert":
        m = min(int(draw(config.ba_attachment, rng)), total - 1)
        if m < 1:  # one node: no edges, and barabasi_albert_edges needs m >= 1
            return []
        return orient_by_permutation(barabasi_albert_edges(total, m, rng.bits64()), total, rng)
    if family in ("random-tree", "reverse-random-tree"):
        return random_tree_dag(total, rng, toward_leaves=family == "reverse-random-tree")
    raise StructuralError(f"unhandled causal graph family {family!r}")


def sample_causal_graph(
    num_feature_cols: int, config: GenConfig, rng: SeededRng
) -> CausalGraph:
    """Sample the causal DAG for one table.

    The total node count is chosen so that exactly ``num_feature_cols`` nodes
    can be designated feature nodes at a fraction within the configured range;
    non-source nodes are preferred when picking them.
    """
    if num_feature_cols < 1:
        raise ValueError("tables need at least one feature column")
    total = _total_node_count(num_feature_cols, config, rng)
    family = draw(config.scm_graph_priors, rng)
    edges = sorted(_sample_causal_edges(total, family, config, rng))

    types = ["" for _ in range(total)]
    cards: list[int | None] = [None] * total
    type_draws = rng.uniform(size=total)
    for v in range(total):
        if type_draws[v] < 0.5:
            types[v] = NUMERIC
        else:
            types[v] = CATEGORICAL
            cards[v] = int(draw(config.num_categories, rng))

    weights = {e: float(w) for e, w in zip(edges, rng.standard_normal(len(edges)))}

    targets = {w for _, w in edges}
    non_sources = sorted(v for v in range(total) if v in targets)
    sources = sorted(v for v in range(total) if v not in targets)
    if len(non_sources) >= num_feature_cols:
        pick = rng.sample_without_replacement(len(non_sources), num_feature_cols)
        feature_nodes = sorted(non_sources[i] for i in pick)
    else:
        extra = num_feature_cols - len(non_sources)
        pick = rng.sample_without_replacement(len(sources), extra)
        feature_nodes = sorted(non_sources + [sources[i] for i in pick])

    return CausalGraph(
        num_nodes=total,
        edges=tuple(edges),
        edge_weights=weights,
        node_types=tuple(types),
        cardinalities=tuple(cards),
        feature_nodes=tuple(feature_nodes),
    )


# ---------------------------------------------------------------------------
# Mechanisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tags:
    """An MLP's init scheme and activation as drawn; its weights are drawn when it is realized."""

    scheme: str
    activation: str


@dataclass(frozen=True, eq=False)
class NodeMechanism:
    """Structure and scalars of one non-source node.

    ``foreign_proj`` holds one projector per feature column of the parent
    tables, parent by parent; ``local_proj`` one per in-graph predecessor, in
    ``graph.predecessors`` order.
    """

    exo_weight: float
    exo_beta: tuple[float, float]
    foreign_proj: tuple[Tags, ...]
    local_proj: tuple[Tags, ...]
    recon: Tags


@dataclass(frozen=True, eq=False)
class ScmSpec:
    """The live nodes of a causal graph, in topological order, bound to what they draw.

    With ``num_rows``, the row count it is built and realized for, it is its
    table's whole recipe.
    """

    graph: CausalGraph
    # the temporal draws of each source node: one set for a numeric node, one per category
    sources: dict[int, tuple[TemporalParams, ...]]
    mechanisms: dict[int, NodeMechanism]
    topo: tuple[int, ...]
    num_rows: int
    hidden_dim: int
    seed: int  # node v draws from split_seed(seed, 1 + v)


def _draw_temporal(kind: str, config: GenConfig, rng: SeededRng) -> TemporalParams:
    activity = kind == ACTIVITY
    return TemporalParams(
        float(draw(config.trend_exponent, rng)),
        float(draw(config.trend_scale_activity if activity else config.trend_scale_entity, rng)),
        float(draw(config.cycle_frequency, rng)),
        float(draw(config.cycle_scale_activity if activity else config.cycle_scale_entity, rng)),
        float(draw(config.noise_scale_activity if activity else config.noise_scale_entity, rng)),
    )


def _draw_tags(config: GenConfig, rng: SeededRng) -> Tags:
    return Tags(draw(config.mlp_init_schemes, rng), draw(config.mlp_activations, rng))


def build_scm(
    graph: CausalGraph,
    kind: str,
    num_rows: int,
    num_foreign: int,
    config: GenConfig,
    rng: SeededRng,
) -> ScmSpec:
    """Bind every live node: a source's temporal draws, a mechanism's tags and scalars.

    Only the feature nodes and their ancestors are bound, in topological
    order; a node without predecessors is a source. Every mechanism receives
    one projector per foreign feature column (``num_foreign``, over all parent
    tables) and one per in-graph predecessor, a scalar exogenous weight, a
    Beta prior for its latent exogenous input, and a reconstruction head. No
    value, Beta input, MLP or embedding array is drawn here: node ``v`` draws
    them from its own stream, that of ``rng.spawn(1 + v)``, when it is
    realized.
    """
    hidden = int(draw(config.mlp_hidden_dim, rng))
    sources: dict[int, tuple[TemporalParams, ...]] = {}
    mechanisms: dict[int, NodeMechanism] = {}
    topo = tuple(v for v in graph.topo_order() if v in graph.live_nodes)
    for v in topo:
        if not graph.predecessors(v):
            count = 1 if graph.node_types[v] == NUMERIC else int(graph.cardinalities[v])
            sources[v] = tuple(_draw_temporal(kind, config, rng) for _ in range(count))
            continue
        foreign_proj = tuple(_draw_tags(config, rng) for _ in range(num_foreign))
        local_proj = tuple(_draw_tags(config, rng) for _ in graph.predecessors(v))
        exo_weight = float(rng.standard_normal())
        exo_beta = draw(config.exogenous_priors, rng)
        mechanisms[v] = NodeMechanism(
            exo_weight=exo_weight,
            exo_beta=(float(exo_beta[0]), float(exo_beta[1])),
            foreign_proj=foreign_proj,
            local_proj=local_proj,
            recon=_draw_tags(config, rng),
        )
    return ScmSpec(graph, sources, mechanisms, topo, num_rows, hidden, rng.seed)


def _project(
    tags: Tags,
    dtype: str,
    cardinality: int | None,
    weight: float,
    values: np.ndarray,
    rng: SeededRng,
    acc: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Add the weighted projection (n, hidden) of raw input values (n,) into ``acc``.

    The projector's weights are drawn from ``rng``, a categorical input's
    embedding before its MLP, and dropped on return. The input weight is
    folded into the second-layer matrix. The MLP runs once per distinct
    input: over a numeric column's values, with its hidden layer and output
    in the first n rows of the two ``scratch`` arrays, or over a categorical
    input's C x hidden embedding table, which is then indexed by category
    one block of rows at a time.
    """
    n, hidden = acc.shape
    if dtype == NUMERIC:
        mlp, emb = init_mlp(1, hidden, tags.scheme, tags.activation, rng, hidden), None
    else:
        emb = init_embedding(int(cardinality), hidden, rng)
        mlp = init_mlp(hidden, hidden, tags.scheme, tags.activation, rng, hidden)
    w2 = mlp.w2  # scaled in place: the frozen MLP holds the same array
    w2 *= weight
    if emb is None:
        x = np.asarray(values, dtype=np.float64)[:, None]
        acc += mlp_forward(mlp, x, out=scratch[1][:n], work=scratch[0][:n])
    else:
        _gather(acc, mlp_forward(mlp, emb), np.asarray(values, dtype=np.int64) - 1)


def _gather(acc: np.ndarray, table: np.ndarray, index: np.ndarray) -> None:
    """``acc[i] += table[index[i]]`` for each row, in blocks of rows."""
    for rows in row_blocks(len(acc), acc.shape[1]):
        acc[rows] += table[index[rows]]


def realize_table_values(
    scm: ScmSpec, parents: list[tuple[GeneratedTable, np.ndarray]]
) -> dict[int, np.ndarray]:
    """Realize all rows at once: one value vector of ``scm.num_rows`` per node of ``scm.topo``.

    ``parents`` holds one pair ``(parent, fk_index)`` per foreign-key column,
    in the order ``build_scm`` counted their feature columns: the parent table
    and the 0-based parent row of each row (the foreign key minus one). Each
    parent feature column is projected once per parent row with weight
    1 / (the parent's feature count) and added into the parent's sum, which
    starts at zero; the sum is gathered once by ``fk_index``. An empty list
    is the no-parent specialization.

    Node ``v`` draws from its own stream, ``split_seed(scm.seed, 1 + v)``: a
    mechanism its exogenous Beta input, then its projector and reconstruction
    weights, just before it uses them, so the table holds one projector's
    weights at a time. The values are a function of ``scm`` and ``parents``
    alone.

    Two scratch arrays of max(rows, parent rows) x hidden are allocated once
    per table; each numeric projection and reconstruction head writes its
    hidden layer and output there. Every projection adds into its sum. A
    mechanism's sum ``u`` and a parent's summed projections are deleted once
    used, and categorical projections and gathers add one block of rows at a
    time (see the module docstring).
    """
    graph, num_rows, hidden = scm.graph, scm.num_rows, scm.hidden_dim
    num_foreign = sum(len(parent.feature_names) for parent, _ in parents)
    widths = {len(m.foreign_proj) for m in scm.mechanisms.values()}
    if widths - {num_foreign}:
        raise ValueError(
            f"the parents have {num_foreign} feature columns, the mechanisms project {sorted(widths)}"
        )
    rows = max([num_rows] + [parent.num_rows for parent, _ in parents])
    scratch = np.empty((2, rows, hidden))
    work, proj = scratch
    rs = np.arange(1, num_rows + 1, dtype=np.float64)
    values: dict[int, np.ndarray] = {}
    for v in scm.topo:
        node_rng = SeededRng(split_seed(scm.seed, 1 + v))
        if v in scm.sources:
            params = scm.sources[v]
            if graph.node_types[v] == NUMERIC:
                values[v] = temporal_signal(rs, num_rows, params[0], node_rng)
            else:
                values[v] = categorical_source_sample(rs, num_rows, params, node_rng)
            continue
        m = scm.mechanisms[v]
        # the sum is made in u's buffer, one parent's summed projections or one
        # local projection at a time; u is deleted once its node is realized,
        # so the next node's Beta draw does not hold two sums
        u = node_rng.beta(m.exo_beta[0], m.exo_beta[1], size=(num_rows, hidden))
        u *= m.exo_weight
        tags = iter(m.foreign_proj)
        for parent, fk_index in parents:
            weight = 1.0 / len(parent.feature_names)
            parent_sum = np.zeros((parent.num_rows, hidden))
            for c in parent.feature_names:
                _project(
                    next(tags), parent.feature_types[c], parent.feature_cards[c], weight,
                    parent.features[c], node_rng, parent_sum, scratch,
                )
            _gather(u, parent_sum, fk_index)
            del parent_sum
        for p, j in zip(m.local_proj, graph.predecessors(v)):
            _project(
                p, graph.node_types[j], graph.cardinalities[j], graph.edge_weights[(j, v)],
                values[j], node_rng, u, scratch,
            )
        # a reconstruction head draws its MLP before a categorical node's embedding
        if graph.node_types[v] == NUMERIC:
            recon = init_mlp(hidden, 1, m.recon.scheme, m.recon.activation, node_rng, hidden)
            values[v] = mlp_forward(recon, u, work=work[:num_rows])[:, 0]
        else:
            recon = init_mlp(hidden, hidden, m.recon.scheme, m.recon.activation, node_rng, hidden)
            emb = init_embedding(int(graph.cardinalities[v]), hidden, node_rng)
            latent = mlp_forward(recon, u, out=proj[:num_rows], work=work[:num_rows])
            values[v] = decode_category(emb, latent)
        del u
    return values


# ---------------------------------------------------------------------------
# Tables and databases
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class GeneratedTable:
    """Columnar storage for one table; primary keys are the row indices 1..num_rows."""

    name: str
    kind: str
    num_rows: int
    fk_names: tuple[str, ...]
    fk_targets: dict[str, str]
    fk_columns: dict[str, np.ndarray]
    feature_names: tuple[str, ...]
    feature_types: dict[str, str]
    feature_cards: dict[str, int | None]
    features: dict[str, np.ndarray]
    null_mask: dict[str, np.ndarray] = field(default_factory=dict)
    timestamps: np.ndarray | None = None  # int64 epoch seconds, activity tables only

    def __post_init__(self):
        for name in self.feature_names:
            if name not in self.null_mask:
                self.null_mask[name] = np.zeros(self.num_rows, dtype=bool)


@dataclass(eq=False)
class RelationalDatabase:
    """Tables in schema index order; their foreign-key columns are the table graph."""

    tables: dict[str, GeneratedTable]
    seed: int
    null_fraction: float

    @property
    def schema(self) -> SchemaGraph:
        """The table DAG its foreign keys give: an edge (p, c) when table c references table p."""
        index = {name: t for t, name in enumerate(self.tables)}
        tables = enumerate(self.tables.values())
        edges = {(index[p], c) for c, table in tables for p in table.fk_targets.values()}
        return SchemaGraph(names=tuple(index), edges=tuple(sorted(edges)))

    def table_order(self) -> list[str]:
        names = list(self.tables)
        return [names[t] for t in topological_order(self.schema)]


def _sample_timestamps(num_rows: int, t_min: int, t_max: int, rng: SeededRng) -> np.ndarray:
    """Monotone timestamps: uniform spacing by row index plus sub-spacing jitter."""
    spacing = (t_max - t_min) / num_rows
    base = t_min + spacing * np.arange(num_rows, dtype=np.float64)
    jitter = rng.uniform(0.0, spacing / 2.0, size=num_rows)
    return np.floor(base + jitter).astype(np.int64)


def generate_table(
    name: str,
    meta: TableMeta,
    parents: list[GeneratedTable],
    config: GenConfig,
    rng: SeededRng,
) -> GeneratedTable:
    """Populate one planned table: foreign keys, SCM realization, timestamps.

    ``parents`` are the tables it references, one foreign-key column each, in column order.
    """
    fk_names = tuple(f"foreign_row_{j + 1}" for j in range(len(parents)))
    fk_columns = {
        col: populate_foreign_keys(meta.num_rows, parent.num_rows, config, rng.spawn(1 + j))
        for j, (col, parent) in enumerate(zip(fk_names, parents))
    }
    rng_scm = rng.spawn(0)
    causal = sample_causal_graph(meta.num_feature_columns, config, rng_scm)
    num_foreign = sum(len(parent.feature_names) for parent in parents)
    scm = build_scm(causal, meta.kind, meta.num_rows, num_foreign, config, rng_scm)
    node_values = realize_table_values(
        scm, [(parent, fk_columns[col] - 1) for col, parent in zip(fk_names, parents)]
    )

    feature_names = tuple(f"feature_{i + 1}" for i in range(meta.num_feature_columns))
    features, ftypes, fcards = {}, {}, {}
    for col, node in zip(feature_names, causal.feature_nodes):
        features[col] = node_values[node]
        ftypes[col] = causal.node_types[node]
        fcards[col] = causal.cardinalities[node]

    timestamps = None
    if meta.kind == ACTIVITY:
        t_min = parse_date(str(draw(config.timestamp_min, rng)))
        t_max = parse_date(str(draw(config.timestamp_max, rng)))
        timestamps = _sample_timestamps(meta.num_rows, t_min, t_max, rng.spawn(9000))

    return GeneratedTable(
        name=name,
        kind=meta.kind,
        num_rows=meta.num_rows,
        fk_names=fk_names,
        fk_targets={col: parent.name for col, parent in zip(fk_names, parents)},
        fk_columns=fk_columns,
        feature_names=feature_names,
        feature_types=ftypes,
        feature_cards=fcards,
        features=features,
        timestamps=timestamps,
    )


def inject_nulls(db: RelationalDatabase, rng: SeededRng) -> RelationalDatabase:
    """NULL each feature cell independently with probability ``db.null_fraction``.

    Key and timestamp columns are never NULLed.
    """
    if not 0.0 <= db.null_fraction <= 1.0:
        raise ValueError(f"null fraction must lie in [0, 1], got {db.null_fraction}")
    for name in db.table_order():
        table = db.tables[name]
        for col in table.feature_names:
            table.null_mask[col] = rng.uniform(size=table.num_rows) < db.null_fraction
    return db


def generate_database(config: GenConfig, seed: int) -> RelationalDatabase:
    """Full pipeline for one database: schema, foreign keys, features, NULLs.

    Deterministic in (config, seed); every stage runs on its own split seed.
    """
    rng_db = SeededRng(split_seed(seed, 0))
    rng_schema = SeededRng(split_seed(seed, 1))
    graph = sample_schema_graph(config, rng_schema)
    plan = assign_table_metadata(graph, config, rng_schema)

    tables: dict[str, GeneratedTable] = {}
    for t in topological_order(graph):
        parents = [tables[graph.names[p]] for p in graph.parents(t)]
        table_rng = SeededRng(split_seed(seed, 2 + t))
        tables[graph.names[t]] = generate_table(graph.names[t], plan[t], parents, config, table_rng)

    db = RelationalDatabase(
        tables={name: tables[name] for name in graph.names},  # schema index order
        seed=seed,
        null_fraction=float(draw(config.null_fraction, rng_db)),
    )
    return inject_nulls(db, SeededRng(split_seed(seed, 10_000)))
