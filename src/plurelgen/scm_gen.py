"""Stage 3: per-table structural causal models with temporal exogenous inputs.

Each table owns a causal DAG over typed nodes. Source nodes are driven by
trend/cycle/fluctuation signals of the row index; every other node projects
its in-graph predecessors and the feature values of parent-table rows (looked
up through the sampled foreign keys) into a shared latent space, aggregates,
and reconstructs a value of its own type. Feature-node values become table
cells.

Projections run once per distinct input and are then gathered: a parent
feature column is projected at parent-row granularity and the result is
gathered through the foreign key, and a categorical input projects its
embedding table once and indexes it by category. An MLP acts on each row
alone, so this gives the values of projecting every gathered row. They agree
bit for bit on OpenBLAS at the default hidden width of 32; a one-row batch
(a one-row table, or a one-category input), which numpy hands to a
matrix-vector routine, and hidden widths of 300 or more can round the last
bit differently.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import networkx as nx
import numpy as np

from .core import GenConfig, SeededRng, StructuralError, draw, parse_date, split_seed
from .fk_gen import populate_foreign_keys
from .neural import (
    EmbeddingMatrix,
    TinyMlp,
    decode_category,
    init_embedding,
    init_mlp,
    mlp_forward,
)
from .schema_gen import (
    ACTIVITY,
    SchemaGraph,
    assign_table_metadata,
    kahn_order,
    orient_by_permutation,
    orient_tree,
    random_tree_edges,
    sample_schema_graph,
    topological_order,
)

__all__ = [
    "NUMERIC",
    "CATEGORICAL",
    "TrendParams",
    "CycleParams",
    "FlucParams",
    "TemporalParams",
    "trend",
    "cycle",
    "fluc_from_noise",
    "temporal_signal",
    "softmax",
    "categorical_source_sample",
    "aggregate_latent",
    "CausalGraph",
    "sample_causal_graph",
    "ForeignFeatureRef",
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
class TrendParams:
    exponent: float
    scale: float
    offset: float
    bound: float
    total_rows: int


@dataclass(frozen=True)
class CycleParams:
    period: float
    scale: float
    lower: float
    upper: float


@dataclass(frozen=True)
class FlucParams:
    scale: float
    lower: float
    upper: float


@dataclass(frozen=True)
class TemporalParams:
    trend: TrendParams
    cycle: CycleParams
    fluc: FlucParams


def trend(r, p: TrendParams):
    """min(scale * (r / total_rows)^exponent + offset, bound) at row index r (or an array)."""
    return np.minimum(p.scale * (r / p.total_rows) ** p.exponent + p.offset, p.bound)


def cycle(r, p: CycleParams):
    """min(max(scale * sin(pi * r / period), lower), upper) at row index r (or an array)."""
    if p.period <= 0:
        raise ValueError(f"cycle period must be positive, got {p.period}")
    return np.clip(p.scale * np.sin(np.pi * r / p.period), p.lower, p.upper)


def fluc_from_noise(p: FlucParams, noise):
    """min(max(scale * noise, lower), upper) for given standard-normal draw(s)."""
    return np.clip(p.scale * noise, p.lower, p.upper)


def temporal_signal(r, p: TemporalParams, rng: SeededRng):
    """Arithmetic mean of the trend, cycle, and fluctuation components at row index r.

    ``r`` may be an array of row indices; one standard-normal draw is made per index.
    """
    noise = rng.standard_normal(np.shape(r))
    return (trend(r, p.trend) + cycle(r, p.cycle) + fluc_from_noise(p.fluc, noise)) / 3.0


def softmax(v: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis."""
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def categorical_source_sample(r, category_params: tuple[TemporalParams, ...], rng: SeededRng):
    """Draw a 1-based category from the softmax of the per-category temporal signals.

    ``r`` may be an array of row indices; one category is drawn per index.
    """
    g = np.stack([temporal_signal(r, p, rng) for p in category_params], axis=-1)
    return rng.categorical_rows(softmax(g)) + 1


def aggregate_latent(
    u: np.ndarray, w_u: float, projected: Iterable[np.ndarray], weights: list[float]
) -> np.ndarray:
    """w_u * u + sum_k w_k * e_k; accepts (d,) vectors or (n, d) batches.

    ``projected`` may be a generator; each e_k is read once, in order.
    """
    out = w_u * np.asarray(u, dtype=np.float64)  # a new array, so the sum below leaves u alone
    for w_k, e_k in zip(weights, projected):
        out += w_k * e_k
    return out


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

    @property
    def source_nodes(self) -> tuple[int, ...]:
        targets = {w for _, w in self.edges}
        return tuple(v for v in range(self.num_nodes) if v not in targets)

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
    total = max(total, math.ceil(num_feature_cols / hi), num_feature_cols, 2)
    return total


def _sample_causal_edges(
    total: int, family: str, config: GenConfig, rng: SeededRng
) -> list[tuple[int, int]]:
    if family == "layered":
        depth = int(draw(config.layered_depth, rng))
        dropout = float(draw(config.layered_edge_dropout, rng))
        layer = rng.integers(0, depth - 1, size=total)
        cand = [
            (u, v)
            for u in range(total)
            for v in range(total)
            if layer[v] == layer[u] + 1
        ]
        keep = rng.uniform(size=len(cand)) >= dropout
        return [e for e, k in zip(cand, keep) if k]
    if family == "erdos-renyi":
        p = float(draw(config.er_edge_prob, rng))
        cand = [(u, v) for u in range(total) for v in range(u + 1, total)]
        keep = rng.uniform(size=len(cand)) < p
        und = [e for e, k in zip(cand, keep) if k]
        return orient_by_permutation(und, total, rng)
    if family == "barabasi-albert":
        m = min(int(draw(config.ba_attachment, rng)), total - 1)
        base = nx.barabasi_albert_graph(total, m, seed=rng.bits64())
        und = sorted((min(u, v), max(u, v)) for u, v in base.edges())
        return orient_by_permutation(und, total, rng)
    if family in ("random-tree", "reverse-random-tree"):
        tree = random_tree_edges(total, rng)
        root = int(rng.integers(0, total - 1))
        return orient_tree(tree, total, root, toward_leaves=family == "reverse-random-tree")
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
class ForeignFeatureRef:
    """One feature column of a parent table feeding every non-source mechanism."""

    parent: str
    column: str
    dtype: str
    cardinality: int | None
    weight: float  # uniform 1 / (parent's feature-node count)


@dataclass(frozen=True, eq=False)
class InputProjector:
    mlp: TinyMlp
    embedding: EmbeddingMatrix | None
    weight: float


@dataclass(frozen=True, eq=False)
class NodeMechanism:
    exo_weight: float
    exo_beta: tuple[float, float]
    foreign_proj: tuple[InputProjector, ...]
    local_inputs: tuple[int, ...]
    local_proj: tuple[InputProjector, ...]
    recon_mlp: TinyMlp
    recon_embedding: EmbeddingMatrix | None


@dataclass(frozen=True, eq=False)
class SourceMechanism:
    temporal: TemporalParams | None = None
    category_temporals: tuple[TemporalParams, ...] | None = None


@dataclass(frozen=True, eq=False)
class ScmSpec:
    graph: CausalGraph
    foreign_refs: tuple[ForeignFeatureRef, ...]
    sources: dict[int, SourceMechanism]
    mechanisms: dict[int, NodeMechanism]
    topo: tuple[int, ...]
    hidden_dim: int


def _draw_temporal(kind: str, num_rows: int, config: GenConfig, rng: SeededRng) -> TemporalParams:
    activity = kind == ACTIVITY
    exponent = float(draw(config.trend_exponent, rng))
    t_scale = float(draw(config.trend_scale_activity if activity else config.trend_scale_entity, rng))
    freq = float(draw(config.cycle_frequency, rng))
    c_scale = float(draw(config.cycle_scale_activity if activity else config.cycle_scale_entity, rng))
    n_scale = float(draw(config.noise_scale_activity if activity else config.noise_scale_entity, rng))
    return TemporalParams(
        trend=TrendParams(exponent, t_scale, TREND_OFFSET, TREND_BOUND, num_rows),
        cycle=CycleParams(num_rows * freq, c_scale, CYCLE_LOWER, CYCLE_UPPER),
        fluc=FlucParams(n_scale, FLUC_LOWER, FLUC_UPPER),
    )


def _make_projector(
    dtype: str, cardinality: int | None, weight: float, hidden: int, config: GenConfig, rng: SeededRng
) -> InputProjector:
    scheme = draw(config.mlp_init_schemes, rng)
    act = draw(config.mlp_activations, rng)
    if dtype == NUMERIC:
        return InputProjector(
            mlp=init_mlp(1, hidden, scheme, act, rng, hidden), embedding=None, weight=weight
        )
    emb = init_embedding(int(cardinality), hidden, rng)
    return InputProjector(
        mlp=init_mlp(hidden, hidden, scheme, act, rng, hidden), embedding=emb, weight=weight
    )


def build_scm(
    graph: CausalGraph,
    kind: str,
    num_rows: int,
    foreign_refs: tuple[ForeignFeatureRef, ...],
    config: GenConfig,
    rng: SeededRng,
) -> ScmSpec:
    """Bind every mechanism parameter: projectors, weights, exogenous priors.

    Every non-source node receives one projector per foreign feature column
    (all parents) and one per in-graph predecessor, a scalar exogenous weight,
    a Beta prior for its latent exogenous input, and a reconstruction head of
    its own data type.
    """
    hidden = int(draw(config.mlp_hidden_dim, rng))
    sources: dict[int, SourceMechanism] = {}
    mechanisms: dict[int, NodeMechanism] = {}
    topo = graph.topo_order()
    source_set = set(graph.source_nodes)
    for v in topo:
        if v in source_set:
            if graph.node_types[v] == NUMERIC:
                sources[v] = SourceMechanism(
                    temporal=_draw_temporal(kind, num_rows, config, rng)
                )
            else:
                cats = tuple(
                    _draw_temporal(kind, num_rows, config, rng)
                    for _ in range(int(graph.cardinalities[v]))
                )
                sources[v] = SourceMechanism(category_temporals=cats)
            continue
        foreign_proj = tuple(
            _make_projector(ref.dtype, ref.cardinality, ref.weight, hidden, config, rng)
            for ref in foreign_refs
        )
        local_inputs = graph.predecessors(v)
        local_proj = tuple(
            _make_projector(
                graph.node_types[u],
                graph.cardinalities[u],
                graph.edge_weights[(u, v)],
                hidden,
                config,
                rng,
            )
            for u in local_inputs
        )
        exo_weight = float(rng.standard_normal())
        exo_beta = draw(config.exogenous_priors, rng)
        scheme = draw(config.mlp_init_schemes, rng)
        act = draw(config.mlp_activations, rng)
        if graph.node_types[v] == NUMERIC:
            recon = init_mlp(hidden, 1, scheme, act, rng, hidden)
            recon_emb = None
        else:
            recon = init_mlp(hidden, hidden, scheme, act, rng, hidden)
            recon_emb = init_embedding(int(graph.cardinalities[v]), hidden, rng)
        mechanisms[v] = NodeMechanism(
            exo_weight=exo_weight,
            exo_beta=(float(exo_beta[0]), float(exo_beta[1])),
            foreign_proj=foreign_proj,
            local_inputs=local_inputs,
            local_proj=local_proj,
            recon_mlp=recon,
            recon_embedding=recon_emb,
        )
    return ScmSpec(
        graph=graph,
        foreign_refs=foreign_refs,
        sources=sources,
        mechanisms=mechanisms,
        topo=tuple(topo),
        hidden_dim=hidden,
    )


def _project_batch(proj: InputProjector, values: np.ndarray) -> np.ndarray:
    """Project raw input values (n,) into the latent space (n, hidden).

    A categorical input projects its C x hidden embedding table once and
    indexes the result by category.
    """
    if proj.embedding is None:
        return mlp_forward(proj.mlp, np.asarray(values, dtype=np.float64)[:, None])
    return mlp_forward(proj.mlp, proj.embedding.rows)[np.asarray(values, dtype=np.int64) - 1]


def _projected_inputs(
    m: NodeMechanism,
    foreign_values: list[tuple[np.ndarray, np.ndarray]],
    values: dict[int, np.ndarray],
):
    """The mechanism's projected inputs (num_rows, hidden), foreign then local.

    Yielded one at a time, so aggregation holds one projected input at once.
    """
    for proj, (parent_values, fk_index) in zip(m.foreign_proj, foreign_values):
        yield _project_batch(proj, parent_values)[fk_index]
    for proj, j in zip(m.local_proj, m.local_inputs):
        yield _project_batch(proj, values[j])


def realize_table_values(
    scm: ScmSpec,
    num_rows: int,
    foreign_values: list[tuple[np.ndarray, np.ndarray]],
    rng: SeededRng,
) -> dict[int, np.ndarray]:
    """Realize all rows at once: one value vector of length num_rows per node.

    foreign_values must align with scm.foreign_refs. Each entry is a pair
    ``(parent_values, fk_index)``: the parent's feature column at parent-row
    granularity, and the 0-based parent row of each of the num_rows rows
    (the foreign key minus one). The column is projected once per parent row
    and the projection is gathered by ``fk_index``. An empty list is the
    no-parent specialization.
    """
    if len(foreign_values) != len(scm.foreign_refs):
        raise ValueError(
            f"expected {len(scm.foreign_refs)} foreign value columns, got {len(foreign_values)}"
        )
    rs = np.arange(1, num_rows + 1, dtype=np.float64)
    values: dict[int, np.ndarray] = {}
    for v in scm.topo:
        if v in scm.sources:
            sm = scm.sources[v]
            if sm.temporal is not None:
                values[v] = temporal_signal(rs, sm.temporal, rng)
            else:
                values[v] = categorical_source_sample(rs, sm.category_temporals, rng)
            continue
        m = scm.mechanisms[v]
        u = rng.beta(m.exo_beta[0], m.exo_beta[1], size=(num_rows, scm.hidden_dim))
        weights = [proj.weight for proj in m.foreign_proj] + [
            proj.weight for proj in m.local_proj
        ]
        e = aggregate_latent(u, m.exo_weight, _projected_inputs(m, foreign_values, values), weights)
        if m.recon_embedding is None:
            values[v] = mlp_forward(m.recon_mlp, e)[:, 0]
        else:
            values[v] = decode_category(m.recon_embedding, mlp_forward(m.recon_mlp, e))
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
    schema: SchemaGraph
    tables: dict[str, GeneratedTable]
    seed: int
    null_fraction: float

    def table_order(self) -> list[str]:
        return [self.schema.names[t] for t in topological_order(self.schema)]


def _sample_timestamps(num_rows: int, t_min: int, t_max: int, rng: SeededRng) -> np.ndarray:
    """Monotone timestamps: uniform spacing by row index plus sub-spacing jitter."""
    spacing = (t_max - t_min) / num_rows
    base = t_min + spacing * np.arange(num_rows, dtype=np.float64)
    jitter = rng.uniform(0.0, spacing / 2.0, size=num_rows)
    return np.floor(base + jitter).astype(np.int64)


def _foreign_refs_for(
    table_index: int, graph: SchemaGraph, generated: dict[str, GeneratedTable]
) -> tuple[ForeignFeatureRef, ...]:
    refs: list[ForeignFeatureRef] = []
    meta = graph.meta[table_index]
    for p in meta.fk_parents:
        parent = generated[graph.names[p]]
        w = 1.0 / len(parent.feature_names)
        for col in parent.feature_names:
            refs.append(
                ForeignFeatureRef(
                    parent=parent.name,
                    column=col,
                    dtype=parent.feature_types[col],
                    cardinality=parent.feature_cards[col],
                    weight=w,
                )
            )
    return tuple(refs)


def generate_table(
    table_index: int,
    graph: SchemaGraph,
    config: GenConfig,
    generated: dict[str, GeneratedTable],
    rng: SeededRng,
) -> GeneratedTable:
    """Populate one table: foreign keys, SCM realization, timestamps.

    All parent tables must already be present in ``generated``.
    """
    if graph.meta is None:
        raise StructuralError("schema metadata missing; run assign_table_metadata first")
    meta = graph.meta[table_index]
    name = graph.names[table_index]
    for p in meta.fk_parents:
        if graph.names[p] not in generated:
            raise StructuralError(f"parent {graph.names[p]} of {name} not generated yet")

    fk_names, fk_targets, fk_columns = [], {}, {}
    for j, p in enumerate(meta.fk_parents):
        parent = generated[graph.names[p]]
        col_name = f"foreign_row_{j + 1}"
        fk_names.append(col_name)
        fk_targets[col_name] = parent.name
        fk_columns[col_name] = populate_foreign_keys(
            meta.num_rows, parent.num_rows, config, rng.spawn(1 + j)
        )

    rng_scm = rng.spawn(0)
    causal = sample_causal_graph(meta.num_feature_columns, config, rng_scm)
    foreign_refs = _foreign_refs_for(table_index, graph, generated)
    scm = build_scm(causal, meta.kind, meta.num_rows, foreign_refs, config, rng_scm)

    fk_index = {fk_targets[n]: fk_columns[n] - 1 for n in fk_names}
    foreign_values = [
        (generated[ref.parent].features[ref.column], fk_index[ref.parent])
        for ref in scm.foreign_refs
    ]
    node_values = realize_table_values(scm, meta.num_rows, foreign_values, rng_scm)

    feature_names = tuple(f"feature_{i + 1}" for i in range(meta.num_feature_columns))
    features, ftypes, fcards = {}, {}, {}
    for col, node in zip(feature_names, causal.feature_nodes):
        features[col] = node_values[node]
        ftypes[col] = causal.node_types[node]
        fcards[col] = causal.cardinalities[node]

    timestamps = None
    if meta.has_timestamp:
        t_min = parse_date(str(draw(config.timestamp_min, rng)))
        t_max = parse_date(str(draw(config.timestamp_max, rng)))
        timestamps = _sample_timestamps(meta.num_rows, t_min, t_max, rng.spawn(9000))

    return GeneratedTable(
        name=name,
        kind=meta.kind,
        num_rows=meta.num_rows,
        fk_names=tuple(fk_names),
        fk_targets=fk_targets,
        fk_columns=fk_columns,
        feature_names=feature_names,
        feature_types=ftypes,
        feature_cards=fcards,
        features=features,
        timestamps=timestamps,
    )


def inject_nulls(db: RelationalDatabase, fraction: float, rng: SeededRng) -> RelationalDatabase:
    """NULL each feature cell independently with the given probability.

    Key and timestamp columns are never NULLed.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"null fraction must lie in [0, 1], got {fraction}")
    for name in db.table_order():
        table = db.tables[name]
        for col in table.feature_names:
            table.null_mask[col] = rng.uniform(size=table.num_rows) < fraction
    return db


def generate_database(config: GenConfig, seed: int) -> RelationalDatabase:
    """Full pipeline for one database: schema, foreign keys, features, NULLs.

    Deterministic in (config, seed); every stage runs on its own split seed.
    """
    rng_db = SeededRng(split_seed(seed, 0))
    rng_schema = SeededRng(split_seed(seed, 1))
    graph = sample_schema_graph(config, rng_schema)
    graph = assign_table_metadata(graph, config, rng_schema)

    tables: dict[str, GeneratedTable] = {}
    for t in topological_order(graph):
        table_rng = SeededRng(split_seed(seed, 2 + t))
        tables[graph.names[t]] = generate_table(t, graph, config, tables, table_rng)

    db = RelationalDatabase(
        schema=graph,
        tables=tables,
        seed=seed,
        null_fraction=float(draw(config.null_fraction, rng_db)),
    )
    return inject_nulls(db, db.null_fraction, SeededRng(split_seed(seed, 10_000)))
