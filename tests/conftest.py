import math

import numpy as np
import pytest

from plurelgen.core import SeededRng, default_config, split_seed
from plurelgen.schema_gen import (
    SchemaGraph,
    TableMeta,
    assign_table_metadata,
    sample_schema_graph,
)
from plurelgen.scm_gen import GeneratedTable, RelationalDatabase


@pytest.fixture(scope="session")
def config():
    return default_config()


def tables_equal(a: GeneratedTable, b: GeneratedTable) -> bool:
    if (a.name, a.kind, a.num_rows, a.fk_names, a.feature_names) != (
        b.name,
        b.kind,
        b.num_rows,
        b.fk_names,
        b.feature_names,
    ):
        return False
    for c in a.fk_names:
        if not np.array_equal(a.fk_columns[c], b.fk_columns[c]):
            return False
    for c in a.feature_names:
        if a.feature_types[c] != b.feature_types[c]:
            return False
        if not np.array_equal(a.features[c], b.features[c]):
            return False
        if not np.array_equal(a.null_mask[c], b.null_mask[c]):
            return False
    if (a.timestamps is None) != (b.timestamps is None):
        return False
    if a.timestamps is not None and not np.array_equal(a.timestamps, b.timestamps):
        return False
    return True


def databases_equal(a: RelationalDatabase, b: RelationalDatabase) -> bool:
    if a.schema.names != b.schema.names or a.schema.edges != b.schema.edges:
        return False
    return all(tables_equal(a.tables[n], b.tables[n]) for n in a.table_order())


def row_timestamp(db: RelationalDatabase, table: str, row: int) -> float:
    """Row ``row`` (1-based) of ``table``'s timestamp, read from the table; ``-inf`` if it has none."""
    stamps = db.tables[table].timestamps
    return -math.inf if stamps is None else float(stamps[row - 1])


def make_table(
    name,
    num_rows,
    feature_values: dict,
    feature_types: dict,
    fk: dict | None = None,
    fk_targets: dict | None = None,
    timestamps=None,
    kind="entity",
) -> GeneratedTable:
    """Hand-built table for corpus/analysis tests."""
    fk = fk or {}
    return GeneratedTable(
        name=name,
        kind=kind,
        num_rows=num_rows,
        fk_names=tuple(fk.keys()),
        fk_targets=fk_targets or {},
        fk_columns={k: np.asarray(v, dtype=np.int64) for k, v in fk.items()},
        feature_names=tuple(feature_values.keys()),
        feature_types=dict(feature_types),
        feature_cards={k: None for k in feature_values},
        features={
            k: np.asarray(v, dtype=np.int64 if feature_types[k] == "categorical" else np.float64)
            for k, v in feature_values.items()
        },
        timestamps=None if timestamps is None else np.asarray(timestamps, dtype=np.int64),
    )


def make_database(tables: list[GeneratedTable]) -> RelationalDatabase:
    """Hand-built tables as a database; its table graph is their foreign keys."""
    return RelationalDatabase(tables={t.name: t for t in tables}, seed=0, null_fraction=0.0)


def generation_plan(config, seed: int) -> tuple[SchemaGraph, tuple[TableMeta, ...]]:
    """The schema graph and table plan that ``generate_database(config, seed)`` samples."""
    rng = SeededRng(split_seed(seed, 1))
    graph = sample_schema_graph(config, rng)
    return graph, assign_table_metadata(graph, config, rng)


def feature_ancestors(graph) -> set[int]:
    """A causal graph's feature nodes and every node with a path to one.

    Written apart from ``CausalGraph.live_nodes``: the fixed point of adding
    the tails of edges into the set.
    """
    live = set(graph.feature_nodes)
    while True:
        grown = live | {u for u, w in graph.edges if w in live}
        if grown == live:
            return live
        live = grown
