"""Masked-cell prediction contexts via relation-aware bounded breadth-first traversal.

A context starts at a seed feature cell, includes whole rows (all feature
cells plus the timestamp), always follows child-to-parent key links, and
subsamples parent-to-child links to a bounded fan-out, stopping at a token
budget. The fan-out cap is checked only when a child row is sampled; rows
reached through child-to-parent links are always added, so a parent row can
end up with more referencing rows than the cap. Rows timestamped after the
seed row are never included.

``bfs_context`` walks a ``RowGraph`` that its caller builds and owns, and
``build_corpus`` builds one per database; the module keeps no state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import ConfigError, SeededRng, _first_repeat, format_timestamp, split_seed
from .scm_gen import (
    CATEGORICAL,
    NUMERIC,
    TIMESTAMP,
    GeneratedTable,
    RelationalDatabase,
)

__all__ = [
    "ContextExample",
    "RowGraph",
    "bfs_context",
    "build_corpus",
    "example_to_json",
    "DEFAULT_CONTEXT_LEN",
    "DEFAULT_WIDTH",
]

DEFAULT_CONTEXT_LEN = 1024
DEFAULT_WIDTH = 128
SEED_CELL_TRIES = 1000  # seed-cell draws that may land on NULL before a corpus gives up


@dataclass(eq=False)
class ContextExample:
    """A context's rows, in the order admitted; its tokens are their cells in ``tables``."""

    db_id: str
    seed_table: str
    seed_column: str
    seed_row: int
    target_value: float | int
    target_type: str
    rows: list[tuple[str, int]]
    fk_edges: list[tuple[tuple[str, int], tuple[str, int]]]
    n_tokens: int
    tables: dict[str, GeneratedTable]


def _row_cells(table: GeneratedTable) -> int:
    """Tokens one row of ``table`` takes in a context: its feature cells and its timestamp."""
    return len(table.feature_names) + (1 if table.timestamps is not None else 0)


class RowGraph:
    """One database's rows as one graph of integer node ids, in CSR arrays, and its seed cells.

    Row ``r`` (1-based) of the ``t``-th table in ``db.table_order()`` is node
    ``start[t] + r - 1``, so nodes ascend by (table, row). Node ``g``'s parents,
    in foreign-key column order, are ``parent_ids[parent_ptr[g]:parent_ptr[g + 1]]``,
    and the nodes referencing it, ascending, are
    ``child_ids[child_ptr[g]:child_ptr[g + 1]]``. ``ts[g]`` is its row's timestamp
    (``-inf`` for an entity row) and ``cells[g]`` the tokens the row takes.
    Node ids are int32, since the count bounds keep a database under 2**31 rows;
    pointers are int64, since its links need not be; ``cells`` is int16.
    Seed cells are drawn from ``feature_cells``, the (table, column) of each
    feature column in table order, and ``feature_cum``, the cell count through each.
    It reads ``db``'s keys and timestamps once, so a graph built after an edit follows it.
    """

    def __init__(self, db: RelationalDatabase):
        self.tables = db.tables
        self.table_names = db.table_order()
        tables = [db.tables[n] for n in self.table_names]
        pos = {n: i for i, n in enumerate(self.table_names)}
        sizes = [t.num_rows for t in tables]
        self.start = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        # each table's parents as a (rows, fk columns) block, raveled row by row
        blocks = []
        for t in tables:
            block = np.empty((t.num_rows, len(t.fk_names)), dtype=np.int32)
            for j, col in enumerate(t.fk_names):
                block[:, j] = self.start[pos[t.fk_targets[col]]] - 1 + t.fk_columns[col]
            blocks.append(block.ravel())
        self.parent_ids = np.concatenate(blocks)
        fan_in = np.repeat([len(t.fk_names) for t in tables], sizes)
        self.parent_ptr = np.concatenate(([0], np.cumsum(fan_in, dtype=np.int64)))
        # a stable sort keeps each parent's children in ascending node order
        owner = np.repeat(np.arange(len(fan_in), dtype=np.int32), fan_in)
        self.child_ids = owner[np.argsort(self.parent_ids, kind="stable")]
        counts = np.bincount(self.parent_ids, minlength=len(fan_in))
        self.child_ptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        self.ts = np.concatenate(
            [
                np.full(t.num_rows, -np.inf) if t.timestamps is None else t.timestamps.astype(float)
                for t in tables
            ]
        )
        self.cells = np.repeat(np.array([_row_cells(t) for t in tables], dtype=np.int16), sizes)
        self.feature_cells = [(n, c) for n in self.table_names for c in db.tables[n].feature_names]
        self.feature_cum = np.cumsum(np.repeat(sizes, [len(t.feature_names) for t in tables]))

    def parents(self, g: int) -> list[int]:
        """Node ``g``'s parents, in foreign-key column order."""
        return self.parent_ids[self.parent_ptr[g] : self.parent_ptr[g + 1]].tolist()


def bfs_context(
    graph: RowGraph,
    seed_cell: tuple[str, str, int],
    budget: int,
    width: int,
    rng: SeededRng,
    db_id: str = "db",
) -> ContextExample:
    """One masked-cell context of ``graph``'s database around ``seed_cell`` = (table, column, row).

    Child-to-parent links are always followed. Parent-to-child links are
    subsampled: a sampled child is skipped once any parent row it references
    has ``width`` referencing rows in the context. Every added row counts
    toward its parents, but only sampled children are checked, so a row
    added through a child-to-parent link can take a parent past ``width``.
    Rows timestamped after the seed row are excluded.
    """
    seed_table, seed_column, seed_row = seed_cell
    if seed_table not in graph.tables:
        raise ValueError(f"unknown table {seed_table!r}")
    table = graph.tables[seed_table]
    if seed_column not in table.feature_names:
        raise ValueError(
            f"seed cell must be a feature cell, got column {seed_column!r} of {seed_table}"
        )
    if not 1 <= seed_row <= table.num_rows:
        raise ValueError(f"row {seed_row} outside [1, {table.num_rows}] for {seed_table}")
    if table.null_mask[seed_column][seed_row - 1]:
        raise ValueError("seed cell is NULL; nothing to predict")
    if budget < _row_cells(table):
        raise ValueError(f"budget {budget} smaller than the seed row ({_row_cells(table)} cells)")

    seed = int(graph.start[graph.table_names.index(seed_table)]) + seed_row - 1
    nodes = np.array(_walk(graph, seed, budget, width, rng))
    t = np.searchsorted(graph.start, nodes, side="right") - 1
    names = [graph.table_names[i] for i in t.tolist()]
    rows = list(zip(names, (nodes - graph.start[t] + 1).tolist()))
    row_of = dict(zip(nodes.tolist(), rows))
    fk_edges = [(row_of[g], row_of[p]) for g in row_of for p in graph.parents(g) if p in row_of]

    return ContextExample(
        db_id=db_id,
        seed_table=seed_table,
        seed_column=seed_column,
        seed_row=seed_row,
        target_value=table.features[seed_column][seed_row - 1].item(),
        target_type=table.feature_types[seed_column],
        rows=rows,
        fk_edges=fk_edges,
        n_tokens=int(graph.cells[nodes].sum()),
        tables=graph.tables,
    )


def _walk(graph: RowGraph, seed: int, budget: int, width: int, rng: SeededRng) -> list[int]:
    """Node ids in the order ``bfs_context`` admits them, up to the first that overflows ``budget``.

    ``nodes`` is also the queue: ``for g in nodes`` reaches the nodes appended while it runs.
    """
    seed_ts = graph.ts[seed]
    nodes: list[int] = []
    visited: set[int] = set()
    child_count: dict[int, int] = {}
    n_tokens = 0

    def admit(h: int) -> bool:
        nonlocal n_tokens
        n_tokens += int(graph.cells[h])
        if n_tokens > budget:
            return False
        visited.add(h)
        nodes.append(h)
        for p in graph.parents(h):
            child_count[p] = child_count.get(p, 0) + 1
        return True

    admit(seed)
    for g in nodes:
        # child-to-parent links: always follow
        for p in graph.parents(g):
            if p not in visited and graph.ts[p] <= seed_ts and not admit(p):
                return nodes
        # parent-to-child links: uniform subsample bounded by the fan-out width
        remaining = width - child_count.get(g, 0)
        if remaining <= 0:
            continue
        kids = graph.child_ids[graph.child_ptr[g] : graph.child_ptr[g + 1]]
        # a child that references g through two key columns is listed twice; take it once
        kids = dict.fromkeys(kids[graph.ts[kids] <= seed_ts].tolist())
        candidates = [c for c in kids if c not in visited]
        if not candidates:
            continue
        added = 0
        for i in rng.permutation(len(candidates)):
            if added >= remaining:
                break
            c = candidates[i]
            # adding this child must not overflow the cap of any parent it references
            if any(child_count.get(p, 0) >= width for p in graph.parents(c)):
                continue
            if not admit(c):
                return nodes
            added += 1
    return nodes


def _draw_seed_cell(graph: RowGraph, rng: SeededRng) -> tuple[str, str, int]:
    """Uniform non-NULL feature cell of ``graph``'s database."""
    for _ in range(SEED_CELL_TRIES):
        flat = int(rng.integers(0, int(graph.feature_cum[-1]) - 1))
        ci = int(np.searchsorted(graph.feature_cum, flat, side="right"))
        tname, col = graph.feature_cells[ci]
        row = flat - (int(graph.feature_cum[ci - 1]) if ci else 0) + 1
        if not graph.tables[tname].null_mask[col][row - 1]:
            return tname, col, row
    raise ConfigError("could not find a non-NULL feature cell to mask")


def build_corpus(
    dbs: Sequence[tuple[str, RelationalDatabase]],
    target_tokens: int,
    budget: int = DEFAULT_CONTEXT_LEN,
    width: int = DEFAULT_WIDTH,
    seed: int = 0,
) -> Iterator[ContextExample]:
    """Stream context examples until the cumulative token count reaches the target.

    Each example draws (database, seed cell) uniformly with replacement and
    runs on its own split seed, so examples are order-independent and the
    stream is reproducible from (dbs, seed). Each database has its own id and one ``RowGraph``.
    """
    if len(dbs) == 0:
        raise ConfigError("corpus construction needs at least one database")
    twice = _first_repeat(db_id for db_id, _ in dbs)
    if twice is not None:
        raise ConfigError(f"database id {twice} is given twice; each database needs its own")
    if width < 0:
        raise ConfigError(f"width must be non-negative, got {width}")
    widest = max((_row_cells(t) for _, db in dbs for t in db.tables.values()), default=0)
    if budget < widest:
        raise ConfigError(f"context length {budget} cannot hold the widest row ({widest} cells)")
    graphs = [RowGraph(db) for _, db in dbs]
    for (db_id, _), graph in zip(dbs, graphs):
        if not graph.feature_cum.any():
            raise ConfigError(f"database {db_id} has no feature cells")
    total = 0
    k = 0
    while total < target_tokens:
        rng = SeededRng(split_seed(seed, k))
        di = int(rng.integers(0, len(dbs) - 1))
        cell = _draw_seed_cell(graphs[di], rng)
        example = bfs_context(graphs[di], cell, budget, width, rng, db_id=dbs[di][0])
        total += example.n_tokens
        k += 1
        yield example


def _json_value(value, dtype: str):
    if dtype == NUMERIC:
        return repr(float(value))
    if dtype == CATEGORICAL:
        return int(value)
    if dtype == TIMESTAMP:
        return format_timestamp(int(value))
    raise ValueError(f"unknown cell dtype {dtype!r}")


def example_to_json(example: ContextExample) -> dict:
    """One corpus line: each row's feature cells then timestamp, the target, links, token count."""
    tokens = []
    for name, row in example.rows:
        table = example.tables[name]
        seed = name == example.seed_table and row == example.seed_row
        for col in table.feature_names:
            dtype = table.feature_types[col]
            masked = seed and col == example.seed_column
            if masked or table.null_mask[col][row - 1]:
                value = None
            else:
                value = _json_value(table.features[col][row - 1], dtype)
            tokens.append(
                {"t": name, "c": col, "r": row, "v": value, "type": dtype, "masked": masked}
            )
        if table.timestamps is not None:
            value = _json_value(table.timestamps[row - 1], TIMESTAMP)
            tokens.append(
                {"t": name, "c": TIMESTAMP, "r": row, "v": value, "type": TIMESTAMP, "masked": False}
            )
    return {
        "db_id": example.db_id,
        "seed": {
            "table": example.seed_table,
            "column": example.seed_column,
            "row": example.seed_row,
        },
        "tokens": tokens,
        "target": {
            "v": _json_value(example.target_value, example.target_type),
            "type": example.target_type,
        },
        "n_tokens": example.n_tokens,
        "links": [[list(c), list(p)] for c, p in example.fk_edges],
    }
