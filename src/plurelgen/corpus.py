"""Masked-cell prediction contexts via relation-aware bounded breadth-first traversal.

A context starts at a seed feature cell, includes whole rows (all feature
cells plus the timestamp), always follows child-to-parent key links, and
subsamples parent-to-child links to a bounded fan-out, stopping at a token
budget. The fan-out cap is checked only when a child row is sampled; rows
reached through child-to-parent links are always added, so a parent row can
end up with more referencing rows than the cap. Rows timestamped after the
seed row are never included.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import ConfigError, SeededRng, format_timestamp, split_seed
from .scm_gen import (
    CATEGORICAL,
    NUMERIC,
    TIMESTAMP,
    GeneratedTable,
    RelationalDatabase,
)

__all__ = [
    "ContextExample",
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


class _DbIndex:
    """Link lookups for one database: per-row parents and sorted child indices."""

    def __init__(self, db: RelationalDatabase):
        self.table_names = db.table_order()
        self.tables: list[GeneratedTable] = [db.tables[n] for n in self.table_names]
        self.pos = {n: i for i, n in enumerate(self.table_names)}
        # child_edges[parent_pos] = [(child_pos, fk_col), ...] ordered by child table
        self.child_edges: list[list[tuple[int, str]]] = [[] for _ in self.tables]
        self.child_sorted: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] = {}
        for ci, child in enumerate(self.tables):
            for fk_col in child.fk_names:
                pi = self.pos[child.fk_targets[fk_col]]
                self.child_edges[pi].append((ci, fk_col))
                order = np.argsort(child.fk_columns[fk_col], kind="stable")
                self.child_sorted[(ci, fk_col)] = (
                    child.fk_columns[fk_col][order],
                    order,
                )
        for edges in self.child_edges:
            edges.sort()

    def row_timestamp(self, t: int, row: int) -> float:
        ts = self.tables[t].timestamps
        return float(ts[row - 1]) if ts is not None else -math.inf

    def parents_of(self, t: int, row: int) -> list[tuple[int, int]]:
        """(parent_pos, parent_row) per foreign-key column, in column order."""
        table = self.tables[t]
        return [
            (self.pos[table.fk_targets[col]], int(table.fk_columns[col][row - 1]))
            for col in table.fk_names
        ]

    def children_of(self, t: int, row: int) -> list[tuple[int, int]]:
        """All rows referencing (t, row), ascending by (child table, row index)."""
        out: list[tuple[int, int]] = []
        for ci, fk_col in self.child_edges[t]:
            sorted_fk, order = self.child_sorted[(ci, fk_col)]
            lo = np.searchsorted(sorted_fk, row, side="left")
            hi = np.searchsorted(sorted_fk, row, side="right")
            # a stable argsort keeps the rows of one key ascending
            out.extend((ci, int(r) + 1) for r in order[lo:hi])
        return out


def _row_cells(table: GeneratedTable) -> int:
    """Tokens one row of ``table`` takes in a context: its feature cells and its timestamp."""
    return len(table.feature_names) + (1 if table.timestamps is not None else 0)


_index_cache: "weakref.WeakKeyDictionary[RelationalDatabase, _DbIndex]" = (
    weakref.WeakKeyDictionary()
)


def _index_for(db: RelationalDatabase) -> _DbIndex:
    idx = _index_cache.get(db)
    if idx is None:
        idx = _DbIndex(db)
        _index_cache[db] = idx
    return idx


def bfs_context(
    db: RelationalDatabase,
    seed_cell: tuple[str, str, int],
    budget: int = DEFAULT_CONTEXT_LEN,
    width: int = DEFAULT_WIDTH,
    rng: SeededRng | None = None,
    db_id: str = "db",
) -> ContextExample:
    """Build one masked-cell context around ``seed_cell`` = (table, column, row).

    Child-to-parent links are always followed. Parent-to-child links are
    subsampled: a sampled child is skipped once any parent row it references
    has ``width`` referencing rows in the context. Every added row counts
    toward its parents, but only sampled children are checked, so a row
    added through a child-to-parent link can take a parent past ``width``.
    Rows timestamped after the seed row are excluded.
    """
    if rng is None:
        rng = SeededRng(0)
    idx = _index_for(db)
    seed_table, seed_column, seed_row = seed_cell
    if seed_table not in idx.pos:
        raise ValueError(f"unknown table {seed_table!r}")
    t0 = idx.pos[seed_table]
    table = idx.tables[t0]
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

    seed_ts = idx.row_timestamp(t0, seed_row)

    n_tokens = 0
    rows: list[tuple[str, int]] = []
    visited: set[tuple[int, int]] = set()
    child_count: dict[tuple[int, int], int] = {}
    queue: deque[tuple[int, int]] = deque()
    stopped = False

    def admissible(t: int, r: int) -> bool:
        return idx.row_timestamp(t, r) <= seed_ts

    def add_row(t: int, r: int) -> bool:
        nonlocal n_tokens, stopped
        cells = _row_cells(idx.tables[t])
        if n_tokens + cells > budget:
            stopped = True
            return False
        visited.add((t, r))
        n_tokens += cells
        rows.append((idx.table_names[t], r))
        for pt, pr in idx.parents_of(t, r):
            child_count[(pt, pr)] = child_count.get((pt, pr), 0) + 1
        queue.append((t, r))
        return True

    add_row(t0, seed_row)
    while queue and not stopped:
        t, r = queue.popleft()
        # child-to-parent links: always follow
        for pt, pr in idx.parents_of(t, r):
            if (pt, pr) in visited or not admissible(pt, pr):
                continue
            if not add_row(pt, pr):
                break
        if stopped:
            break
        # parent-to-child links: uniform subsample bounded by the fan-out width
        remaining = width - child_count.get((t, r), 0)
        if remaining <= 0:
            continue
        candidates = [
            (ct, cr)
            for ct, cr in idx.children_of(t, r)
            if (ct, cr) not in visited and admissible(ct, cr)
        ]
        if not candidates:
            continue
        added = 0
        for i in rng.permutation(len(candidates)):
            if added >= remaining:
                break
            ct, cr = candidates[int(i)]
            # adding this child must not overflow the cap of any parent it references
            if any(
                child_count.get((pt, pr), 0) >= width
                for pt, pr in idx.parents_of(ct, cr)
            ):
                continue
            if not add_row(ct, cr):
                break
            added += 1

    fk_edges = [
        ((name, r), (idx.table_names[pt], pr))
        for name, r in rows
        for pt, pr in idx.parents_of(idx.pos[name], r)
        if (pt, pr) in visited
    ]

    return ContextExample(
        db_id=db_id,
        seed_table=seed_table,
        seed_column=seed_column,
        seed_row=seed_row,
        target_value=table.features[seed_column][seed_row - 1].item(),
        target_type=table.feature_types[seed_column],
        rows=rows,
        fk_edges=fk_edges,
        n_tokens=n_tokens,
        tables=db.tables,
    )


def _feature_cell_catalog(db: RelationalDatabase) -> tuple[list[tuple[str, str]], np.ndarray]:
    """(table, column) per feature column, in schema order, and the cell count through each."""
    cells = [(name, col) for name in db.table_order() for col in db.tables[name].feature_names]
    return cells, np.cumsum([db.tables[name].num_rows for name, _ in cells], dtype=np.int64)


def _draw_seed_cell(
    db: RelationalDatabase, cells: list[tuple[str, str]], cum: np.ndarray, rng: SeededRng
) -> tuple[str, str, int]:
    """Uniform non-NULL feature cell of one database, from its ``_feature_cell_catalog``."""
    for _ in range(SEED_CELL_TRIES):
        flat = int(rng.integers(0, int(cum[-1]) - 1))
        ci = int(np.searchsorted(cum, flat, side="right"))
        tname, col = cells[ci]
        row = flat - (int(cum[ci - 1]) if ci else 0) + 1
        if not db.tables[tname].null_mask[col][row - 1]:
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
    stream is reproducible from (dbs, seed).
    """
    if len(dbs) == 0:
        raise ConfigError("corpus construction needs at least one database")
    if width < 0:
        raise ConfigError(f"width must be non-negative, got {width}")
    widest = max((_row_cells(t) for _, db in dbs for t in db.tables.values()), default=0)
    if budget < widest:
        raise ConfigError(f"context length {budget} cannot hold the widest row ({widest} cells)")
    catalogs = [_feature_cell_catalog(db) for _, db in dbs]
    if not all(cells for cells, _ in catalogs):
        raise ConfigError("database has no feature cells")
    total = 0
    k = 0
    while total < target_tokens:
        rng = SeededRng(split_seed(seed, k))
        di = int(rng.integers(0, len(dbs) - 1))
        db_id, db = dbs[di]
        cell = _draw_seed_cell(db, *catalogs[di], rng)
        example = bfs_context(db, cell, budget, width, rng, db_id=db_id)
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
