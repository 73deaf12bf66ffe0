"""Deterministic output layout and file formats.

Each database lives in ``<root>/db_<index>/`` with ``schema.json``,
``meta.json``, and one RFC-4180 CSV per table under ``tables/``. NULL cells
serialize as empty fields, numerics as shortest round-trip decimals,
categoricals as integers, timestamps as ISO-8601 UTC.

Table rows are joined with commas unquoted: no header name or cell (an
integer, a float repr, an empty NULL, an ISO timestamp) holds a comma, quote
or line break, and ``row_idx`` is never empty, so no row is one empty field.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ConfigError, format_timestamp, parse_date
from .corpus import example_to_json
from .schema_gen import SchemaGraph, TableMeta
from .scm_gen import (
    CATEGORICAL,
    NUMERIC,
    GeneratedTable,
    RelationalDatabase,
)

__all__ = [
    "OutputLayout",
    "database_schema_dict",
    "save_database",
    "load_database",
    "find_database_dirs",
    "write_json",
    "write_corpus_file",
    "read_points_csv",
    "write_profile_csv",
]

TIMESTAMP_COLUMN = "timestamp"


@dataclass(frozen=True)
class OutputLayout:
    """Paths under a root directory, deterministic in (root, index)."""

    root: Path

    def db_dir(self, index: int) -> Path:
        return Path(self.root) / f"db_{index}"

    @staticmethod
    def schema_path(db_dir) -> Path:
        return Path(db_dir) / "schema.json"

    @staticmethod
    def meta_path(db_dir) -> Path:
        return Path(db_dir) / "meta.json"

    @staticmethod
    def tables_dir(db_dir) -> Path:
        return Path(db_dir) / "tables"


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# schema.json
# ---------------------------------------------------------------------------


def database_schema_dict(db: RelationalDatabase) -> dict:
    tables = []
    for name in db.schema.names:  # index order, so loading by position round-trips
        table = db.tables[name]
        columns = [{"name": "row_idx", "role": "pk", "dtype": "int"}]
        for fk in table.fk_names:
            columns.append(
                {"name": fk, "role": "fk", "dtype": "int", "fk_target": table.fk_targets[fk]}
            )
        for col in table.feature_names:
            dtype, card = table.feature_types[col], table.feature_cards[col]
            columns.append({"name": col, "role": "feature", "dtype": dtype, "cardinality": card})
        if table.timestamps is not None:
            columns.append({"name": TIMESTAMP_COLUMN, "role": "timestamp", "dtype": "timestamp"})
        tables.append(
            {"name": name, "kind": table.kind, "num_rows": table.num_rows, "columns": columns}
        )
    edges = [
        [db.schema.names[p], db.schema.names[c]] for p, c in sorted(db.schema.edges)
    ]
    return {"tables": tables, "edges": edges}


# ---------------------------------------------------------------------------
# Table CSVs
# ---------------------------------------------------------------------------


CSV_BLOCK_ROWS = 1024  # rows rendered at a time, so memory does not grow with the table


def _feature_text(values: np.ndarray, dtype: str, mask: np.ndarray) -> list[str]:
    """One feature column as CSV text; NULL cells are empty."""
    if dtype == NUMERIC:
        text = list(map(repr, np.asarray(values, dtype=np.float64).tolist()))
    elif dtype == CATEGORICAL:
        text = list(map(str, np.asarray(values, dtype=np.int64).tolist()))
    else:
        raise ValueError(f"unknown feature dtype {dtype!r}")
    for r in np.flatnonzero(mask).tolist():
        text[r] = ""
    return text


def write_table_csv(table: GeneratedTable, path) -> None:
    header = ["row_idx", *table.fk_names, *table.feature_names]
    if table.timestamps is not None:
        header.append(TIMESTAMP_COLUMN)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, table.num_rows, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, table.num_rows)
            columns = [map(str, range(lo + 1, hi + 1))]
            columns.extend(
                map(str, np.asarray(table.fk_columns[c][lo:hi], dtype=np.int64).tolist())
                for c in table.fk_names
            )
            columns.extend(
                _feature_text(
                    table.features[c][lo:hi], table.feature_types[c], table.null_mask[c][lo:hi]
                )
                for c in table.feature_names
            )
            if table.timestamps is not None:
                columns.append(format_timestamp(table.timestamps[lo:hi]).tolist())
            fh.write("".join(",".join(row) + "\n" for row in zip(*columns)))


def _read_table_csv(path, spec: dict) -> GeneratedTable:
    fk_names = [c["name"] for c in spec["columns"] if c["role"] == "fk"]
    fk_targets = {
        c["name"]: c["fk_target"] for c in spec["columns"] if c["role"] == "fk"
    }
    feature_specs = [c for c in spec["columns"] if c["role"] == "feature"]
    feature_names = [c["name"] for c in feature_specs]
    feature_types = {c["name"]: c["dtype"] for c in feature_specs}
    has_ts = any(c["role"] == "timestamp" for c in spec["columns"])
    num_rows = int(spec["num_rows"])

    fk_data = {c: np.empty(num_rows, dtype=np.int64) for c in fk_names}
    features = {}
    for c in feature_names:
        if feature_types[c] == NUMERIC:
            features[c] = np.full(num_rows, np.nan)
        else:
            features[c] = np.zeros(num_rows, dtype=np.int64)
    null_mask = {c: np.zeros(num_rows, dtype=bool) for c in feature_names}
    timestamps = np.empty(num_rows, dtype=np.int64) if has_ts else None

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col_pos = {name: i for i, name in enumerate(header)}
        for r, row in enumerate(reader):
            for c in fk_names:
                fk_data[c][r] = int(row[col_pos[c]])
            for c in feature_names:
                raw = row[col_pos[c]]
                if raw == "":
                    null_mask[c][r] = True
                elif feature_types[c] == NUMERIC:
                    features[c][r] = float(raw)
                else:
                    features[c][r] = int(raw)
            if has_ts:
                timestamps[r] = parse_date(row[col_pos[TIMESTAMP_COLUMN]])
    return GeneratedTable(
        name=spec["name"],
        kind=spec["kind"],
        num_rows=num_rows,
        fk_names=tuple(fk_names),
        fk_targets=fk_targets,
        fk_columns=fk_data,
        feature_names=tuple(feature_names),
        feature_types=feature_types,
        feature_cards={c["name"]: c.get("cardinality") for c in feature_specs},
        features=features,
        null_mask=null_mask,
        timestamps=timestamps,
    )


# ---------------------------------------------------------------------------
# Whole databases
# ---------------------------------------------------------------------------


def save_database(db: RelationalDatabase, directory, meta: dict | None = None) -> None:
    directory = Path(directory)
    tables_dir = OutputLayout.tables_dir(directory)
    tables_dir.mkdir(parents=True, exist_ok=True)
    write_json(database_schema_dict(db), OutputLayout.schema_path(directory))
    if meta is not None:
        write_json(meta, OutputLayout.meta_path(directory))
    for name in db.table_order():
        write_table_csv(db.tables[name], tables_dir / f"{name}.csv")


def load_database(directory) -> RelationalDatabase:
    directory = Path(directory)
    schema_file = OutputLayout.schema_path(directory)
    if not schema_file.exists():
        raise ConfigError(f"no schema.json under {directory}")
    schema_dict = json.loads(schema_file.read_text())
    name_to_idx = {t["name"]: i for i, t in enumerate(schema_dict["tables"])}
    edges = tuple(
        sorted((name_to_idx[p], name_to_idx[c]) for p, c in schema_dict["edges"])
    )

    tables: dict[str, GeneratedTable] = {}
    metas = []
    for spec in schema_dict["tables"]:
        table = _read_table_csv(
            OutputLayout.tables_dir(directory) / f"{spec['name']}.csv", spec
        )
        tables[spec["name"]] = table
        metas.append(
            TableMeta(
                kind=spec["kind"],
                num_rows=int(spec["num_rows"]),
                num_feature_columns=len(table.feature_names),
                fk_parents=tuple(
                    name_to_idx[table.fk_targets[c]] for c in table.fk_names
                ),
                has_timestamp=table.timestamps is not None,
            )
        )
    schema = SchemaGraph(
        names=tuple(t["name"] for t in schema_dict["tables"]),
        edges=edges,
        meta=tuple(metas),
    )

    seed, null_fraction = 0, float("nan")
    meta_file = OutputLayout.meta_path(directory)
    if meta_file.exists():
        meta = json.loads(meta_file.read_text())
        seed = int(meta.get("db_seed", 0))
        null_fraction = float(meta.get("null_fraction", float("nan")))
    return RelationalDatabase(
        schema=schema, tables=tables, seed=seed, null_fraction=null_fraction
    )


def find_database_dirs(path) -> list[Path]:
    """Accept either one database directory or a root containing db_* directories."""
    path = Path(path)
    if OutputLayout.schema_path(path).exists():
        return [path]
    dirs = sorted(
        (d for d in path.glob("db_*") if OutputLayout.schema_path(d).exists()),
        key=lambda d: (len(d.name), d.name),
    )
    if not dirs:
        raise ConfigError(f"no databases found under {path}")
    return dirs


# ---------------------------------------------------------------------------
# Corpus, fit input, profiling output
# ---------------------------------------------------------------------------


def write_corpus_file(stream, path) -> tuple[int, int]:
    """Write context examples as line-delimited JSON; returns (examples, tokens)."""
    count, tokens = 0, 0
    with open(path, "w") as fh:
        for example in stream:
            fh.write(json.dumps(example_to_json(example), separators=(",", ":")) + "\n")
            count += 1
            tokens += example.n_tokens
    return count, tokens


def read_points_csv(path) -> np.ndarray:
    """Two-column (x, loss) CSV; a non-numeric first row is treated as a header."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                if rows:
                    raise ConfigError(f"non-numeric row in {path}: {row}")
    if not rows:
        raise ConfigError(f"no data points in {path}")
    return np.asarray(rows)


def write_profile_csv(rows: list[dict], path) -> None:
    header = [
        "num_tables",
        "latency_sec_mean",
        "latency_sec_std",
        "peak_memory_gb_mean",
        "peak_memory_gb_std",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[h] for h in header])
