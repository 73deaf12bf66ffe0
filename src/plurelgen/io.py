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
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .core import ConfigError, format_timestamp
from .corpus import example_to_json
from .scm_gen import (
    CATEGORICAL,
    NUMERIC,
    TIMESTAMP,
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
    schema = db.schema
    for name in schema.names:  # index order, so loading by position round-trips
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
            columns.append({"name": TIMESTAMP, "role": "timestamp", "dtype": TIMESTAMP})
        tables.append(
            {"name": name, "kind": table.kind, "num_rows": table.num_rows, "columns": columns}
        )
    edges = [[schema.names[p], schema.names[c]] for p, c in schema.edges]
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
        header.append(TIMESTAMP)
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


@contextmanager
def _naming(path):
    """Turn a KeyError, TypeError or ValueError from reading ``path`` into a ConfigError naming it."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed ({type(exc).__name__}: {exc})") from None


_DTYPES = {"int": np.int64, TIMESTAMP: np.int64, NUMERIC: np.float64, CATEGORICAL: np.int64}
_NULL_TEXT = {NUMERIC: "nan", CATEGORICAL: "0"}  # what an empty (NULL) feature cell reads as


def _cells(text: tuple[str, ...], column: dict):
    """One block of one column's cells, which numpy parses as it assigns them to the column."""
    if column["role"] == "timestamp":
        stamps = np.array([t.removesuffix("Z") for t in text], dtype="datetime64[s]")
        if np.isnat(stamps).any():
            raise ValueError("empty timestamp")
        return stamps.astype(np.int64)
    if column["role"] == "feature":
        return [t or _NULL_TEXT[column["dtype"]] for t in text]
    return text


def _check_domain(path, column: dict, cells: np.ndarray, null: np.ndarray) -> None:
    """Raise a ConfigError naming ``path`` and the column if a non-NULL cell is outside its domain.

    A categorical cell is a category in 1..cardinality (1.. when schema.json gives
    none); a numeric cell is finite.
    """
    if column["dtype"] == CATEGORICAL:
        card = column.get("cardinality")
        domain = f"1..{card}" if card is not None else "1.."
        bad = (cells < 1) | (cells > card) if card is not None else cells < 1
    else:
        domain = "finite numbers"
        bad = ~np.isfinite(cells)
    bad &= ~null
    if bad.any():
        row = int(np.argmax(bad))
        raise ConfigError(
            f"{path}, column {column['name']}: row {row + 1} holds {cells[row]}, outside {domain}"
        )


def _read_table_csv(path, spec: dict) -> GeneratedTable:
    """One table CSV, parsed a block of rows at a time into one array per column.

    A ``ConfigError`` naming ``path`` says where it does not match ``spec``: its
    header, its row count, a cell that does not parse, ``row_idx`` other than 1..n,
    or a non-NULL feature cell outside its column's domain.
    """
    columns = spec["columns"]
    names = [c["name"] for c in columns]
    fks = [c for c in columns if c["role"] == "fk"]
    features = [c for c in columns if c["role"] == "feature"]
    num_rows = int(spec["num_rows"])
    values = {c["name"]: np.empty(num_rows, _DTYPES[c["dtype"]]) for c in columns}
    null_mask = {c["name"]: np.zeros(num_rows, dtype=bool) for c in features}

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != names:
            raise ConfigError(f"{path}: header is not the {len(names)} columns schema.json lists")
        lo = 0
        while block := list(islice(reader, CSV_BLOCK_ROWS)):
            hi = lo + len(block)
            if hi > num_rows or set(map(len, block)) != {len(names)}:
                raise ConfigError(
                    f"{path}: rows {lo + 1}..{hi} do not fit {num_rows} rows of {len(names)} cells"
                )
            for column, text in zip(columns, zip(*block)):
                name = column["name"]
                with _naming(f"{path}, column {name}"):
                    values[name][lo:hi] = _cells(text, column)
                if name in null_mask:
                    null_mask[name][lo:hi] = [not t for t in text]
            lo = hi
    if lo != num_rows:
        raise ConfigError(f"{path}: {lo} rows, schema.json has {num_rows}")
    if not np.array_equal(values["row_idx"], np.arange(1, num_rows + 1)):
        raise ConfigError(f"{path}: row_idx is not 1..{num_rows}")
    for column in features:
        _check_domain(path, column, values[column["name"]], null_mask[column["name"]])
    return GeneratedTable(
        name=spec["name"],
        kind=spec["kind"],
        num_rows=num_rows,
        fk_names=tuple(c["name"] for c in fks),
        fk_targets={c["name"]: c["fk_target"] for c in fks},
        fk_columns={c["name"]: values[c["name"]] for c in fks},
        feature_names=tuple(c["name"] for c in features),
        feature_types={c["name"]: c["dtype"] for c in features},
        feature_cards={c["name"]: c.get("cardinality") for c in features},
        features={c["name"]: values[c["name"]] for c in features},
        null_mask=null_mask,
        timestamps=values.get(TIMESTAMP),
    )


# ---------------------------------------------------------------------------
# Whole databases
# ---------------------------------------------------------------------------


def save_database(db: RelationalDatabase, directory, meta: dict | None = None) -> None:
    """Write schema.json, meta.json and the table CSVs under ``directory``.

    meta.json holds the caller's ``meta`` with the database's own ``db_seed``
    and ``null_fraction`` over it, so a loaded database carries both.
    """
    directory = Path(directory)
    tables_dir = OutputLayout.tables_dir(directory)
    tables_dir.mkdir(parents=True, exist_ok=True)
    write_json(database_schema_dict(db), OutputLayout.schema_path(directory))
    meta = {**(meta or {}), "db_seed": db.seed, "null_fraction": db.null_fraction}
    write_json(meta, OutputLayout.meta_path(directory))
    for name in db.table_order():
        write_table_csv(db.tables[name], tables_dir / f"{name}.csv")


def load_database(directory) -> RelationalDatabase:
    """Read what ``save_database`` wrote; a ``ConfigError`` names a malformed file.

    A foreign key outside [1, its parent's ``num_rows``] makes its table CSV
    malformed. The foreign-key columns are the table graph: schema.json is
    malformed if its ``edges`` are not theirs, if they form a cycle or reference
    their own table, or if two columns of one table reference the same table. It
    is also malformed if it lists a table twice, or a column of one table twice,
    or names a table with anything but one plain path component, which would
    read a CSV outside ``tables/``.
    """
    directory = Path(directory)
    schema_file = OutputLayout.schema_path(directory)
    if not schema_file.exists():
        raise ConfigError(f"no schema.json under {directory}")
    seed, null_fraction = 0, float("nan")
    meta_file = OutputLayout.meta_path(directory)
    if meta_file.exists():
        with _naming(meta_file):
            meta = json.loads(meta_file.read_text())
            seed = int(meta.get("db_seed", 0))
            null_fraction = float(meta.get("null_fraction", float("nan")))
    db = RelationalDatabase(tables={}, seed=seed, null_fraction=null_fraction)
    with _naming(schema_file):
        schema_dict = json.loads(schema_file.read_text())
        num_rows = {}
        for spec in schema_dict["tables"]:
            name = spec["name"]
            if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
                raise ConfigError(f"{schema_file}: table name {name!r} is not one path component")
            if name in num_rows:
                raise ConfigError(f"{schema_file}: table {name} is listed twice")
            columns = [column["name"] for column in spec["columns"]]
            twice = [column for i, column in enumerate(columns) if column in columns[:i]]
            if twice:
                raise ConfigError(f"{schema_file}: table {name} lists column {twice[0]} twice")
            num_rows[name] = int(spec["num_rows"])
        for spec in schema_dict["tables"]:
            path = OutputLayout.tables_dir(directory) / f"{spec['name']}.csv"
            table = db.tables[spec["name"]] = _read_table_csv(path, spec)
            if len(set(table.fk_targets.values())) < len(table.fk_names):
                raise ConfigError(f"{schema_file}: two foreign keys of {table.name} share a target")
            for col, target in table.fk_targets.items():
                if target == table.name:
                    raise ConfigError(
                        f"{schema_file}: foreign key {col} of {table.name} references its own table"
                    )
                keys, n = table.fk_columns[col], num_rows[target]
                if ((keys < 1) | (keys > n)).any():
                    raise ConfigError(f"{path}: foreign key {col} outside [1, {n}]")
        names = list(db.tables)
        edges = tuple(sorted((names.index(p), names.index(c)) for p, c in schema_dict["edges"]))
        if edges != db.schema.edges:
            raise ConfigError(f"{schema_file}: edges are not the ones its foreign keys give")
        cycle = _key_cycle(db.tables)
        if cycle:
            raise ConfigError(f"{schema_file}: its foreign keys form a cycle, {cycle}")
    return db


def _key_cycle(tables: dict[str, GeneratedTable]) -> str | None:
    """One cycle of foreign keys as ``t.key -> u.key -> t``, each key into the next
    table; None if there is none. Assumes no table holds two keys into one table."""
    left = {name: set(t.fk_targets.values()) for name, t in tables.items()}
    # drop the tables whose targets are all dropped: each one left has a target left
    while free := [name for name, targets in left.items() if not targets & left.keys()]:
        for name in free:
            del left[name]
    if not left:
        return None
    walk = [min(left)]
    while walk[-1] not in walk[:-1]:
        walk.append(min(left[walk[-1]] & left.keys()))
    cycle = walk[walk.index(walk[-1]) :]
    keys = {(t.name, target): col for t in tables.values() for col, target in t.fk_targets.items()}
    return " -> ".join(f"{c}.{keys[c, p]}" for c, p in zip(cycle, cycle[1:])) + f" -> {cycle[-1]}"


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
    """Write context examples as line-delimited JSON; returns (examples, tokens).

    The lines go to a temporary file beside ``path`` that replaces ``path``
    once the stream is exhausted. If writing fails, the temporary file is
    removed and an existing ``path`` keeps its bytes.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    count, tokens = 0, 0
    try:
        with open(tmp, "w") as fh:
            for example in stream:
                fh.write(json.dumps(example_to_json(example), separators=(",", ":")) + "\n")
                count += 1
                tokens += example.n_tokens
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count, tokens


def read_points_csv(path) -> np.ndarray:
    """Two-column (x, loss) CSV; a non-numeric first row is treated as a header.

    A row of other than two cells, the header too, is a ``ConfigError`` naming the row.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ConfigError(f"{path}: row {reader.line_num} has {len(row)} cells, not 2")
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
