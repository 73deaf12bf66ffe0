"""Deterministic output layout and file formats.

Each database lives in ``<root>/db_<index>/`` with ``schema.json``,
``meta.json``, and one RFC-4180 CSV per table under ``tables/``. NULL cells
serialize as empty fields, numerics as shortest round-trip decimals,
categoricals as integers, timestamps as ISO-8601 UTC.

A table CSV is written and parsed one ``neural.row_blocks`` block of rows at
a time, so no temporary grows with the table's rows or its width.

Table rows are joined with commas unquoted: no header name or cell (an
integer, a float repr, an empty NULL, an ISO timestamp) holds a comma, quote
or line break, and ``row_idx`` is never empty, so no row is one empty field.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .core import ConfigError, _first_repeat, _is_int, _is_number, format_timestamp, write_json
from .corpus import example_to_json
from .neural import row_blocks
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
    "database_dirs",
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
        for rows in row_blocks(table.num_rows, len(header)):
            columns = [map(str, range(rows.start + 1, rows.stop + 1))]
            columns.extend(
                map(str, np.asarray(table.fk_columns[c][rows], dtype=np.int64).tolist())
                for c in table.fk_names
            )
            columns.extend(
                _feature_text(
                    table.features[c][rows], table.feature_types[c], table.null_mask[c][rows]
                )
                for c in table.feature_names
            )
            if table.timestamps is not None:
                columns.append(format_timestamp(table.timestamps[rows]).tolist())
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
# the dtypes a column of each role may have, and the one name of a pk and a timestamp column
_ROLE_DTYPES = {
    "pk": ("int",), "fk": ("int",), "feature": (NUMERIC, CATEGORICAL), TIMESTAMP: (TIMESTAMP,)
}
_ROLE_NAMES = {"pk": "row_idx", TIMESTAMP: TIMESTAMP}
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


def _read_table_csv(path, spec: dict, num_rows: int) -> GeneratedTable:
    """One table CSV, parsed a ``row_blocks`` block of rows at a time into one array per column.

    ``num_rows`` is schema.json's, which ``load_database`` has checked. A
    ``ConfigError`` naming ``path`` says where it does not match ``spec``: its
    header, its row count, a cell that does not parse, ``row_idx`` other than
    1..n, or a non-NULL feature cell outside its column's domain.
    """
    columns = spec["columns"]
    names = [c["name"] for c in columns]
    fks = [c for c in columns if c["role"] == "fk"]
    features = [c for c in columns if c["role"] == "feature"]
    values = {c["name"]: np.empty(num_rows, _DTYPES[c["dtype"]]) for c in columns}
    null_mask = {c["name"]: np.zeros(num_rows, dtype=bool) for c in features}

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != names:
            raise ConfigError(f"{path}: header is not the {len(names)} columns schema.json lists")
        for rows in row_blocks(num_rows, len(names)):
            lo, hi = rows.start, rows.stop
            block = list(islice(reader, hi - lo))
            if len(block) < hi - lo:
                raise ConfigError(f"{path}: {lo + len(block)} rows, schema.json has {num_rows}")
            if set(map(len, block)) != {len(names)}:
                raise ConfigError(f"{path}: rows {lo + 1}..{hi} do not all have {len(names)} cells")
            for column, text in zip(columns, zip(*block)):
                name = column["name"]
                with _naming(f"{path}, column {name}"):
                    values[name][rows] = _cells(text, column)
                if name in null_mask:
                    null_mask[name][rows] = [not t for t in text]
        if next(reader, None) is not None:
            raise ConfigError(f"{path}: more rows than the {num_rows} schema.json has")
    if not np.array_equal(values["row_idx"], np.arange(1, num_rows + 1)):
        raise ConfigError(f"{path}: row_idx is not 1..{num_rows}")
    for column in features:
        _check_domain(path, column, values[column["name"]], null_mask[column["name"]])
    return GeneratedTable(
        name=spec["name"],
        num_rows=num_rows,
        fk_targets={c["name"]: c["fk_target"] for c in fks},
        fk_columns={c["name"]: values[c["name"]] for c in fks},
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

    The files go to a temporary sibling, ``.<name>.tmp-<pid>``, which
    ``database_dirs`` never lists. Once it is complete, an existing
    ``directory`` is moved aside, the new one renamed in and the old one
    deleted. So a database directory is replaced whole: a failed save leaves
    no new directory and an existing one as it was, and no file of an older
    database stays behind.
    """
    directory = Path(directory)
    tmp = directory.with_name(f".{directory.name}.tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        tables_dir = OutputLayout.tables_dir(tmp)
        tables_dir.mkdir(parents=True)
        write_json(database_schema_dict(db), OutputLayout.schema_path(tmp))
        meta = {**(meta or {}), "db_seed": db.seed, "null_fraction": db.null_fraction}
        write_json(meta, OutputLayout.meta_path(tmp))
        for name in db.table_order():
            write_table_csv(db.tables[name], tables_dir / f"{name}.csv")
        if directory.exists():
            old = directory.with_name(f".{directory.name}.old-{os.getpid()}")
            directory.rename(old)
            try:
                tmp.rename(directory)
            except BaseException:
                old.rename(directory)
                raise
            shutil.rmtree(old)
        else:
            tmp.rename(directory)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def load_database(directory) -> RelationalDatabase:
    """Read what ``save_database`` wrote; a ``ConfigError`` names a missing or malformed file.

    meta.json must give an integer ``db_seed`` and a real ``null_fraction`` in [0, 1].
    A foreign key outside [1, its parent's ``num_rows``] makes its table CSV
    malformed. The foreign-key columns are the table graph: schema.json is
    malformed if its ``edges`` are not theirs, if they form a cycle (a key into
    its own table is one), or if two columns of one table reference the same
    table. It is also malformed if it lists a table twice, or a column of one
    table twice, or names a table with anything but one plain path component,
    which would read a CSV outside ``tables/``; if a table's ``num_rows`` is not
    an integer that its CSV's byte size can hold; or if its ``kind`` is not
    ``activity`` exactly when it has a timestamp column. A column's role is
    ``pk``, ``fk``, ``feature`` or ``timestamp``; the ``pk`` column is the one named
    ``row_idx`` and the ``timestamp`` column the one named ``timestamp``; keys are
    dtype ``int`` and a feature is ``numeric`` or ``categorical``. Each of these
    column rules is checked before any CSV is read.
    """
    directory = Path(directory)
    schema_file = OutputLayout.schema_path(directory)
    if not schema_file.exists():
        raise ConfigError(f"no schema.json under {directory}")
    meta_file = OutputLayout.meta_path(directory)
    if not meta_file.exists():
        raise ConfigError(f"no meta.json under {directory}")
    with _naming(meta_file):
        meta = json.loads(meta_file.read_text())
        seed, null_fraction = meta["db_seed"], meta["null_fraction"]
    if not _is_int(seed):
        raise ConfigError(f"{meta_file}: db_seed {seed!r} is not an integer")
    if not (_is_number(null_fraction) and 0.0 <= null_fraction <= 1.0):
        raise ConfigError(f"{meta_file}: null_fraction {null_fraction!r} is not a number in [0, 1]")
    db = RelationalDatabase(tables={}, seed=seed, null_fraction=float(null_fraction))
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
            twice = _first_repeat(columns)
            if twice is not None:
                raise ConfigError(f"{schema_file}: table {name} lists column {twice} twice")
            for column in spec["columns"]:
                _check_column(schema_file, name, column)
            # a row is at least a row_idx digit, a comma per other column and its line end
            path = OutputLayout.tables_dir(directory) / f"{name}.csv"
            rows, most = spec["num_rows"], path.stat().st_size // (len(columns) + 1)
            if not (_is_int(rows) and 0 <= rows <= most):
                raise ConfigError(
                    f"{schema_file}: num_rows {rows!r} of table {name} is not an integer in "
                    f"0..{most}, the rows {path.name} can hold"
                )
            num_rows[name] = rows
        for spec in schema_dict["tables"]:
            path = OutputLayout.tables_dir(directory) / f"{spec['name']}.csv"
            table = db.tables[spec["name"]] = _read_table_csv(path, spec, num_rows[spec["name"]])
            if spec["kind"] != table.kind:
                raise ConfigError(
                    f"{schema_file}: kind {spec['kind']!r} of table {table.name} is not "
                    f"{table.kind!r}, which its columns give"
                )
            if len(set(table.fk_targets.values())) < len(table.fk_names):
                raise ConfigError(f"{schema_file}: two foreign keys of {table.name} share a target")
            for col, target in table.fk_targets.items():
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


def _check_column(schema_file, table: str, column: dict) -> None:
    """Raise a ConfigError naming the column unless ``_read_table_csv`` reads it as its role says,
    neither dropping it nor taking it for another column."""
    col, role, dtype = column["name"], column["role"], column["dtype"]
    where = f"{schema_file}: column {col} of table {table}"
    if role not in tuple(_ROLE_DTYPES):  # a tuple, so an unhashable role is rejected here too
        raise ConfigError(f"{where} has role {role!r}, not one of {', '.join(_ROLE_DTYPES)}")
    for fixed, named in _ROLE_NAMES.items():
        if (role == fixed) != (col == named):
            raise ConfigError(
                f"{where} has role {role!r}; a column has role {fixed} exactly when named {named}"
            )
    if dtype not in _ROLE_DTYPES[role]:
        raise ConfigError(f"{where} has dtype {dtype!r}, not {' or '.join(_ROLE_DTYPES[role])}")


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


def database_dirs(root) -> list[Path]:
    """The db_* directories under ``root`` that hold a schema.json, by (name length, name)."""
    dirs = (d for d in Path(root).glob("db_*") if OutputLayout.schema_path(d).exists())
    return sorted(dirs, key=lambda d: (len(d.name), d.name))


def find_database_dirs(path) -> list[Path]:
    """Accept either one database directory or a root containing db_* directories."""
    path = Path(path)
    if OutputLayout.schema_path(path).exists():
        return [path]
    dirs = database_dirs(path)
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
    """Two-column (x, loss) CSV; only the first non-empty row may be a non-numeric header.

    A row of other than two cells, the header too, or a later non-numeric row
    is a ``ConfigError`` naming the row.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = True
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ConfigError(f"{path}: row {reader.line_num} has {len(row)} cells, not 2")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                if not first:
                    raise ConfigError(f"{path}: row {reader.line_num} is not numeric: {row}")
            first = False
    if not rows:
        raise ConfigError(f"no data points in {path}")
    return np.asarray(rows)


def write_profile_csv(rows: list[dict], path) -> None:
    """One CSV row per dict; the header is the first row's keys, in their order."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
