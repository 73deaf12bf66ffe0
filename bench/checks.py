"""Output checks for the benchmark, written apart from the program under test.

Every check reads the files the program wrote (``schema.json``, ``meta.json``,
table CSVs, corpus JSONL) with the standard library only, and compares them
against properties the generation method must have or against values
recomputed here. Nothing in this module imports ``plurelgen``: a bug in the
program's own readers cannot hide a bug in its writers.

Each ``check_*`` function returns a list of human-readable violations; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from collections import Counter
from pathlib import Path

# A Binomial(n, p) NULL count lies within this many standard deviations of
# n * p except with probability below 1e-8, so the thousands of databases
# that a set of benchmark runs checks practically never fail by chance.
NULL_SIGMAS = 6.0

_TIMESTAMP_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z")


class Database:
    """One written database directory, parsed without the program's readers.

    ``cells[table][column]`` holds the raw CSV strings of that column, so
    ``cells[t][c][row - 1]`` is the cell of 1-based row ``row``.
    """

    def __init__(self, directory):
        directory = Path(directory)
        self.directory = directory
        self.schema = json.loads((directory / "schema.json").read_text())
        meta_file = directory / "meta.json"
        self.meta = json.loads(meta_file.read_text()) if meta_file.exists() else {}
        self.specs = {t["name"]: t for t in self.schema["tables"]}
        self.cells: dict[str, dict[str, list[str]]] = {}
        for name in self.specs:
            with open(directory / "tables" / f"{name}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            header, body = rows[0], rows[1:]
            self.cells[name] = {col: [row[i] for row in body] for i, col in enumerate(header)}
        self.dtypes = {
            t: {c["name"]: c["dtype"] for c in spec["columns"]} for t, spec in self.specs.items()
        }
        # (fk column, parent table) pairs and the timestamp column of each table
        self.fks = {
            t: [(c["name"], c["fk_target"]) for c in self.columns(t, "fk")] for t in self.specs
        }
        self.ts_col = {
            t: next((c["name"] for c in self.columns(t, "timestamp")), None) for t in self.specs
        }

    def columns(self, table: str, role: str) -> list[dict]:
        return [c for c in self.specs[table]["columns"] if c["role"] == role]

    def row_timestamp(self, table: str, row: int) -> str | None:
        col = self.ts_col[table]
        return None if col is None else self.cells[table][col][row - 1]


def _topological(names: list[str], edges: list[list[str]]) -> list[str] | None:
    """Kahn's algorithm; None when the edges contain a cycle."""
    indeg = {n: 0 for n in names}
    children: dict[str, list[str]] = {n: [] for n in names}
    for p, c in edges:
        indeg[c] += 1
        children[p].append(c)
    ready = [n for n in names if indeg[n] == 0]
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        for c in children[n]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return order if len(order) == len(names) else None


def priors_of(config) -> dict:
    """The prior bounds of a ``GenConfig`` that ``check_database`` holds a database to."""
    return {
        name: getattr(config, name).payload
        for name in (
            "num_tables", "rows_entity", "rows_activity", "num_columns",
            "num_categories", "timestamp_min", "timestamp_max",
        )
    }


def check_database(db: Database, priors: dict) -> list[str]:
    """Structural and statistical properties of one generated database.

    ``priors`` holds inclusive ``(lo, hi)`` ranges for ``num_tables``,
    ``rows_entity``, ``rows_activity``, ``num_columns`` and
    ``num_categories``, and the ISO dates ``timestamp_min`` (inclusive) and
    ``timestamp_max`` (exclusive).
    """
    errors: list[str] = []
    where = db.directory.name
    names = [t["name"] for t in db.schema["tables"]]
    edges = db.schema["edges"]

    lo, hi = priors["num_tables"]
    if not lo <= len(names) <= hi:
        errors.append(f"{where}: {len(names)} tables outside [{lo}, {hi}]")
    if any(p not in db.specs or c not in db.specs or p == c for p, c in edges):
        errors.append(f"{where}: edge with an unknown table or a self-loop")
        return errors
    if _topological(names, edges) is None:
        errors.append(f"{where}: schema edges contain a cycle")

    ts_lo = f"{priors['timestamp_min']}T00:00:00Z"
    ts_hi = f"{priors['timestamp_max']}T00:00:00Z"
    max_category = priors["num_categories"][1]
    referenced = {p for p, _ in edges}
    feature_cells = nulls = 0
    for name in names:
        spec, cols = db.specs[name], db.cells[name]
        n = int(spec["num_rows"])
        kind = "entity" if name in referenced else "activity"
        if spec["kind"] != kind:
            errors.append(f"{name}: kind {spec['kind']!r}, but the edges make it {kind}")
        lo, hi = priors["rows_entity" if kind == "entity" else "rows_activity"]
        if not lo <= n <= hi:
            errors.append(f"{name}: {n} rows outside the {kind} prior [{lo}, {hi}]")
        if cols["row_idx"] != [str(r) for r in range(1, n + 1)]:
            errors.append(f"{name}: row_idx is not 1..{n}")
            continue

        targets = sorted(parent for _, parent in db.fks[name])
        if targets != sorted(p for p, c in edges if c == name):
            errors.append(f"{name}: FK targets {targets} differ from the schema edges")
        for column, parent in db.fks[name]:
            n_parent = int(db.specs[parent]["num_rows"])
            bad = [v for v in cols[column] if not (v.isdigit() and 1 <= int(v) <= n_parent)]
            if bad:
                errors.append(f"{name}.{column}: FK value {bad[0]!r} outside [1, {n_parent}]")

        features = db.columns(name, "feature")
        lo, hi = priors["num_columns"]
        if not lo <= len(features) <= hi:
            errors.append(f"{name}: {len(features)} feature columns outside [{lo}, {hi}]")
        for c in features:
            values = cols[c["name"]]
            feature_cells += n
            nulls += values.count("")
            present = [v for v in values if v != ""]
            if c["dtype"] == "categorical":
                bad = [v for v in present if not (v.isdigit() and 1 <= int(v) <= max_category)]
                if bad:
                    errors.append(
                        f"{name}.{c['name']}: category {bad[0]!r} outside [1, {max_category}]"
                    )
            elif c["dtype"] == "numeric":
                try:
                    bad = [v for v in present if not math.isfinite(float(v))]
                except ValueError as exc:
                    bad = [str(exc)]
                if bad:
                    errors.append(f"{name}.{c['name']}: non-finite numeric {bad[0]!r}")
            else:
                errors.append(f"{name}.{c['name']}: unknown feature dtype {c['dtype']!r}")

        ts_col = db.ts_col[name]
        if (kind == "activity") != (ts_col is not None):
            errors.append(f"{name}: {kind} table {'has' if ts_col else 'lacks'} a timestamp")
        if ts_col is not None:
            stamps = cols[ts_col]
            if not all(_TIMESTAMP_RE.fullmatch(s) for s in stamps):
                errors.append(f"{name}: malformed timestamp")
            elif any(a > b for a, b in zip(stamps, stamps[1:])):
                errors.append(f"{name}: timestamps decrease")
            elif stamps and not (ts_lo <= stamps[0] and stamps[-1] < ts_hi):
                errors.append(f"{name}: timestamps outside [{ts_lo}, {ts_hi})")

    p = float(db.meta.get("null_fraction", "nan"))
    if not 0.0 <= p <= 1.0:
        errors.append(f"{where}: meta.json null_fraction {p} is not a probability")
    elif feature_cells:
        slack = NULL_SIGMAS * math.sqrt(feature_cells * p * (1.0 - p)) + 1.0
        if abs(nulls - feature_cells * p) > slack:
            errors.append(
                f"{where}: {nulls} NULLs in {feature_cells} cells, "
                f"expected {feature_cells * p:.1f} +- {slack:.1f}"
            )
    return errors


def tree_digest(directory) -> dict[str, str]:
    """sha256 of every file under ``directory``, keyed by relative path."""
    directory = Path(directory)
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def check_same_files(first: dict[str, str], again: dict[str, str], label: str) -> list[str]:
    """Two writes of the same (config, seed) must be byte-identical."""
    if first == again:
        return []
    differ = sorted(k for k in first.keys() | again.keys() if first.get(k) != again.get(k))
    return [f"{label}: repeat wrote different bytes in {differ[:3]}"]


def check_corpus(
    path, dbs: dict[str, Database], context_len: int, width: int, target: int, reported: int
) -> list[str]:
    """Contracts of a masked-cell corpus file built from ``dbs`` (keyed by db_id).

    ``target`` is the token target passed to ``build_corpus`` and ``reported`` the
    token count the writer returned.
    """
    errors: list[str] = []
    counts = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                example = json.loads(line)
                counts.append(example["n_tokens"])
                found = _check_example(example, dbs, context_len, width)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                found = [f"malformed example: {type(exc).__name__}: {exc}"]
            errors.extend(f"line {line_no}: {e}" for e in found)
            if len(errors) > 20:
                return errors
    total = sum(counts)
    if total != reported:
        errors.append(f"corpus holds {total} tokens, the writer reported {reported}")
    if not counts or total < target or total - counts[-1] >= target:
        errors.append(f"corpus of {total} tokens does not stop at the first example reaching {target}")
    return errors


def _check_example(example: dict, dbs: dict[str, Database], context_len: int, width: int) -> list[str]:
    errors = []
    db = dbs[example["db_id"]]
    tokens = example["tokens"]
    if example["n_tokens"] != len(tokens) or len(tokens) > context_len:
        errors.append(f"n_tokens {example['n_tokens']} for {len(tokens)} tokens, limit {context_len}")
    seed = example["seed"]
    seed_key = (seed["table"], seed["column"], seed["row"])
    masked = [(t["t"], t["c"], t["r"]) for t in tokens if t["masked"]]
    if masked != [seed_key]:
        errors.append(f"masked tokens {masked}, expected exactly the seed cell {seed_key}")

    def cell(table, column, row):
        return db.cells[table][column][row - 1]

    seed_raw = cell(*seed_key)
    if seed_raw == "":
        errors.append(f"seed cell {seed_key} is NULL")
    elif not _same_value(example["target"]["v"], seed_raw, db.dtypes[seed["table"]][seed["column"]]):
        errors.append(f"target {example['target']['v']!r} != CSV cell {seed_raw!r}")

    for tok in tokens:
        table, column, row = tok["t"], tok["c"], tok["r"]
        dtype = db.dtypes[table].get(column)
        if tok["type"] != dtype:
            errors.append(f"token {table}.{column}: type {tok['type']!r} != {dtype!r}")
            continue
        raw = cell(table, column, row)
        if tok["masked"]:
            if tok["v"] is not None:
                errors.append(f"masked token {table}.{column}[{row}] carries a value")
        elif (tok["v"] is None) != (raw == "") or (
            raw != "" and not _same_value(tok["v"], raw, dtype)
        ):
            errors.append(f"token {table}.{column}[{row}] = {tok['v']!r}, CSV cell {raw!r}")

    rows = {(t["t"], t["r"]) for t in tokens}
    seed_ts = db.row_timestamp(seed["table"], seed["row"])
    for table, row in rows:
        ts = db.row_timestamp(table, row)
        if ts is not None and (seed_ts is None or ts > seed_ts):
            errors.append(f"row {table}[{row}] at {ts} is after the seed row ({seed_ts})")

    fan_in: Counter = Counter()
    for table, row in rows:
        for column, parent in db.fks[table]:
            fan_in[(parent, int(cell(table, column, row)))] += 1
    over = [k for k, n in fan_in.items() if n > width]
    if over:
        errors.append(f"parent rows {over[:3]} have more than {width} referencing rows")

    for (child_t, child_r), (parent_t, parent_r) in example["links"]:
        if (child_t, child_r) not in rows or (parent_t, parent_r) not in rows:
            errors.append(f"link {child_t}[{child_r}] -> {parent_t}[{parent_r}] leaves the context")
        elif not any(
            parent == parent_t and cell(child_t, column, child_r) == str(parent_r)
            for column, parent in db.fks[child_t]
        ):
            errors.append(f"link {child_t}[{child_r}] -> {parent_t}[{parent_r}] is not a foreign key")
    return errors


def _same_value(json_value, raw: str, dtype: str) -> bool:
    if json_value is None:
        return False
    if dtype == "numeric":
        return isinstance(json_value, str) and float(json_value) == float(raw)
    if dtype == "categorical":
        return isinstance(json_value, int) and json_value == int(raw)
    return json_value == raw
