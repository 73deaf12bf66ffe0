from collections import deque

import pytest

from conftest import make_database, make_table, row_timestamp
from plurelgen import corpus
from plurelgen.core import ConfigError, SeededRng, split_seed
from plurelgen.corpus import (
    RowGraph,
    _draw_seed_cell,
    bfs_context,
    build_corpus,
    example_to_json,
)
from plurelgen.scm_gen import generate_database
from test_golden import small_config


def _toy_db(child_rows=5, child_ts=None):
    """One parent row referenced by several child rows."""
    parent = make_table(
        "parent",
        2,
        {"feature_1": [1.5, -2.0], "feature_2": [3, 4]},
        {"feature_1": "numeric", "feature_2": "categorical"},
    )
    child = make_table(
        "child",
        child_rows,
        {"feature_1": [float(i) for i in range(child_rows)]},
        {"feature_1": "numeric"},
        fk={"foreign_row_1": [1] * child_rows},
        fk_targets={"foreign_row_1": "parent"},
        timestamps=child_ts,
    )
    return make_database([parent, child])


class TestBfsContext:
    def test_isolated_row_context_is_just_that_row(self):
        table = make_table(
            "solo",
            4,
            {"feature_1": [1.0, 2.0, 3.0, 4.0], "feature_2": [10.0, 20.0, 30.0, 40.0]},
            {"feature_1": "numeric", "feature_2": "numeric"},
        )
        db = make_database([table])
        ex = bfs_context(RowGraph(db), ("solo", "feature_1", 2), 100, 8, SeededRng(0))
        assert ex.rows == [("solo", 2)]
        assert ex.n_tokens == 2
        assert ex.target_value == 2.0

    def test_child_with_two_keys_into_one_row_is_admitted_once(self):
        # the hand-built database that load_database rejects (two keys into one table)
        parent = make_table("parent", 1, {"feature_1": [1.5]}, {"feature_1": "numeric"})
        child = make_table(
            "child", 1, {"feature_1": [2.5]}, {"feature_1": "numeric"},
            fk={"a": [1], "b": [1]}, fk_targets={"a": "parent", "b": "parent"},
        )
        db = make_database([parent, child])
        cell = ("parent", "feature_1", 1)
        ex = bfs_context(RowGraph(db), cell, 100, 8, SeededRng(0))
        assert ex.rows == [("parent", 1), ("child", 1)]
        assert ex.n_tokens == 2
        assert ex.rows == _reference_context(db, cell, 100, 8, SeededRng(0))[0]

    def test_fan_out_width_one(self):
        db = _toy_db(child_rows=5)
        ex = bfs_context(RowGraph(db), ("parent", "feature_1", 1), 1000, 1, SeededRng(3))
        child_rows = [r for t, r in ex.rows if t == "child"]
        assert len(child_rows) == 1

    def test_fan_out_bound_across_widths(self):
        db = _toy_db(child_rows=20)
        for w in (1, 2, 7, 20):
            ex = bfs_context(RowGraph(db), ("parent", "feature_1", 1), 1000, w, SeededRng(w))
            child_rows = [r for t, r in ex.rows if t == "child"]
            assert len(child_rows) == min(w, 20)

    def test_temporal_exclusion(self):
        # child rows 4 and 5 are timestamped after child row 3 (the seed)
        db = _toy_db(child_rows=5, child_ts=[100, 200, 300, 400, 500])
        ex = bfs_context(RowGraph(db), ("child", "feature_1", 3), 1000, 128, SeededRng(1))
        rows = set(ex.rows)
        assert ("child", 4) not in rows and ("child", 5) not in rows
        assert ("parent", 1) in rows  # F->P always followed
        assert {("child", 1), ("child", 2)} <= rows  # pulled back through the parent

    def test_entity_seed_excludes_timestamped_rows(self):
        # entity rows carry no timestamp: seeding there admits only entities
        db = _toy_db(child_rows=5, child_ts=[100, 200, 300, 400, 500])
        ex = bfs_context(RowGraph(db), ("parent", "feature_1", 1), 1000, 128, SeededRng(2))
        assert all(t == "parent" for t, _ in ex.rows)

    def test_budget_never_exceeded(self):
        db = _toy_db(child_rows=50)
        for budget in (3, 4, 7, 10, 23):
            ex = bfs_context(RowGraph(db), ("parent", "feature_1", 1), budget, 128, SeededRng(5))
            assert ex.n_tokens <= budget

    def test_rows_added_whole(self):
        db = _toy_db(child_rows=50)
        ex = bfs_context(RowGraph(db), ("parent", "feature_1", 1), 10, 128, SeededRng(5))
        # parent rows have 2 cells, child rows 1: all rows complete
        cells = {("parent", r): 0 for t, r in ex.rows if t == "parent"}
        cells.update({("child", r): 0 for t, r in ex.rows if t == "child"})
        for tok in example_to_json(ex)["tokens"]:
            cells[(tok["t"], tok["r"])] += 1
        for (t, _), n in cells.items():
            assert n == (2 if t == "parent" else 1)

    def test_masked_target_hidden_and_stored(self):
        db = _toy_db()
        ex = bfs_context(RowGraph(db), ("parent", "feature_1", 1), 100, 4, SeededRng(6))
        masked = [t for t in example_to_json(ex)["tokens"] if t["masked"]]
        assert len(masked) == 1
        tok = masked[0]
        assert (tok["t"], tok["c"], tok["r"]) == ("parent", "feature_1", 1)
        assert tok["v"] is None
        assert ex.target_value == 1.5 and ex.target_type == "numeric"

    def test_seed_validation(self):
        graph = RowGraph(_toy_db())
        with pytest.raises(ValueError):
            bfs_context(graph, ("child", "foreign_row_1", 1), 100, 4, SeededRng(0))
        with pytest.raises(ValueError):
            bfs_context(graph, ("nope", "feature_1", 1), 100, 4, SeededRng(0))
        with pytest.raises(ValueError):
            bfs_context(graph, ("child", "feature_1", 99), 100, 4, SeededRng(0))
        with pytest.raises(ValueError):
            bfs_context(graph, ("parent", "feature_1", 1), 1, 4, SeededRng(0))

    def test_null_seed_rejected(self):
        db = _toy_db()
        db.tables["parent"].null_mask["feature_1"][0] = True
        with pytest.raises(ValueError):
            bfs_context(RowGraph(db), ("parent", "feature_1", 1), 100, 4, SeededRng(0))

    def test_null_cells_tokenized_as_null(self):
        db = _toy_db()
        db.tables["child"].null_mask["feature_1"][0] = True
        ex = bfs_context(RowGraph(db), ("parent", "feature_1", 1), 100, 128, SeededRng(7))
        null_toks = [t for t in example_to_json(ex)["tokens"] if t["t"] == "child" and t["r"] == 1]
        assert len(null_toks) == 1 and null_toks[0]["v"] is None and not null_toks[0]["masked"]

    def test_deterministic_given_rng(self):
        db = _toy_db(child_rows=30)
        a = bfs_context(RowGraph(db), ("parent", "feature_1", 1), 20, 4, SeededRng(8))
        b = bfs_context(RowGraph(db), ("parent", "feature_1", 1), 20, 4, SeededRng(8))
        assert example_to_json(a) == example_to_json(b) and a.rows == b.rows


class TestRowGraph:
    def test_graph_built_after_a_key_edit_follows_the_edited_key(self):
        db = _toy_db(child_rows=1)
        before = RowGraph(db)
        db.tables["child"].fk_columns["foreign_row_1"][0] = 2
        after = RowGraph(db)
        cell = ("child", "feature_1", 1)
        assert bfs_context(after, cell, 100, 8, SeededRng(0)).rows == [("child", 1), ("parent", 2)]
        # a graph holds the links of the keys it was built from
        assert bfs_context(before, cell, 100, 8, SeededRng(0)).rows == [("child", 1), ("parent", 1)]

    def test_feature_cells_in_table_order(self):
        graph = RowGraph(_toy_db(child_rows=5))
        assert graph.feature_cells == [
            ("parent", "feature_1"), ("parent", "feature_2"), ("child", "feature_1")
        ]
        assert graph.feature_cum.tolist() == [2, 4, 9]

    def test_build_corpus_builds_one_graph_per_database(self, monkeypatch):
        built = []

        class Counted(RowGraph):
            def __init__(self, db):
                built.append(db)
                super().__init__(db)

        monkeypatch.setattr(corpus, "RowGraph", Counted)
        dbs = [("a", _toy_db(child_rows=4)), ("b", _toy_db(child_rows=6))]
        examples = list(build_corpus(dbs, 200, budget=16, width=2, seed=3))
        assert {ex.db_id for ex in examples} == {"a", "b"}
        assert [id(db) for db in built] == [id(db) for _, db in dbs]


class TestBuildCorpus:
    def test_repeated_database_id_is_rejected(self):
        dbs = [("db_0", _toy_db()), ("db_1", _toy_db()), ("db_0", _toy_db(child_rows=3))]
        with pytest.raises(ConfigError, match="database id db_0 is given twice"):
            next(build_corpus(dbs, 100, seed=0))

    def test_zero_target_empty_stream(self):
        db = _toy_db()
        assert list(build_corpus([("d", db)], 0, seed=1)) == []

    def test_token_accounting_and_stopping(self):
        db = _toy_db(child_rows=40)
        target = 500
        examples = list(build_corpus([("d", db)], target, budget=64, width=8, seed=2))
        totals = [ex.n_tokens for ex in examples]
        assert all(n == len(example_to_json(ex)["tokens"]) for n, ex in zip(totals, examples))
        assert sum(totals) >= target
        assert sum(totals[:-1]) < target  # stops within one example of the target

    def test_examples_respect_budget(self, config):
        db = generate_database(config, 1)
        for ex in build_corpus([("db_1", db)], 30_000, budget=256, width=16, seed=3):
            assert ex.n_tokens <= 256

    def test_deterministic_stream(self):
        db = _toy_db(child_rows=25)
        a = list(build_corpus([("d", db)], 300, budget=32, width=4, seed=5))
        b = list(build_corpus([("d", db)], 300, budget=32, width=4, seed=5))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert example_to_json(x) == example_to_json(y)

    def test_seed_cells_skip_nulls(self):
        db = _toy_db(child_rows=10)
        # NULL out everything except one parent cell: all seeds must land there
        db.tables["child"].null_mask["feature_1"][:] = True
        db.tables["parent"].null_mask["feature_1"][1] = True
        db.tables["parent"].null_mask["feature_2"][:] = True
        for ex in build_corpus([("d", db)], 50, budget=32, width=4, seed=6):
            assert (ex.seed_table, ex.seed_column, ex.seed_row) == ("parent", "feature_1", 1)

    def test_budget_must_hold_the_widest_row(self):
        db = _toy_db()  # a parent row is two feature cells
        with pytest.raises(ConfigError, match="context length 1"):
            next(build_corpus([("d", db)], 100, budget=1, width=4))
        with pytest.raises(ConfigError, match="width"):
            next(build_corpus([("d", db)], 100, budget=2, width=-1))
        assert all(ex.n_tokens <= 2 for ex in build_corpus([("d", db)], 20, budget=2, width=0))

    def test_requires_databases(self):
        with pytest.raises(ConfigError):
            list(build_corpus([], 100, seed=0))

    def test_generated_database_contracts(self, config):
        db = generate_database(config, 17)
        n = 0
        for ex in build_corpus([("db_17", db)], 60_000, budget=512, width=32, seed=7):
            n += 1
            assert ex.n_tokens <= 512
            seed_ts = row_timestamp(db, ex.seed_table, ex.seed_row)
            for tname, r in ex.rows:
                assert row_timestamp(db, tname, r) <= seed_ts
            per_parent = {}
            for c, p in ex.fk_edges:
                per_parent[p] = per_parent.get(p, 0) + 1
            assert all(v <= 32 for v in per_parent.values())
            tokens = example_to_json(ex)["tokens"]
            assert ex.n_tokens == len(tokens)
            assert sum(t["masked"] for t in tokens) == 1
        assert n > 10


def _reference_context(db, seed_cell, budget, width, rng):
    """(rows, fk_edges, n_tokens) of ``bfs_context``'s traversal, keyed by (table, row) tuples.

    An independent reference: it reads links and timestamps from ``db.tables``
    and lists a row's children by table position in ``db.table_order()``, then row.
    """
    tables = db.tables

    def parents(t, r):
        table = tables[t]
        return [(table.fk_targets[c], int(table.fk_columns[c][r - 1])) for c in table.fk_names]

    children = {}
    for t in db.table_order():
        for r in range(1, tables[t].num_rows + 1):
            for p in parents(t, r):
                children.setdefault(p, []).append((t, r))

    seed_table, _, seed_row = seed_cell
    seed_ts = row_timestamp(db, seed_table, seed_row)
    rows, visited, count, queue = [], set(), {}, deque()
    n_tokens = 0

    def add(row):
        nonlocal n_tokens
        table = tables[row[0]]
        cells = len(table.feature_names) + (table.timestamps is not None)
        if n_tokens + cells > budget:
            return False
        n_tokens += cells
        rows.append(row)
        visited.add(row)
        queue.append(row)
        for p in parents(*row):
            count[p] = count.get(p, 0) + 1
        return True

    def admissible(row):
        return row not in visited and row_timestamp(db, *row) <= seed_ts

    add((seed_table, seed_row))
    full = False
    while queue and not full:
        row = queue.popleft()
        for p in parents(*row):
            if admissible(p) and not add(p):
                full = True
                break
        remaining = width - count.get(row, 0)
        if full or remaining <= 0:
            continue
        candidates = [c for c in dict.fromkeys(children.get(row, [])) if admissible(c)]
        if not candidates:
            continue
        added = 0
        for i in rng.permutation(len(candidates)):
            if added == remaining:
                break
            child = candidates[int(i)]
            if any(count.get(p, 0) >= width for p in parents(*child)):
                continue
            if not add(child):
                full = True
                break
            added += 1
    fk_edges = [(row, p) for row in rows for p in parents(*row) if p in visited]
    return rows, fk_edges, n_tokens


class TestReferenceTraversal:
    """``bfs_context`` walks the rows a plain tuple-keyed traversal walks, fan-out cap included."""

    @pytest.fixture(scope="class")
    def dbs(self):
        dbs = [(f"db_{s}", generate_database(small_config(), s)) for s in (0, 4, 5, 6)]
        for _, db in dbs:  # each has a table with more than one parent
            assert max(len(t.fk_names) for t in db.tables.values()) >= 2
        return dbs

    @pytest.mark.parametrize("budget", [64, 1024])
    @pytest.mark.parametrize("width", [1, 2, 4, 128])
    def test_build_corpus_matches_reference(self, dbs, width, budget):
        graphs = [RowGraph(db) for _, db in dbs]
        examples = list(build_corpus(dbs, 40 * budget, budget, width, seed=width))
        for k, ex in enumerate(examples):
            rng = SeededRng(split_seed(width, k))  # the draws build_corpus made before its BFS
            di = int(rng.integers(0, len(dbs) - 1))
            db = dbs[di][1]
            cell = _draw_seed_cell(graphs[di], rng)
            assert (ex.db_id, ex.seed_table, ex.seed_column, ex.seed_row) == (dbs[di][0], *cell)
            rows, fk_edges, n_tokens = _reference_context(db, cell, budget, width, rng)
            assert (ex.rows, ex.fk_edges, ex.n_tokens) == (rows, fk_edges, n_tokens)
        assert len(examples) >= 40


class TestExampleJson:
    def test_field_shapes_and_value_encodings(self):
        db = _toy_db(child_rows=5, child_ts=[100, 200, 300, 400, 500])
        graph = RowGraph(db)
        ex = bfs_context(graph, ("child", "feature_1", 5), 1000, 128, SeededRng(9), db_id="db_7")
        doc = example_to_json(ex)
        assert doc["db_id"] == "db_7"
        assert doc["seed"] == {"table": "child", "column": "feature_1", "row": 5}
        assert doc["n_tokens"] == len(doc["tokens"]) == ex.n_tokens
        assert doc["target"] == {"v": "4.0", "type": "numeric"}
        by_type = {}
        for tok in doc["tokens"]:
            assert set(tok) == {"t", "c", "r", "v", "type", "masked"}
            by_type.setdefault(tok["type"], []).append(tok["v"])
        # numerics are decimal strings, categoricals integers, timestamps ISO-8601 UTC
        assert any(isinstance(v, str) and "." in v for v in by_type["numeric"] if v is not None)
        assert all(isinstance(v, int) for v in by_type["categorical"])
        assert all(v.endswith("Z") and "T" in v for v in by_type["timestamp"])
        masked = [t for t in doc["tokens"] if t["masked"]]
        assert len(masked) == 1 and masked[0]["v"] is None
        assert all(isinstance(link, list) and len(link) == 2 for link in doc["links"])

    def test_numeric_strings_round_trip(self):
        db = _toy_db()
        ex = bfs_context(RowGraph(db), ("child", "feature_1", 3), 100, 4, SeededRng(10))
        doc = example_to_json(ex)
        numeric = [t for t in doc["tokens"] if t["type"] == "numeric" and t["v"] is not None]
        assert numeric
        for tok in numeric:
            assert float(tok["v"]) == db.tables[tok["t"]].features[tok["c"]][tok["r"] - 1]
