import csv
import json
import shutil
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_database, make_table
from plurelgen import neural
from plurelgen.cli import cmd_corpus, cmd_fit, cmd_generate, cmd_profile, cmd_stats, main
from plurelgen.core import ConfigError, PriorSpec, default_config, save_config, split_seed
from plurelgen.corpus import build_corpus
from plurelgen.io import (
    OutputLayout,
    database_dirs,
    database_schema_dict,
    find_database_dirs,
    load_database,
    save_database,
    write_corpus_file,
    write_table_csv,
)
from plurelgen.scm_gen import generate_database


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def generated_root(tmp_path_factory):
    out = tmp_path_factory.mktemp("dbs")
    assert cmd_generate(None, 42, 2, str(out)) == 0
    return out


class TestGenerate:
    def test_layout(self, generated_root):
        for i in range(2):
            d = OutputLayout(generated_root).db_dir(i)
            assert (d / "schema.json").exists()
            assert (d / "meta.json").exists()
            assert any((d / "tables").glob("table_*.csv"))

    def test_rerun_byte_identical(self, generated_root, tmp_path):
        again = tmp_path / "again"
        assert cmd_generate(None, 42, 2, str(again)) == 0
        assert _tree_bytes(generated_root) == _tree_bytes(again)

    def test_zero_databases(self, tmp_path):
        out = tmp_path / "none"
        assert cmd_generate(None, 1, 0, str(out)) == 0
        assert list(out.iterdir()) == []

    def test_negative_database_count_is_one_line(self, tmp_path, capsys):
        out = tmp_path / "none"
        assert main(["generate", "--num-dbs", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "--num-dbs" in err
        assert not out.exists()

    def test_reused_root_is_one_line_and_deletes_nothing(self, tmp_path, capsys):
        # a second, smaller run into one root would leave db_2 of the first run behind
        config = tmp_path / "small.json"
        small = replace(
            default_config(),
            num_tables=PriorSpec.constant(3),
            rows_entity=PriorSpec.uniform_range(5, 10),
            rows_activity=PriorSpec.uniform_range(10, 20),
        )
        save_config(small, config)
        out = tmp_path / "root"
        run = ["generate", "--config", str(config), "--out", str(out)]
        assert main([*run, "--seed", "1", "--num-dbs", "3"]) == 0
        before = _tree_bytes(out)
        assert main([*run, "--seed", "2", "--num-dbs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "db_2" in err
        assert _tree_bytes(out) == before
        # a run that rewrites every database under the root may reuse it
        assert main([*run, "--seed", "2", "--num-dbs", "3"]) == 0
        assert json.loads((out / "db_2" / "meta.json").read_text())["master_seed"] == 2

    def test_database_directory_as_root_is_one_line_and_writes_nothing(self, tmp_path, capsys):
        # find_database_dirs reads a directory holding schema.json as one
        # database, so databases generated under it would never be read
        config = tmp_path / "small.json"
        small = replace(
            default_config(),
            num_tables=PriorSpec.constant(3),
            rows_entity=PriorSpec.uniform_range(5, 10),
            rows_activity=PriorSpec.uniform_range(10, 20),
        )
        save_config(small, config)
        root = tmp_path / "root"
        run = ["generate", "--config", str(config)]
        assert main([*run, "--seed", "1", "--num-dbs", "1", "--out", str(root)]) == 0
        before = _tree_bytes(root)
        db_0 = root / "db_0"
        assert main([*run, "--seed", "2", "--num-dbs", "2", "--out", str(db_0)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "schema.json" in err
        assert _tree_bytes(root) == before
        assert not list(db_0.glob("db_*"))
        assert find_database_dirs(root) == [db_0]

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cmd_generate(str(bad), 1, 1, str(tmp_path / "o")) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_prior_exit_code(self, tmp_path):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"num_tables": {"kind": "range-uniform", "payload": [9, 2]}}))
        assert cmd_generate(str(bad), 1, 1, str(tmp_path / "o2")) == 2

    @pytest.mark.parametrize(
        "name, prior",
        [
            ("timestamp_min", {"kind": "set-uniform", "payload": ["1990-01-01", "2030-01-01"]}),
            ("timestamp_min", {"kind": "constant", "payload": "1990-13-45"}),
            ("cycle_frequency", {"kind": "constant", "payload": 0.0}),
            ("num_categories", {"kind": "constant", "payload": 0}),
            ("feature_node_fraction", {"kind": "constant", "payload": 0.0}),
            ("mlp_hidden_dim", {"kind": "constant", "payload": 0}),
        ],
    )
    def test_rejected_prior_is_one_line_naming_the_field(self, tmp_path, capsys, name, prior):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({name: prior}))
        assert cmd_generate(str(bad), 1, 1, str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and name in err

    @pytest.mark.parametrize(
        "name, value",
        [
            ("num_tables", {"kind": "range-uniform", "payload": ["a", 3]}),
            ("power_law_exponent", {"kind": "constant", "payload": "abc"}),
            # the one value this key took is gone with the key
            ("mlp_output_dim", {"kind": "constant", "payload": 1}),
            ("layered_depth", {"kind": "constant", "payload": 0}),
            ("hsbm_levels", {"kind": "constant", "payload": 0}),
            ("hsbm_clusters_per_level", {"kind": "constant", "payload": 0}),
            ("num_tables", {"kind": "constant", "payload": 1}),
            ("num_tables", {"kind": "range-uniform", "payload": [3, 20.5]}),
            ("num_columns", {"kind": "constant", "payload": 0}),
            ("ba_attachment", {"kind": "constant", "payload": 0}),
            ("trend_exponent", {"kind": "constant", "payload": "x"}),
            ("rows_entity", {"kind": "constant", "payload": 7.5}),
            ("hsbm_clusters_per_level", {"kind": "range-uniform", "payload": [1, 2**70]}),
            ("trend_scale_activity", {"kind": "range-uniform", "payload": [-1e308, 1e308]}),
            # 5 ** 1000 overflows, so row 1 of a 5-row table would get a trend of inf
            ("trend_exponent", {"kind": "constant", "payload": -1000}),
            ("rows_entity", {"kind": "range-power-law", "payload": [5, 10]}),
            # 3 ** -1000 underflows every weight of the default num_columns (3, 40)
            ("power_law_exponent", {"kind": "constant", "payload": 1000}),
        ],
    )
    def test_main_rejects_a_config_in_one_line(self, tmp_path, capsys, name, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({name: value}))
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and name in err

    def test_tiny_feature_node_fraction_is_one_line(self, tmp_path, capsys):
        """Each field passes its rule, but one column at this fraction asks for 1e300 nodes."""
        bad, out = tmp_path / "bad.json", tmp_path / "o"
        priors = {
            "num_tables": 2,
            "num_columns": 1,
            "scm_graph_priors": "layered",
            "feature_node_fraction": 1e-300,
        }
        config = {name: {"kind": "constant", "payload": v} for name, v in priors.items()}
        bad.write_text(json.dumps(config))
        assert main(["generate", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "num_columns" in err and "feature_node_fraction" in err
        assert not out.exists()

    # a count sizes arrays, so 2**62, which fits in int64, lies past its bound
    @pytest.mark.parametrize(
        "name",
        [
            "num_tables",
            "rows_entity",
            "rows_activity",
            "num_categories",
            "mlp_hidden_dim",
            "hsbm_clusters_per_level",
        ],
    )
    def test_unallocatable_count_is_rejected_in_one_line(self, tmp_path, capsys, name):
        with pytest.raises(ConfigError, match=name):
            replace(default_config(), **{name: PriorSpec.constant(2**62)})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({name: {"kind": "constant", "payload": 2**62}}))
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and name in err

    def test_meta_contents(self, generated_root):
        meta = json.loads((OutputLayout(generated_root).db_dir(1) / "meta.json").read_text())
        assert meta["master_seed"] == 42
        assert meta["db_index"] == 1
        assert meta["db_seed"] == split_seed(42, 1)
        assert "num_tables" in meta["config"]
        assert 0.01 <= meta["null_fraction"] <= 0.1

    def test_worker_pool_matches_serial(self, generated_root, tmp_path, monkeypatch):
        monkeypatch.setenv("PLURELGEN_THREADS", "2")
        pooled = tmp_path / "pooled"
        assert cmd_generate(None, 42, 2, str(pooled)) == 0
        assert _tree_bytes(generated_root) == _tree_bytes(pooled)


class TestInMemoryEqualsOnDisk:
    """The 4 databases of ``generate --seed 42 --num-dbs 4``, in memory and saved then loaded."""

    @pytest.fixture(scope="class")
    def panel(self, config, tmp_path_factory):
        root = tmp_path_factory.mktemp("panel")
        dbs = [(f"db_{i}", generate_database(config, split_seed(42, i))) for i in range(4)]
        for name, db in dbs:
            save_database(db, root / name)
        return root, dbs

    def test_corpus_bytes(self, panel, tmp_path):
        root, dbs = panel
        loaded = [(name, load_database(root / name)) for name, _ in dbs]
        write_corpus_file(build_corpus(dbs, 200_000, seed=7), tmp_path / "memory.jsonl")
        write_corpus_file(build_corpus(loaded, 200_000, seed=7), tmp_path / "disk.jsonl")
        memory = (tmp_path / "memory.jsonl").read_bytes()
        assert memory.count(b"\n") > 100
        assert memory == (tmp_path / "disk.jsonl").read_bytes()

    def test_save_load_save(self, panel, tmp_path):
        root, dbs = panel
        for name, _ in dbs:
            save_database(load_database(root / name), tmp_path / name)
            assert _tree_bytes(tmp_path / name) == _tree_bytes(root / name)


class TestRoundTrip:
    def test_database_round_trip(self, config, tmp_path):
        db = generate_database(config, 33)
        save_database(db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert loaded.seed == 33
        assert loaded.null_fraction == db.null_fraction
        assert loaded.schema.names == db.schema.names
        assert loaded.schema.edges == db.schema.edges
        assert loaded.schema == db.schema
        for name in db.table_order():
            a, b = db.tables[name], loaded.tables[name]
            assert (a.kind, a.num_rows, a.fk_targets) == (b.kind, b.num_rows, b.fk_targets)
            assert (a.timestamps is None) == (b.timestamps is None)
            assert a.feature_names == b.feature_names
            assert a.feature_types == b.feature_types
            assert a.feature_cards == b.feature_cards
            for col in a.fk_names:
                assert np.array_equal(a.fk_columns[col], b.fk_columns[col])
            for col in a.feature_names:
                assert np.array_equal(a.null_mask[col], b.null_mask[col])
                mask = a.null_mask[col]
                assert np.array_equal(a.features[col][~mask], b.features[col][~mask])
            if a.timestamps is not None:
                assert np.array_equal(a.timestamps, b.timestamps)

    @pytest.mark.parametrize("block_cells", [1, 37, 2**40])
    def test_csv_block_size_changes_no_byte(self, config, tmp_path, monkeypatch, block_cells):
        """Tables are written and read a block of rows at a time; the block size shows nowhere.

        One cell per block is one row per block, and 2**40 cells the whole table.
        """
        db = generate_database(config, 35)
        tables = db.tables.values()
        assert min(t.num_rows for t in tables) > 7
        assert any(t.fk_names for t in tables) and any(t.timestamps is not None for t in tables)
        assert any(mask.any() for t in tables for mask in t.null_mask.values())
        save_database(db, tmp_path / "default")
        monkeypatch.setattr(neural, "_BLOCK_CELLS", block_cells)
        save_database(db, tmp_path / "blocked")
        assert _tree_bytes(tmp_path / "blocked") == _tree_bytes(tmp_path / "default")
        loaded = load_database(tmp_path / "blocked")
        for name, a in db.tables.items():
            b = loaded.tables[name]
            for col in a.fk_names:
                assert np.array_equal(a.fk_columns[col], b.fk_columns[col])
            for col in a.feature_names:
                mask = a.null_mask[col]
                assert np.array_equal(mask, b.null_mask[col])
                assert np.array_equal(a.features[col][~mask], b.features[col][~mask])
            assert (a.timestamps is None) == (b.timestamps is None)
            if a.timestamps is not None:
                assert np.array_equal(a.timestamps, b.timestamps)

    def test_save_over_a_larger_database_leaves_no_stale_csv(self, config, tmp_path):
        five, three = (
            generate_database(replace(config, num_tables=PriorSpec.constant(n)), 37)
            for n in (5, 3)
        )
        save_database(five, tmp_path / "db_0")
        save_database(three, tmp_path / "db_0")
        save_database(three, tmp_path / "fresh")
        assert len(list(OutputLayout.tables_dir(tmp_path / "db_0").iterdir())) == 3
        assert _tree_bytes(tmp_path / "db_0") == _tree_bytes(tmp_path / "fresh")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db_0", "fresh"]

    def test_failed_save_leaves_no_new_database_and_keeps_the_old_one(
        self, config, tmp_path, monkeypatch
    ):
        old, new = (
            generate_database(replace(config, num_tables=PriorSpec.constant(3)), seed)
            for seed in (38, 39)
        )
        save_database(old, tmp_path / "db_0")
        before = _tree_bytes(tmp_path / "db_0")
        written = []

        def fails_on_the_second_table(table, path):
            if written:
                raise OSError("no space left on device")
            written.append(path)
            write_table_csv(table, path)

        monkeypatch.setattr("plurelgen.io.write_table_csv", fails_on_the_second_table)
        for name in ("db_0", "db_1"):
            written.clear()
            with pytest.raises(OSError, match="no space"):
                save_database(new, tmp_path / name)
            assert written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db_0"]
        assert _tree_bytes(tmp_path / "db_0") == before
        assert database_dirs(tmp_path) == [tmp_path / "db_0"]

    def test_csv_temporaries_do_not_grow_with_the_table(self, tmp_path):
        """Saving and loading a 1 000 x 300 numeric table holds no table-sized temporary."""
        rng = np.random.default_rng(0)
        values = {f"feature_{i}": rng.standard_normal(1000) for i in range(300)}
        db = make_database([make_table("t", 1000, values, dict.fromkeys(values, "numeric"))])
        table = db.tables["t"]
        own = sum(a.nbytes for a in [*table.features.values(), *table.null_mask.values()])

        def traced_peak(step, *args) -> int:
            tracemalloc.start()
            try:
                step(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(save_database, db, tmp_path / "db") < 4e6
        assert traced_peak(load_database, tmp_path / "db") < own + 4e6

    def test_schema_json_round_trip(self, config, tmp_path):
        db = generate_database(config, 34)
        save_database(db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert database_schema_dict(loaded) == database_schema_dict(db)

    def test_schema_without_cardinalities_loads(self, config, tmp_path):
        db = generate_database(config, 34)
        save_database(db, tmp_path / "db")
        path = OutputLayout.schema_path(tmp_path / "db")
        schema = json.loads(path.read_text())
        for spec in schema["tables"]:
            for column in spec["columns"]:
                column.pop("cardinality", None)
        path.write_text(json.dumps(schema))
        for table in load_database(tmp_path / "db").tables.values():
            assert set(table.feature_cards.values()) == {None}

    def test_csv_format(self, config, tmp_path):
        db = generate_database(config, 35)
        save_database(db, tmp_path / "db")
        name = db.table_order()[0]
        path = OutputLayout.tables_dir(tmp_path / "db") / f"{name}.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        table = db.tables[name]
        assert rows[0][0] == "row_idx"
        assert len(rows) == table.num_rows + 1
        assert [r[0] for r in rows[1:4]] == ["1", "2", "3"]

    def test_find_database_dirs(self, generated_root):
        dirs = find_database_dirs(generated_root)
        assert [d.name for d in dirs] == ["db_0", "db_1"]
        single = find_database_dirs(dirs[0])
        assert single == [dirs[0]]
        from plurelgen.core import ConfigError

        with pytest.raises(ConfigError):
            find_database_dirs(generated_root / "missing")


class TestCorpusCommand:
    def test_tokens_within_one_context_of_target(self, generated_root, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        assert cmd_corpus([str(generated_root)], 20_000, 1024, 128, 7, str(out)) == 0
        printed = int(capsys.readouterr().out.strip())
        assert 20_000 <= printed < 20_000 + 1024
        lines = out.read_text().splitlines()
        total = 0
        for line in lines:
            doc = json.loads(line)
            assert doc["n_tokens"] == len(doc["tokens"]) <= 1024
            total += doc["n_tokens"]
        assert total == printed

    def test_same_seed_identical_file(self, generated_root, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert cmd_corpus([str(generated_root)], 5000, 512, 64, 3, str(a)) == 0
        assert cmd_corpus([str(generated_root)], 5000, 512, 64, 3, str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_databases(self, tmp_path, capsys):
        assert cmd_corpus([str(tmp_path / "nope")], 100, 1024, 128, 0, str(tmp_path / "c")) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, field", [(["--context-len", "1"], "context length"), (["--width", "-1"], "width")]
    )
    def test_unusable_budget_is_one_line(self, generated_root, tmp_path, capsys, flags, field):
        out = str(tmp_path / "c.jsonl")
        argv = ["corpus", str(generated_root), "--tokens", "100", *flags, "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and field in err

    def test_negative_token_target_is_one_line(self, generated_root, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert main(["corpus", str(generated_root), "--tokens", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "--tokens" in err
        assert not out.exists()
        assert main(["corpus", str(generated_root), "--tokens", "0", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "0\n" and out.read_text() == ""

    def test_database_without_feature_cells_is_one_line(self, tmp_path, capsys):
        # it loads, but holds no cell to mask
        empty = make_table("table_0", 0, {"feature_1": []}, {"feature_1": "numeric"})
        save_database(make_database([empty]), tmp_path / "db_0")
        out = tmp_path / "c.jsonl"
        assert main(["corpus", str(tmp_path / "db_0"), "--tokens", "100", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "db_0" in err
        assert not out.exists()

    def test_failed_corpus_keeps_the_old_file(self, generated_root, tmp_path):
        out = tmp_path / "old.jsonl"
        out.write_text("previous\n")
        argv = ["corpus", str(generated_root), "--tokens", "100", "--context-len", "1"]
        assert main([*argv, "--out", str(out)]) == 2
        assert out.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.jsonl"]

    def test_cli_defaults_applied(self, generated_root, tmp_path):
        out = tmp_path / "dflt.jsonl"
        status = main(
            ["corpus", str(generated_root), "--tokens", "2000", "--seed", "1", "--out", str(out)]
        )
        assert status == 0
        for line in out.read_text().splitlines():
            assert json.loads(line)["n_tokens"] <= 1024


class TestStatsCommand:
    def test_single_database_report(self, generated_root, tmp_path):
        report = tmp_path / "report.json"
        single = OutputLayout(generated_root).db_dir(0)
        assert cmd_stats(str(single), str(report)) == 0
        doc = json.loads(report.read_text())
        assert doc["moments"]
        assert doc["first_numeric_ks"] == {}

    def test_multi_database_report(self, generated_root, tmp_path):
        report = tmp_path / "multi.json"
        assert cmd_stats(str(generated_root), str(report)) == 0
        doc = json.loads(report.read_text())
        assert "db_0|db_1" in doc["first_numeric_ks"]

    def test_missing_dir(self, tmp_path):
        assert cmd_stats(str(tmp_path / "void"), str(tmp_path / "r.json")) == 2

    def test_columns_that_join_to_one_key_are_one_line(self, tmp_path, capsys):
        """Column b.c of table a and column c of table a.b would both be a.b.c in the report."""
        tables = [
            make_table("a", 3, {"b.c": [1.0, 2.0, 3.0]}, {"b.c": "numeric"}),
            make_table("a.b", 3, {"c": [10.0, 20.0, 40.0]}, {"c": "numeric"}),
        ]
        save_database(make_database(tables), tmp_path / "db_0")
        report = tmp_path / "report.json"
        assert main(["stats", str(tmp_path), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "column b.c of table a " in err and "column c of table a.b " in err
        assert not report.exists()


def _truncate(header, rows, table):
    del rows[len(rows) // 2 :]


def _fk_past_parent(header, rows, table):
    rows[0][header.index(table["fk"])] = str(table["parent_rows"] + 1)


def _cell(column, text):
    def edit(header, rows, table):
        rows[0][header.index(table[column])] = text

    return edit


def _extra_row(header, rows, table):
    rows.append([str(len(rows) + 1), *rows[-1][1:]])


def _short_row(header, rows, table):
    rows[0].pop()


def _rename_column(header, rows, table):
    header[-1] = "renamed"


# edits that make a table CSV disagree with its schema.json, by fault
MALFORMED_TABLES = {
    "truncated": _truncate,
    "foreign key 0": _cell("fk", "0"),
    "foreign key past its parent": _fk_past_parent,
    "non-numeric cell": _cell("numeric", "abc"),
    "infinite numeric cell": _cell("numeric", "inf"),
    "nan numeric cell": _cell("numeric", "nan"),
    "category past the cardinality": _cell("categorical", "999"),
    "negative category": _cell("categorical", "-3"),
    "empty timestamp": _cell("timestamp", ""),
    "row_idx out of order": _cell("row_idx", "2"),
    "extra row": _extra_row,
    "short row": _short_row,
    "renamed column": _rename_column,
}


def _unknown_fk_target(schema):
    for spec in schema["tables"]:
        for column in spec["columns"]:
            if column["role"] == "fk":
                column["fk_target"] = "no_such_table"


def _edit_json(edit):
    def apply(text):
        schema = json.loads(text)
        edit(schema)
        return json.dumps(schema), ()

    return apply


def _retarget(choose):
    """Point the first FK column that it can at ``choose(table, tables referencing it)``, and make
    ``edges`` the ones the keys then give. The new target has at least the old one's rows, so
    every key stays inside [1, num_rows]. The error must name the table, the column and the
    new target."""

    def apply(text):
        schema = json.loads(text)
        num_rows = {spec["name"]: spec["num_rows"] for spec in schema["tables"]}
        fks = [(s["name"], c) for s in schema["tables"] for c in s["columns"] if c["role"] == "fk"]
        for table, column in fks:
            target = choose(table, [t for t, c in fks if c["fk_target"] == table])
            if target is not None and num_rows[target] >= num_rows[column["fk_target"]]:
                column["fk_target"] = target
                schema["edges"] = [[c["fk_target"], t] for t, c in fks]
                return json.dumps(schema), (table, column["name"], target)
        raise AssertionError("no foreign key could be retargeted")

    return apply


def _listed_twice(text):
    """The last table's spec appended again; the error must name the table."""
    schema = json.loads(text)
    schema["tables"].append(schema["tables"][-1])
    return json.dumps(schema), (schema["tables"][-1]["name"],)


def _column_listed_twice(text):
    """The first table's last feature column listed again; the error must name the table and it."""
    schema = json.loads(text)
    spec = schema["tables"][0]
    column = [c for c in spec["columns"] if c["role"] == "feature"][-1]
    spec["columns"].append(column)
    return json.dumps(schema), (spec["name"], column["name"])


def _renamed_through_parent_dir(text):
    """The first table renamed, in its spec, its keys' targets and ``edges``, to a path that
    leaves ``tables/`` and comes back to the same CSV. The error must name the new name."""
    schema = json.loads(text)
    old = schema["tables"][0]["name"]
    new = f"../tables/{old}"
    schema["tables"][0]["name"] = new
    for spec in schema["tables"]:
        for column in spec["columns"]:
            if column.get("fk_target") == old:
                column["fk_target"] = new
    schema["edges"] = [[new if name == old else name for name in edge] for edge in schema["edges"]]
    return json.dumps(schema), (new,)


# a schema.json that cannot be read as one, whose edges are not the ones its keys give, or whose
# tables are not one CSV each under tables/, each as a function of the file's text to the
# malformed text and the names its error must hold
MALFORMED_SCHEMAS = {
    "not JSON": lambda text: ("{broken", ()),
    "missing num_rows": _edit_json(lambda schema: schema["tables"][0].pop("num_rows")),
    "unknown fk target": _edit_json(_unknown_fk_target),
    "cyclic edges": _edit_json(lambda schema: schema["edges"].append(schema["edges"][0][::-1])),
    "missing edge": _edit_json(lambda schema: schema["edges"].pop()),
    "keys with a cycle": _retarget(lambda table, children: children[0] if children else None),
    "fk target is its own table": _retarget(lambda table, children: table),
    "table listed twice": _listed_twice,
    "column listed twice": _column_listed_twice,
    "table name with a path": _renamed_through_parent_dir,
}


# edits of a saved meta.json by fault, each with the names its error must hold; None deletes it
MALFORMED_METAS = {
    "missing file": (None, ()),
    "missing db_seed": (lambda meta: meta.pop("db_seed"), ("db_seed",)),
    "missing null_fraction": (lambda meta: meta.pop("null_fraction"), ("null_fraction",)),
    "null_fraction above 1": (lambda meta: meta.update(null_fraction=1.5), ("null_fraction",)),
    "negative null_fraction": (lambda meta: meta.update(null_fraction=-0.25), ("null_fraction",)),
    "NaN null_fraction": (lambda meta: meta.update(null_fraction=float("nan")), ("null_fraction",)),
    "fractional db_seed": (lambda meta: meta.update(db_seed=1.7), ("db_seed",)),
    "string db_seed": (lambda meta: meta.update(db_seed="12"), ("db_seed",)),
    "boolean db_seed": (lambda meta: meta.update(db_seed=True), ("db_seed",)),
    "boolean null_fraction": (lambda meta: meta.update(null_fraction=True), ("null_fraction",)),
    "string null_fraction": (lambda meta: meta.update(null_fraction="0.05"), ("null_fraction",)),
}


def _load_command(command, db_dir, tmp_path):
    if command == "corpus":
        return ["corpus", str(db_dir), "--tokens", "1000", "--out", str(tmp_path / "c.jsonl")]
    return ["stats", str(db_dir), "--report", str(tmp_path / "report.json")]


class TestMalformedDatabase:
    """A database directory that does not match its schema.json is one error line naming the file."""

    @pytest.fixture
    def db_dir(self, generated_root, tmp_path):
        db_dir = tmp_path / "db"
        shutil.copytree(OutputLayout(generated_root).db_dir(0), db_dir)
        return db_dir

    @staticmethod
    def _activity_table(db_dir) -> dict:
        """The first table with a foreign key, numeric and categorical features and a timestamp."""
        schema = json.loads(OutputLayout.schema_path(db_dir).read_text())
        num_rows = {spec["name"]: spec["num_rows"] for spec in schema["tables"]}
        for spec in schema["tables"]:
            roles = {c["role"]: c for c in spec["columns"]}
            numeric = [c["name"] for c in spec["columns"] if c.get("dtype") == "numeric"]
            categorical = [c for c in spec["columns"] if c.get("dtype") == "categorical"]
            if {"fk", "timestamp"} <= set(roles) and numeric and categorical:
                assert categorical[0]["cardinality"] < 999
                return {
                    "name": spec["name"],
                    "fk": roles["fk"]["name"],
                    "parent_rows": num_rows[roles["fk"]["fk_target"]],
                    "numeric": numeric[0],
                    "categorical": categorical[0]["name"],
                    "timestamp": roles["timestamp"]["name"],
                    "row_idx": "row_idx",
                }
        raise AssertionError("no activity table with a foreign key and both feature types")

    @staticmethod
    def _rejected(argv, capsys, *names):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert [name for name in names if name not in err] == []

    @pytest.mark.parametrize("command", ["corpus", "stats"])
    @pytest.mark.parametrize("fault", list(MALFORMED_TABLES))
    def test_table_csv(self, db_dir, tmp_path, capsys, command, fault):
        table = self._activity_table(db_dir)
        path = OutputLayout.tables_dir(db_dir) / f"{table['name']}.csv"
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        MALFORMED_TABLES[fault](header, rows, table)
        path.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))
        self._rejected(_load_command(command, db_dir, tmp_path), capsys, path.name)

    @pytest.mark.parametrize("command", ["corpus", "stats"])
    @pytest.mark.parametrize("fault", list(MALFORMED_SCHEMAS))
    def test_schema_json(self, db_dir, tmp_path, capsys, command, fault):
        path = OutputLayout.schema_path(db_dir)
        text, named = MALFORMED_SCHEMAS[fault](path.read_text())
        path.write_text(text)
        self._rejected(_load_command(command, db_dir, tmp_path), capsys, "schema.json", *named)

    @pytest.mark.parametrize("command", ["corpus", "stats"])
    @pytest.mark.parametrize("fault", list(MALFORMED_METAS))
    def test_meta_json(self, db_dir, tmp_path, capsys, command, fault):
        """save_database always writes meta.json, so a loader that made up its fields hid a fault."""
        edit, named = MALFORMED_METAS[fault]
        path = OutputLayout.meta_path(db_dir)
        if edit is None:
            path.unlink()
        else:
            meta = json.loads(path.read_text())
            edit(meta)
            path.write_text(json.dumps(meta))
        self._rejected(_load_command(command, db_dir, tmp_path), capsys, "meta.json", *named)

    @pytest.mark.parametrize("command", ["corpus", "stats"])
    def test_two_keys_into_one_table(self, tmp_path, capsys, command):
        """A child row whose FK columns a and b reference one parent row is not loaded."""
        parent = make_table("parent", 1, {"feature_1": [1.5]}, {"feature_1": "numeric"})
        child = make_table(
            "child", 1, {"feature_1": [2.5]}, {"feature_1": "numeric"},
            fk={"a": [1], "b": [1]}, fk_targets={"a": "parent", "b": "parent"},
        )
        save_database(make_database([parent, child]), tmp_path / "db")
        with pytest.raises(ConfigError, match="schema.json: two foreign keys of child"):
            load_database(tmp_path / "db")
        self._rejected(_load_command(command, tmp_path / "db", tmp_path), capsys, "schema.json")

    @pytest.mark.parametrize("command", ["corpus", "stats"])
    def test_column_listed_twice_in_schema_and_header(self, tmp_path, capsys, command):
        """A table whose schema.json and CSV header both list feature_1 twice is not loaded."""
        table = make_table("table_0", 2, {"feature_1": [1.5, 2.5]}, {"feature_1": "numeric"})
        save_database(make_database([table]), tmp_path / "db")
        path = OutputLayout.schema_path(tmp_path / "db")
        schema = json.loads(path.read_text())
        columns = schema["tables"][0]["columns"]
        columns.append(columns[-1])
        path.write_text(json.dumps(schema))
        csv_text = "row_idx,feature_1,feature_1\n1,1.5,3.5\n2,2.5,4.5\n"
        (OutputLayout.tables_dir(tmp_path / "db") / "table_0.csv").write_text(csv_text)
        argv = _load_command(command, tmp_path / "db", tmp_path)
        self._rejected(argv, capsys, "schema.json", "table_0", "feature_1")


class TestFitCommand:
    def test_recovers_synthetic_parameters(self, tmp_path):
        xs = [8, 16, 32, 64, 128, 256, 512, 1024]
        points = tmp_path / "points.csv"
        with open(points, "w") as fh:
            fh.write("x,loss\n")
            for x in xs:
                fh.write(f"{x},{2.0 * x**-0.5 + 0.1}\n")
        out = tmp_path / "fit.json"
        assert cmd_fit(str(points), str(out)) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["A"] - 2.0) < 1e-3
        assert abs(doc["alpha"] - 0.5) < 1e-3
        assert abs(doc["C"] - 0.1) < 1e-3

    def test_degenerate_input_exit_code(self, tmp_path, capsys):
        points = tmp_path / "flat.csv"
        points.write_text("1,0.5\n2,0.5\n3,0.5\n4,0.5\n")
        assert cmd_fit(str(points), str(tmp_path / "f.json")) == 2
        assert "error" in capsys.readouterr().err

    def test_unreadable_input(self, tmp_path):
        assert cmd_fit(str(tmp_path / "missing.csv"), str(tmp_path / "f.json")) == 2

    @pytest.mark.parametrize(
        "row, named",
        [
            ("16", ["points.csv", "row 3", "1 cells"]),
            ("16,1.6,7", ["points.csv", "row 3", "3 cells"]),
            ("16,nan", ["finite"]),
            ("16,inf", ["finite"]),
        ],
        ids=["one cell", "three cells", "nan loss", "inf loss"],
    )
    def test_malformed_point_is_one_line(self, tmp_path, capsys, row, named):
        """The third line of the file is the bad row; the fit writes no JSON."""
        points, out = tmp_path / "points.csv", tmp_path / "fit.json"
        lines = ["x,loss"] + [f"{x},{2.0 * x**-0.5 + 0.1}" for x in (8, 16, 32, 64, 128)]
        lines[2] = row
        points.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(points), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert [name for name in named if name not in err] == []
        assert not out.exists()

    def test_second_header_row_is_one_line(self, tmp_path, capsys):
        """Only the first row may be a header; a later non-numeric row is named, not skipped."""
        points, out = tmp_path / "points.csv", tmp_path / "fit.json"
        lines = ["x,loss", "foo,bar"] + [f"{x},{2.0 * x**-0.5 + 0.1}" for x in (8, 16, 32, 64)]
        points.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(points), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "points.csv" in err and "row 2" in err
        assert not out.exists()


class TestProfileCommand:
    def test_two_row_csv(self, tmp_path):
        out = tmp_path / "prof.csv"
        assert cmd_profile(None, [3, 4], 1, str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "num_tables",
            "latency_sec_mean",
            "latency_sec_std",
            "peak_memory_gb_mean",
            "peak_memory_gb_std",
        ]
        assert len(rows) == 3
        assert [r[0] for r in rows[1:]] == ["3", "4"]

    def test_zero_repeats_is_one_line(self, tmp_path, capsys):
        argv = ["profile", "--counts", "3", "--repeats", "0", "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "repeats" in err

    @pytest.mark.parametrize("counts", ["", ","], ids=["empty", "comma"])
    def test_no_table_count_is_one_line(self, tmp_path, capsys, counts):
        out = tmp_path / "p.csv"
        assert main(["profile", "--counts", counts, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "table_counts" in err
        assert not out.exists()


class TestMainParser:
    def test_counts_parsing(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["profile", "--counts", "3", "--out", str(out)]) == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
