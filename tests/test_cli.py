import csv
import json
from pathlib import Path

import numpy as np
import pytest

from plurelgen.cli import cmd_corpus, cmd_fit, cmd_generate, cmd_profile, cmd_stats, main
from plurelgen.core import split_seed
from plurelgen.io import (
    OutputLayout,
    database_schema_dict,
    find_database_dirs,
    load_database,
    save_database,
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
            ("power_law_exponent", "abc"),
            ("mlp_output_dim", {"kind": "constant", "payload": 0}),
            ("mlp_output_dim", {"kind": "constant", "payload": 2}),
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
            ("rows_entity", {"kind": "range-power-law", "payload": [5, 10]}),
            # 3 ** -1000 underflows every weight of the default num_columns (3, 40)
            ("power_law_exponent", 1000),
        ],
    )
    def test_main_rejects_a_config_in_one_line(self, tmp_path, capsys, name, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({name: value}))
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


class TestRoundTrip:
    def test_database_round_trip(self, config, tmp_path):
        db = generate_database(config, 33)
        save_database(db, tmp_path / "db", meta={"db_seed": 33, "null_fraction": db.null_fraction})
        loaded = load_database(tmp_path / "db")
        assert loaded.schema.names == db.schema.names
        assert loaded.schema.edges == db.schema.edges
        assert loaded.schema.meta == db.schema.meta
        for name in db.table_order():
            a, b = db.tables[name], loaded.tables[name]
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


class TestProfileCommand:
    def test_two_row_csv(self, tmp_path):
        out = tmp_path / "prof.csv"
        assert cmd_profile(None, [3, 4], 1, str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "num_tables"
        assert len(rows) == 3
        assert [r[0] for r in rows[1:]] == ["3", "4"]


class TestMainParser:
    def test_counts_parsing(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["profile", "--counts", "3", "--out", str(out)]) == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
