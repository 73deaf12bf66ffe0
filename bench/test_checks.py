"""The benchmark's output checks pass clean output and reject corrupted output.

Each test writes one small database and corpus with the program, corrupts a
copy in a way the method forbids, and expects the matching check to object.
"""

import csv
import json
import shutil
from dataclasses import replace

import pytest

from checks import Database, check_corpus, check_database, check_same_files, priors_of, tree_digest
from plurelgen import PriorSpec, default_config, generate_database
from plurelgen import io as pio
from plurelgen.corpus import build_corpus

CONFIG = replace(
    default_config(),
    num_tables=PriorSpec.uniform_range(3, 5),
    rows_entity=PriorSpec.uniform_range(10, 20),
    rows_activity=PriorSpec.uniform_range(20, 40),
)
CONTEXT_LEN, WIDTH, TARGET = 128, 128, 4096


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A database with at least one foreign key, and a corpus built from it."""
    root = tmp_path_factory.mktemp("written")
    db = next(d for d in (generate_database(CONFIG, s) for s in range(50)) if d.schema.edges)
    pio.save_database(db, root / "db_0", {"null_fraction": db.null_fraction})
    loaded = [("db_0", pio.load_database(root / "db_0"))]
    stream = build_corpus(loaded, TARGET, CONTEXT_LEN, WIDTH, seed=3)
    _, tokens = pio.write_corpus_file(stream, root / "corpus.jsonl")
    return root, tokens


@pytest.fixture
def copy(written, tmp_path):
    root, tokens = written
    shutil.copytree(root, tmp_path / "out")
    return tmp_path / "out", tokens


def corpus_errors(out, tokens):
    return check_corpus(
        out / "corpus.jsonl", {"db_0": Database(out / "db_0")}, CONTEXT_LEN, WIDTH, TARGET, tokens
    )


def edit_corpus(out, edit):
    """Apply ``edit`` to the first corpus line for which it returns True."""
    path = out / "corpus.jsonl"
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert any(edit(example) for example in lines), "no corpus line could be corrupted"
    path.write_text("".join(json.dumps(example) + "\n" for example in lines))


def test_clean_output_passes(copy):
    out, tokens = copy
    assert check_database(Database(out / "db_0"), priors_of(CONFIG)) == []
    assert corpus_errors(out, tokens) == []


def test_foreign_key_out_of_range_is_rejected(copy):
    out, _ = copy
    db = Database(out / "db_0")
    table = next(t for t, fks in db.fks.items() if fks)
    column, parent = db.fks[table][0]
    path = out / "db_0" / "tables" / f"{table}.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index(column)] = str(db.specs[parent]["num_rows"] + 1)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    errors = check_database(Database(out / "db_0"), priors_of(CONFIG))
    assert any("FK value" in e for e in errors), errors


def test_future_row_in_context_is_rejected(copy):
    out, tokens = copy
    db = Database(out / "db_0")
    table = next(t for t, col in db.ts_col.items() if col)
    last = len(db.cells[table]["row_idx"])
    stamp = db.row_timestamp(table, last)

    def add_future_row(example):
        seed_ts = db.row_timestamp(example["seed"]["table"], example["seed"]["row"])
        if seed_ts is not None and seed_ts >= stamp:
            return False
        example["tokens"].append(
            {"t": table, "c": "timestamp", "r": last, "v": stamp, "type": "timestamp",
             "masked": False}
        )
        example["n_tokens"] += 1
        return True

    edit_corpus(out, add_future_row)
    errors = corpus_errors(out, tokens + 1)
    assert any("after the seed row" in e for e in errors), errors


def test_second_masked_token_is_rejected(copy):
    out, tokens = copy

    def mask_another(example):
        token = next((t for t in example["tokens"] if not t["masked"]), None)
        if token is None:
            return False
        token["masked"], token["v"] = True, None
        return True

    edit_corpus(out, mask_another)
    errors = corpus_errors(out, tokens)
    assert any("masked tokens" in e for e in errors), errors


def test_flipped_byte_between_repeats_is_rejected(copy):
    out, _ = copy
    shutil.copytree(out / "db_0", out / "again")
    first = tree_digest(out / "db_0")
    assert check_same_files(first, tree_digest(out / "again"), "db_0") == []
    path = next((out / "again" / "tables").iterdir())
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))
    assert check_same_files(first, tree_digest(out / "again"), "db_0") != []
