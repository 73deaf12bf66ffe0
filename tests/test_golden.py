"""Byte identity of generated output, pinned as digests.

A refactor that must not change the output keeps ``GOLDEN_TREE_DIGEST`` (a
``generate`` tree) and ``GOLDEN_CORPUS_DIGEST`` (a ``corpus`` file built from
it); a change that alters the bytes on purpose re-pins them and says so. The
other tests here compare the fast paths of SCM realization and the CSV writer
with plain references written in this file, and the timestamp text of the CSV
writer with that of the corpus.
"""

import ctypes
import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import plurelgen
from conftest import feature_ancestors, generation_plan, make_database, make_table
from plurelgen.core import PriorSpec, SeededRng, default_config, save_config, split_seed
from plurelgen.corpus import bfs_context, example_to_json
from plurelgen.io import write_table_csv
from plurelgen.neural import init_embedding, init_mlp, mlp_forward
from plurelgen.schema_gen import topological_order
from plurelgen.scm_gen import (
    NUMERIC,
    build_scm,
    generate_database,
    generate_table,
    realize_table_values,
    sample_causal_graph,
    softmax,
    temporal_signal,
)

# `plurelgen generate --seed 42 --num-dbs 2` under the default priors with
# 20-50 entity rows and 50-200 activity rows, one BLAS thread
GOLDEN_TREE_DIGEST = "53fe77e962dac4e3135d0f2d9331ee1b573304226cce7d408090d970572cf348"
# `plurelgen corpus <that tree> --tokens 20000 --seed 7`, default context length and width
GOLDEN_CORPUS_DIGEST = "5be0957f60002dd23e3d8c38d3eac30bf991f511b47fb6e6e10ecb736f18dd95"

EPOCH = datetime(1970, 1, 1)
YEAR_500 = int((datetime(500, 6, 1) - EPOCH).total_seconds())


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and the sha256 of its bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def small_config():
    return replace(
        default_config(),
        rows_entity=PriorSpec.uniform_range(20, 50),
        rows_activity=PriorSpec.uniform_range(50, 200),
    )


def _run_cli(*args: str) -> None:
    """``plurelgen <args>`` in a fresh interpreter on one thread and one BLAS thread."""
    src = Path(plurelgen.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PLURELGEN_THREADS="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-m", "plurelgen.cli", *args]
    subprocess.run(cmd, env=env, check=True, capture_output=True)


def _generate_golden_tree(tmp_path) -> Path:
    config_path = tmp_path / "config.json"
    save_config(small_config(), config_path)
    out = tmp_path / "out"
    _run_cli(
        "generate", "--config", str(config_path), "--seed", "42", "--num-dbs", "2",
        "--out", str(out),
    )
    return out


def _openblas_kernel() -> str:
    """The kernel that numpy's bundled OpenBLAS picked at run time, or ``unknown``."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _platform() -> str:
    """What the bytes rest on besides (config, seed): numpy, BLAS and its running kernel,
    SIMD targets, forced kernels."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 has no dict mode
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas")
    simd = config.get("SIMD Extensions", {}).get("found")
    knobs = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    forced = {k: os.environ[k] for k in knobs if k in os.environ}
    return (
        "the digests were pinned on numpy 2.4.6 and OpenBLAS 0.3.31 with its SkylakeX kernel on "
        "an AVX-512 host, and numeric cells differ in their last bits on other kernels (README, "
        f"'Byte contract'); this run: numpy {np.__version__}, BLAS {blas}, OpenBLAS kernel "
        f"{_openblas_kernel()}, SIMD found {simd}, forced {forced}"
    )


def test_generate_tree_digest_is_pinned(tmp_path):
    digest = tree_digest(_generate_golden_tree(tmp_path))
    assert digest == GOLDEN_TREE_DIGEST, f"observed {digest}; {_platform()}"


def test_corpus_digest_is_pinned(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    _run_cli(
        "corpus", str(_generate_golden_tree(tmp_path)), "--tokens", "20000", "--seed", "7",
        "--out", str(corpus),
    )
    data = corpus.read_bytes()
    assert b'"type":"timestamp"' in data
    digest = hashlib.sha256(data).hexdigest()
    assert digest == GOLDEN_CORPUS_DIGEST, f"observed {digest}; {_platform()}"


def _project_rowwise(mlp, emb, values):
    """Every row through the projector MLP, categorical rows via their embedding."""
    if emb is None:
        return mlp_forward(mlp, np.asarray(values, dtype=np.float64)[:, None])
    return mlp_forward(mlp, emb[np.asarray(values, dtype=np.int64) - 1])


def _realize_gather_then_project(scm, parents):
    """Reference realization: foreign values gathered through the FK, then projected.

    The spec must hold exactly the feature nodes and their ancestors. Node
    ``v`` draws from the stream ``split_seed(scm.seed, 1 + v)``: a source its
    temporal noise, then a categorical source its categories; a mechanism, in
    the order realization draws, the Beta input, every projector's weights,
    foreign then local, then the reconstruction head's. A projector of a
    categorical input draws its embedding, then its MLP; a reconstruction
    head draws its MLP, then a categorical node's embedding. A projector's
    input weight, 1 / (the parent's feature count) or the causal edge's
    weight, scales its MLP's second layer. The latent sum adds the exogenous
    term, then each parent table's projections summed in column order, then
    each local projection.
    """
    graph, num_rows, hidden = scm.graph, scm.num_rows, scm.hidden_dim
    rs = np.arange(1, num_rows + 1, dtype=np.float64)
    assert sorted(scm.topo) == sorted(feature_ancestors(graph))
    values = {}
    for v in scm.topo:
        node_rng = SeededRng(split_seed(scm.seed, 1 + v))
        if v in scm.sources:
            if graph.node_types[v] == NUMERIC:
                (params,) = scm.sources[v]
                values[v] = temporal_signal(rs, params, node_rng)
            else:
                g = np.column_stack([temporal_signal(rs, p, node_rng) for p in scm.sources[v]])
                values[v] = node_rng.categorical_rows(softmax(g)) + 1
            continue
        m = scm.mechanisms[v]
        u = node_rng.beta(m.exo_beta[0], m.exo_beta[1], size=(num_rows, hidden))
        # (dtype, cardinality, input weight, gathered values) of every input, foreign then local
        inputs = [
            (table.feature_types[c], table.feature_cards[c], 1.0 / len(table.feature_names),
             table.features[c][index])
            for table, index in parents
            for c in table.feature_names
        ]
        inputs += [
            (graph.node_types[j], graph.cardinalities[j], graph.edge_weights[(j, v)], values[j])
            for j in graph.predecessors(v)
        ]
        projected = []
        for tags, (dtype, card, weight, x) in zip(m.foreign_proj + m.local_proj, inputs):
            emb = None if dtype == NUMERIC else init_embedding(card, hidden, node_rng)
            width = 1 if emb is None else hidden
            mlp = init_mlp(width, hidden, tags.scheme, tags.activation, node_rng, hidden)
            mlp = replace(mlp, w2=mlp.w2 * weight)
            projected.append(_project_rowwise(mlp, emb, x))
        numeric = graph.node_types[v] == NUMERIC
        recon = init_mlp(
            hidden, 1 if numeric else hidden, m.recon.scheme, m.recon.activation, node_rng, hidden
        )
        emb = None if numeric else init_embedding(graph.cardinalities[v], hidden, node_rng)
        e = m.exo_weight * u
        for table, _ in parents:
            count = len(table.feature_names)
            parent_sum = projected[0]
            for e_k in projected[1:count]:
                parent_sum = parent_sum + e_k
            e = e + parent_sum
            projected = projected[count:]
        for e_k in projected:
            e = e + e_k
        latent = mlp_forward(recon, e)
        if emb is None:
            values[v] = latent[:, 0]
        else:
            values[v] = np.argmax(latent @ emb.T, axis=1).astype(np.int64) + 1
    return values


@pytest.mark.parametrize("seed", [3, 11])
def test_realize_matches_gather_then_project(seed):
    config = small_config()
    db = generate_database(config, seed)
    graph, plan = generation_plan(config, seed)
    assert (graph.names, graph.edges) == (db.schema.names, db.schema.edges)
    children = [t for t in topological_order(graph) if graph.parents(t)]
    assert children
    kinds = set()
    for t in children:
        meta, table = plan[t], db.tables[graph.names[t]]
        rng = SeededRng(split_seed(seed, 2 + t)).spawn(0)
        causal = sample_causal_graph(meta.num_feature_columns, config, rng)
        parents = [(db.tables[table.fk_targets[c]], table.fk_columns[c] - 1) for c in table.fk_names]
        num_foreign = sum(len(parent.feature_names) for parent, _ in parents)
        scm = build_scm(causal, meta.kind, meta.num_rows, num_foreign, config, rng)
        new = realize_table_values(scm, parents)
        expected = _realize_gather_then_project(scm, parents)
        assert new.keys() == expected.keys()
        for v in expected:
            assert np.array_equal(new[v], expected[v])
        for col, node in zip(table.feature_names, causal.feature_nodes):
            assert np.array_equal(table.features[col], new[node])
        kinds |= {parent.feature_types[c] for parent, _ in parents for c in parent.feature_names}
    assert kinds == {"numeric", "categorical"}


@pytest.mark.parametrize("seed", [3, 11])
def test_generate_table_rebuilds_every_table_from_the_plan(seed):
    # each table from its plan entry and the database's own parent tables, in
    # foreign-key column order; NULLs are injected after, so masks are not compared
    config = small_config()
    db = generate_database(config, seed)
    graph, plan = generation_plan(config, seed)
    with_parents = 0
    for t, name in enumerate(graph.names):
        table = db.tables[name]
        parents = [db.tables[table.fk_targets[c]] for c in table.fk_names]
        assert [p.name for p in parents] == [graph.names[p] for p in graph.parents(t)]
        with_parents += bool(parents)
        rebuilt = generate_table(name, plan[t], parents, config, SeededRng(split_seed(seed, 2 + t)))
        assert (rebuilt.kind, rebuilt.num_rows) == (table.kind, table.num_rows)
        assert (rebuilt.fk_names, rebuilt.fk_targets) == (table.fk_names, table.fk_targets)
        for c in table.fk_names:
            assert rebuilt.fk_columns[c].tobytes() == table.fk_columns[c].tobytes()
        assert rebuilt.feature_names == table.feature_names
        assert rebuilt.feature_types == table.feature_types
        assert rebuilt.feature_cards == table.feature_cards
        for c in table.feature_names:
            assert rebuilt.features[c].dtype == table.features[c].dtype
            assert rebuilt.features[c].tobytes() == table.features[c].tobytes()
        if table.timestamps is None:
            assert rebuilt.timestamps is None
        else:
            assert rebuilt.timestamps.tobytes() == table.timestamps.tobytes()
    assert with_parents


def test_write_table_csv_matches_rowwise_rendering(tmp_path):
    rng = np.random.default_rng(5)
    n = 5000  # more than one block of rows
    numeric = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
    numeric[:4] = [0.0, -0.0, 1e300, 5e-324]
    table = make_table(
        "t",
        n,
        {"feature_1": numeric, "feature_2": rng.integers(1, 11, size=n)},
        {"feature_1": "numeric", "feature_2": "categorical"},
        fk={"foreign_row_1": rng.integers(1, 900, size=n)},
        fk_targets={"foreign_row_1": "p"},
        timestamps=np.sort(np.append(rng.integers(-10**9, 2 * 10**9, size=n - 1), YEAR_500)),
        kind="activity",
    )
    table.null_mask["feature_1"] = rng.uniform(size=n) < 0.1
    table.null_mask["feature_2"] = rng.uniform(size=n) < 0.3
    path = tmp_path / "t.csv"
    write_table_csv(table, path)

    lines = ["row_idx,foreign_row_1,feature_1,feature_2,timestamp"]
    for r in range(n):
        num = "" if table.null_mask["feature_1"][r] else repr(float(numeric[r]))
        cat = "" if table.null_mask["feature_2"][r] else str(int(table.features["feature_2"][r]))
        fk = str(int(table.fk_columns["foreign_row_1"][r]))
        stamp = (EPOCH + timedelta(seconds=int(table.timestamps[r]))).isoformat() + "Z"
        lines.append(",".join([str(r + 1), fk, num, cat, stamp]))
    assert path.read_text() == "\n".join(lines) + "\n"


def test_year_500_timestamp_has_one_spelling(tmp_path):
    table = make_table(
        "t", 2, {"feature_1": [1.5, 2.5]}, {"feature_1": "numeric"},
        timestamps=[YEAR_500, YEAR_500 + 60], kind="activity",
    )
    path = tmp_path / "t.csv"
    write_table_csv(table, path)
    csv_stamp = path.read_text().splitlines()[1].split(",")[-1]
    example = bfs_context(make_database([table]), ("t", "feature_1", 1))
    corpus_stamps = [
        tok["v"] for tok in example_to_json(example)["tokens"] if tok["type"] == "timestamp"
    ]
    assert csv_stamp == "0500-06-01T00:00:00Z"
    assert corpus_stamps == [csv_stamp]
