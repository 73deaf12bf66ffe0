"""Acceptance suite: one test per criterion, each printing a PASS line with the
measured quantities. Heavyweight shared inputs (the 100-database pool) are
module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from conftest import databases_equal, generation_plan, row_timestamp
from plurelgen.analysis import (
    FitDegenerateError,
    diversity_report,
    fit_power_law,
    hsbm_fidelity,
    profile_generation,
)
from plurelgen.cli import cmd_generate
from plurelgen.core import SeededRng, default_config, split_seed
from plurelgen.corpus import (
    RowGraph,
    _draw_seed_cell,
    bfs_context,
    example_to_json,
)
from plurelgen.fk_gen import assign_block_hierarchy, sample_links
from plurelgen.schema_gen import ACTIVITY, ENTITY, topological_order
from plurelgen.scm_gen import (
    CYCLE_LOWER,
    CYCLE_UPPER,
    FLUC_LOWER,
    FLUC_UPPER,
    TREND_BOUND,
    TREND_OFFSET,
    TemporalParams,
    build_scm,
    categorical_source_sample,
    cycle,
    fluc_from_noise,
    generate_database,
    generate_table,
    realize_table_values,
    sample_causal_graph,
    softmax,
    temporal_signal,
    trend,
)

POOL_SEED = 20_250_810
POOL_SIZE = 100


@pytest.fixture(scope="module")
def config():
    return default_config()


@pytest.fixture(scope="module")
def db_pool(config):
    return [generate_database(config, split_seed(POOL_SEED, i)) for i in range(POOL_SIZE)]


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_01_determinism_and_runtime(tmp_path):
    t0 = time.perf_counter()
    assert cmd_generate(None, 424_242, 8, str(tmp_path / "run_a")) == 0
    assert cmd_generate(None, 424_242, 8, str(tmp_path / "run_b")) == 0
    elapsed = time.perf_counter() - t0
    a = _tree_bytes(tmp_path / "run_a")
    b = _tree_bytes(tmp_path / "run_b")
    assert a.keys() == b.keys() and len(a) > 0
    diffs = [k for k in a if a[k] != b[k]]
    assert diffs == []
    assert elapsed < 600.0
    print(
        f"\n[criterion 1] PASS determinism: {len(a)} files byte-identical across reruns, "
        f"two 8-database runs in {elapsed:.1f}s (< 600s)"
    )


def test_criterion_02_structural_validity(config, db_pool):
    fk_violations = 0
    for i, db in enumerate(db_pool):
        # the sampled plan is the one the database's foreign keys give
        graph, plan = generation_plan(config, split_seed(POOL_SEED, i))
        assert (db.schema.names, db.schema.edges) == (graph.names, graph.edges)
        order = topological_order(graph)  # raises on a cycle
        assert len(order) == graph.num_tables
        assert 3 <= graph.num_tables <= 20
        assert all(p != c for p, c in graph.edges)
        for t in range(graph.num_tables):
            meta = plan[t]
            table = db.tables[graph.names[t]]
            assert 3 <= meta.num_feature_columns <= 40
            expected = ENTITY if graph.out_degree(t) >= 1 else ACTIVITY
            assert meta.kind == expected == table.kind
            assert len(table.fk_names) == len(graph.parents(t))
            for col in table.fk_names:
                parent = db.tables[table.fk_targets[col]]
                fk = table.fk_columns[col]
                fk_violations += int((fk < 1).sum() + (fk > parent.num_rows).sum())
    assert fk_violations == 0
    print(
        f"\n[criterion 2] PASS structural validity over {len(db_pool)} databases: "
        f"0 cycles, 0 self-loops, 0 FK violations, all counts in range"
    )


def test_criterion_03_hsbm_fidelity():
    rep = hsbm_fidelity(
        child_blocks=(3, 2),
        parent_blocks=(2, 3),
        num_child_rows=200,
        num_parent_rows=50,
        samples_per_block=10_000,
        rng=SeededRng(31),
    )
    assert rep.max_tv < 0.05
    for entry in rep.entries:
        assert abs(entry.analytic.sum() - 1.0) < 1e-12

    # degenerate single-block case: per-parent counts within 4-sigma binomial bounds
    n, m = 100_000, 10
    child = assign_block_hierarchy(n, (1,), SeededRng(32))
    parent = assign_block_hierarchy(m, (1,), SeededRng(33))
    stack = (np.array([[1.0]]),)
    links = sample_links(child, parent, stack, SeededRng(34))
    counts = np.bincount(links, minlength=m + 1)[1:]
    bound = 4.0 * math.sqrt(n * (1 / m) * (1 - 1 / m))
    worst = float(np.abs(counts - n / m).max())
    assert worst <= bound
    print(
        f"\n[criterion 3] PASS HSBM fidelity: max TV {rep.max_tv:.4f} (< 0.05) over "
        f"{len(rep.entries)} child blocks; degenerate case worst deviation "
        f"{worst:.0f} <= 4-sigma bound {bound:.0f}"
    )


def test_criterion_04_temporal_closed_forms():
    # each component is clamped by the module's constants
    rng = SeededRng(41)
    for _ in range(100):
        exponent, scale = rng.uniform(0, 2), rng.uniform(-5, 5)
        total_rows = int(rng.integers(1, 5000))
        r = float(rng.integers(1, total_rows))
        want = min(scale * (r / total_rows) ** exponent + TREND_OFFSET, TREND_BOUND)
        assert abs(trend(r, total_rows, exponent, scale) - want) < 1e-12
    for _ in range(100):
        period, scale = rng.uniform(0.5, 5000), rng.uniform(-2, 2)
        r = float(rng.integers(0, 5000))
        want = min(max(scale * math.sin(math.pi * r / period), CYCLE_LOWER), CYCLE_UPPER)
        assert abs(cycle(r, period, scale) - want) < 1e-12
    for _ in range(100):
        scale = rng.uniform(0, 2)
        noise = float(rng.standard_normal())
        want = min(max(scale * noise, FLUC_LOWER), FLUC_UPPER)
        assert abs(fluc_from_noise(noise, scale) - want) < 1e-12

    # the combined signal is the arithmetic mean of the three components, with
    # the trend capped at 3, the cycle clamped to [-1, 1] and the fluctuation to [-3, 3]
    params = TemporalParams(1.2, 0.8, 0.1, 0.9, 0.05)
    for k in range(100):
        r = float(k + 1)
        got = temporal_signal(r, 500, params, SeededRng(split_seed(4, k)))
        noise = float(SeededRng(split_seed(4, k)).standard_normal())
        want = (
            trend(r, 500, 1.2, 0.8) + cycle(r, 500 * 0.1, 0.9) + fluc_from_noise(noise, 0.05)
        ) / 3.0
        assert abs(got - want) < 1e-12

    for _ in range(200):
        p = softmax(rng.standard_normal(int(rng.integers(2, 10))))
        assert np.all(p >= 0) and abs(p.sum() - 1.0) < 1e-9

    # at r = 9 of 100 rows the boosted signal is (3 ln 3 - 1 + sin(pi * 9 / 18)) / 3 = ln 3
    flat = TemporalParams(1.0, 0.0, 0.05, 0.0, 0.0)
    boosted = TemporalParams(0.0, 3.0 * math.log(3.0) - 1.0, 0.18, 1.0, 0.0)
    draw_rng = SeededRng(43)
    draws = np.array(
        [categorical_source_sample(9, 100, (flat, boosted), draw_rng) for _ in range(100_000)]
    )
    freqs = np.bincount(draws, minlength=3)[1:] / draws.size
    assert abs(freqs[0] - 0.25) < 0.01 and abs(freqs[1] - 0.75) < 0.01
    print(
        "\n[criterion 4] PASS temporal closed forms at 1e-12 over 100 random points each; "
        f"softmax sums within 1e-9; categorical frequencies ({freqs[0]:.3f}, {freqs[1]:.3f}) "
        "within 1% of (0.25, 0.75)"
    )


def test_criterion_05_null_injection(db_pool):
    checked = 0
    for db in db_pool:
        cells = 0
        nulls = 0
        for name in db.table_order():
            table = db.tables[name]
            for col in table.feature_names:
                cells += table.num_rows
                nulls += int(table.null_mask[col].sum())
            # keys and timestamps carry no mask and no sentinel values
            assert set(table.null_mask) == set(table.feature_names)
            for col in table.fk_names:
                assert table.fk_columns[col].dtype == np.int64
            if table.timestamps is not None:
                assert table.timestamps.dtype == np.int64
        if cells >= 100_000:
            checked += 1
            assert abs(nulls / cells - db.null_fraction) < 0.01
    assert checked >= 10
    print(
        f"\n[criterion 5] PASS NULL injection: realized fraction within 0.01 of target "
        f"on {checked} databases with >= 1e5 feature cells; keys and timestamps NULL-free"
    )


def test_criterion_06_corpus_contracts(db_pool):
    dbs = db_pool[:4]
    graphs = [RowGraph(db) for db in dbs]
    budget, width, n_contexts = 1024, 128, 10_000
    budget_viol = temporal_viol = fanout_viol = accounting_viol = 0
    for k in range(n_contexts):
        rng = SeededRng(split_seed(61, k))
        di = int(rng.integers(0, len(dbs) - 1))
        db = dbs[di]
        cell = _draw_seed_cell(graphs[di], rng)
        ex = bfs_context(graphs[di], cell, budget, width, rng)
        if ex.n_tokens > budget:
            budget_viol += 1
        seed_ts = row_timestamp(db, ex.seed_table, ex.seed_row)
        if any(row_timestamp(db, t, r) > seed_ts for t, r in ex.rows):
            temporal_viol += 1
        per_parent: dict = {}
        for _, parent in ex.fk_edges:
            per_parent[parent] = per_parent.get(parent, 0) + 1
        if per_parent and max(per_parent.values()) > width:
            fanout_viol += 1
        tokens = example_to_json(ex)["tokens"]
        if ex.n_tokens != len(tokens) or sum(t["masked"] for t in tokens) != 1:
            accounting_viol += 1
    assert budget_viol == 0
    assert temporal_viol == 0
    assert fanout_viol == 0
    assert accounting_viol == 0
    print(
        f"\n[criterion 6] PASS corpus contracts over {n_contexts} contexts at "
        f"L={budget}, w={width}: 0 budget, 0 temporal, 0 fan-out, 0 accounting violations"
    )


def test_criterion_07_diversity(db_pool):
    dbs = [(f"db_{i}", db) for i, db in enumerate(db_pool[:20])]
    rep = diversity_report(dbs)
    ks_values = list(rep["first_numeric_ks"].values())
    assert len(ks_values) == 190
    frac = float(np.mean([v > 0.1 for v in ks_values]))
    assert frac > 0.6
    skews = list(rep["first_numeric_skewness"].values())
    positive = sum(1 for s in skews if s > 0)
    negative = sum(1 for s in skews if s < 0)
    assert positive >= 1 and negative >= 1
    print(
        f"\n[criterion 7] PASS diversity: {frac:.1%} of 190 pairwise KS statistics exceed 0.1 "
        f"(> 60%); skewness signs vary ({positive} positive, {negative} negative)"
    )


def test_criterion_08_power_law_fitter():
    xs = np.array([8, 16, 32, 64, 128, 256, 512, 1024], dtype=float)
    a, alpha, c = 2.0, 0.5, 0.1
    clean = a * xs**-alpha + c
    fit = fit_power_law(np.column_stack([xs, clean]))
    rel = max(
        abs(fit.A - a) / a, abs(fit.alpha - alpha) / alpha, abs(fit.C - c) / c
    )
    assert rel < 1e-3

    noise_rng = np.random.default_rng(8081)
    errors = []
    for _ in range(100):
        noisy = clean * (1.0 + 0.01 * noise_rng.standard_normal(xs.size))
        try:
            errors.append(abs(fit_power_law(np.column_stack([xs, noisy])).alpha - alpha))
        except FitDegenerateError:
            errors.append(float("inf"))
    median_err = float(np.median(errors))
    assert median_err <= 0.05
    print(
        f"\n[criterion 8] PASS power-law fitter: noiseless relative error {rel:.2e} (< 1e-3); "
        f"median |alpha error| {median_err:.4f} (<= 0.05) over 100 noisy trials"
    )


def test_criterion_09_performance_envelope(config):
    # heavy-tailed per-database cost: average over 10 seeds per count
    rows = profile_generation(config, [10, 20, 40], repeats=10, seed=90)
    lat = {r["num_tables"]: r["latency_sec_mean"] for r in rows}
    ratios = {}
    for count in (20, 40):
        ratio = lat[count] / lat[10]
        expected = count / 10
        ratios[count] = ratio
        assert expected / 3.0 <= ratio <= expected * 3.0

    mem_rows = profile_generation(config, [80], repeats=1, seed=91)
    peak_gb = mem_rows[0]["peak_memory_gb_mean"]
    assert peak_gb < 2.0
    print(
        f"\n[criterion 9] PASS performance: latency ratios vs 10 tables "
        f"{{20: {ratios[20]:.2f}, 40: {ratios[40]:.2f}}} within 3x of linear; "
        f"80-table peak memory {peak_gb:.3f} GB (< 2 GB)"
    )


def test_criterion_10_conditional_path_degeneracy(config):
    db = generate_database(config, 14)
    graph, plan = generation_plan(config, 14)
    parentless = [t for t in topological_order(graph) if not graph.parents(t)]
    assert parentless
    bitwise = True
    for t in parentless:
        seed = split_seed(14, 2 + t)
        # general conditional path, empty parent list
        general = generate_table(graph.names[t], plan[t], [], config, SeededRng(seed))
        # source-only path: realize the causal graph without any foreign machinery
        rng = SeededRng(seed).spawn(0)
        causal = sample_causal_graph(plan[t].num_feature_columns, config, rng)
        scm = build_scm(causal, plan[t].kind, plan[t].num_rows, 0, config, rng)
        values = realize_table_values(scm, [])
        for col, node in zip(general.feature_names, causal.feature_nodes):
            arr_a = general.features[col]
            arr_b = values[node]
            if arr_a.dtype != arr_b.dtype or not np.array_equal(
                arr_a.view(np.uint8), arr_b.view(np.uint8)
            ):
                bitwise = False
    assert bitwise
    assert databases_equal(db, generate_database(config, 14))
    print(
        f"\n[criterion 10] PASS conditional-path degeneracy: {len(parentless)} parentless "
        "tables identical bit-for-bit between the general and source-only paths"
    )
