import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import databases_equal, feature_ancestors, generation_plan
from plurelgen import neural, scm_gen
from plurelgen.core import SCM_FAMILIES, PriorSpec, SeededRng, parse_date, split_seed
from plurelgen.neural import TinyMlp
from plurelgen.schema_gen import TableMeta, topological_order
from plurelgen.scm_gen import (
    CATEGORICAL,
    NUMERIC,
    TemporalParams,
    build_scm,
    categorical_source_sample,
    cycle,
    fluc_from_noise,
    generate_database,
    generate_table,
    inject_nulls,
    realize_table_values,
    sample_causal_graph,
    softmax,
    temporal_signal,
    trend,
)


def _rand_trend(rng):
    """(total_rows, exponent, scale, offset, bound) at an arbitrary offset and bound."""
    exponent, scale, offset, bound = (
        rng.uniform(0, 2), rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(0.5, 4)
    )
    return int(rng.integers(1, 5000)), exponent, scale, offset, bound


def _rand_cycle(rng):
    """(period, scale, lower, upper) at arbitrary clamps."""
    lo = rng.uniform(-2, 0)
    return rng.uniform(0.5, 5000), rng.uniform(-2, 2), lo, lo + rng.uniform(0, 3)


def _rand_fluc(rng):
    """(scale, lower, upper) at arbitrary clamps."""
    lo = rng.uniform(-4, 0)
    return rng.uniform(0, 2), lo, lo + rng.uniform(0, 6)


def _rand_temporal(rng):
    """A source signal's five draws; a positive frequency gives a positive period."""
    return TemporalParams(
        rng.uniform(0, 2), rng.uniform(-2, 2), rng.uniform(0.001, 2), rng.uniform(-2, 2),
        rng.uniform(0, 2),
    )


class TestTemporalClosedForms:
    """Each closed form at single row indices and at the same indices as one array."""

    def test_trend_against_formula(self):
        rng = SeededRng(0)
        for _ in range(100):
            p = total_rows, exponent, scale, offset, bound = _rand_trend(rng)
            rs = rng.integers(1, total_rows, size=5).astype(float)
            want = [min(scale * (r / total_rows) ** exponent + offset, bound) for r in rs]
            assert all(abs(trend(r, *p) - w) < 1e-12 for r, w in zip(rs, want))
            assert np.all(np.abs(trend(rs, *p) - want) < 1e-12)

    def test_trend_examples(self):
        assert trend(100, 100, 1.0, 1.0, 0.0, 2.0) == 1.0
        p = (77, 0.0, 1.0, 0.5, 10.0)
        for r in (1, 10, 77):
            assert trend(r, *p) == 1.5
        assert np.all(trend(np.array([1.0, 10.0, 77.0]), *p) == 1.5)
        assert trend(100, 100, 0.5, 5.0, 0.0, 1.0) == 1.0  # clipped

    def test_cycle_against_formula(self):
        rng = SeededRng(1)
        for _ in range(100):
            p = period, scale, lower, upper = _rand_cycle(rng)
            rs = rng.integers(0, 5000, size=5).astype(float)
            want = [min(max(scale * math.sin(math.pi * r / period), lower), upper) for r in rs]
            assert all(abs(cycle(r, *p) - w) < 1e-12 for r, w in zip(rs, want))
            assert np.all(np.abs(cycle(rs, *p) - want) < 1e-12)

    def test_cycle_examples(self):
        assert cycle(0, 3.0, 1.0, -1.0, 1.0) == 0.0
        assert cycle(1, 2.0, 1.0, -1.0, 1.0) == 1.0  # sin(pi/2)
        assert cycle(3, 2.0, 1.0, -0.5, 1.0) == -0.5  # clamped from -1
        clamped = (2.0, 1.0, -0.5, 1.0)
        assert np.array_equal(cycle(np.array([1.0, 3.0]), *clamped), [1.0, -0.5])
        with pytest.raises(ValueError):
            cycle(np.array([1.0]), 0.0, 1.0, -1.0, 1.0)

    def test_fluc_against_formula(self):
        rng = SeededRng(2)
        for _ in range(100):
            p = scale, lower, upper = _rand_fluc(rng)
            noise = rng.standard_normal(5)
            want = [min(max(scale * n, lower), upper) for n in noise]
            assert all(abs(fluc_from_noise(n, *p) - w) < 1e-12 for n, w in zip(noise, want))
            assert np.all(np.abs(fluc_from_noise(noise, *p) - want) < 1e-12)

    def test_fluc_examples(self):
        assert fluc_from_noise(1.7, 0.0, -1.0, 1.0) == 0.0
        assert fluc_from_noise(2.0, 0.05, -1.0, 1.0) == pytest.approx(0.1)
        assert fluc_from_noise(100.0, 0.05, -1.0, 1.0) == 1.0  # clamped
        noise = np.array([-4.0, 1.0])
        assert np.array_equal(fluc_from_noise(noise, 0.5, -1.0, 1.0), [-1.0, 0.5])

    def test_signal_is_arithmetic_mean(self):
        # the clamps are the module's: trend at most 3, cycle in [-1, 1], fluctuation in [-3, 3]
        rng = SeededRng(4)
        for k in range(100):
            p, num_rows = _rand_temporal(rng), int(rng.integers(1, 5000))
            rs = rng.integers(1, 1000, size=5).astype(float)
            noise = SeededRng(split_seed(99, k)).standard_normal(5)
            want = [
                (
                    trend(r, num_rows, p.trend_exponent, p.trend_scale, 0.0, 3.0)
                    + cycle(r, num_rows * p.cycle_frequency, p.cycle_scale, -1.0, 1.0)
                    + fluc_from_noise(n, p.noise_scale, -3.0, 3.0)
                ) / 3.0
                for r, n in zip(rs, noise)
            ]
            probe = SeededRng(split_seed(99, k))
            assert all(
                abs(temporal_signal(r, num_rows, p, probe) - w) < 1e-12 for r, w in zip(rs, want)
            )
            got = temporal_signal(rs, num_rows, p, SeededRng(split_seed(99, k)))
            assert np.all(np.abs(got - want) < 1e-12)

    def test_signal_zero_components(self):
        p = TemporalParams(1.0, 0.0, 0.5, 0.0, 0.0)
        assert temporal_signal(4, 10, p, SeededRng(0)) == 0.0

    def test_entity_params_give_pure_clamped_noise(self):
        # trend scale 0, cycle scale 0, noise scale 1.0
        p = TemporalParams(1.3, 0.0, 0.1, 0.0, 1.0)
        got = temporal_signal(7, 100, p, SeededRng(123))
        noise = float(SeededRng(123).standard_normal())
        assert got == pytest.approx(min(max(noise, -3.0), 3.0) / 3.0, abs=1e-15)


class TestCategoricalSource:
    def test_softmax_probability_vector(self):
        rng = SeededRng(5)
        for _ in range(50):
            v = rng.standard_normal(int(rng.integers(2, 10)))
            p = softmax(v)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-9

    def test_equal_signals_uniform(self):
        # zero noise scale and equal deterministic components
        p = TemporalParams(1.0, 0.2, 0.05, 0.0, 0.0)
        rng = SeededRng(6)
        draws = categorical_source_sample(np.full(100_000, 3.0), 100, (p, p, p, p), rng)
        freqs = np.bincount(draws, minlength=5)[1:5] / draws.size
        assert np.all(np.abs(freqs - 0.25) < 0.01)

    def test_log_three_offset_gives_three_to_one(self):
        # g = (0, ln 3) -> probabilities (0.25, 0.75); at r = 5 of 100 rows the
        # boosted trend is 3 ln 3 - 1 and its cycle sin(pi * 5 / 10) = 1
        zero = TemporalParams(1.0, 0.0, 0.05, 0.0, 0.0)
        ln3 = TemporalParams(0.0, 3.0 * math.log(3.0) - 1.0, 0.1, 1.0, 0.0)
        rng = SeededRng(7)
        draws = categorical_source_sample(np.full(200_000, 5.0), 100, (zero, ln3), rng)
        freqs = np.bincount(draws, minlength=3)[1:3] / draws.size
        assert abs(freqs[0] - 0.25) < 0.01
        assert abs(freqs[1] - 0.75) < 0.01

    def test_support(self):
        p = _rand_temporal(SeededRng(8))
        rng = SeededRng(11)
        for _ in range(500):
            assert 1 <= categorical_source_sample(2, 500, (p, p, p), rng) <= 3
        draws = categorical_source_sample(np.arange(1.0, 501.0), 500, (p, p, p), rng)
        assert draws.shape == (500,) and draws.min() >= 1 and draws.max() <= 3

    def test_single_category(self):
        p = _rand_temporal(SeededRng(12))
        assert categorical_source_sample(4, 50, (p,), SeededRng(15)) == 1
        assert np.all(categorical_source_sample(np.arange(1.0, 51.0), 50, (p,), SeededRng(15)) == 1)


class TestSourceDraws:
    def test_each_source_holds_the_constants_of_its_tables_kind(self, config):
        c = PriorSpec.constant
        cfg = replace(
            config,
            trend_exponent=c(0.5),
            cycle_frequency=c(0.25),
            trend_scale_activity=c(1.5),
            trend_scale_entity=c(-0.5),
            cycle_scale_activity=c(0.75),
            cycle_scale_entity=c(-0.25),
            noise_scale_activity=c(0.125),
            noise_scale_entity=c(2.0),
        )
        want = {
            "activity": TemporalParams(0.5, 1.5, 0.25, 0.75, 0.125),
            "entity": TemporalParams(0.5, -0.5, 0.25, -0.25, 2.0),
        }
        assert [f.name for f in fields(TemporalParams)] == [
            "trend_exponent", "trend_scale", "cycle_frequency", "cycle_scale", "noise_scale"
        ]
        for kind, params in want.items():
            categorical = 0
            for seed in range(10):
                graph, scm = _build_simple_scm(cfg, kind, 40, 6, seed)
                assert scm.sources
                for v, signals in scm.sources.items():
                    card = graph.cardinalities[v]
                    assert signals == (params,) * (1 if card is None else card)
                    categorical += card is not None
            assert categorical  # a categorical source holds one signal per category


class TestSampleCausalGraph:
    def test_node_count_arithmetic(self, config):
        for f in (0.3, 0.45, 0.72, 0.9):
            cfg = replace(config, feature_node_fraction=PriorSpec.constant(f))
            for F in (3, 7, 20, 40):
                g = sample_causal_graph(F, cfg, SeededRng(F))
                want = max(math.ceil(F / f), F)
                assert g.num_nodes == want
                assert len(g.feature_nodes) == F

    @pytest.mark.parametrize("family", SCM_FAMILIES)
    @pytest.mark.parametrize(
        "fraction", [PriorSpec.constant(1.0), PriorSpec.uniform_range(0.9, 1.0)]
    )
    def test_one_feature_column_can_be_one_node(self, config, family, fraction):
        cfg = replace(
            config, scm_graph_priors=PriorSpec.set_of(family), feature_node_fraction=fraction
        )
        for seed in range(5):
            g = sample_causal_graph(1, cfg, SeededRng(seed))
            assert (g.num_nodes, g.edges, g.feature_nodes) == (1, (), (0,))
            scm = build_scm(g, "activity", 20, 0, cfg, SeededRng(seed))
            assert realize_table_values(scm, [])[0].shape == (20,)
        one_column = replace(
            cfg,
            num_tables=PriorSpec.constant(3),
            num_columns=PriorSpec.constant(1),
            rows_entity=PriorSpec.uniform_range(5, 10),
            rows_activity=PriorSpec.uniform_range(10, 20),
        )
        db = generate_database(one_column, 0)
        assert all(len(t.feature_names) == 1 for t in db.tables.values())

    def test_feature_fraction_in_range(self, config):
        for seed in range(200):
            F = int(SeededRng(seed).integers(3, 40))
            g = sample_causal_graph(F, config, SeededRng(seed))
            frac = len(g.feature_nodes) / g.num_nodes
            assert 0.3 <= frac <= 0.9

    def test_every_family_is_acyclic(self, config):
        for family in ("layered", "erdos-renyi", "barabasi-albert", "random-tree", "reverse-random-tree"):
            cfg = replace(config, scm_graph_priors=PriorSpec.set_of(family))
            for seed in range(40):
                g = sample_causal_graph(5, cfg, SeededRng(seed))
                g.topo_order()  # raises on a cycle
                assert all(u != v for u, v in g.edges)

    def test_node_type_frequencies(self, config):
        total = 0
        numeric = 0
        seed = 0
        while total < 10_000:
            g = sample_causal_graph(10, config, SeededRng(seed))
            total += g.num_nodes
            numeric += sum(1 for t in g.node_types if t == NUMERIC)
            seed += 1
        assert abs(numeric / total - 0.5) < 0.02

    def test_categorical_cardinalities(self, config):
        for seed in range(50):
            g = sample_causal_graph(8, config, SeededRng(seed))
            for t, c in zip(g.node_types, g.cardinalities):
                if t == CATEGORICAL:
                    assert 2 <= c <= 10
                else:
                    assert c is None

    def test_prefers_non_source_feature_nodes(self, config):
        for seed in range(60):
            g = sample_causal_graph(4, config, SeededRng(seed))
            sources = {v for v in range(g.num_nodes) if not g.predecessors(v)}
            non_source_count = g.num_nodes - len(sources)
            picked_sources = sum(1 for v in g.feature_nodes if v in sources)
            if non_source_count >= 4:
                assert picked_sources == 0

    def test_edge_weights_cover_all_edges(self, config):
        g = sample_causal_graph(12, config, SeededRng(5))
        assert set(g.edge_weights) == set(g.edges)
        assert all(np.isfinite(w) for w in g.edge_weights.values())


def _build_simple_scm(config, kind, num_rows, num_features, seed):
    rng = SeededRng(seed)
    graph = sample_causal_graph(num_features, config, rng)
    return graph, build_scm(graph, kind, num_rows, 0, config, rng)


class TestRealization:
    def test_realize_table_values_foreign_count_mismatch(self, config):
        # the mechanisms project no foreign column, and the parent has 24
        _, scm = _build_simple_scm(config, "entity", 50, 4, seed=2)
        assert scm.mechanisms
        parent, _ = _wide_parent_and_child(config)
        with pytest.raises(ValueError):
            one_parent = [(parent, np.zeros(50, dtype=np.int64))]
            realize_table_values(scm, one_parent)

    def test_realize_table_types_and_shapes(self, config):
        graph, scm = _build_simple_scm(config, "activity", 200, 6, seed=3)
        values = realize_table_values(scm, [])
        assert set(values) == feature_ancestors(graph) == graph.live_nodes
        for v in values:
            assert values[v].shape == (200,)
            if graph.node_types[v] == CATEGORICAL:
                card = graph.cardinalities[v]
                assert values[v].min() >= 1 and values[v].max() <= card
            else:
                assert np.all(np.isfinite(values[v]))

    def test_categorical_outputs_in_range_across_seeds(self, config):
        dead = 0
        for seed in range(10):
            graph, scm = _build_simple_scm(config, "entity", 80, 5, seed=seed)
            values = realize_table_values(scm, [])
            assert set(values) == feature_ancestors(graph)
            dead += graph.num_nodes - len(values)
            for v in values:
                if graph.node_types[v] == CATEGORICAL:
                    assert set(np.unique(values[v])) <= set(range(1, graph.cardinalities[v] + 1))
        assert dead > 0  # some seeds leave nodes that no feature column reads

    def test_build_binds_only_the_feature_nodes_and_their_ancestors(self, config):
        # 0 -> 1 -> 3 (feature) and 0 -> 2 -> 4, 1 -> 4: nodes 2 and 4 feed no feature
        graph = scm_gen.CausalGraph(
            num_nodes=5,
            edges=((0, 1), (0, 2), (1, 3), (1, 4), (2, 4)),
            edge_weights={(0, 1): 0.7, (0, 2): -1.2, (1, 3): 1.1, (1, 4): 0.4, (2, 4): -0.3},
            node_types=(NUMERIC, CATEGORICAL, NUMERIC, NUMERIC, CATEGORICAL),
            cardinalities=(None, 4, None, None, 3),
            feature_nodes=(3,),
        )
        parent, _ = _wide_parent_and_child(config)
        scm = build_scm(graph, "activity", 7, len(parent.feature_names), config, SeededRng(35))
        assert (set(scm.sources), set(scm.mechanisms), scm.topo) == ({0}, {1, 3}, (0, 1, 3))
        columns = [(parent, SeededRng(36).integers(0, parent.num_rows - 1, size=7))]
        base = realize_table_values(scm, columns)
        assert base.keys() == {0, 1, 3}

        def retagged(v):
            m, flip = scm.mechanisms[v], {"relu": "tanh", "tanh": "relu"}
            m = replace(
                m,
                exo_weight=-m.exo_weight,
                exo_beta=(3.0, 1.0),
                foreign_proj=tuple(
                    replace(p, activation=flip.get(p.activation, "relu")) for p in m.foreign_proj
                ),
                recon=replace(m.recon, scheme="sparse", activation="silu"),
            )
            return replace(scm, mechanisms={**scm.mechanisms, v: m})

        # every node draws from its own stream, so a change to the feature's
        # mechanism leaves the nodes it reads bit-identical
        again = realize_table_values(retagged(3), columns)
        for v in (0, 1):
            assert again[v].tobytes() == base[v].tobytes()
        # the same change on mechanism 1 does move the feature
        moved = realize_table_values(retagged(1), columns)
        assert moved[3].tobytes() != base[3].tobytes()


class TestRealizationBlocks:
    """Activations and gathers run in blocks of rows; the block size changes no value."""

    @pytest.mark.parametrize(
        "hidden, num_rows",
        [(1, 700), (24, 700), (32, 700), (48, 700), (100, 700),
         (32, 255), (32, 256), (32, 257), (32, 513)],
    )
    def test_block_size_changes_no_value(self, config, monkeypatch, hidden, num_rows):
        cfg = replace(config, mlp_hidden_dim=PriorSpec.constant(hidden))
        # the parent has more rows than some children, so its projections set
        # the scratch arrays' size there
        parent = generate_table("parent", TableMeta("entity", 300, 5), [], cfg, SeededRng(41))
        rng = SeededRng(42)
        causal = sample_causal_graph(6, cfg, rng)
        scm = build_scm(causal, "activity", num_rows, 5, cfg, rng)
        assert {causal.node_types[v] for v in scm.mechanisms} == {NUMERIC, CATEGORICAL}
        assert {parent.feature_types[c] for c in parent.feature_names} == {NUMERIC, CATEGORICAL}
        columns = [(parent, SeededRng(43).integers(0, parent.num_rows - 1, size=num_rows))]
        runs = []
        # one row per block, the default, and one block for the whole table
        for cells in (hidden, neural._BLOCK_CELLS, 2**40):
            monkeypatch.setattr(neural, "_BLOCK_CELLS", cells)
            runs.append(realize_table_values(scm, columns))
        for v in scm.topo:
            assert runs[0][v].tobytes() == runs[1][v].tobytes() == runs[2][v].tobytes()


class TestRealizationMemory:
    def test_peak_holds_no_table_sized_temporaries(self, config):
        # u and the two scratch arrays take 3 x rows x hidden x 8 bytes; the
        # bound leaves room for the values, the parent tables and block-sized
        # temporaries, but not for a table-sized temporary per MLP step
        cfg = replace(
            config,
            num_tables=PriorSpec.constant(3),
            rows_entity=PriorSpec.constant(1000),
            rows_activity=PriorSpec.constant(20_000),
            num_columns=PriorSpec.constant(6),
            mlp_activations=PriorSpec.constant("silu"),
        )
        tracemalloc.start()
        try:
            db = generate_database(cfg, split_seed(5, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(t.num_rows for t in db.tables.values()) == 20_000
        assert {t.num_rows for t in db.tables.values() if t.fk_names} == {1000, 20_000}
        hidden = int(cfg.mlp_hidden_dim.payload)
        assert peak < 4.5 * 20_000 * hidden * 8


class TestGenerateTable:
    def _db(self, config, seed=3):
        return generate_database(config, seed)

    def test_activity_timestamps(self, config):
        db = self._db(config)
        t_min = parse_date("1990-01-01")
        t_max = parse_date("2025-01-01")
        seen_activity = False
        for name in db.table_order():
            table = db.tables[name]
            if table.kind == "activity":
                seen_activity = True
                ts = table.timestamps
                assert ts is not None and ts.shape == (table.num_rows,)
                assert np.all(np.diff(ts) >= 0)
                assert ts.min() >= t_min and ts.max() <= t_max
            else:
                assert table.timestamps is None
        assert seen_activity

    def test_row_counts_match_kind(self, config):
        db = self._db(config, seed=8)
        for name in db.table_order():
            table = db.tables[name]
            if table.kind == "entity":
                assert 500 <= table.num_rows <= 1000
            else:
                assert 2000 <= table.num_rows <= 5000


class TestInjectNulls:
    def _big_db(self, null_fraction):
        # one hand-built table with 1e6 feature cells
        from conftest import make_database, make_table

        cols = {f"feature_{i + 1}": np.zeros(25_000) for i in range(40)}
        types = {k: NUMERIC for k in cols}
        table = make_table("table_0", 25_000, cols, types, kind="activity")
        db = make_database([table])
        db.null_fraction = null_fraction
        return db

    def test_zero_fraction(self):
        db = inject_nulls(self._big_db(0.0), SeededRng(0))
        table = db.tables["table_0"]
        assert sum(int(m.sum()) for m in table.null_mask.values()) == 0

    def test_binomial_concentration(self):
        db = inject_nulls(self._big_db(0.05), SeededRng(1))
        table = db.tables["table_0"]
        total = sum(int(m.sum()) for m in table.null_mask.values())
        assert abs(total - 50_000) < 700

    def test_only_feature_cells_masked(self, config):
        db = generate_database(config, 4)
        for name in db.table_order():
            table = db.tables[name]
            assert set(table.null_mask) == set(table.feature_names)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            inject_nulls(self._big_db(1.5), SeededRng(0))


class TestGenerateDatabase:
    def test_byte_identical_replay(self, config):
        assert databases_equal(generate_database(config, 31), generate_database(config, 31))

    def test_referential_integrity(self, config):
        db = generate_database(config, 6)
        for name in db.table_order():
            table = db.tables[name]
            for col in table.fk_names:
                parent = db.tables[table.fk_targets[col]]
                fk = table.fk_columns[col]
                assert fk.min() >= 1 and fk.max() <= parent.num_rows

    def test_null_fraction_within_prior(self, config):
        db = generate_database(config, 2)
        assert 0.01 <= db.null_fraction <= 0.1

    def test_rows_sharing_parent_not_identical(self, config):
        # temporal inputs vary with the row index, so siblings must differ
        db = generate_database(config, 9)
        checked = False
        for name in db.table_order():
            table = db.tables[name]
            numeric = [c for c in table.feature_names if table.feature_types[c] == NUMERIC]
            if not table.fk_names or not numeric:
                continue
            fk = table.fk_columns[table.fk_names[0]]
            counts = np.bincount(fk)
            shared = np.flatnonzero(counts >= 5)
            if shared.size == 0:
                continue
            rows = np.flatnonzero(fk == shared[0])
            vals = table.features[numeric[0]][rows]
            assert np.unique(vals).size >= 2
            checked = True
        assert checked

    def test_parentless_general_path_matches_source_only_path(self, config):
        # the conditional machinery with an empty foreign set must reproduce
        # the plain realization bit for bit
        db = generate_database(config, 14)
        graph, plan = generation_plan(config, 14)
        parentless = [t for t in topological_order(graph) if not graph.parents(t)]
        assert parentless
        t = parentless[0]
        seed = split_seed(14, 2 + t)

        via_general = generate_table(graph.names[t], plan[t], [], config, SeededRng(seed))

        rng_scm = SeededRng(seed).spawn(0)
        causal = sample_causal_graph(plan[t].num_feature_columns, config, rng_scm)
        scm = build_scm(causal, plan[t].kind, plan[t].num_rows, 0, config, rng_scm)
        values = realize_table_values(scm, [])
        for col, node in zip(via_general.feature_names, causal.feature_nodes):
            assert np.array_equal(via_general.features[col], values[node])
        # and the full-table object matches the one inside the generated database
        pre_null = db.tables[graph.names[t]]
        for col in via_general.feature_names:
            assert np.array_equal(via_general.features[col], pre_null.features[col])

    def test_distinct_seeds_differ(self, config):
        assert not databases_equal(generate_database(config, 1), generate_database(config, 2))


def _wide_parent_and_child(config):
    """A 24-feature, 8-row parent table, and the plan of a 22-feature, 7-row child of it."""
    parent = generate_table("parent", TableMeta("entity", 8, 24), [], config, SeededRng(31))
    return parent, TableMeta("activity", 7, 22)


class TestMechanismWeights:
    def test_wide_table_holds_one_projector_at_a_time(self, config, monkeypatch):
        parent, child = _wide_parent_and_child(config)
        drawn = []

        def counted(init):
            def wrapper(*args, **kwargs):
                out = init(*args, **kwargs)
                arrays = (out.w1, out.w2) if isinstance(out, TinyMlp) else (out,)
                drawn.append(sum(a.nbytes for a in arrays))
                return out

            return wrapper

        monkeypatch.setattr(scm_gen, "init_mlp", counted(scm_gen.init_mlp))
        monkeypatch.setattr(scm_gen, "init_embedding", counted(scm_gen.init_embedding))
        tracemalloc.start()
        try:
            generate_table("child", child, [parent], config, SeededRng(32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(drawn) / 4

    def test_realizing_one_spec_twice_is_bitwise_equal(self, config):
        parent, meta = _wide_parent_and_child(config)
        rng = SeededRng(33)
        causal = sample_causal_graph(meta.num_feature_columns, config, rng)
        scm = build_scm(causal, meta.kind, meta.num_rows, len(parent.feature_names), config, rng)
        fk_index = SeededRng(34).integers(0, parent.num_rows - 1, size=meta.num_rows)
        columns = [(parent, fk_index)]
        first = realize_table_values(scm, columns)
        second = realize_table_values(scm, columns)
        assert first.keys() == second.keys()
        for v in first:
            assert first[v].dtype == second[v].dtype
            assert first[v].tobytes() == second[v].tobytes()
