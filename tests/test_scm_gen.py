import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import databases_equal, feature_ancestors, generation_plan
from plurelgen import scm_gen
from plurelgen.core import SCM_FAMILIES, PriorSpec, SeededRng, parse_date, split_seed
from plurelgen.neural import TinyMlp
from plurelgen.schema_gen import TableMeta, topological_order
from plurelgen.scm_gen import (
    CATEGORICAL,
    NUMERIC,
    CycleParams,
    FlucParams,
    TemporalParams,
    TrendParams,
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
    return TrendParams(
        exponent=rng.uniform(0, 2),
        scale=rng.uniform(-2, 2),
        offset=rng.uniform(-1, 1),
        bound=rng.uniform(0.5, 4),
        total_rows=int(rng.integers(1, 5000)),
    )


def _rand_cycle(rng):
    lo = rng.uniform(-2, 0)
    return CycleParams(
        period=rng.uniform(0.5, 5000),
        scale=rng.uniform(-2, 2),
        lower=lo,
        upper=lo + rng.uniform(0, 3),
    )


def _rand_fluc(rng):
    lo = rng.uniform(-4, 0)
    return FlucParams(scale=rng.uniform(0, 2), lower=lo, upper=lo + rng.uniform(0, 6))


class TestTemporalClosedForms:
    """Each closed form at single row indices and at the same indices as one array."""

    def test_trend_against_formula(self):
        rng = SeededRng(0)
        for _ in range(100):
            p = _rand_trend(rng)
            rs = rng.integers(1, p.total_rows, size=5).astype(float)
            want = [min(p.scale * (r / p.total_rows) ** p.exponent + p.offset, p.bound) for r in rs]
            assert all(abs(trend(r, p) - w) < 1e-12 for r, w in zip(rs, want))
            assert np.all(np.abs(trend(rs, p) - want) < 1e-12)

    def test_trend_examples(self):
        assert trend(100, TrendParams(1.0, 1.0, 0.0, 2.0, 100)) == 1.0
        p = TrendParams(0.0, 1.0, 0.5, 10.0, 77)
        for r in (1, 10, 77):
            assert trend(r, p) == 1.5
        assert np.all(trend(np.array([1.0, 10.0, 77.0]), p) == 1.5)
        assert trend(100, TrendParams(0.5, 5.0, 0.0, 1.0, 100)) == 1.0  # clipped

    def test_cycle_against_formula(self):
        rng = SeededRng(1)
        for _ in range(100):
            p = _rand_cycle(rng)
            rs = rng.integers(0, 5000, size=5).astype(float)
            want = [
                min(max(p.scale * math.sin(math.pi * r / p.period), p.lower), p.upper) for r in rs
            ]
            assert all(abs(cycle(r, p) - w) < 1e-12 for r, w in zip(rs, want))
            assert np.all(np.abs(cycle(rs, p) - want) < 1e-12)

    def test_cycle_examples(self):
        assert cycle(0, CycleParams(3.0, 1.0, -1.0, 1.0)) == 0.0
        assert cycle(1, CycleParams(2.0, 1.0, -1.0, 1.0)) == 1.0  # sin(pi/2)
        assert cycle(3, CycleParams(2.0, 1.0, -0.5, 1.0)) == -0.5  # clamped from -1
        clamped = CycleParams(2.0, 1.0, -0.5, 1.0)
        assert np.array_equal(cycle(np.array([1.0, 3.0]), clamped), [1.0, -0.5])
        with pytest.raises(ValueError):
            cycle(np.array([1.0]), CycleParams(0.0, 1.0, -1.0, 1.0))

    def test_fluc_against_formula(self):
        rng = SeededRng(2)
        for _ in range(100):
            p = _rand_fluc(rng)
            noise = rng.standard_normal(5)
            want = [min(max(p.scale * n, p.lower), p.upper) for n in noise]
            assert all(abs(fluc_from_noise(p, n) - w) < 1e-12 for n, w in zip(noise, want))
            assert np.all(np.abs(fluc_from_noise(p, noise) - want) < 1e-12)

    def test_fluc_examples(self):
        assert fluc_from_noise(FlucParams(0.0, -1.0, 1.0), 1.7) == 0.0
        assert fluc_from_noise(FlucParams(0.05, -1.0, 1.0), 2.0) == pytest.approx(0.1)
        assert fluc_from_noise(FlucParams(0.05, -1.0, 1.0), 100.0) == 1.0  # clamped
        noise = np.array([-4.0, 1.0])
        assert np.array_equal(fluc_from_noise(FlucParams(0.5, -1.0, 1.0), noise), [-1.0, 0.5])

    def test_signal_is_arithmetic_mean(self):
        rng = SeededRng(4)
        for k in range(100):
            p = TemporalParams(_rand_trend(rng), _rand_cycle(rng), _rand_fluc(rng))
            rs = rng.integers(1, 1000, size=5).astype(float)
            noise = SeededRng(split_seed(99, k)).standard_normal(5)
            want = [
                (trend(r, p.trend) + cycle(r, p.cycle) + fluc_from_noise(p.fluc, n)) / 3.0
                for r, n in zip(rs, noise)
            ]
            probe = SeededRng(split_seed(99, k))
            assert all(abs(temporal_signal(r, p, probe) - w) < 1e-12 for r, w in zip(rs, want))
            got = temporal_signal(rs, p, SeededRng(split_seed(99, k)))
            assert np.all(np.abs(got - want) < 1e-12)

    def test_signal_zero_components(self):
        p = TemporalParams(
            TrendParams(1.0, 0.0, 0.0, 3.0, 10),
            CycleParams(5.0, 0.0, -1.0, 1.0),
            FlucParams(0.0, -3.0, 3.0),
        )
        assert temporal_signal(4, p, SeededRng(0)) == 0.0

    def test_entity_params_give_pure_clamped_noise(self):
        # trend scale 0, cycle scale 0, noise scale 1.0
        p = TemporalParams(
            TrendParams(1.3, 0.0, 0.0, 3.0, 100),
            CycleParams(10.0, 0.0, -1.0, 1.0),
            FlucParams(1.0, -3.0, 3.0),
        )
        got = temporal_signal(7, p, SeededRng(123))
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
        p = TemporalParams(
            TrendParams(1.0, 0.0, 0.2, 3.0, 100),
            CycleParams(5.0, 0.0, -1.0, 1.0),
            FlucParams(0.0, -3.0, 3.0),
        )
        rng = SeededRng(6)
        draws = categorical_source_sample(np.full(100_000, 3.0), (p, p, p, p), rng)
        freqs = np.bincount(draws, minlength=5)[1:5] / draws.size
        assert np.all(np.abs(freqs - 0.25) < 0.01)

    def test_log_three_offset_gives_three_to_one(self):
        # g = (0, ln 3) -> probabilities (0.25, 0.75)
        zero = TemporalParams(
            TrendParams(1.0, 0.0, 0.0, 3.0, 100),
            CycleParams(5.0, 0.0, -1.0, 1.0),
            FlucParams(0.0, -3.0, 3.0),
        )
        ln3 = TemporalParams(
            TrendParams(1.0, 0.0, 3.0 * math.log(3.0), 4.0, 100),
            CycleParams(5.0, 0.0, -1.0, 1.0),
            FlucParams(0.0, -3.0, 3.0),
        )
        rng = SeededRng(7)
        draws = categorical_source_sample(np.full(200_000, 5.0), (zero, ln3), rng)
        freqs = np.bincount(draws, minlength=3)[1:3] / draws.size
        assert abs(freqs[0] - 0.25) < 0.01
        assert abs(freqs[1] - 0.75) < 0.01

    def test_support(self):
        p = TemporalParams(_rand_trend(SeededRng(8)), _rand_cycle(SeededRng(9)), _rand_fluc(SeededRng(10)))
        rng = SeededRng(11)
        for _ in range(500):
            assert 1 <= categorical_source_sample(2, (p, p, p), rng) <= 3
        draws = categorical_source_sample(np.arange(1.0, 501.0), (p, p, p), rng)
        assert draws.shape == (500,) and draws.min() >= 1 and draws.max() <= 3

    def test_single_category(self):
        rng = SeededRng(12)
        p = TemporalParams(_rand_trend(rng), _rand_cycle(rng), _rand_fluc(rng))
        assert categorical_source_sample(4, (p,), SeededRng(15)) == 1
        assert np.all(categorical_source_sample(np.arange(1.0, 51.0), (p,), SeededRng(15)) == 1)


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
