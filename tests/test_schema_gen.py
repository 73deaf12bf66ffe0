import numpy as np
import pytest
from dataclasses import replace

from conftest import generation_plan
from plurelgen.core import PriorSpec, SeededRng, StructuralError, split_seed
from plurelgen.schema_gen import (
    ACTIVITY,
    ENTITY,
    SchemaGraph,
    assign_table_metadata,
    barabasi_albert_edges,
    random_tree_edges,
    sample_schema_graph,
    topological_order,
    watts_strogatz_edges,
)
from plurelgen.scm_gen import generate_database


def _force_family(config, family, n=None):
    cfg = replace(config, schema_graph_priors=PriorSpec.set_of(family))
    if n is not None:
        cfg = cfg.with_num_tables(n)
    return cfg


def _is_dag(graph: SchemaGraph) -> bool:
    try:
        topological_order(graph)
        return True
    except StructuralError:
        return False


class TestSampleSchemaGraph:
    def test_reverse_random_tree_three_nodes(self, config):
        # all labeled trees on 3 nodes are paths; rooted and oriented away from
        # the root they are either a chain or a 2-leaf star with one source
        cfg = _force_family(config, "reverse-random-tree", n=3)
        for seed in range(200):
            g = sample_schema_graph(cfg, SeededRng(seed))
            assert len(g.edges) == 2
            assert _is_dag(g)
            sources = [t for t in range(3) if not g.parents(t)]
            assert len(sources) == 1
            sink_count = sum(1 for t in range(3) if g.out_degree(t) == 0)
            is_chain = sink_count == 1
            is_star = sink_count == 2 and g.out_degree(sources[0]) == 2
            assert is_chain or is_star

    def test_barabasi_albert_mean_edges_after_dropout(self, config):
        # m=2 attachment creates exactly 2*(n-2) edges on n=10 nodes; each
        # survives dropout with probability 0.6 -> mean 9.6
        cfg = _force_family(config, "barabasi-albert", n=10)
        counts = [
            len(sample_schema_graph(cfg, SeededRng(split_seed(1, s))).edges)
            for s in range(1000)
        ]
        assert abs(np.mean(counts) - 9.6) < 0.96

    def test_watts_strogatz_is_dag(self, config):
        cfg = _force_family(config, "watts-strogatz")
        for seed in range(100):
            g = sample_schema_graph(cfg, SeededRng(seed))
            assert _is_dag(g)
            assert all(p != c for p, c in g.edges)

    def test_all_families_smallest_size(self, config):
        for family in ("barabasi-albert", "watts-strogatz", "reverse-random-tree"):
            cfg = _force_family(config, family, n=3)
            g = sample_schema_graph(cfg, SeededRng(0))
            assert g.num_tables == 3
            assert _is_dag(g)

    def test_determinism(self, config):
        a = sample_schema_graph(config, SeededRng(77))
        b = sample_schema_graph(config, SeededRng(77))
        assert a.names == b.names and a.edges == b.edges


class TestAssignTableMetadata:
    def _sample(self, config, seed):
        rng = SeededRng(seed)
        graph = sample_schema_graph(config, rng)
        return graph, assign_table_metadata(graph, config, rng)

    def test_out_degree_rule_and_ranges(self, config):
        for seed in range(300):
            g, plan = self._sample(config, seed)
            assert 3 <= g.num_tables <= 20
            assert len(plan) == g.num_tables
            for t in range(g.num_tables):
                meta = plan[t]
                expected_kind = ENTITY if g.out_degree(t) >= 1 else ACTIVITY
                assert meta.kind == expected_kind
                if meta.kind == ENTITY:
                    assert 500 <= meta.num_rows <= 1000
                else:
                    assert 2000 <= meta.num_rows <= 5000
                assert 3 <= meta.num_feature_columns <= 40

    def test_generated_tables_follow_the_plan(self, config):
        # an activity table has a timestamp column, and a table has one foreign
        # key into each of its parents in the plan, in ascending parent order
        small = replace(
            config,
            rows_entity=PriorSpec.uniform_range(5, 10),
            rows_activity=PriorSpec.uniform_range(10, 20),
        )
        for seed in range(5):
            (g, plan), db = generation_plan(small, seed), generate_database(small, seed)
            assert tuple(db.tables) == g.names
            for t, name in enumerate(g.names):
                table = db.tables[name]
                assert (table.timestamps is not None) == (plan[t].kind == ACTIVITY)
                targets = [table.fk_targets[c] for c in table.fk_names]
                assert targets == [g.names[p] for p in g.parents(t)]

    def test_determinism(self, config):
        a = self._sample(config, 5)
        b = self._sample(config, 5)
        assert a == b


class TestTopologicalOrder:
    def test_chain(self):
        g = SchemaGraph(names=("a", "b", "c"), edges=((0, 1), (1, 2)))
        assert topological_order(g) == [0, 1, 2]

    def test_diamond(self):
        g = SchemaGraph(names=("a", "b", "c", "d"), edges=((0, 1), (0, 2), (1, 3), (2, 3)))
        order = topological_order(g)
        assert order[0] == 0 and order[-1] == 3

    def test_isolated_nodes_index_order(self):
        g = SchemaGraph(names=("a", "b", "c"), edges=())
        assert topological_order(g) == [0, 1, 2]

    def test_cycle_raises(self):
        g = SchemaGraph(names=("a", "b"), edges=((0, 1), (1, 0)))
        with pytest.raises(StructuralError):
            topological_order(g)

    def test_parents_precede_children(self, config):
        for seed in range(50):
            rng = SeededRng(seed)
            g = sample_schema_graph(config, rng)
            pos = {t: i for i, t in enumerate(topological_order(g))}
            assert all(pos[p] < pos[c] for p, c in g.edges)


class TestRandomTree:
    def test_edge_count_and_connectivity(self):
        for n in (1, 2, 3, 7, 20):
            edges = random_tree_edges(n, SeededRng(n))
            assert len(edges) == max(n - 1, 0)
            if n > 1:
                parent = list(range(n))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for u, v in edges:
                    parent[find(u)] = find(v)
                assert len({find(x) for x in range(n)}) == 1


# the grid both samplers are checked on against networkx; the seeds are
# 64-bit, as rng.bits64() gives them
_NODES = range(2, 40)
_ATTACHMENTS = range(1, 6)
_REWIRE_PROBS = (0.0, 0.05, 0.3, 0.7, 1.0)
_SEEDS = [split_seed(5, s) for s in range(60)]


def _is_simple_sorted(edges):
    return edges == sorted(set(edges)) and all(u < v for u, v in edges)


class TestBaseGraphDraws:
    def test_equal_networkx(self):
        nx = pytest.importorskip("networkx")

        def undirected(graph):
            return sorted((min(u, v), max(u, v)) for u, v in graph.edges())

        for n in _NODES:
            for seed in _SEEDS:
                for m in _ATTACHMENTS:
                    if m < n:
                        expected = undirected(nx.barabasi_albert_graph(n, m, seed=seed))
                        assert barabasi_albert_edges(n, m, seed) == expected, (n, m, seed)
                for p in _REWIRE_PROBS:
                    expected = undirected(nx.watts_strogatz_graph(n, 2, p, seed=seed))
                    assert watts_strogatz_edges(n, p, seed) == expected, (n, p, seed)

    def test_two_node_watts_strogatz_is_one_edge(self):
        for p in _REWIRE_PROBS:
            for seed in _SEEDS[:5]:
                assert watts_strogatz_edges(2, p, seed) == [(0, 1)]

    def test_unrewired_watts_strogatz_is_the_ring(self):
        for n in range(3, 12):
            ring = sorted([(u, u + 1) for u in range(n - 1)] + [(0, n - 1)])
            assert watts_strogatz_edges(n, 0.0, _SEEDS[n]) == ring

    def test_full_attachment_is_the_star(self):
        for n in range(2, 12):
            star = [(0, v) for v in range(1, n)]
            assert barabasi_albert_edges(n, n - 1, _SEEDS[n]) == star

    def test_simple_sorted_edge_lists(self):
        for n in (2, 3, 5, 13, 39):
            for seed in _SEEDS[:10]:
                for m in _ATTACHMENTS:
                    if m < n:
                        edges = barabasi_albert_edges(n, m, seed)
                        assert _is_simple_sorted(edges)
                        assert len(edges) == m * (n - m - 1) + m
                for p in _REWIRE_PROBS:
                    edges = watts_strogatz_edges(n, p, seed)
                    assert _is_simple_sorted(edges)
                    assert len(edges) == (1 if n == 2 else n)

    def test_preconditions(self):
        with pytest.raises(StructuralError, match="1 <= m < n"):
            barabasi_albert_edges(3, 3, 0)
        with pytest.raises(StructuralError, match="1 <= m < n"):
            barabasi_albert_edges(3, 0, 0)
        with pytest.raises(StructuralError, match="n >= 2"):
            watts_strogatz_edges(1, 0.5, 0)
