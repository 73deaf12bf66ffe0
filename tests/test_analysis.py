import tracemalloc

import numpy as np
import pytest

from conftest import make_database, make_table
from plurelgen import analysis
from plurelgen.analysis import (
    FitDegenerateError,
    column_moments,
    diversity_report,
    fit_power_law,
    hsbm_fidelity,
    ks_statistic,
    loss_frontier,
    profile_generation,
)
from plurelgen.core import ConfigError, SeededRng
from plurelgen.fk_gen import assign_block_hierarchy, sample_links
from plurelgen.scm_gen import generate_database

GRID_X = np.array([8, 16, 32, 64, 128, 256, 512, 1024], dtype=float)


class TestFitPowerLaw:
    def test_noiseless_recovery(self):
        a, alpha, c = 2.0, 0.5, 0.1
        losses = a * GRID_X**-alpha + c
        fit = fit_power_law(np.column_stack([GRID_X, losses]))
        assert abs(fit.A - a) / a < 1e-3
        assert abs(fit.alpha - alpha) / alpha < 1e-3
        assert abs(fit.C - c) / c < 1e-3

    @pytest.mark.parametrize("a,alpha,c", [(1.0, 0.25, 0.01), (10.0, 1.5, 2.0), (0.5, 0.9, 0.0)])
    def test_recovery_across_parameters(self, a, alpha, c):
        losses = a * GRID_X**-alpha + c
        fit = fit_power_law(np.column_stack([GRID_X, losses]))
        assert abs(fit.A - a) / a < 1e-3
        assert abs(fit.alpha - alpha) / alpha < 1e-3
        assert abs(fit.C - c) <= max(1e-3 * c, 1e-6)

    def test_constant_data_degenerate(self):
        losses = np.full_like(GRID_X, 0.7)
        with pytest.raises(FitDegenerateError):
            fit_power_law(np.column_stack([GRID_X, losses]))

    def test_increasing_frontier_degenerate(self):
        losses = 0.1 + 0.01 * np.log(GRID_X)
        with pytest.raises(FitDegenerateError):
            fit_power_law(np.column_stack([GRID_X, losses]))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 2.0), (2.0, 1.0), (3.0, 0.5)])

    def test_non_increasing_x(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 3.0), (1.0, 2.0), (3.0, 1.0), (4.0, 0.5)])

    def test_scale_equivariance(self):
        losses = 2.0 * GRID_X**-0.5 + 0.1
        base = fit_power_law(np.column_stack([GRID_X, losses]))
        k = 5.0
        scaled = fit_power_law(np.column_stack([GRID_X, k * losses]))
        assert abs(scaled.alpha - base.alpha) < 1e-6
        assert abs(scaled.A - k * base.A) / (k * base.A) < 1e-6
        assert abs(scaled.C - k * base.C) / (k * base.C) < 1e-6

    def test_noisy_alpha_recovery(self):
        rng = np.random.default_rng(12345)
        a, alpha, c = 2.0, 0.5, 0.1
        clean = a * GRID_X**-alpha + c
        errors = []
        for _ in range(100):
            noisy = clean * (1.0 + 0.01 * rng.standard_normal(GRID_X.size))
            try:
                errors.append(abs(fit_power_law(np.column_stack([GRID_X, noisy])).alpha - alpha))
            except FitDegenerateError:
                errors.append(np.inf)
        assert float(np.median(errors)) < 0.05

    def test_predict(self):
        losses = 2.0 * GRID_X**-0.5 + 0.1
        fit = fit_power_law(np.column_stack([GRID_X, losses]))
        assert np.allclose(fit.predict(GRID_X), losses, rtol=1e-6)


class TestLossFrontier:
    def test_elementwise_minimum(self):
        grid = {
            (8, 1): 1.0,
            (8, 2): 0.7,
            (16, 1): 0.9,
            (16, 2): 0.95,
            (32, 1): 0.5,
        }
        assert loss_frontier(grid, axis=0) == [(8, 0.7), (16, 0.9), (32, 0.5)]
        assert loss_frontier(grid, axis=1) == [(1, 0.5), (2, 0.7)]


class TestHsbmFidelity:
    def test_analytic_masses_sum_to_one(self):
        rep = hsbm_fidelity((2, 3), (3, 2), 100, 40, 2000, SeededRng(0))
        for entry in rep.entries:
            assert abs(entry.analytic.sum() - 1.0) < 1e-12

    def test_two_level_small_instance(self):
        rep = hsbm_fidelity((3, 2), (2, 3), 200, 50, 10_000, SeededRng(1))
        assert rep.max_tv < 0.05

    def test_analytic_matches_brute_force(self):
        # independent evaluation: walk every parent row, take the level-wise
        # product directly, aggregate by block vector
        rng = SeededRng(2)
        rep = hsbm_fidelity((2,), (2,), 50, 30, 1000, rng)
        probe = SeededRng(2)
        child = assign_block_hierarchy(50, (2,), probe)
        parent = assign_block_hierarchy(30, (2,), probe)
        from plurelgen.fk_gen import sample_matrix_stack

        stack = sample_matrix_stack((2,), (2,), probe)
        for entry in rep.entries:
            scores = np.array(
                [
                    stack[0][parent[j, 0] - 1, entry.child_vector[0] - 1]
                    for j in range(30)
                ]
            )
            probs = scores / scores.sum()
            masses = {}
            for j in range(30):
                key = tuple(parent[j])
                masses[key] = masses.get(key, 0.0) + probs[j]
            for vec, mass in zip(entry.parent_vectors, entry.analytic):
                assert abs(masses[vec] - mass) < 1e-12

    def test_uniform_degenerate_rows(self):
        # single-block hierarchies with a unit matrix: every parent row equally likely
        child = assign_block_hierarchy(100_000, (1,), SeededRng(3))
        parent = assign_block_hierarchy(10, (1,), SeededRng(4))
        stack = (np.array([[1.0]]),)
        links = sample_links(child, parent, stack, SeededRng(5))
        freqs = np.bincount(links, minlength=11)[1:] / links.size
        assert 0.5 * np.abs(freqs - 0.1).sum() < 0.02


class TestDiversity:
    def test_ks_statistic_basics(self):
        a = np.array([1.0, 2.0, 3.0])
        assert ks_statistic(a, a) == 0.0
        assert ks_statistic(np.array([0.0, 1.0]), np.array([5.0, 6.0])) == 1.0
        x, y = np.array([0.0, 2.0, 4.0]), np.array([1.0, 3.0])
        assert ks_statistic(x, y) == ks_statistic(y, x)

    def test_column_moments_known_values(self):
        m = column_moments(np.array([1.0, 2.0, 3.0, 4.0]))
        assert m["mean"] == 2.5
        assert m["variance"] == 1.25
        assert m["skewness"] == 0.0
        assert m["excess_kurtosis"] == pytest.approx(2.5625 / 1.5625 - 3.0)

    def test_identical_databases_zero_ks(self, config):
        db = generate_database(config, 21)
        rep = diversity_report([("a", db), ("b", db)])
        assert all(v == 0.0 for v in rep["first_numeric_ks"].values())
        for per_col in rep["matched_ks"].values():
            assert all(v == 0.0 for v in per_col.values())

    def test_null_cells_excluded(self):
        table = make_table(
            "t", 4, {"feature_1": [0.0, 0.0, 0.0, 100.0]}, {"feature_1": "numeric"}
        )
        table.null_mask["feature_1"][3] = True
        db = make_database([table])
        rep = diversity_report([("only", db)])
        assert rep["moments"]["only"]["t.feature_1"]["mean"] == 0.0
        assert rep["moments"]["only"]["t.feature_1"]["count"] == 3

    def test_distinct_seeds_give_positive_ks(self, config):
        a = generate_database(config, 100)
        b = generate_database(config, 101)
        rep = diversity_report([("a", a), ("b", b)])
        assert rep["first_numeric_ks"]["a|b"] > 0.0

    def test_repeated_database_id_is_rejected(self):
        a = make_database([make_table("t", 2, {"f": [0.0, 1.0]}, {"f": "numeric"})])
        b = make_database([make_table("t", 2, {"f": [5.0, 7.0]}, {"f": "numeric"})])
        with pytest.raises(ConfigError, match="database id db_0 is given twice"):
            diversity_report([("db_0", a), ("db_0", b)])

    def test_report_is_json_ready(self, config):
        import json

        db = generate_database(config, 22)
        doc = diversity_report([("one", db)])
        json.dumps(doc)
        assert set(doc) == {
            "moments",
            "histograms",
            "matched_ks",
            "first_numeric_ks",
            "first_numeric_skewness",
        }


class TestProfileGeneration:
    def test_rows_and_zero_deviation_single_repeat(self, config):
        rows = profile_generation(config, [3], repeats=1, seed=5)
        assert len(rows) == 1
        row = rows[0]
        assert row["num_tables"] == 3
        assert row["latency_sec_mean"] > 0
        assert row["latency_sec_std"] == 0.0
        assert row["peak_memory_gb_mean"] > 0
        assert row["peak_memory_gb_std"] == 0.0

    def test_multiple_counts(self, config):
        rows = profile_generation(config, [3, 4], repeats=1, seed=6)
        assert [r["num_tables"] for r in rows] == [3, 4]

    def test_timed_runs_are_untraced(self, config, monkeypatch):
        calls = []

        def generate(cfg, seed):
            calls.append((seed, tracemalloc.is_tracing()))
            return generate_database(cfg, seed)

        monkeypatch.setattr(analysis, "generate_database", generate)
        profile_generation(config, [3], repeats=2, seed=5)
        # each repeat: the timed run untraced, then the same seed traced for memory
        assert [traced for _, traced in calls] == [False, True, False, True]
        assert calls[0][0] == calls[1][0] != calls[2][0] == calls[3][0]
