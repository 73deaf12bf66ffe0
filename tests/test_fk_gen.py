import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plurelgen.core import SeededRng, StructuralError
from plurelgen.fk_gen import (
    DIAGONAL_PROB,
    OFF_BLOCK_HIGH,
    OFF_BLOCK_LOW,
    _group_rows,
    assign_block_hierarchy,
    link_probabilities,
    populate_foreign_keys,
    sample_block_matrix,
    sample_links,
    sample_matrix_stack,
)


class TestAssignBlockHierarchy:
    def test_single_block(self):
        h = assign_block_hierarchy(50, (1,), SeededRng(0))
        assert np.all(h == 1)

    def test_three_blocks_frequencies(self):
        h = assign_block_hierarchy(100_000, (3,), SeededRng(1))
        freqs = np.bincount(h[:, 0], minlength=4)[1:4] / 100_000
        assert np.all(np.abs(freqs - 1 / 3) < 0.01)

    def test_two_level_support(self):
        h = assign_block_hierarchy(1000, (2, 3), SeededRng(2))
        assert h.shape == (1000, 2) and h.dtype == np.int64
        assert set(np.unique(h[:, 0])) <= {1, 2}
        assert set(np.unique(h[:, 1])) <= {1, 2, 3}

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            assign_block_hierarchy(0, (1,), SeededRng(0))
        with pytest.raises(ValueError):
            assign_block_hierarchy(5, (), SeededRng(0))
        with pytest.raises(ValueError):
            assign_block_hierarchy(5, (1,) * 6, SeededRng(0))
        with pytest.raises(ValueError):
            assign_block_hierarchy(5, (0,), SeededRng(0))


class TestSampleBlockMatrix:
    def _assert_pattern(self, mat, b_parent, b_child):
        # independent evaluation of the modular-diagonal rule
        m = max(b_parent, b_child)
        for i in range(b_parent):
            for j in range(b_child):
                if i % m == j % m:
                    assert mat[i, j] == DIAGONAL_PROB
                else:
                    assert OFF_BLOCK_LOW <= mat[i, j] <= OFF_BLOCK_HIGH

    def test_two_by_two(self):
        self._assert_pattern(sample_block_matrix(2, 2, SeededRng(0)), 2, 2)

    def test_one_by_one(self):
        assert sample_block_matrix(1, 1, SeededRng(0))[0, 0] == DIAGONAL_PROB

    def test_two_by_three(self):
        mat = sample_block_matrix(2, 3, SeededRng(1))
        self._assert_pattern(mat, 2, 3)
        assert mat[0, 0] == DIAGONAL_PROB and mat[1, 1] == DIAGONAL_PROB
        off = [mat[0, 1], mat[0, 2], mat[1, 0], mat[1, 2]]
        assert all(OFF_BLOCK_LOW <= x <= OFF_BLOCK_HIGH for x in off)

    def test_three_by_two(self):
        self._assert_pattern(sample_block_matrix(3, 2, SeededRng(2)), 3, 2)

    def test_all_entries_positive(self):
        for b1 in range(1, 4):
            for b2 in range(1, 4):
                assert np.all(sample_block_matrix(b1, b2, SeededRng(b1 * 10 + b2)) > 0)


class TestLinkProbabilities:
    def test_uniform_degenerate_case(self):
        parent = assign_block_hierarchy(20, (1,), SeededRng(0))
        stack = (np.array([[1.0]]),)
        probs = link_probabilities(np.array([1]), parent, stack)
        assert np.allclose(probs, 1 / 20)

    def test_two_row_worked_example(self):
        parent = np.array([[1], [2]])
        stack = (np.array([[0.9, 0.001], [0.001, 0.9]]),)
        probs = link_probabilities(np.array([1]), parent, stack)
        assert np.allclose(probs, [0.9 / 0.901, 0.001 / 0.901], atol=1e-12)

    def test_two_level_score_ratio(self):
        # per-level scores (0.9, 0.9) vs (0.9, 0.001): product ratio 900:1
        parent = np.array([[1, 1], [1, 2]])
        mat = np.array([[0.9, 0.001], [0.001, 0.9]])
        stack = (mat, mat)
        probs = link_probabilities(np.array([1, 1]), parent, stack)
        assert np.isclose(probs[0] / probs[1], 900.0)

    def test_scale_invariance(self):
        rng = SeededRng(3)
        parent = assign_block_hierarchy(40, (2, 3), rng)
        stack = sample_matrix_stack((2, 3), (3, 2), rng)
        vec = np.array([2, 1])
        base = link_probabilities(vec, parent, stack)
        scaled = tuple(7.3 * m for m in stack)
        assert np.allclose(base, link_probabilities(vec, parent, scaled), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sums_to_one(self, data):
        levels = data.draw(st.integers(1, 5))
        child_blocks = tuple(data.draw(st.integers(1, 3)) for _ in range(levels))
        parent_blocks = tuple(data.draw(st.integers(1, 3)) for _ in range(levels))
        num_parent = data.draw(st.integers(1, 60))
        rng = SeededRng(data.draw(st.integers(0, 2**32)))
        parent = assign_block_hierarchy(num_parent, parent_blocks, rng)
        stack = sample_matrix_stack(parent_blocks, child_blocks, rng)
        vec = np.array([data.draw(st.integers(1, b)) for b in child_blocks])
        probs = link_probabilities(vec, parent, stack)
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_level_mismatch_raises(self):
        parent = assign_block_hierarchy(5, (2,), SeededRng(0))
        stack = sample_matrix_stack((2,), (2,), SeededRng(1))
        with pytest.raises(ValueError):
            link_probabilities(np.array([1, 1]), parent, stack)


def _group_rows_by_vector(labels):
    """Reference grouping: ``np.unique`` over the rows of the label array itself."""
    uniq, inverse, counts = np.unique(labels, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)  # numpy 2.0 returned (n, 1) for axis unique
    flat = np.argsort(inverse, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return uniq, flat, offsets, counts


class TestGroupRows:
    def test_key_grouping_matches_vector_grouping(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            levels = int(rng.integers(1, 6))
            blocks = rng.integers(1, 9, size=levels)
            num_rows = int(rng.integers(1, 2000))
            labels = np.stack([rng.integers(1, b + 1, size=num_rows) for b in blocks], axis=1)
            for new, ref in zip(_group_rows(labels), _group_rows_by_vector(labels)):
                assert new.dtype == ref.dtype
                assert np.array_equal(new, ref)

    def test_labels_too_large_for_a_key(self):
        with pytest.raises(ValueError, match="overflow"):
            _group_rows(np.full((3, 5), 2**13, dtype=np.int64))


class TestSampleLinks:
    def test_single_parent_row(self, config):
        fk = populate_foreign_keys(1000, 1, config, SeededRng(4))
        assert np.all(fk == 1)

    def test_uniform_case_binomial_concentration(self):
        child = assign_block_hierarchy(100_000, (1,), SeededRng(5))
        parent = assign_block_hierarchy(10, (1,), SeededRng(6))
        stack = (np.array([[1.0]]),)
        fk = sample_links(child, parent, stack, SeededRng(7))
        counts = np.bincount(fk, minlength=11)[1:]
        assert np.all(np.abs(counts - 10_000) < 300)

    def test_clustered_links_land_in_matching_block(self):
        # diagonal 0.9: nearly all mass on the matching parent block
        rng = SeededRng(8)
        child = assign_block_hierarchy(5000, (2,), rng)
        parent = assign_block_hierarchy(100, (2,), rng)
        stack = (sample_block_matrix(2, 2, rng),)
        fk = sample_links(child, parent, stack, rng)
        parent_block = parent[fk - 1, 0]
        matching = parent_block == child[:, 0]
        assert matching.mean() >= 0.95

    def test_two_stage_matches_exact_categorical(self):
        # empirical per-row frequencies against the exact distribution
        rng = SeededRng(9)
        parent = assign_block_hierarchy(30, (2, 2), rng)
        stack = sample_matrix_stack((2, 2), (2, 2), rng)
        vec = np.array([1, 2])
        child = np.tile(vec, (200_000, 1))
        fk = sample_links(child, parent, stack, rng)
        emp = np.bincount(fk, minlength=31)[1:] / fk.size
        exact = link_probabilities(vec, parent, stack)
        assert 0.5 * np.abs(emp - exact).sum() < 0.02

    def test_referential_validity(self, config):
        for seed in range(20):
            fk = populate_foreign_keys(500, 37, config, SeededRng(seed))
            assert fk.shape == (500,)
            assert fk.min() >= 1 and fk.max() <= 37

    def test_empty_parent_raises(self, config):
        with pytest.raises(StructuralError):
            populate_foreign_keys(10, 0, config, SeededRng(0))

    def test_determinism(self, config):
        a = populate_foreign_keys(1000, 50, config, SeededRng(11))
        b = populate_foreign_keys(1000, 50, config, SeededRng(11))
        assert np.array_equal(a, b)
