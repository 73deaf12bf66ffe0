"""Stage 2: populate foreign-key columns with hierarchical stochastic block model links.

Rows of a child/parent table pair receive multi-level block labels; the score
for linking child row i to parent row j is the product over levels of the
block-pair probabilities, normalized over all parent rows.
"""

from __future__ import annotations

import numpy as np

from .core import HSBM_MAX_LEVELS, GenConfig, SeededRng, StructuralError, draw

__all__ = [
    "assign_block_hierarchy",
    "sample_block_matrix",
    "sample_matrix_stack",
    "link_probabilities",
    "populate_foreign_keys",
]

DIAGONAL_PROB = 0.9
OFF_BLOCK_LOW = 0.001
OFF_BLOCK_HIGH = 0.002


def assign_block_hierarchy(
    num_rows: int, blocks_per_level: tuple[int, ...], rng: SeededRng
) -> np.ndarray:
    """Per-row block labels, an int64 (num_rows, levels) array.

    Every row gets an independent uniform label at each level, in [1, B^l].
    """
    if num_rows < 1:
        raise ValueError(f"num_rows must be >= 1, got {num_rows}")
    levels = len(blocks_per_level)
    if not 1 <= levels <= HSBM_MAX_LEVELS:
        raise ValueError(f"hierarchy must have 1..{HSBM_MAX_LEVELS} levels, got {levels}")
    if any(b < 1 for b in blocks_per_level):
        raise ValueError(f"block counts must be >= 1, got {blocks_per_level}")
    labels = np.empty((num_rows, levels), dtype=np.int64)
    for l, b in enumerate(blocks_per_level):
        labels[:, l] = rng.integers(1, int(b), size=num_rows)
    return labels


def sample_block_matrix(b_parent: int, b_child: int, rng: SeededRng) -> np.ndarray:
    """One level's block connectivity matrix.

    Entries whose (parent, child) block indices agree modulo the larger block
    count get probability 0.9; all others are drawn uniform from a thin band
    near zero, keeping every entry strictly positive.
    """
    if b_parent < 1 or b_child < 1:
        raise ValueError("block matrix dimensions must be >= 1")
    mat = rng.uniform(OFF_BLOCK_LOW, OFF_BLOCK_HIGH, size=(b_parent, b_child))
    i = np.arange(b_parent)[:, None]
    j = np.arange(b_child)[None, :]
    mat[(i % max(b_parent, b_child)) == (j % max(b_parent, b_child))] = DIAGONAL_PROB
    return mat


def sample_matrix_stack(
    parent_blocks: tuple[int, ...], child_blocks: tuple[int, ...], rng: SeededRng
) -> tuple[np.ndarray, ...]:
    """One (parent blocks x child blocks) link-probability matrix per level."""
    if len(parent_blocks) != len(child_blocks):
        raise ValueError("parent and child hierarchies must share the level count")
    return tuple(sample_block_matrix(p, c, rng) for p, c in zip(parent_blocks, child_blocks))


def link_probabilities(
    child_row_blocks: np.ndarray, parent: np.ndarray, stack: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Probability over all parent rows that a child row with the given labels links to each.

    Exact per-row evaluation; the normalized product of level-wise block-pair
    probabilities. Sums to 1 up to float rounding.
    """
    child_row_blocks = np.asarray(child_row_blocks, dtype=np.int64).reshape(-1)
    num_rows, levels = parent.shape
    if child_row_blocks.shape[0] != levels or len(stack) != levels:
        raise ValueError("level counts of labels, hierarchy, and stack must agree")
    if num_rows < 1:
        raise StructuralError("parent table has no rows")
    scores = np.ones(num_rows)
    for l, mat in enumerate(stack):
        scores *= mat[parent[:, l] - 1, child_row_blocks[l] - 1]
    total = scores.sum()
    if total <= 0.0:
        raise StructuralError("all link scores vanished; block matrix must be positive")
    return scores / total


def _group_rows(labels: np.ndarray):
    """Rows grouped by their full block vector (lexicographic group order).

    Returns (unique_vectors, flat_row_order, offsets, counts) where
    flat_row_order[offsets[g]:offsets[g] + counts[g]] are the 0-based rows of
    group g in ascending order. Each row's vector is read as one mixed-radix
    int64 key (labels are >= 1, base max label + 1), whose order is the
    lexicographic order of the vectors.
    """
    levels = labels.shape[1]
    base = int(labels.max()) + 1
    if base**levels > np.iinfo(np.int64).max:
        raise ValueError(f"block labels up to {base - 1} at {levels} levels overflow an int64 key")
    keys = labels[:, 0].copy()
    for l in range(1, levels):
        keys *= base
        keys += labels[:, l]
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    flat = np.argsort(inverse, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return labels[first], flat, offsets, counts


def _group_scores(
    child_vectors: np.ndarray, parent_vectors: np.ndarray, stack: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Score matrix S[c, p] for each (child group, parent group) vector pair."""
    scores = np.ones((child_vectors.shape[0], parent_vectors.shape[0]))
    for l, mat in enumerate(stack):
        scores *= mat[parent_vectors[:, l] - 1, :][:, child_vectors[:, l] - 1].T
    return scores


def sample_links(
    child: np.ndarray, parent: np.ndarray, stack: tuple[np.ndarray, ...], rng: SeededRng
) -> np.ndarray:
    """One parent row index (1-based) per child row.

    Two-stage draw: parent block group by its aggregate mass, then uniform
    within the group. Rows inside a block share the same score, so this equals
    the exact categorical over all parent rows.
    """
    if parent.shape[0] < 1:
        raise StructuralError("parent table has no rows")
    child_uniq, child_flat, child_offsets, child_counts = _group_rows(child)
    parent_uniq, parent_flat, offsets, counts = _group_rows(parent)
    scores = _group_scores(child_uniq, parent_uniq, stack)  # (Uc, Up)
    group_mass = scores * counts[None, :]
    fk = np.empty(child.shape[0], dtype=np.int64)
    for c in range(child_uniq.shape[0]):
        rows = child_flat[child_offsets[c] : child_offsets[c] + child_counts[c]]
        cdf = np.cumsum(group_mass[c])
        if cdf[-1] <= 0.0:
            raise StructuralError("all link scores vanished; block matrix must be positive")
        u = rng.uniform(size=rows.shape[0]) * cdf[-1]
        g = np.searchsorted(cdf, u, side="right")
        within = np.floor(rng.uniform(size=rows.shape[0]) * counts[g]).astype(np.int64)
        fk[rows] = parent_flat[offsets[g] + within] + 1
    return fk


def populate_foreign_keys(
    num_child_rows: int, num_parent_rows: int, config: GenConfig, rng: SeededRng
) -> np.ndarray:
    """Foreign-key column for one (child, parent) table pair.

    Draws a fresh hierarchy pair (shared level count, independent block counts
    per level) and matrix stack, then samples one parent primary key per child
    row. Returned values are 1-based parent row indices.
    """
    if num_parent_rows < 1:
        raise StructuralError("cannot reference an empty parent table")
    levels = int(draw(config.hsbm_levels, rng))
    child_blocks = tuple(
        int(draw(config.hsbm_clusters_per_level, rng)) for _ in range(levels)
    )
    parent_blocks = tuple(
        int(draw(config.hsbm_clusters_per_level, rng)) for _ in range(levels)
    )
    child = assign_block_hierarchy(num_child_rows, child_blocks, rng)
    parent = assign_block_hierarchy(num_parent_rows, parent_blocks, rng)
    stack = sample_matrix_stack(parent_blocks, child_blocks, rng)
    return sample_links(child, parent, stack, rng)
