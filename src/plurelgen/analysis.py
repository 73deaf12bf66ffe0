"""Statistical validation and profiling: saturating power-law fits, block-model
fidelity against the analytic link distribution, cross-database diversity, and
generation latency/memory measurement.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import ConfigError, GenConfig, SeededRng, _first_repeat, split_seed
from .fk_gen import assign_block_hierarchy, link_probabilities, sample_links, sample_matrix_stack
from .scm_gen import NUMERIC, RelationalDatabase, generate_database

__all__ = [
    "FitDegenerateError",
    "PowerLawFit",
    "fit_power_law",
    "loss_frontier",
    "FidelityReport",
    "hsbm_fidelity",
    "diversity_report",
    "ks_statistic",
    "column_moments",
    "profile_generation",
]

FIT_GRID_SIZE = 64  # floor candidates per round of fit_power_law
FIT_REFINE_ROUNDS = 8  # rounds of zooming that grid around the best floor
HISTOGRAM_BINS = 20  # bins of each column's histogram in diversity_report


# ---------------------------------------------------------------------------
# Saturating power-law fitting: L(x) = A * x^(-alpha) + C
# ---------------------------------------------------------------------------


class FitDegenerateError(ValueError):
    """Raised when the loss frontier carries no decreasing power-law signal: a bad input."""


@dataclass(frozen=True)
class PowerLawFit:
    A: float
    alpha: float
    C: float
    residual: float  # sum of squared errors of log(L - C) against the fitted line

    def predict(self, x) -> np.ndarray:
        return self.A * np.asarray(x, dtype=float) ** (-self.alpha) + self.C


def _fit_for_floor(logx: np.ndarray, losses: np.ndarray, c: float):
    y = np.log(losses - c)
    design = np.column_stack([np.ones_like(logx), logx])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.sum((design @ coef - y) ** 2))
    log_a, neg_alpha = coef
    return float(np.exp(log_a)), float(-neg_alpha), resid


def fit_power_law(points) -> PowerLawFit:
    """Fit A * x^(-alpha) + C to a decreasing loss frontier.

    Scans log-spaced candidates for the irreducible floor C in (0, min(loss)),
    solving (A, alpha) by least squares on log(loss - C) per candidate, and
    zooms the grid around the best candidate, FIT_REFINE_ROUNDS times. Candidates
    are spaced in the excess min(loss) - C, where the residual varies smoothly.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
        raise ValueError("need at least 4 (x, loss) points")
    if not np.isfinite(pts).all():
        raise ValueError("x values and losses must be finite")
    x, losses = pts[:, 0], pts[:, 1]
    if np.any(np.diff(x) <= 0):
        raise ValueError("x values must be strictly increasing")
    if np.any(x <= 0):
        raise ValueError("x values must be positive")
    lo_loss, hi_loss = float(losses.min()), float(losses.max())
    if lo_loss == hi_loss:
        raise FitDegenerateError(
            "constant loss frontier: amplitude is zero and the exponent is unidentifiable"
        )
    if losses[-1] >= losses[0]:
        raise FitDegenerateError(
            f"non-decreasing loss frontier (first {losses[0]:g} <= last {losses[-1]:g}); "
            "no decaying component to fit"
        )
    if np.any(losses <= 0):
        raise ValueError("losses must be positive")

    logx = np.log(x)
    d_lo, d_hi = lo_loss * 1e-12, lo_loss * (1.0 - 1e-9)
    best = None
    for _ in range(FIT_REFINE_ROUNDS):
        grid = np.geomspace(d_lo, d_hi, FIT_GRID_SIZE)
        results = [(_fit_for_floor(logx, losses, lo_loss - d), d) for d in grid]
        (a, alpha, resid), d = min(results, key=lambda t: t[0][2])
        best = PowerLawFit(A=a, alpha=alpha, C=float(lo_loss - d), residual=resid)
        i = int(np.where(grid == d)[0][0])
        d_lo = grid[max(i - 1, 0)]
        d_hi = grid[min(i + 1, FIT_GRID_SIZE - 1)]
    return best


def loss_frontier(grid: dict, axis: int = 0) -> list[tuple[float, float]]:
    """Marginal frontier of a loss grid keyed by coordinate tuples.

    For axis=0, returns sorted (x, min over the other coordinates of loss).
    """
    best: dict[float, float] = {}
    for key, loss in grid.items():
        coord = key[axis]
        if coord not in best or loss < best[coord]:
            best[coord] = float(loss)
    return sorted(best.items())


# ---------------------------------------------------------------------------
# Block-model fidelity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FidelityEntry:
    child_vector: tuple[int, ...]
    parent_vectors: tuple[tuple[int, ...], ...]
    analytic: np.ndarray
    empirical: np.ndarray
    tv_distance: float


@dataclass(frozen=True)
class FidelityReport:
    child_blocks: tuple[int, ...]
    parent_blocks: tuple[int, ...]
    entries: tuple[FidelityEntry, ...]

    @property
    def max_tv(self) -> float:
        return max(e.tv_distance for e in self.entries)


def hsbm_fidelity(
    child_blocks: tuple[int, ...],
    parent_blocks: tuple[int, ...],
    num_child_rows: int,
    num_parent_rows: int,
    samples_per_block: int,
    rng: SeededRng,
) -> FidelityReport:
    """Compare empirical link frequencies with the analytic distribution.

    For every child block vector observed among the child rows, draws
    ``samples_per_block`` links and aggregates both the analytic probabilities
    and the empirical frequencies per parent block vector; reports the total
    variation distance for each child block.
    """
    child = assign_block_hierarchy(num_child_rows, child_blocks, rng)
    parent = assign_block_hierarchy(num_parent_rows, parent_blocks, rng)
    stack = sample_matrix_stack(parent_blocks, child_blocks, rng)

    parent_uniq, parent_inv = np.unique(parent, axis=0, return_inverse=True)
    parent_inv = parent_inv.reshape(-1)
    num_groups = parent_uniq.shape[0]
    entries = []
    for vec in np.unique(child, axis=0):
        probs = link_probabilities(vec, parent, stack)
        analytic = np.bincount(parent_inv, weights=probs, minlength=num_groups)
        links = sample_links(np.tile(vec, (samples_per_block, 1)), parent, stack, rng)
        empirical = np.bincount(parent_inv[links - 1], minlength=num_groups) / samples_per_block
        tv = 0.5 * float(np.abs(analytic - empirical).sum())
        entries.append(
            FidelityEntry(
                child_vector=tuple(int(b) for b in vec),
                parent_vectors=tuple(tuple(int(b) for b in p) for p in parent_uniq),
                analytic=analytic,
                empirical=empirical,
                tv_distance=tv,
            )
        )
    return FidelityReport(
        child_blocks=tuple(child_blocks),
        parent_blocks=tuple(parent_blocks),
        entries=tuple(entries),
    )


# ---------------------------------------------------------------------------
# Cross-database diversity
# ---------------------------------------------------------------------------


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("KS statistic needs non-empty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def column_moments(values: np.ndarray) -> dict:
    """Population moments: mean, variance, skewness, excess kurtosis."""
    x = np.asarray(values, dtype=float)
    n = x.size
    mean = float(x.mean())
    centered = x - mean
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        skew, kurt = 0.0, 0.0
    else:
        skew = float(np.mean(centered**3) / m2**1.5)
        kurt = float(np.mean(centered**4) / m2**2 - 3.0)
    return {"count": n, "mean": mean, "variance": m2, "skewness": skew, "excess_kurtosis": kurt}


def _numeric_columns(db: RelationalDatabase) -> dict[str, np.ndarray]:
    """"table.column" -> non-NULL finite values of each numeric feature column, schema order.

    A ``ConfigError`` names two columns whose names join to one key, such as
    column ``b.c`` of table ``a`` and column ``c`` of table ``a.b``.
    """
    out, owner = {}, {}
    for name in db.table_order():
        table = db.tables[name]
        for col in table.feature_names:
            if table.feature_types[col] != NUMERIC:
                continue
            key = f"{name}.{col}"
            if key in owner:
                raise ConfigError(
                    f"column {owner[key]} and column {col} of table {name} both report as {key}"
                )
            owner[key] = f"{col} of table {name}"
            vals = table.features[col][~table.null_mask[col]]
            out[key] = vals[np.isfinite(vals)]
    return out


def _histogram_sketch(values: np.ndarray) -> dict:
    """HISTOGRAM_BINS-bin histogram; degenerate ranges collapse to a single bin."""
    lo, hi = float(values.min()), float(values.max())
    edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
    if lo == hi or np.any(np.diff(edges) <= 0):  # range unresolvable at this width
        return {"counts": [int(values.size)], "edges": [lo, hi]}
    counts, edges = np.histogram(values, bins=HISTOGRAM_BINS, range=(lo, hi))
    return {"counts": [int(c) for c in counts], "edges": [float(e) for e in edges]}


def diversity_report(dbs: list[tuple[str, RelationalDatabase]]) -> dict:
    """Per-column moment/histogram summaries plus pairwise KS statistics, as the
    report ``stats`` writes.

    NULL cells are excluded everywhere. Columns are matched across databases
    by (table, column) name when numeric in both. A database id given twice is
    a ``ConfigError``.
    """
    twice = _first_repeat(db_id for db_id, _ in dbs)
    if twice is not None:
        raise ConfigError(f"database id {twice} is given twice; each database needs its own")
    columns = {db_id: _numeric_columns(db) for db_id, db in dbs}
    report = {
        "moments": {},  # db_id -> "table.column" -> moment dict
        "histograms": {},  # db_id -> "table.column" -> {"counts": [...], "edges": [...]}
        "matched_ks": {},  # "id1|id2" -> "table.column" -> ks
        "first_numeric_ks": {},  # "id1|id2" -> ks on the first numeric feature column
        "first_numeric_skewness": {},  # db_id -> skewness of that column
    }
    for db_id, cols in columns.items():
        present = {key: vals for key, vals in cols.items() if vals.size}
        moments = report["moments"][db_id] = {k: column_moments(v) for k, v in present.items()}
        report["histograms"][db_id] = {k: _histogram_sketch(v) for k, v in present.items()}
        first = next(iter(cols), None)
        if first in present:
            report["first_numeric_skewness"][db_id] = moments[first]["skewness"]
    for (id_a, a), (id_b, b) in combinations(columns.items(), 2):
        pair = f"{id_a}|{id_b}"
        shared = sorted(k for k in a.keys() & b.keys() if a[k].size and b[k].size)
        report["matched_ks"][pair] = {k: ks_statistic(a[k], b[k]) for k in shared}
        first_a, first_b = (next(iter(c.values()), np.empty(0)) for c in (a, b))
        if first_a.size and first_b.size:
            report["first_numeric_ks"][pair] = ks_statistic(first_a, first_b)
    return report


# ---------------------------------------------------------------------------
# Generation profiling
# ---------------------------------------------------------------------------


def profile_generation(
    config: GenConfig, table_counts: list[int], repeats: int = 1, seed: int = 0
) -> list[dict]:
    """Single-threaded wall-clock and peak-memory per table count.

    Each repeat is timed with ``tracemalloc`` off, since tracing slows
    generation, and its peak memory is taken from a second, traced run of the
    same seed. Returns one row per count with mean and deviation over
    ``repeats`` runs; a single repeat reports zero deviation.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {repeats}")
    if not table_counts:
        raise ConfigError("table_counts must name at least one table count")
    rows = []
    for count in table_counts:
        cfg = config.with_num_tables(int(count))
        latencies, peaks = [], []
        for rep in range(repeats):
            run_seed = split_seed(seed, int(count) * 1000 + rep)
            t0 = time.perf_counter()
            generate_database(cfg, run_seed)
            latencies.append(time.perf_counter() - t0)
            tracemalloc.start()
            try:
                generate_database(cfg, run_seed)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        lat = np.array(latencies)
        mem = np.array(peaks) / 1e9
        rows.append(
            {
                "num_tables": int(count),
                "latency_sec_mean": float(lat.mean()),
                "latency_sec_std": float(lat.std()),
                "peak_memory_gb_mean": float(mem.mean()),
                "peak_memory_gb_std": float(mem.std()),
            }
        )
    return rows
