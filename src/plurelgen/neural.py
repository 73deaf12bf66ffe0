"""Tiny feed-forward networks and embedding matrices for causal mechanisms.

Forward pass only; parameters are frozen at initialization time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, SeededRng

__all__ = [
    "TinyMlp",
    "init_mlp",
    "mlp_forward",
    "row_blocks",
    "init_embedding",
    "decode_category",
    "ACTIVATIONS",
]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp never overflows: its argument is -|x| on both branches
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _relu(x):
    return np.maximum(x, 0.0)


def _elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def _silu(x):
    return x * _sigmoid(x)


def _softsign(x):
    return x / (1.0 + np.abs(x))


ACTIVATIONS = {
    "relu": _relu,
    "elu": _elu,
    "silu": _silu,
    "softsign": _softsign,
    "tanh": np.tanh,
}


@dataclass(frozen=True, eq=False)
class TinyMlp:
    """Depth-2 MLP without biases, ``act(x @ w1) @ w2``: activation after the hidden layer only."""

    w1: np.ndarray  # (in_dim, hidden)
    w2: np.ndarray  # (hidden, out_dim)
    activation: str

    @property
    def in_dim(self) -> int:
        return int(self.w1.shape[0])


def _init_weight(shape: tuple[int, int], scheme: str, rng: SeededRng) -> np.ndarray:
    fan_in, fan_out = shape
    if scheme == "kaiming-normal":
        return rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)
    if scheme == "kaiming-uniform":
        bound = math.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)
    if scheme == "xavier-normal":
        return rng.standard_normal(shape) * math.sqrt(2.0 / (fan_in + fan_out))
    if scheme == "xavier-uniform":
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)
    if scheme == "truncated-normal":
        return rng.truncated_normal(-2.0, 2.0, size=shape)
    if scheme == "sparse":
        # exactly half of the entries are zeroed, the rest standard normal
        w = rng.standard_normal(shape)
        flat = w.reshape(-1)
        flat[rng.permutation(flat.size)[: flat.size // 2]] = 0.0
        return w
    raise ConfigError(f"unknown MLP init scheme {scheme!r}")


def init_mlp(
    in_dim: int,
    out_dim: int,
    init_scheme: str,
    activation: str,
    rng: SeededRng,
    hidden_dim: int = 32,
) -> TinyMlp:
    """Initialize a depth-2 MLP; it has no biases, only the two weight matrices."""
    if in_dim < 1 or out_dim < 1 or hidden_dim < 1:
        raise ConfigError("MLP dimensions must be >= 1")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown MLP activation {activation!r}")
    w1 = _init_weight((in_dim, hidden_dim), init_scheme, rng)
    w2 = _init_weight((hidden_dim, out_dim), init_scheme, rng)
    return TinyMlp(w1=w1, w2=w2, activation=activation)


# Cells that one pass of a row-block loop handles at once: an activation, a
# caller's gather, a block of CSV rows written or parsed. Their temporaries
# stay 64 KB of numbers whatever the row count or the table's width.
_BLOCK_CELLS = 8192


def row_blocks(num_rows: int, width: int):
    """Slices covering ``range(num_rows)`` in blocks of at most ``_BLOCK_CELLS`` cells of ``width``.

    A block holds at least one row, and no slice stops past ``num_rows``.
    """
    step = max(1, _BLOCK_CELLS // max(1, width))
    return (slice(lo, min(lo + step, num_rows)) for lo in range(0, num_rows, step))


def mlp_forward(
    mlp: TinyMlp, x: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Forward pass; accepts a single vector (in_dim,) or a batch (n, in_dim).

    ``work`` receives the hidden layer, (n, hidden) or (hidden,), and ``out``
    the result, (n, out_dim) or (out_dim,), which is returned; either is
    allocated when not given. Neither changes a value: both products run
    over all rows, and the activation, elementwise, runs in place one block
    of ``row_blocks`` at a time; a single vector is one block.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != mlp.in_dim:
        raise ValueError(f"input dim {x.shape[-1]} does not match MLP in_dim {mlp.in_dim}")
    # with one input, x @ w1 is one product per element, which a broadcast gives directly
    if mlp.in_dim == 1:
        h = np.multiply(x, mlp.w1[0], out=work)
    else:
        h = np.matmul(x, mlp.w1, out=work)
    act = ACTIVATIONS[mlp.activation]
    hidden = np.atleast_2d(h)  # a view of h, one row for a single vector
    for rows in row_blocks(len(hidden), hidden.shape[1]):
        hidden[rows] = act(hidden[rows])
    return np.matmul(h, mlp.w2, out=out)


def init_embedding(num_categories: int, dim: int, rng: SeededRng) -> np.ndarray:
    """C x d matrix; row c - 1 is the latent vector of category c (1-based)."""
    if num_categories < 1 or dim < 1:
        raise ConfigError("embedding dimensions must be >= 1")
    return rng.standard_normal((num_categories, dim))


def decode_category(embedding: np.ndarray, latent: np.ndarray):
    """1-based category of highest inner product per latent row (n, d), or for one (d,) vector.

    Ties resolve to the lowest category index.
    """
    return np.argmax(latent @ embedding.T, axis=-1) + 1
