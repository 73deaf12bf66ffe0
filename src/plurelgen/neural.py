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
    "EmbeddingMatrix",
    "init_mlp",
    "mlp_forward",
    "init_embedding",
    "decode_category",
    "ACTIVATIONS",
]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
    """Depth-2 MLP: input -> hidden -> output, activation after the hidden layer only."""

    w1: np.ndarray  # (in_dim, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, out_dim)
    b2: np.ndarray  # (out_dim,)
    activation: str

    @property
    def in_dim(self) -> int:
        return int(self.w1.shape[0])

    @property
    def out_dim(self) -> int:
        return int(self.w2.shape[1])


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """C x d matrix; row c is the latent vector of category c (1-based)."""

    rows: np.ndarray

    @property
    def num_categories(self) -> int:
        return int(self.rows.shape[0])

    @property
    def dim(self) -> int:
        return int(self.rows.shape[1])


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
    """Initialize a depth-2 MLP; biases are zero under every scheme."""
    if in_dim < 1 or out_dim < 1 or hidden_dim < 1:
        raise ConfigError("MLP dimensions must be >= 1")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown MLP activation {activation!r}")
    w1 = _init_weight((in_dim, hidden_dim), init_scheme, rng)
    w2 = _init_weight((hidden_dim, out_dim), init_scheme, rng)
    return TinyMlp(
        w1=w1,
        b1=np.zeros(hidden_dim),
        w2=w2,
        b2=np.zeros(out_dim),
        activation=activation,
    )


def mlp_forward(mlp: TinyMlp, x: np.ndarray) -> np.ndarray:
    """Forward pass; accepts a single vector (in_dim,) or a batch (n, in_dim)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != mlp.in_dim:
        raise ValueError(f"input dim {x.shape[-1]} does not match MLP in_dim {mlp.in_dim}")
    act = ACTIVATIONS[mlp.activation]
    h = act(x @ mlp.w1 + mlp.b1)
    return h @ mlp.w2 + mlp.b2


def init_embedding(num_categories: int, dim: int, rng: SeededRng) -> EmbeddingMatrix:
    if num_categories < 1 or dim < 1:
        raise ConfigError("embedding dimensions must be >= 1")
    return EmbeddingMatrix(rows=rng.standard_normal((num_categories, dim)))


def decode_category(embedding: EmbeddingMatrix, latent: np.ndarray):
    """1-based category of highest inner product per latent row (n, d), or for one (d,) vector.

    Ties resolve to the lowest category index.
    """
    return np.argmax(latent @ embedding.rows.T, axis=-1) + 1
