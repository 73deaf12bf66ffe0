import math
from dataclasses import fields

import numpy as np
import pytest

from plurelgen.core import MLP_INIT_SCHEMES, ConfigError, SeededRng
from plurelgen.neural import (
    ACTIVATIONS,
    EmbeddingMatrix,
    TinyMlp,
    _sigmoid,
    decode_category,
    init_embedding,
    init_mlp,
    mlp_forward,
)

PROBES = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _textbook(tag: str, x: float) -> float:
    if tag == "relu":
        return max(x, 0.0)
    if tag == "elu":
        return x if x > 0 else math.exp(x) - 1.0
    if tag == "silu":
        return x / (1.0 + math.exp(-x))
    if tag == "softsign":
        return x / (1.0 + abs(x))
    if tag == "tanh":
        return math.tanh(x)
    raise AssertionError(tag)


class TestActivations:
    @pytest.mark.parametrize("tag", sorted(ACTIVATIONS))
    def test_matches_textbook_definition(self, tag):
        got = ACTIVATIONS[tag](PROBES.copy())
        want = np.array([_textbook(tag, x) for x in PROBES])
        assert np.allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("tag", sorted(ACTIVATIONS))
    def test_zero_maps_to_zero(self, tag):
        assert ACTIVATIONS[tag](np.array([0.0]))[0] == 0.0

    def test_silu_stable_at_extremes(self):
        out = ACTIVATIONS["silu"](np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))


class TestInitMlp:
    def test_sparse_exact_half_zeros(self):
        mlp = init_mlp(32, 32, "sparse", "relu", SeededRng(0), hidden_dim=32)
        assert int((mlp.w1 == 0).sum()) == 512
        assert int((mlp.w2 == 0).sum()) == 512

    def test_sparse_odd_sized_layer(self):
        mlp = init_mlp(1, 32, "sparse", "relu", SeededRng(1), hidden_dim=32)
        assert int((mlp.w1 == 0).sum()) == 16  # 1x32 layer

    def test_xavier_uniform_bound(self):
        mlp = init_mlp(8, 4, "xavier-uniform", "tanh", SeededRng(2), hidden_dim=32)
        assert np.all(np.abs(mlp.w1) <= math.sqrt(6.0 / (8 + 32)))
        assert np.all(np.abs(mlp.w2) <= math.sqrt(6.0 / (32 + 4)))

    def test_kaiming_uniform_bound(self):
        mlp = init_mlp(16, 2, "kaiming-uniform", "relu", SeededRng(3), hidden_dim=32)
        assert np.all(np.abs(mlp.w1) <= math.sqrt(6.0 / 16))

    def test_truncated_normal_support(self):
        mlp = init_mlp(32, 32, "truncated-normal", "elu", SeededRng(4))
        assert np.all(np.abs(mlp.w1) <= 2.0) and np.all(np.abs(mlp.w2) <= 2.0)

    @pytest.mark.parametrize(
        "scheme",
        ["kaiming-normal", "kaiming-uniform", "xavier-normal", "xavier-uniform", "truncated-normal", "sparse"],
    )
    def test_all_parameters_finite_and_no_biases(self, scheme):
        mlp = init_mlp(3, 5, scheme, "silu", SeededRng(5))
        assert [f.name for f in fields(TinyMlp)] == ["w1", "w2", "activation"]
        assert mlp.w1.shape == (3, 32) and mlp.w2.shape == (32, 5)
        for arr in (mlp.w1, mlp.w2):
            assert np.all(np.isfinite(arr))

    def test_unknown_tags_rejected(self):
        with pytest.raises(ConfigError):
            init_mlp(1, 1, "glorot", "relu", SeededRng(0))
        with pytest.raises(ConfigError):
            init_mlp(1, 1, "sparse", "gelu", SeededRng(0))
        with pytest.raises(ConfigError):
            init_mlp(0, 1, "sparse", "relu", SeededRng(0))


class TestMlpForward:
    def test_zero_weights_zero_output(self):
        for tag in ("relu", "tanh", "softsign", "silu", "elu"):
            mlp = TinyMlp(w1=np.zeros((3, 4)), w2=np.zeros((4, 2)), activation=tag)
            assert np.all(mlp_forward(mlp, np.array([1.0, -2.0, 3.0])) == 0.0)

    def test_relu_kills_negative_single_path(self):
        mlp = TinyMlp(w1=np.array([[1.0]]), w2=np.array([[1.0]]), activation="relu")
        assert mlp_forward(mlp, np.array([-1.0]))[0] == 0.0
        assert mlp_forward(mlp, np.array([2.0]))[0] == 2.0

    def test_golden_output_stable(self):
        # frozen after the first implementation run
        mlp = init_mlp(3, 2, "xavier-normal", "tanh", SeededRng(2024))
        out = mlp_forward(mlp, np.array([0.5, -1.0, 2.0]))
        assert np.allclose(
            out, [-0.2526993607657436, -0.5421567613575538], rtol=0, atol=1e-15
        )

    def test_pure_function_bitwise(self):
        mlp = init_mlp(4, 4, "kaiming-normal", "silu", SeededRng(6))
        x = SeededRng(7).standard_normal(4)
        a = mlp_forward(mlp, x)
        b = mlp_forward(mlp, x)
        assert np.array_equal(a, b)

    def test_batch_matches_single(self):
        mlp = init_mlp(3, 2, "xavier-uniform", "elu", SeededRng(8))
        xs = SeededRng(9).standard_normal((5, 3))
        batch = mlp_forward(mlp, xs)
        for i in range(5):
            assert np.allclose(batch[i], mlp_forward(mlp, xs[i]))

    def test_dimension_mismatch_raises(self):
        mlp = init_mlp(3, 2, "xavier-normal", "relu", SeededRng(10))
        with pytest.raises(ValueError):
            mlp_forward(mlp, np.zeros(4))


# The forms these kernels replaced, kept as bitwise references.


def _masked_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _biased_forward(mlp, x):
    """The forward pass with its zero biases and a k=1 matmul for one input."""
    h = ACTIVATIONS[mlp.activation](x @ mlp.w1 + np.zeros(mlp.w1.shape[1]))
    return h @ mlp.w2 + np.zeros(mlp.w2.shape[1])


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _sigmoid_probes():
    """Signed zeros, underflow and overflow edges, infinities, NaN and 10**6 random values."""
    edges = np.array([0.0, 1e-300, 1.0, 36.0, 709.0, 745.5, 1e308, np.inf])
    scale = 10.0 ** SeededRng(12).uniform(-3, 3, size=10**6)
    return np.concatenate([edges, -edges, SeededRng(11).standard_normal(10**6) * scale, [np.nan]])


class TestKernelsBitwise:
    def test_sigmoid_matches_masked_form(self):
        x = _sigmoid_probes()
        got, want = _sigmoid(x), _masked_sigmoid(x)
        nan = np.isnan(x)
        assert np.array_equal(np.isnan(got), nan) and np.array_equal(np.isnan(want), nan)
        # the two forms give NaN different sign bits, so NaN only has to stay NaN
        assert np.array_equal(_bits(got[~nan]), _bits(want[~nan]))

    def test_silu_matches_masked_form(self):
        x = _sigmoid_probes()
        with np.errstate(invalid="ignore"):  # -inf * 0
            got, want = ACTIVATIONS["silu"](x), x * _masked_sigmoid(x)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(_bits(got[~nan]), _bits(want[~nan]))

    @pytest.mark.parametrize("scheme", MLP_INIT_SCHEMES)
    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_one_input_forward_matches_matmul(self, scheme, activation):
        rng = SeededRng(len(scheme) * 31 + len(activation))
        mlp = init_mlp(1, 1, scheme, activation, rng)
        x = np.concatenate([[0.0, -0.0, 1e-300, -1e300], rng.standard_normal(3000) * 5.0])
        wide = init_mlp(1, 32, scheme, activation, rng)
        for net in (mlp, wide):
            got, want = mlp_forward(net, x[:, None]), _biased_forward(net, x[:, None])
            assert np.array_equal(_bits(got), _bits(want))
        for v in x[:4]:
            got, want = mlp_forward(mlp, [v]), _biased_forward(mlp, np.array([v]))
            assert np.array_equal(_bits(got), _bits(want))


class TestEmbedding:
    def test_decode_orthonormal_rows(self):
        emb = EmbeddingMatrix(rows=np.eye(5))
        assert decode_category(emb, np.eye(5)[2]) == 3
        assert np.array_equal(decode_category(emb, np.eye(5)[[2, 0, 4]]), [3, 1, 5])

    def test_decode_zero_vector_tie_break(self):
        emb = init_embedding(6, 4, SeededRng(2))
        assert decode_category(emb, np.zeros(4)) == 1
        assert np.array_equal(decode_category(emb, np.zeros((3, 4))), [1, 1, 1])

    def test_decode_matches_brute_force(self):
        for seed in range(30):
            rng = SeededRng(seed)
            emb = init_embedding(7, 16, rng)
            latents = rng.standard_normal((5, 16))
            want = [int(np.argmax([float(emb.rows[c] @ x) for c in range(7)])) + 1 for x in latents]
            assert decode_category(emb, latents[0]) == want[0]
            assert np.array_equal(decode_category(emb, latents), want)

    def test_decode_invariant_under_positive_scaling(self):
        rng = SeededRng(33)
        emb = init_embedding(5, 8, rng)
        latents = rng.standard_normal((20, 8))
        assert np.array_equal(decode_category(emb, latents), decode_category(emb, 42.0 * latents))
