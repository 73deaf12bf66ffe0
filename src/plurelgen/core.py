"""Shared domain types: seeded randomness, prior specs, and generator configuration.

Every random decision in the pipeline flows through a :class:`SeededRng`
derived from a single master seed via :func:`split_seed`, so a (config, seed)
pair fully determines the output bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "StructuralError",
    "split_seed",
    "SeededRng",
    "PriorSpec",
    "draw",
    "parse_date",
    "format_timestamp",
    "GenConfig",
    "default_config",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "save_config",
]


class ConfigError(ValueError):
    """Malformed prior, config file, or parameter outside its legal domain."""


class StructuralError(RuntimeError):
    """Internal contract broken (cycle in a sampled DAG, empty parent table, ...)."""


# ---------------------------------------------------------------------------
# Seed splitting
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / phi, the splitmix64 stream increment


def _mix64(z: int) -> int:
    # splitmix64 finalizer: a 64-bit bijection with full avalanche
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def split_seed(master: int, index: int) -> int:
    """Derive the ``index``-th child seed of ``master`` deterministically.

    Distinct (master, index) pairs map to distinct outputs with overwhelming
    probability; identical pairs always map to the same output.
    """
    if index < 0:
        raise ValueError(f"split index must be non-negative, got {index}")
    return _mix64((master + _GOLDEN * (index + 1)) & _MASK64)


class SeededRng:
    """Deterministic random stream keyed by a 64-bit seed (PCG64-backed).

    One instance is confined to a single generation job; concurrent jobs use
    disjoint split seeds.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, index: int) -> "SeededRng":
        """Independent child stream; unaffected by draws made on this one."""
        return SeededRng(split_seed(self.seed, index))

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size=None):
        return self._gen.uniform(lo, hi, size=size)

    def integers(self, lo: int, hi: int, size=None):
        """Uniform integers on the inclusive range [lo, hi]."""
        return self._gen.integers(lo, hi, size=size, endpoint=True)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size=size)

    def truncated_normal(self, lo: float = -2.0, hi: float = 2.0, size=None):
        """Standard normal restricted to [lo, hi] by rejection."""
        if size is None:
            while True:
                x = self._gen.standard_normal()
                if lo <= x <= hi:
                    return x
        out = self._gen.standard_normal(size=size)
        bad = (out < lo) | (out > hi)
        while bad.any():
            out[bad] = self._gen.standard_normal(size=int(bad.sum()))
            bad = (out < lo) | (out > hi)
        return out

    def beta(self, a: float, b: float, size=None):
        if a <= 0 or b <= 0:
            raise ConfigError(f"beta parameters must be positive, got ({a}, {b})")
        return self._gen.beta(a, b, size=size)

    def choice(self, seq: Sequence):
        """Uniform draw from a non-empty sequence."""
        if len(seq) == 0:
            raise ConfigError("cannot draw from an empty set")
        return seq[int(self._gen.integers(0, len(seq)))]

    def weighted_index(self, weights: np.ndarray) -> int:
        """Categorical draw over normalized weights; returns the index."""
        cdf = np.cumsum(np.asarray(weights, dtype=float))
        if cdf[-1] <= 0:
            raise StructuralError("categorical weights sum to zero")
        u = self._gen.uniform(0.0, cdf[-1])
        return int(np.searchsorted(cdf, u, side="right").clip(0, len(cdf) - 1))

    def categorical_rows(self, probs: np.ndarray) -> np.ndarray:
        """One categorical draw (an index) per row of a (..., k) probability array."""
        cdf = np.cumsum(probs, axis=-1)
        u = self._gen.uniform(0.0, 1.0, size=probs.shape[:-1])
        return (cdf >= u[..., None] * cdf[..., -1:]).argmax(axis=-1)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), in random order."""
        return self._gen.choice(n, size=k, replace=False)

    def bits64(self) -> int:
        """One raw 64-bit draw (used to key third-party samplers)."""
        return int(self._gen.integers(0, _MASK64, endpoint=True, dtype=np.uint64))


# ---------------------------------------------------------------------------
# Prior specification and sampling
# ---------------------------------------------------------------------------

_KINDS = ("range-uniform", "range-power-law", "set-uniform", "constant")


@dataclass(frozen=True)
class PriorSpec:
    """One sampleable hyperparameter: a range, a finite set, or a constant."""

    kind: str
    payload: Any

    @staticmethod
    def uniform_range(lo, hi) -> "PriorSpec":
        return PriorSpec("range-uniform", (lo, hi))

    @staticmethod
    def power_law_range(lo: int, hi: int) -> "PriorSpec":
        return PriorSpec("range-power-law", (lo, hi))

    @staticmethod
    def set_of(*items) -> "PriorSpec":
        return PriorSpec("set-uniform", tuple(items))

    @staticmethod
    def constant(value) -> "PriorSpec":
        return PriorSpec("constant", value)

    def validate(self, name: str = "prior") -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"{name}: unknown prior kind {self.kind!r}")
        if self.kind in ("range-uniform", "range-power-law"):
            if not (isinstance(self.payload, tuple) and len(self.payload) == 2):
                raise ConfigError(f"{name}: range payload must be a (lo, hi) pair")
            lo, hi = self.payload
            if lo > hi:
                raise ConfigError(f"{name}: range requires lo <= hi, got ({lo}, {hi})")
            if self.kind == "range-power-law":
                if not (_is_int(lo) and _is_int(hi)) or lo < 1:
                    raise ConfigError(
                        f"{name}: power-law sampling needs a positive integer range"
                    )
        elif self.kind == "set-uniform":
            if not isinstance(self.payload, tuple) or len(self.payload) == 0:
                raise ConfigError(f"{name}: set payload must be a non-empty tuple")

    def support_contains(self, value, gamma: float = 2.0) -> bool:
        """True when ``value`` could have been drawn from this prior."""
        if self.kind == "constant":
            return value == self.payload
        if self.kind == "set-uniform":
            return value in self.payload
        lo, hi = self.payload
        if self.kind == "range-power-law":
            return _is_int(value) and lo <= value <= hi
        if _is_int(lo) and _is_int(hi):
            return _is_int(value) and lo <= value <= hi
        return lo <= value <= hi


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _points(prior: PriorSpec) -> tuple:
    """The values a prior names: its constant, its set, or the two ends of its range."""
    return (prior.payload,) if prior.kind == "constant" else tuple(prior.payload)


def _numbers(prior: PriorSpec, name: str) -> tuple:
    points = _points(prior)
    if not all(_is_number(v) for v in points):
        raise ConfigError(f"{name}: expected numbers, got {prior.payload!r}")
    return points


def _choices(prior: PriorSpec, name: str) -> tuple:
    """The items a constant or set prior draws from; a constant is one item."""
    if prior.kind not in ("constant", "set-uniform"):
        raise ConfigError(f"{name}: expected a constant or a set, got a {prior.kind} prior")
    return _points(prior)


def _dates(prior: PriorSpec, name: str) -> tuple:
    """The epoch seconds of the dates a constant or set prior draws from."""
    texts = _choices(prior, name)
    try:
        return tuple(parse_date(str(t)) for t in texts)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def draw(prior: PriorSpec, rng: SeededRng, gamma: float = 2.0):
    """Sample one value from ``prior``.

    Integer uniform ranges are inclusive on both ends; power-law ranges put
    mass proportional to k**(-gamma) on each integer k, normalized discretely.
    """
    prior.validate()
    if prior.kind == "constant":
        return prior.payload
    if prior.kind == "set-uniform":
        return rng.choice(prior.payload)
    lo, hi = prior.payload
    if prior.kind == "range-power-law":
        ks = np.arange(lo, hi + 1, dtype=float)
        return int(lo + rng.weighted_index(ks ** (-gamma)))
    if _is_int(lo) and _is_int(hi):
        return int(rng.integers(int(lo), int(hi)))
    return float(rng.uniform(float(lo), float(hi)))


# ---------------------------------------------------------------------------
# Timestamp text
# ---------------------------------------------------------------------------


def parse_date(text: str) -> int:
    """Calendar date (or full ISO timestamp) -> UTC epoch seconds."""
    if "T" in text:
        dt = datetime.strptime(text.replace("Z", ""), "%Y-%m-%dT%H:%M:%S")
    else:
        dt = datetime.strptime(text, "%Y-%m-%d")
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


def format_timestamp(epoch_seconds):
    """ISO-8601 UTC seconds with a trailing Z, years zero-padded to four digits.

    A str for one timestamp; an array of str for an array of them.
    """
    stamps = np.asarray(epoch_seconds, dtype=np.int64).astype("datetime64[s]")
    return np.datetime_as_string(stamps, unit="s") + "Z"


# ---------------------------------------------------------------------------
# Generator configuration
# ---------------------------------------------------------------------------

SCHEMA_FAMILIES = ("barabasi-albert", "reverse-random-tree", "watts-strogatz")
SCM_FAMILIES = (
    "layered",
    "erdos-renyi",
    "barabasi-albert",
    "random-tree",
    "reverse-random-tree",
)
MLP_INIT_SCHEMES = (
    "kaiming-normal",
    "kaiming-uniform",
    "xavier-normal",
    "xavier-uniform",
    "truncated-normal",
    "sparse",
)
MLP_ACTIVATIONS = ("relu", "elu", "silu", "softsign", "tanh")


@dataclass(frozen=True)
class GenConfig:
    """Full prior specification for database synthesis.

    One field per tunable hyperparameter; see :func:`default_config` for the
    built-in distribution the generator ships with.
    """

    # database-level priors
    schema_graph_priors: PriorSpec
    num_tables: PriorSpec
    rows_entity: PriorSpec
    rows_activity: PriorSpec
    num_columns: PriorSpec
    timestamp_min: PriorSpec
    timestamp_max: PriorSpec
    null_fraction: PriorSpec
    # table/SCM priors
    scm_graph_priors: PriorSpec
    feature_node_fraction: PriorSpec
    num_categories: PriorSpec
    mlp_init_schemes: PriorSpec
    mlp_activations: PriorSpec
    mlp_input_dim: PriorSpec
    mlp_hidden_dim: PriorSpec
    mlp_output_dim: PriorSpec
    mlp_depth: PriorSpec
    exogenous_priors: PriorSpec
    hsbm_levels: PriorSpec
    hsbm_clusters_per_level: PriorSpec
    trend_exponent: PriorSpec
    trend_scale_activity: PriorSpec
    trend_scale_entity: PriorSpec
    cycle_frequency: PriorSpec
    cycle_scale_activity: PriorSpec
    cycle_scale_entity: PriorSpec
    noise_scale_activity: PriorSpec
    noise_scale_entity: PriorSpec
    # DAG-family parameters
    ba_edge_dropout: PriorSpec
    ba_attachment: PriorSpec
    er_edge_prob: PriorSpec
    ws_rewire_prob: PriorSpec
    layered_depth: PriorSpec
    layered_edge_dropout: PriorSpec
    # exponent for power-law ranges (num_columns); configurable
    power_law_exponent: float = 2.0

    def validate(self) -> None:
        for f in fields(self):
            if f.name == "power_law_exponent":
                continue
            prior: PriorSpec = getattr(self, f.name)
            if not isinstance(prior, PriorSpec):
                raise ConfigError(f"{f.name} must be a PriorSpec")
            prior.validate(f.name)
        # the numeric projector feeds one scalar, and TinyMlp is fixed at depth 2
        for name, fixed in (("mlp_input_dim", 1), ("mlp_depth", 2)):
            if any(v != fixed for v in _numbers(getattr(self, name), name)):
                raise ConfigError(f"{name} must be {fixed}, the only value the generator supports")
        for name in ("rows_entity", "rows_activity", "num_categories", "mlp_hidden_dim"):
            if min(_numbers(getattr(self, name), name)) < 1:
                raise ConfigError(f"{name} must not draw a value below 1")
        for name in ("feature_node_fraction", "cycle_frequency"):
            if min(_numbers(getattr(self, name), name)) <= 0:
                raise ConfigError(f"{name} must be positive")
        null_fractions = _numbers(self.null_fraction, "null_fraction")
        if not all(0.0 <= v <= 1.0 for v in null_fractions):
            raise ConfigError(f"null_fraction must lie within [0, 1], got {null_fractions}")
        if max(_dates(self.timestamp_min, "timestamp_min")) >= min(
            _dates(self.timestamp_max, "timestamp_max")
        ):
            raise ConfigError("every timestamp_min must precede every timestamp_max")
        for name, known in (
            ("schema_graph_priors", SCHEMA_FAMILIES),
            ("scm_graph_priors", SCM_FAMILIES),
            ("mlp_init_schemes", MLP_INIT_SCHEMES),
            ("mlp_activations", MLP_ACTIVATIONS),
        ):
            for tag in _choices(getattr(self, name), name):
                if tag not in known:
                    raise ConfigError(f"{name}: unknown tag {tag!r}")
        for pair in _choices(self.exogenous_priors, "exogenous_priors"):
            if not (
                isinstance(pair, (tuple, list))
                and len(pair) == 2
                and all(_is_number(x) and x > 0 for x in pair)
            ):
                raise ConfigError(
                    f"exogenous_priors: Beta parameters must be positive pairs, got {pair!r}"
                )
        if self.power_law_exponent <= 0:
            raise ConfigError("power_law_exponent must be positive")

    def with_num_tables(self, count: int) -> "GenConfig":
        """Copy of this config with the table count pinned to a constant."""
        return replace(self, num_tables=PriorSpec.constant(count))


def default_config() -> GenConfig:
    """The built-in hyperparameter distribution."""
    cfg = GenConfig(
        schema_graph_priors=PriorSpec.set_of(*SCHEMA_FAMILIES),
        num_tables=PriorSpec.uniform_range(3, 20),
        rows_entity=PriorSpec.uniform_range(500, 1000),
        rows_activity=PriorSpec.uniform_range(2000, 5000),
        num_columns=PriorSpec.power_law_range(3, 40),
        timestamp_min=PriorSpec.constant("1990-01-01"),
        timestamp_max=PriorSpec.constant("2025-01-01"),
        null_fraction=PriorSpec.uniform_range(0.01, 0.1),
        scm_graph_priors=PriorSpec.set_of(*SCM_FAMILIES),
        feature_node_fraction=PriorSpec.uniform_range(0.3, 0.9),
        num_categories=PriorSpec.uniform_range(2, 10),
        mlp_init_schemes=PriorSpec.set_of(*MLP_INIT_SCHEMES),
        mlp_activations=PriorSpec.set_of(*MLP_ACTIVATIONS),
        mlp_input_dim=PriorSpec.constant(1),
        mlp_hidden_dim=PriorSpec.constant(32),
        mlp_output_dim=PriorSpec.constant(1),
        mlp_depth=PriorSpec.constant(2),
        exogenous_priors=PriorSpec.set_of(
            (0.5, 0.5), (2.0, 2.0), (2.0, 3.0), (2.0, 4.0), (4.0, 1.0)
        ),
        hsbm_levels=PriorSpec.uniform_range(1, 5),
        hsbm_clusters_per_level=PriorSpec.uniform_range(1, 3),
        trend_exponent=PriorSpec.uniform_range(0.0, 2.0),
        trend_scale_activity=PriorSpec.uniform_range(-1.0, 1.0),
        trend_scale_entity=PriorSpec.constant(0.0),
        cycle_frequency=PriorSpec.set_of(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        cycle_scale_activity=PriorSpec.uniform_range(-1.0, 1.0),
        cycle_scale_entity=PriorSpec.constant(0.0),
        noise_scale_activity=PriorSpec.constant(0.05),
        noise_scale_entity=PriorSpec.constant(1.0),
        ba_edge_dropout=PriorSpec.constant(0.4),
        ba_attachment=PriorSpec.constant(2),
        er_edge_prob=PriorSpec.uniform_range(0.3, 0.8),
        ws_rewire_prob=PriorSpec.uniform_range(0.1, 0.3),
        layered_depth=PriorSpec.uniform_range(2, 8),
        layered_edge_dropout=PriorSpec.constant(0.1),
    )
    cfg.validate()
    return cfg


# --- config file round-trip ------------------------------------------------


def _payload_to_json(prior: PriorSpec):
    if prior.kind == "set-uniform":
        return [list(x) if isinstance(x, tuple) else x for x in prior.payload]
    if prior.kind in ("range-uniform", "range-power-law"):
        return list(prior.payload)
    return prior.payload


def _payload_from_json(kind: str, payload):
    if kind == "set-uniform":
        if not isinstance(payload, list):
            raise ConfigError(f"set payload must be a list, got {payload!r}")
        return tuple(tuple(x) if isinstance(x, list) else x for x in payload)
    if kind in ("range-uniform", "range-power-law"):
        if not isinstance(payload, list) or len(payload) != 2:
            raise ConfigError(f"range payload must be [lo, hi], got {payload!r}")
        return tuple(payload)
    return payload


def config_to_dict(config: GenConfig) -> dict:
    out: dict[str, Any] = {}
    for f in fields(config):
        if f.name == "power_law_exponent":
            out[f.name] = config.power_law_exponent
            continue
        prior: PriorSpec = getattr(config, f.name)
        out[f.name] = {"kind": prior.kind, "payload": _payload_to_json(prior)}
    return out


def config_from_dict(data: dict) -> GenConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    kwargs: dict[str, Any] = {}
    known = {f.name for f in fields(GenConfig)}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if key == "power_law_exponent":
            kwargs[key] = float(value)
            continue
        if not isinstance(value, dict) or "kind" not in value or "payload" not in value:
            raise ConfigError(f"{key}: expected an object with 'kind' and 'payload'")
        kind = value["kind"]
        kwargs[key] = PriorSpec(kind, _payload_from_json(kind, value["payload"]))
    missing = known - set(kwargs) - {"power_law_exponent"}
    if missing:
        defaults = default_config()
        for name in missing:
            kwargs[name] = getattr(defaults, name)
    cfg = GenConfig(**kwargs)
    cfg.validate()
    return cfg


def load_config(path) -> GenConfig:
    """Read a config file; keys absent from the file keep their defaults."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def save_config(config: GenConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")
