"""Shared domain types: seeded randomness, prior specs, and generator configuration.

Every random decision in the pipeline flows through a :class:`SeededRng`
derived from a single master seed via :func:`split_seed`, so a (config, seed)
pair fully determines the output bytes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

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
    "FIELD_RULES",
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
        flat = out.reshape(-1)  # a view: out is fresh and contiguous
        # redraw only the entries still outside [lo, hi], in ascending flat order
        idx = np.flatnonzero((flat < lo) | (flat > hi))
        while idx.size:
            flat[idx] = redraw = self._gen.standard_normal(size=idx.size)
            idx = idx[(redraw < lo) | (redraw > hi)]
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
            if not (_is_number(lo) and _is_number(hi)):
                raise ConfigError(
                    f"{name}: range ends must be int64 integers or floats in "
                    f"[-{_FLOAT_BOUND:.4g}, {_FLOAT_BOUND:.4g}], got ({lo!r}, {hi!r})"
                )
            if lo > hi:
                raise ConfigError(f"{name}: range requires lo <= hi, got ({lo}, {hi})")
            if self.kind == "range-power-law" and not (_is_int(lo) and _is_int(hi) and lo >= 1):
                raise ConfigError(f"{name}: power-law sampling needs a positive integer range")
        elif self.kind == "set-uniform":
            if not isinstance(self.payload, tuple) or len(self.payload) == 0:
                raise ConfigError(f"{name}: set payload must be a non-empty tuple")

    def support_contains(self, value) -> bool:
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


# numpy draws integers in int64, and a float range wider than the largest
# float cannot be drawn, so every numeric point stays inside these bounds.
_INT64_MAX = int(np.iinfo(np.int64).max)
_FLOAT_BOUND = sys.float_info.max / 2


def _is_number(x) -> bool:
    """An int64 or a float of magnitude at most _FLOAT_BOUND; booleans are not numbers."""
    if _is_int(x):
        return -_INT64_MAX - 1 <= x <= _INT64_MAX
    return isinstance(x, (float, np.floating)) and abs(x) <= _FLOAT_BOUND


def _points(prior: PriorSpec) -> tuple:
    """The values a prior names: its constant, its set, or the two ends of its range."""
    return (prior.payload,) if prior.kind == "constant" else tuple(prior.payload)


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
HSBM_MAX_LEVELS = 5  # the deepest block hierarchy the foreign-key sampler builds


class FieldRule(NamedTuple):
    """What one prior field of :class:`GenConfig` may hold."""

    kinds: tuple[str, ...]  # the prior kinds the field takes
    check: Callable[[Any], bool]  # must hold for every point the prior names
    domain: str  # the domain in words, for the ConfigError


def _is_date(x) -> bool:
    try:
        parse_date(str(x))
    except ValueError:
        return False
    return True


def _is_beta_pair(x) -> bool:
    return isinstance(x, (tuple, list)) and len(x) == 2 and all(_is_number(v) and v > 0 for v in x)


# Tags, dates and Beta pairs are drawn as given, so they take no range. Only
# num_columns passes power_law_exponent to draw, so only it takes a power law.
_POINT_KINDS = ("constant", "set-uniform")
_NUMERIC_KINDS = ("constant", "set-uniform", "range-uniform")


def _tags(known: tuple[str, ...]) -> FieldRule:
    return FieldRule(_POINT_KINDS, lambda x: x in known, "one of " + ", ".join(known))


def _integers(lo: int, hi: int = _INT64_MAX) -> FieldRule:
    return FieldRule(
        _NUMERIC_KINDS, lambda x: _is_int(x) and lo <= x <= hi, f"an integer in {lo}..{hi}"
    )


_NUMBER = FieldRule(
    _NUMERIC_KINDS, _is_number, f"a number in [-{_FLOAT_BOUND:.4g}, {_FLOAT_BOUND:.4g}]"
)
_POSITIVE = FieldRule(
    _NUMERIC_KINDS, lambda x: _is_number(x) and x > 0, f"a number in (0, {_FLOAT_BOUND:.4g}]"
)
_FRACTION = FieldRule(
    _NUMERIC_KINDS, lambda x: _is_number(x) and 0 <= x <= 1, "a number in [0, 1]"
)
_DATE = FieldRule(_POINT_KINDS, _is_date, "a date, YYYY-MM-DD or YYYY-MM-DDTHH:MM:SS")


def _prior(default: PriorSpec, rule: FieldRule):
    """A prior field of GenConfig: its built-in default and the rule every config meets.

    A range prior is checked at its two ends, so every rule's check is a
    property that holds between two ends when it holds at both.
    """
    return field(default=default, metadata={"rule": rule})


@dataclass(frozen=True)
class GenConfig:
    """Full prior specification for database synthesis.

    One field per tunable hyperparameter, declared with its built-in default
    and its rule. Building a config (directly, by ``replace`` or by loading a
    file) validates it, so every GenConfig that exists has passed its rules.
    """

    # database-level priors
    schema_graph_priors: PriorSpec = _prior(
        PriorSpec.set_of(*SCHEMA_FAMILIES), _tags(SCHEMA_FAMILIES)
    )
    # networkx's barabasi-albert and watts-strogatz need 2 nodes
    num_tables: PriorSpec = _prior(PriorSpec.uniform_range(3, 20), _integers(2))
    rows_entity: PriorSpec = _prior(PriorSpec.uniform_range(500, 1000), _integers(1))
    rows_activity: PriorSpec = _prior(PriorSpec.uniform_range(2000, 5000), _integers(1))
    # the one prior whose draw takes power_law_exponent
    num_columns: PriorSpec = _prior(
        PriorSpec.power_law_range(3, 40), _integers(1)._replace(kinds=_KINDS)
    )
    timestamp_min: PriorSpec = _prior(PriorSpec.constant("1990-01-01"), _DATE)
    timestamp_max: PriorSpec = _prior(PriorSpec.constant("2025-01-01"), _DATE)
    null_fraction: PriorSpec = _prior(PriorSpec.uniform_range(0.01, 0.1), _FRACTION)
    # table/SCM priors
    scm_graph_priors: PriorSpec = _prior(PriorSpec.set_of(*SCM_FAMILIES), _tags(SCM_FAMILIES))
    feature_node_fraction: PriorSpec = _prior(PriorSpec.uniform_range(0.3, 0.9), _POSITIVE)
    num_categories: PriorSpec = _prior(PriorSpec.uniform_range(2, 10), _integers(1))
    mlp_init_schemes: PriorSpec = _prior(
        PriorSpec.set_of(*MLP_INIT_SCHEMES), _tags(MLP_INIT_SCHEMES)
    )
    mlp_activations: PriorSpec = _prior(PriorSpec.set_of(*MLP_ACTIVATIONS), _tags(MLP_ACTIVATIONS))
    # a numeric input and a numeric output are one scalar each, and TinyMlp has depth 2
    mlp_input_dim: PriorSpec = _prior(PriorSpec.constant(1), _integers(1, 1))
    mlp_hidden_dim: PriorSpec = _prior(PriorSpec.constant(32), _integers(1))
    mlp_output_dim: PriorSpec = _prior(PriorSpec.constant(1), _integers(1, 1))
    mlp_depth: PriorSpec = _prior(PriorSpec.constant(2), _integers(2, 2))
    exogenous_priors: PriorSpec = _prior(
        PriorSpec.set_of((0.5, 0.5), (2.0, 2.0), (2.0, 3.0), (2.0, 4.0), (4.0, 1.0)),
        FieldRule(_POINT_KINDS, _is_beta_pair, "a pair of positive Beta shapes"),
    )
    hsbm_levels: PriorSpec = _prior(PriorSpec.uniform_range(1, 5), _integers(1, HSBM_MAX_LEVELS))
    hsbm_clusters_per_level: PriorSpec = _prior(PriorSpec.uniform_range(1, 3), _integers(1))
    trend_exponent: PriorSpec = _prior(PriorSpec.uniform_range(0.0, 2.0), _NUMBER)
    trend_scale_activity: PriorSpec = _prior(PriorSpec.uniform_range(-1.0, 1.0), _NUMBER)
    trend_scale_entity: PriorSpec = _prior(PriorSpec.constant(0.0), _NUMBER)
    cycle_frequency: PriorSpec = _prior(
        PriorSpec.set_of(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0), _POSITIVE
    )
    cycle_scale_activity: PriorSpec = _prior(PriorSpec.uniform_range(-1.0, 1.0), _NUMBER)
    cycle_scale_entity: PriorSpec = _prior(PriorSpec.constant(0.0), _NUMBER)
    noise_scale_activity: PriorSpec = _prior(PriorSpec.constant(0.05), _NUMBER)
    noise_scale_entity: PriorSpec = _prior(PriorSpec.constant(1.0), _NUMBER)
    # DAG-family parameters
    ba_edge_dropout: PriorSpec = _prior(PriorSpec.constant(0.4), _NUMBER)
    ba_attachment: PriorSpec = _prior(PriorSpec.constant(2), _integers(1))
    er_edge_prob: PriorSpec = _prior(PriorSpec.uniform_range(0.3, 0.8), _NUMBER)
    ws_rewire_prob: PriorSpec = _prior(PriorSpec.uniform_range(0.1, 0.3), _NUMBER)
    layered_depth: PriorSpec = _prior(PriorSpec.uniform_range(2, 8), _integers(1))
    layered_edge_dropout: PriorSpec = _prior(PriorSpec.constant(0.1), _NUMBER)
    # exponent for the power-law range of num_columns
    power_law_exponent: float = 2.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise a ConfigError naming the field unless every value the priors can draw generates."""
        for name, rule in FIELD_RULES.items():
            prior = getattr(self, name)
            if not isinstance(prior, PriorSpec):
                raise ConfigError(f"{name} must be a PriorSpec")
            prior.validate(name)
            if prior.kind not in rule.kinds:
                raise ConfigError(f"{name} takes {' or '.join(rule.kinds)}, not {prior.kind}")
            for point in _points(prior):
                if not rule.check(point):
                    raise ConfigError(f"{name} must be {rule.domain}, got {point!r}")
        latest_min = max(parse_date(str(t)) for t in _points(self.timestamp_min))
        if latest_min >= min(parse_date(str(t)) for t in _points(self.timestamp_max)):
            raise ConfigError("every timestamp_min must precede every timestamp_max")
        gamma = self.power_law_exponent
        if not _POSITIVE.check(gamma):
            raise ConfigError(f"power_law_exponent must be {_POSITIVE.domain}, got {gamma!r}")
        # the largest num_columns weight is lo ** -gamma; where it underflows, all are 0
        cols = self.num_columns
        if cols.kind == "range-power-law" and float(cols.payload[0]) ** -gamma == 0:
            raise ConfigError(f"power_law_exponent {gamma!r} makes every num_columns weight 0")

    def with_num_tables(self, count: int) -> "GenConfig":
        """Copy of this config with the table count pinned to a constant."""
        return replace(self, num_tables=PriorSpec.constant(count))


FIELD_RULES: dict[str, FieldRule] = {
    f.name: f.metadata["rule"] for f in fields(GenConfig) if "rule" in f.metadata
}


def default_config() -> GenConfig:
    """The built-in hyperparameter distribution."""
    return GenConfig()


# --- config file round-trip ------------------------------------------------


def _payload_to_json(prior: PriorSpec):
    if prior.kind == "set-uniform":
        return [list(x) if isinstance(x, tuple) else x for x in prior.payload]
    if prior.kind in ("range-uniform", "range-power-law"):
        return list(prior.payload)
    return prior.payload


def _payload_from_json(kind: str, payload):
    """JSON lists become tuples; PriorSpec.validate rejects any other shape by field name."""
    if kind != "constant" and isinstance(payload, list):
        return tuple(tuple(x) if isinstance(x, list) else x for x in payload)
    return payload


def config_to_dict(config: GenConfig) -> dict:
    out: dict[str, Any] = {"power_law_exponent": config.power_law_exponent}
    for name in FIELD_RULES:
        prior: PriorSpec = getattr(config, name)
        out[name] = {"kind": prior.kind, "payload": _payload_to_json(prior)}
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
            # a non-number is kept, so validate() rejects it by name
            kwargs[key] = float(value) if _is_number(value) else value
            continue
        if not isinstance(value, dict) or "kind" not in value or "payload" not in value:
            raise ConfigError(f"{key}: expected an object with 'kind' and 'payload'")
        kind = value["kind"]
        kwargs[key] = PriorSpec(kind, _payload_from_json(kind, value["payload"]))
    return GenConfig(**kwargs)


def load_config(path) -> GenConfig:
    """Read a config file; keys absent from the file keep their defaults."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def save_config(config: GenConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")
