import json
import math
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plurelgen.core import (
    FIELD_RULES,
    ConfigError,
    GenConfig,
    PriorSpec,
    SeededRng,
    config_from_dict,
    config_to_dict,
    draw,
    load_config,
    save_config,
    split_seed,
)
from plurelgen.scm_gen import generate_database


class TestSplitSeed:
    def test_deterministic(self):
        assert split_seed(42, 0) == split_seed(42, 0)

    def test_distinct_indices(self):
        assert split_seed(42, 0) != split_seed(42, 1)

    def test_golden_value(self):
        # frozen once; a change here means every generated artifact changes
        assert split_seed(42, 7) == 14769051326987775908

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            split_seed(1, -1)

    def test_paired_low_bits_uncorrelated(self):
        # chi-square independence on paired low bits of sibling streams
        n = 4000
        streams = [
            SeededRng(split_seed(42, i)).integers(0, 1, size=n) for i in range(3)
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                table = np.zeros((2, 2))
                for a, b in zip(streams[i], streams[j]):
                    table[a, b] += 1
                row = table.sum(axis=1, keepdims=True)
                col = table.sum(axis=0, keepdims=True)
                expected = row * col / n
                chi2 = float(((table - expected) ** 2 / expected).sum())
                p_value = math.erfc(math.sqrt(chi2 / 2))  # 1 dof
                assert p_value > 0.001


class TestDraw:
    def test_constant_date(self):
        rng = SeededRng(0)
        assert draw(PriorSpec.constant("1990-01-01"), rng) == "1990-01-01"

    def test_singleton_set(self):
        rng = SeededRng(0)
        assert draw(PriorSpec.set_of("x"), rng) == "x"

    def test_integer_range_frequencies(self):
        rng = SeededRng(7)
        prior = PriorSpec.uniform_range(3, 20)
        draws = np.array([draw(prior, rng) for _ in range(100_000)])
        assert draws.min() >= 3 and draws.max() <= 20
        freqs = np.bincount(draws, minlength=21)[3:21] / draws.size
        assert np.all(np.abs(freqs - 1 / 18) < 0.01)

    def test_float_range_support(self):
        rng = SeededRng(3)
        vals = [draw(PriorSpec.uniform_range(0.01, 0.1), rng) for _ in range(1000)]
        assert all(0.01 <= v <= 0.1 for v in vals)
        assert all(isinstance(v, float) for v in vals)

    def test_power_law_mass(self):
        # empirical frequencies against the exact normalized k^-2 weights
        rng = SeededRng(11)
        prior = PriorSpec.power_law_range(3, 40)
        draws = np.array([draw(prior, rng) for _ in range(100_000)])
        ks = np.arange(3, 41, dtype=float)
        expected = ks**-2.0 / (ks**-2.0).sum()
        freqs = np.bincount(draws, minlength=41)[3:41] / draws.size
        assert 0.5 * np.abs(freqs - expected).sum() < 0.01
        assert draws.min() >= 3 and draws.max() <= 40

    def test_power_law_requires_integer_range(self):
        with pytest.raises(ConfigError):
            draw(PriorSpec("range-power-law", (0.5, 2.0)), SeededRng(0))

    def test_malformed_prior(self):
        with pytest.raises(ConfigError):
            draw(PriorSpec("range-uniform", (5, 2)), SeededRng(0))
        with pytest.raises(ConfigError):
            draw(PriorSpec("set-uniform", ()), SeededRng(0))
        with pytest.raises(ConfigError):
            draw(PriorSpec("nope", 1), SeededRng(0))

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["int-range", "float-range", "set", "constant", "power"]),
        data=st.data(),
    )
    def test_value_in_support(self, kind, data):
        rng = SeededRng(data.draw(st.integers(0, 2**32)))
        if kind == "int-range":
            lo = data.draw(st.integers(-50, 50))
            hi = lo + data.draw(st.integers(0, 100))
            prior = PriorSpec.uniform_range(lo, hi)
        elif kind == "float-range":
            lo = data.draw(st.floats(-100, 100))
            hi = lo + data.draw(st.floats(0, 100))
            prior = PriorSpec.uniform_range(lo, hi)
        elif kind == "set":
            items = data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=8))
            prior = PriorSpec.set_of(*items)
        elif kind == "power":
            lo = data.draw(st.integers(1, 20))
            hi = lo + data.draw(st.integers(0, 50))
            prior = PriorSpec.power_law_range(lo, hi)
        else:
            prior = PriorSpec.constant(data.draw(st.integers()))
        assert prior.support_contains(draw(prior, rng))


class TestSampleBeta:
    @pytest.mark.parametrize(
        "a,b,mean", [(1.0, 1.0, 0.5), (4.0, 1.0, 0.8), (2.0, 3.0, 0.4)]
    )
    def test_empirical_mean(self, a, b, mean):
        xs = SeededRng(5).beta(a, b, size=100_000)
        assert np.all((xs >= 0) & (xs <= 1))
        assert abs(xs.mean() - mean) < 0.01

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            SeededRng(0).beta(0.0, 1.0)
        with pytest.raises(ConfigError):
            SeededRng(0).beta(1.0, -2.0)


class TestSeededRng:
    def test_replay_identical(self):
        a = [SeededRng(9).uniform() for _ in range(5)]
        b = [SeededRng(9).uniform() for _ in range(5)]
        assert a == b

    def test_truncated_normal_support(self):
        rng = SeededRng(13)
        xs = rng.truncated_normal(-2.0, 2.0, size=20_000)
        assert np.all((xs >= -2.0) & (xs <= 2.0))
        assert abs(xs.mean()) < 0.05

    @pytest.mark.parametrize("shape", [(1, 32), (32, 32), (1000,)])
    @pytest.mark.parametrize("lo, hi", [(-2.0, 2.0), (-0.3, 0.1)])
    def test_truncated_normal_matches_full_mask_loop(self, shape, lo, hi):
        def full_mask(rng):
            # the loop the narrow redraw replaced: recheck every entry each round
            out = rng.standard_normal(shape)
            bad = (out < lo) | (out > hi)
            while bad.any():
                out[bad] = rng.standard_normal(int(bad.sum()))
                bad = (out < lo) | (out > hi)
            return out

        for seed in range(8):
            got_rng, want_rng = SeededRng(seed), SeededRng(seed)
            got, want = got_rng.truncated_normal(lo, hi, size=shape), full_mask(want_rng)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert got_rng.standard_normal() == want_rng.standard_normal()

    def test_spawn_independent_of_draws(self):
        a = SeededRng(21)
        a.uniform(size=100)
        b = SeededRng(21)
        assert a.spawn(3).uniform() == b.spawn(3).uniform()

    def test_choice_empty_raises(self):
        with pytest.raises(ConfigError):
            SeededRng(0).choice([])


class TestGenConfig:
    def test_default_is_valid(self, config):
        config.validate()

    def test_built_in_config_is_the_default(self, config):
        assert GenConfig() == config
        assert config_from_dict(config_to_dict(GenConfig())) == GenConfig()

    def test_replace_validates(self, config):
        with pytest.raises(ConfigError, match="num_tables"):
            replace(config, num_tables=PriorSpec.constant(0))
        with pytest.raises(ConfigError, match="num_tables"):
            config.with_num_tables(1)

    def test_dict_round_trip(self, config):
        assert config_from_dict(config_to_dict(config)) == config

    def test_file_round_trip(self, config, tmp_path):
        path = tmp_path / "config.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_missing_keys_fall_back_to_defaults(self, config):
        partial = {"num_tables": {"kind": "constant", "payload": 5}}
        cfg = config_from_dict(partial)
        assert cfg.num_tables == PriorSpec.constant(5)
        assert cfg.rows_entity == config.rows_entity

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"not_a_prior": {"kind": "constant", "payload": 1}})

    def test_malformed_entry_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"num_tables": {"kind": "range-uniform"}})
        with pytest.raises(ConfigError):
            config_from_dict({"num_tables": 5})

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_family_rejected(self, config):
        data = config_to_dict(config)
        data["schema_graph_priors"]["payload"] = ["not-a-family"]
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_with_num_tables(self, config):
        pinned = config.with_num_tables(7)
        assert draw(pinned.num_tables, SeededRng(0)) == 7

    def test_default_matches_documented_priors(self, config):
        assert config.num_tables.payload == (3, 20)
        assert config.rows_entity.payload == (500, 1000)
        assert config.rows_activity.payload == (2000, 5000)
        assert config.num_columns == PriorSpec.power_law_range(3, 40)
        assert config.timestamp_min.payload == "1990-01-01"
        assert config.timestamp_max.payload == "2025-01-01"
        assert config.null_fraction.payload == (0.01, 0.1)
        assert config.num_categories.payload == (2, 10)
        assert config.mlp_hidden_dim.payload == 32
        assert config.mlp_depth.payload == 2
        assert (2.0, 3.0) in config.exogenous_priors.payload
        assert config.hsbm_levels.payload == (1, 5)
        assert config.hsbm_clusters_per_level.payload == (1, 3)
        assert config.ba_edge_dropout.payload == 0.4
        assert config.ba_attachment.payload == 2
        assert config.er_edge_prob.payload == (0.3, 0.8)
        assert config.ws_rewire_prob.payload == (0.1, 0.3)
        assert config.layered_depth.payload == (2, 8)
        assert config.layered_edge_dropout.payload == 0.1
        assert config.noise_scale_activity.payload == 0.05
        assert config.noise_scale_entity.payload == 1.0
        assert len(config.cycle_frequency.payload) == 10

    def test_json_file_is_human_editable(self, config, tmp_path):
        path = tmp_path / "config.json"
        save_config(config, path)
        data = json.loads(path.read_text())
        assert data["num_tables"] == {"kind": "range-uniform", "payload": [3, 20]}


def _tiny(config, **priors):
    """A config small enough to generate in well under a second."""
    small = {
        "num_tables": PriorSpec.constant(3),
        "num_columns": PriorSpec.uniform_range(3, 5),
        "rows_entity": PriorSpec.uniform_range(5, 10),
        "rows_activity": PriorSpec.uniform_range(10, 20),
    }
    return replace(config, **{**small, **priors})


class TestValidateRejectsWhatCannotGenerate:
    def test_mlp_input_dim_other_than_one(self, config):
        with pytest.raises(ConfigError, match="mlp_input_dim"):
            _tiny(config, mlp_input_dim=PriorSpec.constant(3)).validate()
        with pytest.raises(ConfigError, match="mlp_input_dim"):
            _tiny(config, mlp_input_dim=PriorSpec.uniform_range(1, 2)).validate()

    def test_mlp_depth_other_than_two(self, config):
        with pytest.raises(ConfigError, match="mlp_depth"):
            _tiny(config, mlp_depth=PriorSpec.constant(5)).validate()
        with pytest.raises(ConfigError, match="mlp_depth"):
            _tiny(config, mlp_depth=PriorSpec.set_of(2, 3)).validate()

    @pytest.mark.parametrize("name", ["rows_entity", "rows_activity"])
    def test_row_range_below_one(self, config, name):
        with pytest.raises(ConfigError, match=name):
            _tiny(config, **{name: PriorSpec.uniform_range(0, 10)}).validate()
        cfg = _tiny(config, **{name: PriorSpec.uniform_range(1, 2)})
        cfg.validate()
        generate_database(cfg, 3)

    def test_constant_null_fraction(self, config):
        with pytest.raises(ConfigError, match="null_fraction"):
            _tiny(config, null_fraction=PriorSpec.constant(1.5)).validate()
        with pytest.raises(ConfigError, match="null_fraction"):
            _tiny(config, null_fraction=PriorSpec.constant("half")).validate()
        cfg = _tiny(config, null_fraction=PriorSpec.constant(0.2))
        cfg.validate()
        assert generate_database(cfg, 1).null_fraction == 0.2

    @pytest.mark.parametrize(
        "name, tag",
        [("schema_graph_priors", "barabasi-albert"), ("scm_graph_priors", "erdos-renyi")],
    )
    def test_constant_family_is_one_tag(self, config, name, tag):
        with pytest.raises(ConfigError, match=name):
            _tiny(config, **{name: PriorSpec.constant("no-such-family")}).validate()
        with pytest.raises(ConfigError, match=name):
            _tiny(config, **{name: PriorSpec.uniform_range("a", "b")}).validate()
        cfg = _tiny(config, **{name: PriorSpec.constant(tag)})
        cfg.validate()
        generate_database(cfg, 2)

    def test_set_timestamp_min_after_a_maximum(self, config):
        late = PriorSpec.set_of("1990-01-01", "2030-01-01")
        with pytest.raises(ConfigError, match="timestamp_min"):
            _tiny(config, timestamp_min=late).validate()
        cfg = _tiny(config, timestamp_min=PriorSpec.set_of("1990-01-01", "2000-01-01"))
        cfg.validate()
        generate_database(cfg, 2)

    def test_malformed_timestamp(self, config):
        with pytest.raises(ConfigError, match="timestamp_min"):
            _tiny(config, timestamp_min=PriorSpec.constant("1990-13-45")).validate()
        with pytest.raises(ConfigError, match="timestamp_max"):
            _tiny(config, timestamp_max=PriorSpec.set_of("2025-01-01", 2030)).validate()

    @pytest.mark.parametrize(
        "name, bad, good",
        [
            ("cycle_frequency", PriorSpec.constant(0.0), PriorSpec.constant(0.5)),
            ("num_categories", PriorSpec.constant(0), PriorSpec.constant(1)),
            ("feature_node_fraction", PriorSpec.uniform_range(0.0, 0.9), PriorSpec.constant(0.5)),
            ("mlp_hidden_dim", PriorSpec.constant(0), PriorSpec.constant(1)),
        ],
    )
    def test_numeric_domain(self, config, name, bad, good):
        with pytest.raises(ConfigError, match=name):
            _tiny(config, **{name: bad}).validate()
        cfg = _tiny(config, **{name: good})
        cfg.validate()
        for seed in range(3):
            generate_database(cfg, seed)

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("mlp_output_dim", PriorSpec.constant(0)),
            ("mlp_output_dim", PriorSpec.constant(2)),
            ("layered_depth", PriorSpec.constant(0)),
            ("hsbm_levels", PriorSpec.constant(0)),
            ("hsbm_levels", PriorSpec.uniform_range(1, 6)),
            ("hsbm_clusters_per_level", PriorSpec.constant(0)),
            ("num_tables", PriorSpec.constant(0)),
            ("num_tables", PriorSpec.constant(1)),
            ("num_tables", PriorSpec.constant(2.5)),
            ("num_tables", PriorSpec.uniform_range(3, 20.5)),
            ("num_tables", PriorSpec.uniform_range("a", 3)),
            ("num_columns", PriorSpec.constant(0)),
            ("ba_attachment", PriorSpec.constant(0)),
            ("trend_exponent", PriorSpec.constant("x")),
            ("rows_entity", PriorSpec.constant(7.5)),
            # numpy draws neither beyond int64 nor across more than the float range
            ("hsbm_clusters_per_level", PriorSpec.uniform_range(1, 2**70)),
            ("hsbm_clusters_per_level", PriorSpec.constant(2**70)),
            ("trend_scale_activity", PriorSpec.uniform_range(-1e308, 1e308)),
            ("trend_scale_activity", PriorSpec.set_of(0.0, 1e308)),
            ("trend_exponent", PriorSpec.constant(-1e308)),
            # only num_columns is drawn with power_law_exponent
            ("rows_entity", PriorSpec.power_law_range(1, 3)),
            ("num_categories", PriorSpec.power_law_range(1, 3)),
            ("hsbm_levels", PriorSpec.power_law_range(1, 3)),
        ],
    )
    def test_outside_the_field_domain(self, config, name, bad):
        with pytest.raises(ConfigError, match=name):
            _tiny(config, **{name: bad}).validate()

    @pytest.mark.parametrize("family", ["barabasi-albert", "reverse-random-tree", "watts-strogatz"])
    def test_two_tables_generate_in_every_schema_family(self, config, family):
        cfg = _tiny(
            config,
            num_tables=PriorSpec.constant(2),
            schema_graph_priors=PriorSpec.constant(family),
            hsbm_levels=PriorSpec.constant(5),
            layered_depth=PriorSpec.constant(1),
            ba_attachment=PriorSpec.constant(1),
        )
        cfg.validate()
        for seed in range(3):
            assert generate_database(cfg, seed).schema.num_tables == 2

    def test_power_law_exponent_must_be_a_number(self, config):
        with pytest.raises(ConfigError, match="power_law_exponent"):
            config_from_dict({"power_law_exponent": "abc"})
        with pytest.raises(ConfigError, match="power_law_exponent"):
            replace(config, power_law_exponent=None).validate()
        assert config_from_dict({"power_law_exponent": 3}).power_law_exponent == 3.0

    def test_power_law_exponent_must_leave_a_weight(self, config):
        # 3 ** -1000 underflows, so every num_columns weight would be 0
        with pytest.raises(ConfigError, match="power_law_exponent"):
            replace(config, power_law_exponent=1000.0)
        with pytest.raises(ConfigError, match="power_law_exponent"):
            replace(config, num_columns=PriorSpec.power_law_range(2, 5), power_law_exponent=1075.0)
        # from k = 1 the first weight is 1 for every exponent
        cfg = _tiny(config, num_columns=PriorSpec.power_law_range(1, 5), power_law_exponent=1000.0)
        assert generate_database(cfg, 0).schema.num_tables == 3
        # a uniform num_columns never draws with the exponent
        _tiny(config, power_law_exponent=1000.0).validate()

    def test_keys_still_load(self, config):
        data = config_to_dict(config)
        data["mlp_depth"] = {"kind": "constant", "payload": 2}
        data["mlp_input_dim"] = {"kind": "set-uniform", "payload": [1]}
        assert config_from_dict(data).mlp_depth == PriorSpec.constant(2)


# Hostile points for the property test. They are written out here, not read
# from FIELD_RULES, so a wrong rule cannot hide itself.
_HOSTILE_POINTS = (
    0, 1, 2, 5, 6, -1, 0.5, 2.5, "x", True, None,
    "1990-01-01", "2030-01-01", "1990-13-45",
    (2.0, 3.0), (0.0, 1.0), (0.5, -1),
    1e308, -1e308, 2**70,
    "relu", "sparse", "layered", "random-tree", "barabasi-albert", "watts-strogatz",
)
_PRIOR_KINDS = ("constant", "set-uniform", "range-uniform", "range-power-law")
_CONFIG_FIELDS = sorted(f.name for f in fields(GenConfig))


class TestEveryAcceptedConfigGenerates:
    def test_rule_table_covers_every_prior_field(self):
        hints = get_type_hints(GenConfig)
        assert set(FIELD_RULES) == {name for name, t in hints.items() if t is PriorSpec}

    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(
        names=st.lists(st.sampled_from(_CONFIG_FIELDS), min_size=1, max_size=2, unique=True),
        data=st.data(),
    )
    def test_validate_rejects_or_generate_succeeds(self, config, names, data):
        """Every config validate() accepts generates; the rest raise a ConfigError."""
        point = st.sampled_from(_HOSTILE_POINTS)
        small = {
            "num_tables": PriorSpec.uniform_range(2, 4),
            "num_columns": PriorSpec.uniform_range(1, 4),
            "rows_entity": PriorSpec.uniform_range(3, 12),
            "rows_activity": PriorSpec.uniform_range(3, 12),
        }
        for name in names:
            kind = data.draw(st.sampled_from(_PRIOR_KINDS))
            if name == "power_law_exponent":
                small[name] = data.draw(point)
            elif kind == "constant":
                small[name] = PriorSpec.constant(data.draw(point))
            else:
                small[name] = PriorSpec(kind, (data.draw(point), data.draw(point)))
        try:
            cfg = replace(config, **small)
        except ConfigError:
            return
        generate_database(cfg, data.draw(st.integers(0, 3)))
