"""The benchmark's tracer still finds and reaches every function it wraps.

``bench/tracing.py`` wraps functions by module and name. A renamed function
fails ``install``; a bypassed one is never called, and its traced metric
would silently read 0. This test fails on both, on a projector count that
includes a mechanism no feature column reads, and on forward and Beta counts
that no longer agree with a recount over the bound mechanisms.
"""

import importlib
from dataclasses import replace
from pathlib import Path

from conftest import feature_ancestors
from plurelgen import corpus, scm_gen
from plurelgen import io as pio
from plurelgen.core import PriorSpec, default_config


def test_every_wrapped_span_opens(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    config = replace(
        default_config(),
        num_tables=PriorSpec.constant(3),
        num_columns=PriorSpec.uniform_range(3, 5),
        rows_entity=PriorSpec.uniform_range(5, 10),
        rows_activity=PriorSpec.uniform_range(5, 10),
    )
    built = []

    def recording_build_scm(*args, **kwargs):
        built.append(original_build_scm(*args, **kwargs))
        return built[-1]

    original_build_scm = scm_gen.build_scm
    monkeypatch.setattr(scm_gen, "build_scm", recording_build_scm)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # look every function up on its module, where the tracer put its wrapper
        db = scm_gen.generate_database(config, 3)
        pio.save_database(db, tmp_path / "db_0")
        loaded = pio.load_database(tmp_path / "db_0")
        stream = corpus.build_corpus([("db_0", loaded)], 200, seed=1)
        pio.write_corpus_file(stream, tmp_path / "corpus.jsonl")
    finally:
        tracer.uninstall()
    opened = {name for name, *_ in tracer.spans}
    assert not (set(tracing.WRAPPED) | {"core.beta"}) - opened
    # build_scm binds the feature nodes and their ancestors only, though some
    # graphs have other nodes, and every bound mechanism is realized: one Beta
    # draw, and one forward per projector plus its reconstruction
    assert any(len(feature_ancestors(scm.graph)) < scm.graph.num_nodes for scm in built)
    assert all(set(scm.topo) <= feature_ancestors(scm.graph) for scm in built)
    mechanisms = [m for scm in built for m in scm.mechanisms.values()]
    projectors = sum(len(m.foreign_proj) + len(m.local_proj) for m in mechanisms)
    assert tracer.counts["scm_gen.projectors"] == projectors
    assert sum(name == "core.beta" for name, *_ in tracer.spans) == len(mechanisms)
    assert tracer.counts["neural.forward_calls"] == projectors + len(mechanisms)
