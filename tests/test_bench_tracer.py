"""The benchmark's tracer still finds and reaches every function it wraps.

``bench/tracing.py`` wraps functions by module and name. A renamed function
fails ``install``; a bypassed one is never called, and its traced metric
would silently read 0. This test fails on both, and on projector and forward
counts that no longer agree with each other.
"""

import importlib
from dataclasses import replace
from pathlib import Path

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
    # one forward per projector, plus one reconstruction per mechanism (one Beta draw each)
    mechanisms = sum(name == "core.beta" for name, *_ in tracer.spans)
    assert tracer.counts["scm_gen.projectors"] > 0
    assert tracer.counts["neural.forward_calls"] == tracer.counts["scm_gen.projectors"] + mechanisms
