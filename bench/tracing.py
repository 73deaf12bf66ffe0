"""In-memory spans around the public functions of each ``plurelgen`` layer.

The benchmark installs these wrappers only for a traced run. Each wrapper
is put on every name a caller looks up: the defining module, each
``plurelgen`` module that imported the function, and the class attribute for
``SeededRng.beta``. Spans nest on a stack (the program is single-threaded),
so a span's self time is its duration minus its children's durations.
Counters are taken from the wrapped calls' arguments and results; the time
spent computing them is recorded as the ``tracer`` span, so it shows as
overhead instead of inflating a layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# span name -> (module that defines the function, attribute name)
WRAPPED = {
    "schema_gen.sample": [
        ("plurelgen.schema_gen", "sample_schema_graph"),
        ("plurelgen.schema_gen", "assign_table_metadata"),
    ],
    "fk_gen.populate": [("plurelgen.fk_gen", "populate_foreign_keys")],
    "scm_gen.causal_graph": [("plurelgen.scm_gen", "sample_causal_graph")],
    "scm_gen.build": [("plurelgen.scm_gen", "build_scm")],
    "scm_gen.realize": [("plurelgen.scm_gen", "realize_table_values")],
    "scm_gen.nulls": [("plurelgen.scm_gen", "inject_nulls")],
    "scm_gen.generate": [("plurelgen.scm_gen", "generate_database")],
    "neural.forward": [("plurelgen.neural", "mlp_forward")],
    "io.save": [("plurelgen.io", "save_database")],
    "io.load": [("plurelgen.io", "load_database")],
    "io.corpus_write": [("plurelgen.io", "write_corpus_file")],
    "corpus.bfs": [("plurelgen.corpus", "bfs_context")],
    "corpus.to_json": [("plurelgen.corpus", "example_to_json")],
    "corpus.build": [("plurelgen.corpus", "build_corpus")],
}


def _dir_bytes(path) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Tracer:
    """Collects spans (name, start, end, parent index) and counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # fixed projection that maps each input row to one float, so distinct
        # rows are counted with a 1-D unique instead of a row-wise one
        self._row_keys: dict[int, np.ndarray] = {}

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- wrappers ----------------------------------------------------------

    def _after(self, name: str, args, kwargs, result) -> None:
        """Counters for one finished call, timed as tracer overhead."""
        index = self.open("tracer")
        c = self.counts
        if name == "neural.forward":
            x = np.asarray(args[1], dtype=np.float64)
            x = x.reshape(-1, x.shape[-1])
            key = self._row_keys.get(x.shape[1])
            if key is None:
                key = np.random.default_rng(x.shape[1]).standard_normal(x.shape[1])
                self._row_keys[x.shape[1]] = key
            c["neural.forward_calls"] += 1
            c["neural.forward_rows"] += x.shape[0]
            c["neural.distinct_rows"] += np.unique(x @ key).size
        elif name == "core.beta":
            size = kwargs.get("size", args[3] if len(args) > 3 else None)
            c["core.beta_draws"] += int(np.prod(size)) if size is not None else 1
        elif name == "fk_gen.populate":
            c["fk_gen.links"] += len(result)
        elif name == "scm_gen.build":
            c["scm_gen.projectors"] += sum(
                len(m.foreign_proj) + len(m.local_proj) for m in result.mechanisms.values()
            )
        elif name == "scm_gen.nulls":
            for table in result.tables.values():
                for col in table.feature_names:
                    c["scm_gen.null_cells"] += int(table.null_mask[col].sum())
                    c["scm_gen.feature_cells"] += table.num_rows
        elif name == "io.save":
            c["io.save_bytes"] += _dir_bytes(args[1])
        elif name == "io.load":
            c["io.load_bytes"] += _dir_bytes(args[0])
        elif name == "io.corpus_write":
            c["io.corpus_bytes"] += _dir_bytes(args[1])
        elif name == "corpus.bfs":
            budget = kwargs.get("budget", args[2] if len(args) > 2 else 1024)
            c["corpus.contexts"] += 1
            c["corpus.rows"] += len(result.rows)
            c["corpus.fill"] += result.n_tokens / budget
        self.close(index)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self._after(name, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Each ``next()`` on the returned stream is one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stream = fn(*args, **kwargs)

            def spans():
                while True:
                    index = self.open(name)
                    try:
                        item = next(stream)
                    except StopIteration:
                        return
                    finally:
                        self.close(index)
                    yield item

            return spans()

        return wrapper

    def install(self) -> None:
        import plurelgen.cli  # noqa: F401  (loads every module that imports a wrapped name)
        from plurelgen.core import SeededRng

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "plurelgen"]
        for name, targets in WRAPPED.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                make = self._wrap_generator if name == "corpus.build" else self._wrap
                wrapper = make(name, original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        original = SeededRng.beta
        self._restore.append((SeededRng, "beta", original))
        SeededRng.beta = self._wrap("core.beta", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child_time[i]
        return dict(out)

    def total_times(self) -> dict[str, float]:
        """Total duration per span name (no wrapped function calls itself)."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def write(self, path) -> None:
        """All spans as JSON lines: name, start, end (seconds), parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
        with open(f"{path}.counts.json", "w") as fh:
            json.dump(dict(self.counts), fh, indent=1, sort_keys=True)

    def merge(self, path) -> None:
        """Add the spans and counters that a child process saved with ``write``.

        The child's outermost spans become children of the current span;
        ``perf_counter`` is the system-wide monotonic clock, so the times line up.
        """
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        with open(path) as fh:
            for line in fh:
                name, start, end, p = json.loads(line)
                self.spans.append((name, start, end, base + p if p >= 0 else parent))
        with open(f"{path}.counts.json") as fh:
            self.counts.update(json.load(fh))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, each as (value, unit)."""
        total, own, c = self.total_times(), self.self_times(), self.counts

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        return {
            "schema_gen.sample_s": (total.get("schema_gen.sample", 0.0), "s"),
            "fk_gen.populate_s": (total.get("fk_gen.populate", 0.0), "s"),
            "fk_gen.links": (c["fk_gen.links"], "count"),
            "scm_gen.causal_graph_s": (total.get("scm_gen.causal_graph", 0.0), "s"),
            "scm_gen.build_s": (total.get("scm_gen.build", 0.0), "s"),
            "scm_gen.projectors": (c["scm_gen.projectors"], "count"),
            "scm_gen.realize_s": (total.get("scm_gen.realize", 0.0), "s"),
            "scm_gen.realize_self_s": (own.get("scm_gen.realize", 0.0), "s"),
            "scm_gen.nulls_s": (total.get("scm_gen.nulls", 0.0), "s"),
            "scm_gen.null_share": (ratio("scm_gen.null_cells", "scm_gen.feature_cells"), "share"),
            "scm_gen.generate_self_s": (own.get("scm_gen.generate", 0.0), "s"),
            "neural.forward_s": (total.get("neural.forward", 0.0), "s"),
            "neural.forward_calls": (c["neural.forward_calls"], "count"),
            "neural.forward_rows": (c["neural.forward_rows"], "count"),
            "neural.distinct_row_share": (
                ratio("neural.distinct_rows", "neural.forward_rows"), "share"),
            "core.beta_s": (total.get("core.beta", 0.0), "s"),
            "core.beta_draws": (c["core.beta_draws"], "count"),
            "io.save_s": (total.get("io.save", 0.0), "s"),
            "io.save_mb": (c["io.save_bytes"] / 1e6, "MB"),
            "io.load_s": (total.get("io.load", 0.0), "s"),
            "io.load_mb": (c["io.load_bytes"] / 1e6, "MB"),
            "io.corpus_write_self_s": (own.get("io.corpus_write", 0.0), "s"),
            "io.corpus_mb": (c["io.corpus_bytes"] / 1e6, "MB"),
            "corpus.bfs_s": (total.get("corpus.bfs", 0.0), "s"),
            "corpus.contexts": (c["corpus.contexts"], "count"),
            "corpus.rows": (c["corpus.rows"], "count"),
            "corpus.to_json_s": (total.get("corpus.to_json", 0.0), "s"),
            "corpus.build_self_s": (own.get("corpus.build", 0.0), "s"),
            "corpus.budget_fill": (ratio("corpus.fill", "corpus.contexts"), "share"),
        }
