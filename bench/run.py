#!/usr/bin/env python3
"""End-to-end benchmark of ``plurelgen generate`` and ``plurelgen corpus``.

Usage, from the root of a checkout::

    python3 bench/run.py --workload gen-default --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):

* ``gen-default``  generate and save the default panel, the four databases of
  ``plurelgen generate --seed 42 --num-dbs 4``, in whole rounds.
* ``gen-small``  the same for a panel of 32 small databases (default priors,
  20-50 entity rows, 50-200 activity rows, master seed 42).
* ``corpus-default``  load the default panel, then build and write masked-cell
  corpus files of 2**18 tokens each. It is not in BENCHMARK.json: its
  run-to-run spread on a shared host can exceed the bound (bench/README.md).

``--seed`` sets the order of the panel within each round on gen-*, and the
corpus seeds on corpus-default.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` every layer's public functions are wrapped and the
per-layer metrics are printed instead. Every run checks the program's outputs
(bench/checks.py) and reports ``correct``, ``attempted`` and ``failed``.
"""

from __future__ import annotations

import os

# One BLAS thread: every workload is single-process, and on a small shared
# host a second BLAS thread adds more noise than speed. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PLURELGEN_THREADS"] = "1"

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("gen-default", "gen-small", "corpus-default")
PANEL_SEED = 42  # master seed of both panels, as in the README's example
PANEL_SIZE = {"gen-default": 4, "gen-small": 32}
SMALL_ROWS_ENTITY = (20, 50)
SMALL_ROWS_ACTIVITY = (50, 200)
CORPUS_ROUND_TOKENS = 1 << 18
CHECK_CORPUS_TOKENS = 1 << 14  # corpus built from gen-* output during the checks
IMPORT_REPEATS = 5  # before and again after the measured operations
LOAD_REPEATS = 3
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import plurelgen.cli; "
    "print(time.perf_counter() - t)"
)
# `plurelgen generate --seed 42 --num-dbs 4 --out argv[1]`, traced to argv[2] if given
PREPARE_CODE = f"""
import sys
from plurelgen.cli import main
tracer = None
if len(sys.argv) > 2:
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
code = main(["generate", "--seed", "{PANEL_SEED}", "--num-dbs", "{PANEL_SIZE['gen-default']}",
             "--out", sys.argv[1]])
if tracer is not None:
    tracer.write(sys.argv[2])
sys.exit(code)
"""


def _import_program():
    if not (SRC / "plurelgen" / "__init__.py").is_file():
        raise SystemExit(f"error: no plurelgen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import plurelgen

    if Path(plurelgen.__file__).resolve().parent != SRC / "plurelgen":
        raise SystemExit(f"error: imported plurelgen from {plurelgen.__file__}, not {SRC}")


class Run:
    """State of one benchmark run: timings, counts, output checks, optional trace."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer):
        self.workload, self.seed, self.seconds, self.tracer = workload, seed, seconds, tracer
        self.work = OUT / f"{workload}-{seed}-{os.getpid()}"
        self.attempted = self.failed = 0
        self.spent = 0.0  # seconds inside attempted operations
        self.measured = 0.0  # seconds inside operations that succeeded
        self.units = 0  # cells (gen-*) or tokens (corpus-default) written
        self.errors: list[str] = []
        self.import_times: list[float] = []
        self.setup = 0.0
        self.peak_rss_mb = 0.0

    def span(self, name: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def time_imports(self) -> None:
        """Wall time of ``import plurelgen.cli`` in fresh interpreters."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, "-c", IMPORT_CODE]
        if not self.import_times:
            # the first import compiles bytecode, which users pay once per install
            subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
        for _ in range(IMPORT_REPEATS):
            out = self.span(
                "import", subprocess.run, cmd, env=env, cwd=ROOT, check=True,
                capture_output=True, text=True,
            )
            self.import_times.append(float(out.stdout))

    def operate(self, what: str, fn, *args):
        """Time one operation and return its result, or None when it failed.

        A failure is counted and recorded, and the run goes on.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an operation that fails is counted, not fatal
            self.failed += 1
            self.errors.append(f"{what} failed: {type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            self.spent += elapsed
        self.measured += elapsed
        return result

    def check(self, what: str, fn, *args):
        """Call something that reads the program's output; a raise fails the checks."""
        try:
            return fn(*args)
        except Exception as exc:  # broken output can make its readers fail
            self.errors.append(f"{what} raised {type(exc).__name__}: {exc}")
            return None

    def finish_measuring(self) -> None:
        """Peak memory of the run so far, then the second half of the import timings."""
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.time_imports()
        self.setup += statistics.median(self.import_times)


# ---------------------------------------------------------------------------
# gen-default, gen-small
# ---------------------------------------------------------------------------


def value_digest(db) -> str:
    """sha256 of every key, NULL mask, non-NULL feature value and timestamp."""
    h = hashlib.sha256()
    for name in sorted(db.tables):
        table = db.tables[name]
        h.update(name.encode())
        for col in table.fk_names:
            h.update(np.ascontiguousarray(table.fk_columns[col], dtype=np.int64).tobytes())
        for col in table.feature_names:
            mask = np.asarray(table.null_mask[col], dtype=bool)
            dtype = np.float64 if table.feature_types[col] == "numeric" else np.int64
            h.update(mask.tobytes())
            h.update(np.ascontiguousarray(table.features[col][~mask], dtype=dtype).tobytes())
        if table.timestamps is not None:
            h.update(np.ascontiguousarray(table.timestamps, dtype=np.int64).tobytes())
    return h.hexdigest()


def feature_cells(directory: Path) -> int:
    """Feature cells of a written database, counted from its schema.json."""
    schema = json.loads((directory / "schema.json").read_text())
    return sum(
        t["num_rows"] * sum(c["role"] == "feature" for c in t["columns"])
        for t in schema["tables"]
    )


def gen_config(workload: str):
    from plurelgen import PriorSpec, default_config

    config = default_config()
    if workload == "gen-small":
        config = replace(
            config,
            rows_entity=PriorSpec.uniform_range(*SMALL_ROWS_ENTITY),
            rows_activity=PriorSpec.uniform_range(*SMALL_ROWS_ACTIVITY),
        )
    return config


def run_generate(run: Run) -> None:
    from checks import (
        Database, check_corpus, check_database, check_same_files, priors_of, tree_digest,
    )
    from plurelgen import corpus, scm_gen, split_seed
    from plurelgen import io as pio
    from plurelgen.core import config_to_dict

    config = gen_config(run.workload)
    config_dict = config_to_dict(config)
    size = PANEL_SIZE[run.workload]
    order = random.Random(run.seed).sample(range(size), size)

    def generate(index: int, directory: Path):
        db_seed = split_seed(PANEL_SEED, index)
        db = scm_gen.generate_database(config, db_seed)
        meta = {
            "config": config_dict,
            "master_seed": PANEL_SEED,
            "db_seed": db_seed,
            "db_index": index,
            "null_fraction": db.null_fraction,
        }
        pio.save_database(db, directory, meta)
        return db

    run.time_imports()
    digests: dict[int, dict] = {}
    values: dict[int, str] = {}
    last = None
    while run.spent < run.seconds:
        for index in order:
            directory = run.work / f"db_{index}"
            db = run.operate(f"database {index}", generate, index, directory)
            if db is None:
                continue
            run.units += run.check(f"db_{index}/schema.json", feature_cells, directory) or 0
            digest = tree_digest(directory)
            run.errors += check_same_files(digests.setdefault(index, digest), digest, f"db_{index}")
            if index not in values:
                values[index] = value_digest(db)
            last = index
            del db  # free it before the next database is generated, as the CLI does
    run.finish_measuring()

    if last is not None and run.attempted == len(digests):
        # no database was written twice, so write the last one again to check replay
        if run.check("repeat", generate, last, run.work / "repeat") is not None:
            run.errors += check_same_files(digests[last], tree_digest(run.work / "repeat"), "repeat")
    priors = priors_of(config)
    loaded, parsed = [], {}
    for index in sorted(values):
        directory = run.work / f"db_{index}"
        files = run.check(f"reading db_{index}", Database, directory)
        if files is not None:
            parsed[directory.name] = files
            run.errors += check_database(files, priors)
        db = run.check(f"load_database(db_{index})", pio.load_database, directory)
        if db is not None:
            if value_digest(db) != values[index]:
                run.errors.append(f"db_{index}: load_database differs from the generated values")
            loaded.append((directory.name, db))

    def write_check_corpus(path: Path) -> int:
        stream = corpus.build_corpus(
            loaded, CHECK_CORPUS_TOKENS, corpus.DEFAULT_CONTEXT_LEN, corpus.DEFAULT_WIDTH, run.seed
        )
        return pio.write_corpus_file(stream, path)[1]

    path = run.work / "check.jsonl"
    tokens = run.check("corpus from the loaded databases", write_check_corpus, path) if loaded else None
    if tokens is not None:
        run.errors += check_corpus(
            path, parsed, corpus.DEFAULT_CONTEXT_LEN, corpus.DEFAULT_WIDTH,
            CHECK_CORPUS_TOKENS, tokens,
        )


# ---------------------------------------------------------------------------
# corpus-default
# ---------------------------------------------------------------------------


def run_corpus(run: Run) -> None:
    from checks import Database, check_corpus, check_database, priors_of
    from plurelgen import corpus, split_seed
    from plurelgen import io as pio

    # a child process writes the inputs, so their memory stays out of peak_rss_mb
    inputs = run.work / "inputs"
    cmd = [sys.executable, "-c", PREPARE_CODE, str(inputs)]
    if run.tracer is not None:
        cmd.append(str(run.work / "prepare.trace"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    run.span(
        "phase.prepare", subprocess.run, cmd, env=env, cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL,
    )
    if run.tracer is not None:
        run.tracer.merge(cmd[-1])

    run.time_imports()
    load_times = []
    for _ in range(LOAD_REPEATS):
        start = time.perf_counter()
        dbs = [(d.name, pio.load_database(d)) for d in pio.find_database_dirs(inputs)]
        load_times.append(time.perf_counter() - start)
    run.setup = statistics.median(load_times)

    def write_file(k: int, path: Path) -> int:
        stream = corpus.build_corpus(
            dbs, CORPUS_ROUND_TOKENS, corpus.DEFAULT_CONTEXT_LEN, corpus.DEFAULT_WIDTH,
            split_seed(run.seed, k),
        )
        return pio.write_corpus_file(stream, path)[1]

    written = []
    while run.spent < run.seconds:
        k = len(written)
        path = run.work / f"corpus_{k}.jsonl"
        tokens = run.operate(f"corpus file {k}", write_file, k, path)
        written.append((path, tokens))
        run.units += tokens or 0
    run.finish_measuring()
    del dbs

    priors = priors_of(gen_config("gen-default"))
    parsed = {}
    for d in pio.find_database_dirs(inputs):
        files = run.check(f"reading {d.name}", Database, d)
        if files is not None:
            parsed[d.name] = files
            run.errors += check_database(files, priors)
    for path, tokens in written:
        if tokens is not None:
            run.errors += check_corpus(
                path, parsed, corpus.DEFAULT_CONTEXT_LEN, corpus.DEFAULT_WIDTH,
                CORPUS_ROUND_TOKENS, tokens,
            )
            path.unlink()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    run = Run(args.workload, args.seed, args.seconds, tracer)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    body = run_corpus if args.workload == "corpus-default" else run_generate
    try:
        wall = time.perf_counter()
        run.span("run", body, run)
        wall = time.perf_counter() - wall
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run.work, ignore_errors=True)

    for line in run.errors[:50]:
        print(f"check: {line}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "cells_per_s": (run.units / run.measured if run.measured else 0.0, "cells/s"),
            "setup_s": (run.setup, "s"),
            "peak_rss_mb": (run.peak_rss_mb, "MB"),
        }
    else:
        metrics = {"import_s": (statistics.median(run.import_times), "s")}
        metrics.update(tracer.layer_metrics())
        report_trace(tracer, run, wall)
    print(
        f"# {args.workload} seed={args.seed}: {run.attempted} operations, "
        f"{run.measured:.2f} s measured, {run.units} "
        f"{'tokens' if args.workload == 'corpus-default' else 'cells'}, {wall:.2f} s wall"
    )
    for name, (value, unit) in metrics.items():
        print(f"# {name:28s} {value:16.6f} {unit}")
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def report_trace(tracer, run: Run, wall: float) -> None:
    """Write the spans and print self time per span name; they sum to the traced wall."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{run.workload}-{run.seed}.jsonl"
    tracer.write(path)
    own = tracer.self_times()
    bench_own = sum(v for k, v in own.items() if k == "run" or k.startswith("phase."))
    print(f"# spans written to {path.relative_to(ROOT)}")
    print(f"# traced throughput {run.units / run.measured if run.measured else 0.0:.1f} per s")
    for name in sorted(own, key=own.get, reverse=True):
        if name != "run" and not name.startswith("phase."):
            print(f"# self {name:24s} {own[name]:10.4f} s {own[name] / wall:7.2%}")
    print(f"# self {'(unwrapped remainder)':24s} {bench_own:10.4f} s {bench_own / wall:7.2%}")
    print(f"# sum of self times {sum(own.values()):.4f} s, traced wall {wall:.4f} s")


if __name__ == "__main__":
    sys.exit(main())
