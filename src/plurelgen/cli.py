"""Command-line entry points.

Subcommands: generate (databases), corpus (masked-cell contexts), stats
(diversity report), fit (power-law frontier fit), profile (latency/memory).
All outputs are deterministic in their inputs except profile timings. The
PLURELGEN_THREADS environment variable caps the generate worker pool.
stats, fit and profile import ``analysis``, and a pooled generate its worker
pool, when they run, so generate and corpus start without either.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

from .core import ConfigError, GenConfig, default_config, load_config, config_to_dict, split_seed
from .corpus import DEFAULT_CONTEXT_LEN, DEFAULT_WIDTH, build_corpus
from .io import (
    OutputLayout,
    database_dirs,
    find_database_dirs,
    load_database,
    read_points_csv,
    save_database,
    write_corpus_file,
    write_json,
    write_profile_csv,
)
from .scm_gen import generate_database

__all__ = ["cmd_generate", "cmd_corpus", "cmd_stats", "cmd_fit", "cmd_profile", "main"]


def _resolve_config(path: str | None) -> GenConfig:
    return load_config(path) if path else default_config()


def _worker_count() -> int:
    raw = os.environ.get("PLURELGEN_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"PLURELGEN_THREADS must be an integer, got {raw!r}")


def _generate_one(config: GenConfig, master_seed: int, index: int, out_root: str) -> int:
    db = generate_database(config, split_seed(master_seed, index))
    meta = {"config": config_to_dict(config), "master_seed": master_seed, "db_index": index}
    save_database(db, OutputLayout(Path(out_root)).db_dir(index), meta)
    return index


def _check_count(flag: str, value: int) -> None:
    if value < 0:
        raise ConfigError(f"{flag} must be non-negative, got {value}")


def _rejects(*errors: type[Exception]):
    """A command that raises one of ``errors`` prints one ``error:`` line and returns 2."""
    def wrap(command):
        @functools.wraps(command)
        def run(*args, **kwargs) -> int:
            try:
                return command(*args, **kwargs)
            except errors as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        return run
    return wrap


@_rejects(ConfigError, OSError)
def cmd_generate(config_path: str | None, master_seed: int, num_dbs: int, out_dir: str) -> int:
    """Generate num_dbs databases under out_dir/db_<i>, one split seed each.

    A database already under out_dir that this run would not rewrite is an
    error, so one root never mixes two runs, and so is an out_dir that is
    itself a database, which ``find_database_dirs`` would read alone; nothing
    is written or deleted then.
    """
    _check_count("--num-dbs", num_dbs)
    config = _resolve_config(config_path)
    out = Path(out_dir)
    if OutputLayout.schema_path(out).exists():
        raise ConfigError(f"{out} is a database (it holds schema.json); use an empty --out")
    rewritten = {OutputLayout(out).db_dir(i) for i in range(num_dbs)}
    stale = [d for d in database_dirs(out) if d not in rewritten]
    if stale:
        raise ConfigError(
            f"{out} holds {len(stale)} database(s) that a run of {num_dbs} would not rewrite, "
            f"first {stale[0].name}; use an empty --out"
        )
    out.mkdir(parents=True, exist_ok=True)
    workers = _worker_count()
    if workers == 1 or num_dbs <= 1:
        for i in range(num_dbs):
            _generate_one(config, master_seed, i, str(out))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, num_dbs)) as pool:
            jobs = [
                pool.submit(_generate_one, config, master_seed, i, str(out))
                for i in range(num_dbs)
            ]
            for job in jobs:
                job.result()
    return 0


@_rejects(ConfigError, OSError)
def cmd_corpus(
    db_paths: list[str],
    target_tokens: int,
    context_len: int,
    width: int,
    seed: int,
    out_path: str,
) -> int:
    """Build a masked-cell corpus from one or more generated database directories."""
    _check_count("--tokens", target_tokens)
    dbs = []
    for path in db_paths:
        for d in find_database_dirs(path):
            dbs.append((d.name, load_database(d)))
    stream = build_corpus(dbs, target_tokens, context_len, width, seed)
    _, tokens = write_corpus_file(stream, out_path)
    print(tokens)
    return 0


@_rejects(ConfigError, OSError)
def cmd_stats(db_path: str, report_path: str) -> int:
    """Diversity report over every database found under db_path."""
    from .analysis import diversity_report

    dbs = [(d.name, load_database(d)) for d in find_database_dirs(db_path)]
    write_json(diversity_report(dbs), report_path)
    return 0


@_rejects(ConfigError, OSError, ValueError)
def cmd_fit(points_path: str, out_path: str) -> int:
    """Fit the saturating power law to a two-column (x, loss) CSV.

    Bad points, a degenerate frontier (``FitDegenerateError``) included, are a ``ValueError``.
    """
    from .analysis import fit_power_law

    fit = fit_power_law(read_points_csv(points_path))
    write_json(dataclasses.asdict(fit), out_path)
    return 0


@_rejects(ConfigError, OSError)
def cmd_profile(
    config_path: str | None, counts: list[int], repeats: int, out_path: str, seed: int = 0
) -> int:
    """Measure single-threaded generation latency and peak memory per table count."""
    from .analysis import profile_generation

    config = _resolve_config(config_path)
    rows = profile_generation(config, counts, repeats=repeats, seed=seed)
    write_profile_csv(rows, out_path)
    return 0


def _parse_counts(raw: str) -> list[int]:
    try:
        return [int(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"counts must be comma-separated integers, got {raw!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="plurelgen")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate synthetic relational databases")
    p.add_argument("--config", default=None, help="config JSON (defaults to built-in priors)")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--num-dbs", type=int, default=1)
    p.add_argument("--out", required=True, help="output root directory")
    p.set_defaults(run=lambda a: cmd_generate(a.config, a.seed, a.num_dbs, a.out))

    p = sub.add_parser("corpus", help="build a masked-cell prediction corpus")
    p.add_argument("db_dirs", nargs="+", help="database directories or roots of db_* dirs")
    p.add_argument("--tokens", type=int, required=True, help="target total token count")
    p.add_argument("--context-len", type=int, default=DEFAULT_CONTEXT_LEN)
    p.add_argument("--width", type=int, default=DEFAULT_WIDTH)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output corpus.jsonl path")
    p.set_defaults(
        run=lambda a: cmd_corpus(a.db_dirs, a.tokens, a.context_len, a.width, a.seed, a.out)
    )

    p = sub.add_parser("stats", help="diversity report over generated databases")
    p.add_argument("db_dir")
    p.add_argument("--report", required=True, help="output report JSON path")
    p.set_defaults(run=lambda a: cmd_stats(a.db_dir, a.report))

    p = sub.add_parser("fit", help="fit a saturating power law to (x, loss) points")
    p.add_argument("points", help="two-column CSV of x, loss")
    p.add_argument("--out", required=True, help="output fit JSON path")
    p.set_defaults(run=lambda a: cmd_fit(a.points, a.out))

    p = sub.add_parser("profile", help="profile generation latency and memory")
    p.add_argument("--config", default=None)
    p.add_argument("--counts", type=_parse_counts, default=[10, 20, 40])
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(run=lambda a: cmd_profile(a.config, a.counts, a.repeats, a.out, a.seed))

    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
