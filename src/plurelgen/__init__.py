"""Synthetic relational database generation, corpus construction, and validation."""

from .core import (
    ConfigError,
    GenConfig,
    PriorSpec,
    SeededRng,
    StructuralError,
    default_config,
    draw,
    load_config,
    save_config,
    split_seed,
)
from .scm_gen import RelationalDatabase, generate_database

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "GenConfig",
    "PriorSpec",
    "SeededRng",
    "StructuralError",
    "default_config",
    "draw",
    "load_config",
    "save_config",
    "split_seed",
    "RelationalDatabase",
    "generate_database",
    "__version__",
]
