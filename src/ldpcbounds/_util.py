"""Small shared helpers: seeding, node counts and deterministic number formatting."""

from __future__ import annotations

import operator

import numpy as np

# Stream tags keep independently-consumed random streams from colliding
# when they are derived from the same master seed.
STREAM_GRAPH = 1
STREAM_TRIAL = 2
STREAM_TAIL_GRAPH = 3
STREAM_TAIL_PAIRS = 4
STREAM_ORACLE_GRAPH = 5
STREAM_ORACLE_NODE = 6


def as_generator(seed) -> np.random.Generator:
    """Coerce an int seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def derived_rng(master_seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator for one unit of work, stable under any execution order."""
    ss = np.random.SeedSequence((int(master_seed), int(stream), int(index)))
    return np.random.Generator(np.random.PCG64(ss))


def node_count(value, error: type[Exception]) -> int:
    """``value`` as a node count: any integer type, else ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"node counts must be integers, got {value!r}") from None


def fmt_number(value) -> str:
    """Locale-independent cell formatting with 12 significant digits.

    None maps to an empty cell so optional columns stay schema-stable.
    """
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if np.isnan(x):
        return ""
    return format(x, ".12g")
