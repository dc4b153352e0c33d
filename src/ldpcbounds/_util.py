"""Small shared helpers: seeding, integer arguments and deterministic number formatting."""

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


def derived_rng(master_seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator for one unit of work, stable under any execution order."""
    return np.random.default_rng((master_seed, stream, index))


def at_least(value, name: str, minimum: int = 0) -> int:
    """``value`` as an int: any integer type, never truncated.  Anything
    else raises ``TypeError`` and a value below ``minimum`` ``ValueError``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name}: expected an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


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
