"""Reading and writing sparse parity-check matrices in alist text form.

Layout: line 1 is ``N M``; line 2 the maximum variable and check degrees;
lines 3 and 4 the per-variable and per-check degrees; then N adjacency
lines of 1-indexed check ids and M adjacency lines of 1-indexed variable
ids.  The adjacency lines are the rows of the graph's sentinel-padded
tables ``var_adj`` and ``chk_adj`` (see `tanner`), with each id written
one-based and the sentinel written as 0.  So every line is zero-padded to
the maximum degree, or to one entry where that is 0, and no line is
blank; zeros are ignored on input.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import AlistParseError
from .tanner import TannerGraph


def _ints(tokens: list[str], lineno: int) -> list[int]:
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise AlistParseError(f"non-integer token {tok!r}", line=lineno) from None
    return out


def _header(lines: list, i: int, count: int, message: str) -> tuple[list[int], int]:
    """The integers of header line ``i`` and its line number.  Raises
    AlistParseError with ``message``, formatted with the number found,
    unless the line holds ``count`` integers."""
    no, toks = lines[i]
    values = _ints(toks, no)
    if len(values) != count:
        raise AlistParseError(message.format(len(values)), line=no)
    return values, no


def _adjacency(rows: list, degrees: list[int], side: str, other: str,
               n_other: int) -> list[list[int]]:
    """One adjacency half: the nonzero 1-indexed ids of each ``side`` node's
    row, checked against its degree and the ``n_other`` nodes of the other
    side."""
    adj = []
    for i, ((no, toks), degree) in enumerate(zip(rows, degrees), 1):
        entries = [x for x in _ints(toks, no) if x != 0]
        if len(entries) != degree:
            raise AlistParseError(
                f"{side} {i} lists {len(entries)} {other}s, degree says {degree}", line=no)
        if any(not 1 <= x <= n_other for x in entries):
            raise AlistParseError(f"{other} index out of range 1..{n_other}", line=no)
        if len(set(entries)) != len(entries):
            raise AlistParseError(f"{side} {i} repeats a {other} (parallel edge)",
                                  line=no)
        adj.append(entries)
    return adj


def load_alist(path: str | os.PathLike) -> TannerGraph:
    """Parse an alist file into a TannerGraph.

    Raises AlistParseError (carrying the offending line number) for
    malformed counts, maximum degrees that are not those of the degree
    lines, out-of-range indices, parallel edges, or adjacency halves that
    disagree with each other, and for a file that is not ASCII text.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise AlistParseError(f"not ASCII text: byte {exc.start} is non-ASCII") from None
    lines = [(i + 1, line.split()) for i, line in enumerate(raw)]
    lines = [(no, toks) for no, toks in lines if toks]
    if len(lines) < 4:
        raise AlistParseError("file too short for an alist header")

    counts = "expected 'N M' with positive counts"
    (n_vars, n_checks), no = _header(lines, 0, 2, counts)
    if n_vars < 1 or n_checks < 1:
        raise AlistParseError(counts, line=no)
    maxdeg, maxdeg_no = _header(lines, 1, 2, "expected maximum variable and check degrees")
    var_degs, _ = _header(lines, 2, n_vars, f"expected {n_vars} variable degrees, got {{}}")
    chk_degs, _ = _header(lines, 3, n_checks, f"expected {n_checks} check degrees, got {{}}")
    if maxdeg != [max(var_degs), max(chk_degs)]:
        raise AlistParseError(
            f"maximum degrees {maxdeg[0]} {maxdeg[1]} differ from the degree lines' "
            f"{max(var_degs)} {max(chk_degs)}", line=maxdeg_no)

    if len(lines) != 4 + n_vars + n_checks:
        raise AlistParseError(
            f"expected {4 + n_vars + n_checks} non-empty lines, found {len(lines)}")

    var_adj = _adjacency(lines[4:4 + n_vars], var_degs, "variable", "check", n_checks)
    chk_adj = _adjacency(lines[4 + n_vars:], chk_degs, "check", "variable", n_vars)

    from_vars = {(v, c - 1) for v, row in enumerate(var_adj) for c in row}
    from_chks = {(v - 1, c) for c, row in enumerate(chk_adj) for v in row}
    if from_vars != from_chks:
        raise AlistParseError("variable and check adjacency halves disagree")
    return TannerGraph(n_vars, n_checks, sorted(from_chks))


def save_alist(g: TannerGraph, path: str | os.PathLike) -> None:
    """Write the canonical zero-padded alist representation of a graph.

    The adjacency lines are the rows of ``g.var_adj`` and then of
    ``g.chk_adj``, without their sentinel rows: ids one-based, and the
    sentinel written as 0, so each line is as wide as its table.
    """
    rows = [[g.n_vars, g.n_checks], [g.var_degrees.max(), g.check_degrees.max()],
            g.var_degrees.tolist(), g.check_degrees.tolist()]
    for table, sentinel in ((g.var_adj[:-1], g.n_checks), (g.chk_adj[:-1], g.n_vars)):
        rows += np.where(table < sentinel, table + 1, 0).tolist()
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("".join(" ".join(map(str, row)) + "\n" for row in rows))
