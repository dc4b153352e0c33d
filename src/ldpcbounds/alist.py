"""Reading and writing sparse parity-check matrices in alist text form.

Layout: line 1 is ``N M``; line 2 the maximum variable and check degrees;
lines 3 and 4 the per-variable and per-check degrees; then N adjacency
lines of 1-indexed check ids and M adjacency lines of 1-indexed variable
ids.  Adjacency lines are zero-padded to the maximum degree, or to one
entry where that is 0, so that no line is blank; zeros are ignored on
input.
"""

from __future__ import annotations

import os

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
    malformed counts, out-of-range indices, parallel edges, or adjacency
    halves that disagree with each other, and for a file that is not
    ASCII text.
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

    no, toks = lines[0]
    head = _ints(toks, no)
    if len(head) != 2 or head[0] < 1 or head[1] < 1:
        raise AlistParseError("expected 'N M' with positive counts", line=no)
    n_vars, n_checks = head

    no, toks = lines[1]
    maxdeg = _ints(toks, no)
    if len(maxdeg) != 2 or min(maxdeg) < 0:
        raise AlistParseError("expected maximum variable and check degrees", line=no)

    no, toks = lines[2]
    var_degs = _ints(toks, no)
    if len(var_degs) != n_vars:
        raise AlistParseError(f"expected {n_vars} variable degrees, got {len(var_degs)}",
                              line=no)
    no, toks = lines[3]
    chk_degs = _ints(toks, no)
    if len(chk_degs) != n_checks:
        raise AlistParseError(f"expected {n_checks} check degrees, got {len(chk_degs)}",
                              line=no)

    if len(lines) != 4 + n_vars + n_checks:
        raise AlistParseError(
            f"expected {4 + n_vars + n_checks} non-empty lines, found {len(lines)}"
        )

    var_adj = _adjacency(lines[4:4 + n_vars], var_degs, "variable", "check", n_checks)
    chk_adj = _adjacency(lines[4 + n_vars:], chk_degs, "check", "variable", n_vars)

    from_vars = {(v, c - 1) for v, row in enumerate(var_adj) for c in row}
    from_chks = {(v - 1, c) for c, row in enumerate(chk_adj) for v in row}
    if from_vars != from_chks:
        raise AlistParseError("variable and check adjacency halves disagree")
    return TannerGraph(n_vars, n_checks, sorted(from_chks))


def save_alist(g: TannerGraph, path: str | os.PathLike) -> None:
    """Write the canonical zero-padded alist representation of a graph."""
    var_degs = g.var_degrees
    chk_degs = g.check_degrees
    max_v = int(var_degs.max())
    max_c = int(chk_degs.max())
    lines = [
        f"{g.n_vars} {g.n_checks}",
        f"{max_v} {max_c}",
        " ".join(str(int(d)) for d in var_degs),
        " ".join(str(int(d)) for d in chk_degs),
    ]
    # At least one entry per row: the loader skips blank lines.
    for v in range(g.n_vars):
        row = [int(c) + 1 for c in g.var_neighbors(v)]
        row += [0] * (max(max_v, 1) - len(row))
        lines.append(" ".join(map(str, row)))
    for c in range(g.n_checks):
        row = [int(v) + 1 for v in g.check_neighbors(c)]
        row += [0] * (max(max_c, 1) - len(row))
        lines.append(" ".join(map(str, row)))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
