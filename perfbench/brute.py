"""Independent reference checks, written from the definitions.

Matrices here are tuples of rows of 0/1 ints, read from the text format
with the benchmark's own parser, so no check depends on mforce code.
Everything enumerates row and column selections with itertools; sizes are
kept small enough (n <= 12) for that to take well under a second.
"""

from __future__ import annotations

from itertools import combinations

Rows = tuple[tuple[int, ...], ...]


def rows_from_text(text: str) -> Rows:
    """Rows of a matrix in the text format: optional 'rows cols' header, then 0/1 lines."""
    lines = [line for line in text.split("\n") if line]
    if " " in lines[0]:
        rows, cols = map(int, lines[0].split())
        lines = lines[1:]
        if len(lines) != rows or any(len(line) != cols for line in lines):
            raise ValueError(f"body does not match header {rows}x{cols}")
    if any(set(line) - {"0", "1"} for line in lines):
        raise ValueError("matrix text holds characters other than 0 and 1")
    return tuple(tuple(int(ch) for ch in line) for line in lines)


def rows_from_bits(bits: tuple[int, ...], cols: int) -> Rows:
    """Rows of a packed matrix whose row ints hold column j at bit j."""
    return tuple(tuple((row >> j) & 1 for j in range(cols)) for row in bits)


def ones(a: Rows) -> set[tuple[int, int]]:
    return {(i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v}


def _selections(a: Rows, s: int, t: int):
    # Every s x t submatrix as (row selection, column selection, columns),
    # where columns[j] is column j of the ambient restricted to the rows.
    for rsel in combinations(range(len(a)), s):
        cols = list(zip(*(a[r] for r in rsel)))
        for csel in combinations(range(len(a[0])), t):
            yield rsel, csel, [cols[c] for c in csel]


def strongly_forcing(a: Rows, q: Rows) -> bool:
    """Every 1-entry of a lies in a submatrix exactly equal to q."""
    qcols = list(zip(*q))
    covered = set()
    for rsel, csel, sub in _selections(a, len(q), len(q[0])):
        if sub == qcols:
            covered.update((rsel[y], csel[x]) for y, x in ones(q))
    return ones(a) <= covered


def forces(a: Rows, q: Rows) -> bool:
    """Every submatrix of a with q's shape has a 1 wherever q has one."""
    qones = ones(q)
    return all(
        all(sub[x][y] for y, x in qones)
        for _, _, sub in _selections(a, len(q), len(q[0]))
    )


def forcing_union(m: int, n: int, q: Rows) -> set[tuple[int, int]]:
    """Positions that some row and column selection of an m x n ambient maps a 1 of q onto."""
    out = set()
    for rsel in combinations(range(m), len(q)):
        for csel in combinations(range(n), len(q[0])):
            out.update((rsel[y], csel[x]) for y, x in ones(q))
    return out


def embedding_exact(a: Rows, q: Rows, rsel, csel, pos: tuple[int, int]) -> bool:
    """rsel x csel is an increasing selection whose submatrix equals q and holds pos at a 1 of q."""
    if len(rsel) != len(q) or len(csel) != len(q[0]):
        return False
    if list(rsel) != sorted(set(rsel)) or list(csel) != sorted(set(csel)):
        return False
    if not (0 <= rsel[0] and rsel[-1] < len(a) and 0 <= csel[0] and csel[-1] < len(a[0])):
        return False
    if any(a[r][c] != q[y][x] for y, r in enumerate(rsel) for x, c in enumerate(csel)):
        return False
    return pos[0] in rsel and pos[1] in csel and q[rsel.index(pos[0])][csel.index(pos[1])] == 1


# -- the dihedral group on rows ------------------------------------------------


def transpose(a: Rows) -> Rows:
    return tuple(zip(*a))


def reverse_rows(a: Rows) -> Rows:
    return tuple(reversed(a))


def reverse_cols(a: Rows) -> Rows:
    return tuple(tuple(reversed(row)) for row in a)


_GENERATORS = {"t": transpose, "h": reverse_rows, "v": reverse_cols}
SYMMETRIES = ("", "h", "v", "hv", "t", "th", "tv", "thv")


def apply(a: Rows, ops: str) -> Rows:
    """Apply generators left to right: t transpose, h row reversal, v column reversal."""
    for op in ops:
        a = _GENERATORS[op](a)
    return a


def text_of(a: Rows) -> str:
    return f"{len(a)} {len(a[0])}\n" + "".join("".join(map(str, row)) + "\n" for row in a)
