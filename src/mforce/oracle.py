"""Brute-force reference implementations.

Everything here enumerates definitions directly: all row/column subsets, or
all matrices of a given order. The fast paths elsewhere in the package are
tested against these. Deliberately no pruning beyond feasibility caps.

The strong-forcing oracles share one definition of an exact copy. A matrix
is flattened row-major into one int (entry (r, c) at bit r * cols + c), and
each row/column subset placement of an s x t pattern becomes two masks over
it: ``window``, the s * t cells the placement selects, and ``copy``, the
cells where the pattern has a 1. The placement holds an exact copy iff
``flat & window == copy``, and the matrix is strongly forcing iff the union
of the matching ``copy`` masks is the whole of ``flat``. Every placement is
tested; nothing is pruned.

``oracle_max_strong`` runs that test for every matrix of order n at once, by
bit-slicing (Biham, "A fast new DES implementation in software", FSE 1997):
bit ``code`` of one int stands for the matrix with row-major code ``code``.
``var[b]`` holds the codes with cell b set, so the codes where a placement is
an exact copy are the AND of ``var[b]`` over its copy cells and of
``~var[b]`` over its other window cells, and the strongly forcing codes are
those where every set cell is covered by some such copy.

The minimal-forcing oracle uses the same flattening. ``_cell_unions`` walks
the row subsets and the column subsets apart, once per geometry (m, n, s, t):
pattern cell (y, x) lands on the rows where some row subset puts y, times the
columns where some column subset puts x. A pattern's union is the OR of its
1-cells' ints.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable

from .bitmatrix import BitMatrix, check_fit, check_pattern, serialize

DEFAULT_PLACEMENT_CAP = 10**7


class EnumerationCapError(RuntimeError):
    """Raised when a brute-force enumeration would exceed its cap."""


def _check_cap(m: int, n: int, pattern: BitMatrix) -> None:
    total = comb(m, pattern.rows) * comb(n, pattern.cols)
    if total > DEFAULT_PLACEMENT_CAP:
        raise EnumerationCapError(
            f"{total} subset placements exceed the cap of {DEFAULT_PLACEMENT_CAP}"
        )


@lru_cache
def _cell_unions(m: int, n: int, s: int, t: int) -> tuple[int, ...]:
    """Where each cell of an s x t pattern lands over every placement in an m x n matrix.

    Entry y * t + x is a row-major int whose bit (r, c) is set when some
    placement maps pattern cell (y, x) to (r, c): every row some row subset
    puts y on, times every column some column subset puts x on. The two walks
    take C(m, s) + C(n, t) steps, and the cache keeps the 128 most recent
    geometries, so every pattern of one shape and size shares one walk.
    """
    rows, cols = [0] * s, [0] * t
    for row_sel in combinations(range(m), s):
        for y, r in enumerate(row_sel):
            rows[y] |= 1 << r
    for col_sel in combinations(range(n), t):
        for x, c in enumerate(col_sel):
            cols[x] |= 1 << c
    return tuple(sum(col << (r * n) for r in range(m) if rows[y] >> r & 1)
                 for y in range(s) for col in cols)


def oracle_minimal_forcing(m: int, n: int, pattern: BitMatrix) -> BitMatrix:
    """Union of the pattern's 1-entries over every row/column subset placement.

    A matrix forces the pattern exactly when it dominates this union, so the
    union is the unique minimum-ones forcing matrix: the OR of the ints
    ``_cell_unions`` records for the pattern's 1-cells, cut into m rows once.
    """
    check_pattern(m, n, pattern)
    _check_cap(m, n, pattern)
    t = pattern.cols
    table = _cell_unions(m, n, pattern.rows, t)
    flat = 0
    for y, row in enumerate(pattern.bits):  # iter_ones would build a Position per 1
        while row:
            low = row & -row
            flat |= table[y * t + low.bit_length() - 1]
            row ^= low
    mask = (1 << n) - 1
    return BitMatrix(m, n, tuple([flat >> (r * n) & mask for r in range(m)]))


@lru_cache(maxsize=16)
def _placements(m: int, n: int, pattern: BitMatrix) -> tuple[tuple[int, int], ...]:
    """(window, copy) masks of every placement of pattern in an m x n matrix.

    The masks index the row-major flattening (entry (r, c) at bit r * n + c).
    The cap is checked before the walk; the last 16 (m, n, pattern) walks are cached.
    """
    check_fit(m, n, pattern)
    _check_cap(m, n, pattern)
    out = []
    for col_sel in combinations(range(n), pattern.cols):
        cols = sum(1 << j for j in col_sel)
        # Each pattern row with its columns moved onto col_sel.
        spread = [sum(1 << j for x, j in enumerate(col_sel) if row >> x & 1) for row in pattern.bits]
        for row_sel in combinations(range(m), pattern.rows):
            window = copy = 0
            for r, part in zip(row_sel, spread):
                window |= cols << (r * n)
                copy |= part << (r * n)
            out.append((window, copy))
    return tuple(out)


def _covered_by_copies(flat: int, placements: Iterable[tuple[int, int]]) -> bool:
    """True when the exact copies among placements cover every 1 of flat."""
    covered = 0
    for window, copy in placements:
        if flat & window == copy:
            covered |= copy
    return covered == flat


def oracle_is_strongly_forcing(mat: BitMatrix, pattern: BitMatrix) -> bool:
    """Check by full enumeration that every 1-entry sits inside an exact pattern copy.

    Walks all subset placements, collects the 1-entries of each exact copy,
    then demands that they cover every 1-entry of the matrix.
    """
    flat = sum(row << (r * mat.cols) for r, row in enumerate(mat.bits))
    return _covered_by_copies(flat, _placements(mat.rows, mat.cols, pattern))


def oracle_max_strong(n: int, pattern: BitMatrix) -> tuple[int, list[BitMatrix]]:
    """Sweep all 2^(n*n) matrices of order n for the strongly-forcing maximum.

    Each matrix is its row-major code (row i in bits i*n .. i*n + n - 1), and
    the sweep is bit-sliced: bit ``code`` of each int below stands for that
    matrix. ``var[b]``, built by doubling, holds the codes with cell b set,
    and ``weight[k]`` the codes with k ones. For every placement, the codes
    holding an exact copy there are the AND over its window cells of
    ``var[b]``, or of its complement where the pattern has a 0; they cover
    each cell of the copy. A code is strongly forcing when each of its cells
    is unset or covered. Every placement is tested for every matrix; nothing
    is pruned. Returns the maximum ones count together with the complete
    level set of maximizers, sorted by their text form. Orders above 4 are
    refused: n = 5 already means 2^25 candidate matrices.
    """
    if n > 4:
        raise ValueError(f"full sweep of order {n} is out of range (n <= 4)")
    placements = _placements(n, n, pattern)
    cells = n * n
    var: list[int] = []
    weight = [1]
    for b in range(cells):
        size = 1 << b
        var = [v | v << size for v in var]
        var.append(((1 << size) - 1) << size)
        weight = [lo | hi << size for lo, hi in zip(weight + [0], [0] + weight)]
    full = (1 << (1 << cells)) - 1
    inv = [full ^ v for v in var]
    covered = [0] * cells
    for window, copy in placements:
        hit = full
        for b in range(cells):
            if window >> b & 1:
                hit &= var[b] if copy >> b & 1 else inv[b]
        for b in range(cells):
            if copy >> b & 1:
                covered[b] |= hit
    forcing = full
    for b in range(cells):
        forcing &= inv[b] | covered[b]
    best = max(k for k, codes in enumerate(weight) if codes & forcing)
    codes = weight[best] & forcing
    row_mask = (1 << n) - 1
    level = []
    while codes:
        low = codes & -codes
        codes ^= low
        code = low.bit_length() - 1
        level.append(BitMatrix(n, n, tuple((code >> (i * n)) & row_mask for i in range(n))))
    level.sort(key=serialize)
    return best, level
