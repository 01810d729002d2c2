"""Brute-force reference implementations.

Everything here enumerates definitions directly: all row/column subsets, or
all matrices of a given order. The fast paths elsewhere in the package are
tested against these. Deliberately no pruning beyond feasibility caps.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .bitmatrix import BitMatrix, serialize

DEFAULT_PLACEMENT_CAP = 10**7


class EnumerationCapError(RuntimeError):
    """Raised when a brute-force enumeration would exceed its cap."""


def _check_cap(m: int, n: int, s: int, t: int, cap: int) -> None:
    total = comb(m, s) * comb(n, t)
    if total > cap:
        raise EnumerationCapError(
            f"{total} subset placements exceed the cap of {cap}"
        )


def oracle_minimal_forcing(m: int, n: int, pattern: BitMatrix, cap: int = DEFAULT_PLACEMENT_CAP) -> BitMatrix:
    """Union of the pattern's 1-entries over every row/column subset placement.

    A matrix forces the pattern exactly when it dominates this union, so the
    union is the unique minimum-ones forcing matrix.
    """
    s, t = pattern.rows, pattern.cols
    if m < s or n < t:
        raise ValueError(f"pattern {s}x{t} does not fit in {m}x{n}")
    if pattern.ones_count() == 0:
        raise ValueError("pattern must contain at least one 1-entry")
    _check_cap(m, n, s, t, cap)
    ones = list(pattern.iter_ones())
    grid = [0] * m
    for row_sel in combinations(range(m), s):
        for col_sel in combinations(range(n), t):
            for y, x in ones:
                grid[row_sel[y]] |= 1 << col_sel[x]
    return BitMatrix(m, n, tuple(grid))


def oracle_is_strongly_forcing(mat: BitMatrix, pattern: BitMatrix, cap: int = DEFAULT_PLACEMENT_CAP) -> bool:
    """Check by full enumeration that every 1-entry sits inside an exact pattern copy.

    Walks all subset placements, records which 1-entries each exact copy
    covers, then demands total coverage.
    """
    m, n = mat.rows, mat.cols
    s, t = pattern.rows, pattern.cols
    if m < s or n < t:
        raise ValueError(f"pattern {s}x{t} does not fit in {m}x{n}")
    _check_cap(m, n, s, t, cap)
    ones = list(pattern.iter_ones())
    qbits = pattern.bits
    abits = mat.bits
    covered = [0] * m
    for row_sel in combinations(range(m), s):
        for col_sel in combinations(range(n), t):
            match = True
            for y in range(s):
                src = abits[row_sel[y]]
                packed = 0
                for x, j in enumerate(col_sel):
                    packed |= ((src >> j) & 1) << x
                if packed != qbits[y]:
                    match = False
                    break
            if match:
                for y, x in ones:
                    covered[row_sel[y]] |= 1 << col_sel[x]
    return all(row & ~cov == 0 for row, cov in zip(abits, covered))


def oracle_max_strong(n: int, pattern: BitMatrix, allow_slow_sweep: bool = False,
                      cap: int = DEFAULT_PLACEMENT_CAP) -> tuple[int, list[BitMatrix]]:
    """Sweep all 2^(n*n) matrices of order n for the strongly-forcing maximum.

    Returns the maximum ones count together with the complete level set of
    maximizers, sorted by their text form. Orders above 4 are refused unless
    allow_slow_sweep is set; n = 5 already means 2^25 candidate matrices.
    """
    if n > 5 or (n == 5 and not allow_slow_sweep):
        raise ValueError(
            f"full sweep of order {n} is out of range (n <= 4, or n = 5 with allow_slow_sweep)"
        )
    s, t = pattern.rows, pattern.cols
    if n < s or n < t:
        raise ValueError(f"pattern {s}x{t} does not fit in {n}x{n}")
    row_mask = (1 << n) - 1
    best = -1
    level: list[BitMatrix] = []
    for code in range(1 << (n * n)):
        mat = BitMatrix(n, n, tuple((code >> (i * n)) & row_mask for i in range(n)))
        count = mat.ones_count()
        if count < best:
            continue
        if oracle_is_strongly_forcing(mat, pattern, cap=cap):
            if count > best:
                best = count
                level = [mat]
            else:
                level.append(mat)
    level.sort(key=serialize)
    return best, level
