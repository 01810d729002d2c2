"""Strongly pattern-forcing matrices: checks, constructions, and exact search.

A matrix A is strongly Q-forcing when every 1-entry of A lies inside some
submatrix of A that equals Q exactly. is_strongly_forcing first keeps at
most s rows of each run of equal rows and t columns of each run of equal
columns, for an s x t pattern: a copy uses no more of a run than that, and
the lines of a run are interchangeable in it, so the verdict is unchanged.
It then makes the search's prefix test after the last row, below, on the
collapsed matrix: each row is walked once, over its 1s that no copy found
so far covers, and every copy a walk returns covers its 1s in later rows
too. It passes when no walk leaves a 1 over.

Where plain forcing asks for minimum ones, the natural extremal question
here is the maximum: search_max computes max ones over strongly forcing
square matrices with one zero-placement DFS whose zero cap tightens at each
verified matrix, so the last one is exact.
Each row walks one candidate list: the zero masks with at least zr zeros, zr
being the fewest zeros of a pattern row holding a 1, by zero count and then
by mask. The walk ends at the first mask whose zeros leave the cap too few
for zr in every later row; the others are pruned by column reach and
per-column zero deficits under the cap. One matcher does every witness test,
and one greedy column pass, _narrow, every row it tries: after row i, the
prefix test asks that every 1 in rows 0..i lie in a copy of the pattern's
first p rows inside rows 0..i, for some p >= s - (n-1-i), since the rows of a
real copy at or above row i are such a prefix; after the last row that is
strong forcing itself. Its coverage is carried down per prefix length, and
the test is made once per parent, not per child: the parent walks each of
its rows once, over the 1s outside the coverage, and as a copy that uses the
child's row ends in it, lists, for each entry whose copies grew too short
and for each column of the new row, the partial copies ending in that
row, each as its rows and the column masks its other rows leave, and a child
passes when the pass accepts its row for one copy of each list. A witness
search runs through a set of columns of one row: the prefix test's through
the row's 1s that no copy covers yet, or one column for a copy list,
find_witness's through every 1 of a row, in one walk that settles each column
at its first copy in the fixed witness order (first anchor, least rows,
least columns), as a walk of its own would. It skips every row that
disagrees with the pattern at the anchor's column on all of the set's
columns before it tries the row's columns. When the pattern
equals its transpose, so does the transpose of a strongly forcing matrix, and
one matrix of each pair M != M^T is searched: entries M[i][b] and M[b][i],
b < i, are compared in (i, b) order, and at the first pair that differs a row
with its 1 below the diagonal is skipped, its transpose being kept; a row
that settles the comparison turns the test off below it. A level set gets
each kept matrix's transpose back. The search starts from a construction
floor. For a separable permutation that is split_witness, one memoised
recursion that builds each (permutation, order) witness once: direct sums of
the parts' witnesses, skew sums through a row reversal. Every named
permutation witness comes out of it.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Iterable

from .bitmatrix import (
    BitMatrix, Position, check_fit, check_pattern, check_sides, direct_sum, identity, make,
    parse, serialize,
)
from .patterns import is_permutation_matrix, permutation_matrix, permutation_of

STATUS_EXACT = "exact"
STATUS_BUDGET = "budget_exhausted"


# -- witness embeddings -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class WitnessEmbedding:
    """Row and column selections carving an exact pattern copy out of a matrix."""

    row_sel: tuple[int, ...]
    col_sel: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "rows": [r + 1 for r in self.row_sel],
            "cols": [c + 1 for c in self.col_sel],
        }


def _narrow(masks: list[int], ones: int, zeros: int, qrow: int) -> tuple[list[int], list[int]] | None:
    """masks narrowed by one matrix row, and the least columns they allow, or None.

    Pattern column j keeps the columns of masks[j] in ones where bit j of the
    pattern row qrow is 1, in zeros where it is 0. The greedy pass takes the
    least column of each narrowed mask above the one before it: the least
    increasing column choice, which exists whenever any does.
    """
    out, cols, col = [], [], -1
    for mask in masks:
        mask &= ones if qrow & 1 else zeros
        avail = mask >> (col + 1)
        if not avail:
            return None
        col += (avail & -avail).bit_length()
        out.append(mask)
        cols.append(col)
        qrow >>= 1
    return out, cols


def _witness_through(abits, m: int, n: int, qbits, t: int, q_ones, p_min: int,
                     r: int, cs: int, tails: list | None = None) -> dict | list:
    """Exact copies of a pattern prefix through the 1-entries (r, c), c in cs:
    {c: (rows_sel, cols_sel)} for every c that has one.

    _row_witnesses passes the whole pattern and every 1 of row r as cs, for
    find_witness. The prefix test (_Completions), the checker's too, passes
    the 1s of row r that no copy covers yet, or one column to collect tails.

    Tries every pattern 1-coordinate (y, x) as the anchor in row-major order.
    An anchor in pattern row y asks for a copy of the first
    s = max(p_min, y + 1) pattern rows; with p_min the pattern's height that
    is the whole pattern. The remaining prefix rows go to matrix rows in
    ascending order. Every row, the anchor's first, goes through _narrow,
    which narrows each pattern column's mask of matrix columns consistent
    with the rows chosen so far. The anchor's row starts from full masks but
    for column x's lane: the columns of cs not yet settled where x fits. So a
    row that disagrees with pattern row i's bit at x on every column of the
    lane can never match and is skipped before the pass. Only the masks are
    carried down. At a complete row selection every column c of the lane
    above the least column choice for x - 1 is settled when the suffix pass
    _narrow([1 << c, *masks[x + 1:]]) succeeds: the least columns through c
    are the greedy's first x and that pass's. A suffix that fails for c fails
    for every later column too. One recursive function per anchor, assign,
    walks the rows; it takes the anchor's constants as default arguments.

    The order is that of one entry's search, literal_witness's. Each anchor
    visits its row selections in lexicographic order, and a subtree is cut
    only when no column can complete a copy in it (_narrow fails) or its
    lane holds no pending column. So each c is settled at the first anchor,
    and within it the first row selection, that has a copy through (r, c),
    with its least columns, exactly as if it were searched alone.

    With tails, a list, cs holds one column c and the walk collects instead
    of settling: it appends (rows_sel, masks) for every partial copy whose
    last row is row m, one past the given rows, whose bits are still open:
    the copy's rows, ending in m, and the column masks its other rows leave,
    which come from rows 0..m-1 as above. The anchor either lies among them
    (r < m, y below the copy's last row) or is row m itself (r == m, y the
    copy's last row, which pins column x to c and nothing else). A row m
    completes the copy when _narrow accepts it against the copy's last
    pattern row. It returns tails then.
    """
    full = (1 << n) - 1
    tail = tails is not None
    # Rows a copy may use: with tails, row m too, as the copy's last row.
    mm = m + tail
    ones_r, zeros_r = (abits[r], ~abits[r]) if r < m else (full, full)
    # The settled columns' copies, or with tails the partial copies.
    out = tails if tail else {}
    pending = cs
    for y, x in q_ones:
        s = max(p_min, y + 1)
        last = s - tail  # pattern rows 0..last-1 lie in rows 0..m-1
        if tail and (r == m) != (y == last):
            continue
        if r < y or mm - 1 - r < s - 1 - y:
            continue
        # Column x needs x columns to its left and t - 1 - x to its right.
        lane = pending >> x << x & full >> (t - 1 - x)
        if not lane:
            continue
        masks = [full] * t
        masks[x] = lane
        got = _narrow(masks, ones_r, zeros_r, qbits[y])
        if got is None:
            continue
        rows_sel = [m] * s
        rows_sel[y] = r

        # With the anchor's constants as defaults, assign closes over itself
        # alone (one cell) and reads them as fast locals. It stays nested: a
        # module-level or loop form leaves no cycle, and in a process that
        # imports the package afresh each round (perfbench) this small
        # cycle's garbage, one per anchor of a walk, so one per anchor of a
        # row for find_witness and not one per entry, is what sets off the
        # full collections that free the old copies.
        def assign(i: int, prev: int, masks: list[int], cols: list[int], abits=abits,
                   qbits=qbits, x=x, y=y, r=r, s=s, last=last, mm=mm, tail=tail,
                   out=out, rows_sel=rows_sel) -> int:
            # The columns the walk below settled, each at the first complete
            # row selection it reached: at least the pass's own column there.
            if i == last:
                if tail:
                    out.append((tuple(rows_sel), masks))
                    return 0
                # The lane holds pending columns only. The pass's column for
                # x, the lane's least above the one for x - 1, has cols as its
                # least columns; each later one of the lane takes a suffix pass.
                rows, c = tuple(rows_sel), cols[x]
                out[c] = rows, tuple(cols)
                settled = 1 << c
                lane = masks[x] >> c + 1 << c + 1
                while lane:
                    low = lane & -lane
                    lane ^= low
                    got = _narrow([low, *masks[x + 1:]], -1, -1, 0)
                    if got is None:
                        break
                    out[low.bit_length() - 1] = rows, tuple(cols[:x] + got[1])
                    settled |= low
                return settled
            if i == y:
                return assign(i + 1, r, masks, cols)
            hi = r - (y - i) if i < y else mm - (s - i)
            qrow_i = qbits[i]
            one = qrow_i >> x & 1
            lane, settled = masks[x], 0
            # A row whose bits on the lane are all `miss` disagrees with
            # pattern row i's bit at x on every column of it.
            miss = 0 if one else lane
            for rr in range(prev + 1, hi + 1):
                arow = abits[rr]
                if arow & lane == miss:
                    continue
                got = _narrow(masks, arow, ~arow, qrow_i)
                if got is not None:
                    rows_sel[i] = rr
                    if done := assign(i + 1, rr, *got):
                        # Settled columns, all of the lane, leave it for the
                        # rows after.
                        settled |= done
                        lane = masks[x] = lane ^ done
                        if not lane:
                            break
                        miss = 0 if one else lane
            return settled

        pending ^= assign(0, -1, *got)
        if not pending:
            break
    return out


@lru_cache
def _pattern_ones(pattern: BitMatrix) -> tuple[tuple[int, int], ...]:
    """The pattern's 1-coordinates in row-major order, computed once per pattern."""
    return tuple(pattern.iter_ones())


@lru_cache(maxsize=1)
def _row_witnesses(mat: BitMatrix, pattern: BitMatrix, r: int) -> dict:
    """{c: (rows_sel, cols_sel)} for every 1 (r, c) of mat that has a copy
    through it, from one walk; find_witness's memo of the last row asked."""
    return _witness_through(mat.bits, mat.rows, mat.cols, pattern.bits, pattern.cols,
                            _pattern_ones(pattern), pattern.rows, r, mat.bits[r])


def find_witness(mat: BitMatrix, pattern: BitMatrix, pos: Position | tuple[int, int]) -> WitnessEmbedding | None:
    """Deterministic witness for one 1-entry, or None when no exact copy contains it.

    The witness is the first pattern 1, in row-major order, that admits a
    copy through the entry, then the least rows, then the least columns. One
    walk finds those of every 1 of the entry's row, and the last row asked
    is kept, so asking for the 1s of a row in turn costs one walk. A lone
    query on a wide row pays for the whole row: on the widest row (59 ones)
    of the 64 x 64 I_6 witness, about seven walks for the entry alone.
    """
    r, c = pos
    check_fit(mat.rows, mat.cols, pattern)
    if mat.get(r, c) != 1:
        raise ValueError(f"position ({r + 1}, {c + 1}) is not a 1-entry")
    got = _row_witnesses(mat, pattern, r).get(c)
    return None if got is None else WitnessEmbedding(*got)


def _collapse(mat: BitMatrix, s: int, t: int) -> BitMatrix:
    """mat without each row that equals all s rows above it, then without
    each column that equals all t columns to its left.

    A copy of an s x t pattern uses at most s rows of a run of equal rows,
    and any rows of the run can serve, so a 1 lies in a copy exactly when
    the same 1 in the first line of its run does, and likewise for columns.
    The collapsed matrix is therefore strongly forcing exactly when mat is.
    """
    for k in (s, t):
        lines = mat.bits
        kept = tuple(line for i, line in enumerate(lines)
                     if i < k or lines[i - k:i].count(line) < k)
        mat = BitMatrix(len(kept), mat.cols, kept).transpose()
    return mat


def is_strongly_forcing(mat: BitMatrix, pattern: BitMatrix) -> bool:
    """True when every 1-entry of mat lies in a submatrix equal to the pattern.

    An all-zero matrix passes vacuously, whatever the pattern. The check
    collapses mat's runs of equal lines (_collapse), then makes the search's
    prefix test after the last row: with every row fixed and p_min the
    pattern's height, a stale entry is a 1 in no copy, and mat passes when
    there is none. _Completions walks each row once, over its 1s that no
    copy found so far covers, and the first row with a 1 left over ends the
    check.
    """
    check_fit(mat.rows, mat.cols, pattern)
    mat = _collapse(mat, pattern.rows, pattern.cols)
    s = pattern.rows
    return _Completions(mat.bits, mat.rows, mat.cols, pattern.bits, pattern.cols,
                        _pattern_ones(pattern), s, (0,) * (s + 1))._next_stale() is None


class _Completions:
    """The prefix test of every child of one search node, row i still open.

    Rows 0..i-1 of rows are fixed, and nothing past them is read. cov[p]
    holds, one bit per entry (bit r * n + c), the 1-entries of those rows
    known to lie in a copy of the pattern's first p or more rows; no added
    row can undo that. A child row passes when each 1 of rows 0..i lies in
    a copy of the first max(p_min, y + 1) rows inside rows 0..i, for some
    anchor (y, x) standing for it. Every copy that uses row i ends there, so
    the test lists partial copies ending in row i, each as its rows and the
    column masks its other rows leave. The first copy of a list that
    _narrow accepts the child's row for, at its least columns, is the hit.
    Each list is made once, the first time a child needs it, by
    _witness_through's tails walk:
    - a stale entry, a 1 of rows 0..i-1 in no copy inside those rows, in
      row-major order. _next_stale finds them row by row: one witness search
      per row, over its 1s outside cov[p_min] and the copies found so far;
      each copy it finds covers its entries for every child. A stale
      entry's list holds the p_min-row copies ending in row i. An entry
      with an empty list fails every child, but under a node that passed
      its own test it has copies: p_min grows by at most one a row, and row
      i can extend any shorter copy by one row;
    - a column c of row i: the copies ending in row i through (i, c),
      anchored at any pattern row y >= p_min - 1, longest first.
    After the last row, i the matrix's height and p_min the pattern's, a
    stale entry is a 1 in no copy: is_strongly_forcing asks for none.
    """

    def __init__(self, rows, i: int, n: int, qbits, t: int, q_ones, p_min: int,
                 cov: tuple[int, ...]):
        self.rows, self.i, self.n, self.qbits, self.t = rows, i, n, qbits, t
        self.q_ones, self.p_min = q_ones, p_min
        self.levels = list(cov)
        # The next row to walk, and the stale entries of the last row walked
        # not yet returned, one bit per entry.
        self.walked, self.open = 0, 0
        self.stale: list[list] = []
        self.by_column: dict[int, list] = {}

    def _tails(self, anchors, r: int, c: int) -> list[tuple[tuple[int, ...], list[int]]]:
        return _witness_through(self.rows, self.i, self.n, self.qbits, self.t, anchors,
                                self.p_min, r, 1 << c, [])

    def _mark(self, levels: list[int], rows_sel, cols_sel) -> None:
        # The copy's 1-entries join every level from p_min to its length.
        n, cells = self.n, 0
        for y, x in self.q_ones:
            if y < len(rows_sel):
                cells |= 1 << (rows_sel[y] * n + cols_sel[x])
        for p in range(self.p_min, len(rows_sel) + 1):
            levels[p] |= cells

    def _next_stale(self) -> tuple[int, int] | None:
        # The next stale entry in row-major order, or None when none is left.
        # Each row is walked once, over its 1s outside levels[p_min]; every
        # copy the walk finds is marked, and the 1s it leaves are queued.
        levels, n, p_min = self.levels, self.n, self.p_min
        while not self.open and self.walked < self.i:
            r = self.walked
            self.walked += 1
            cs = self.rows[r] & ~(levels[p_min] >> r * n)
            if cs:
                for got in _witness_through(self.rows, self.i, n, self.qbits, self.t,
                                            self.q_ones, p_min, r, cs).values():
                    self._mark(levels, *got)
                self.open = self.rows[r] << r * n & ~levels[p_min]
        if not self.open:
            return None
        low = self.open & -self.open
        self.open ^= low
        return divmod(low.bit_length() - 1, n)

    def child_cov(self, row: int) -> tuple[int, ...] | None:
        """The child's coverage, the parent's plus one hit per list, or None."""
        stale, by_column = self.stale, self.by_column
        # The stale entries, then each 1 of row i that no hit covers yet: a
        # hit covers the 1s of row i at its columns.
        hits, rest, k, nrow = [], row, 0, ~row
        while True:
            if k == len(stale) and (entry := self._next_stale()) is not None:
                stale.append(self._tails(self.q_ones, *entry))
            if k < len(stale):
                tails = stale[k]
                k += 1
            elif rest:
                c = (rest & -rest).bit_length() - 1
                tails = by_column.get(c)
                if tails is None:
                    tails = by_column[c] = self._tails(self.q_ones[::-1], self.i, c)
            else:
                break
            for rows_sel, masks in tails:
                got = _narrow(masks, row, nrow, self.qbits[len(rows_sel) - 1])
                if got is not None:
                    hits.append((rows_sel, got[1]))
                    rest &= ~sum(1 << col for col in got[1])
                    break
            else:
                return None
        levels = self.levels[:]
        for rows_sel, cols in hits:
            self._mark(levels, rows_sel, cols)
        return tuple(levels)


# -- constructions -------------------------------------------------------------


def linear_zero_construction(m: int, n: int, pattern: BitMatrix) -> BitMatrix:
    """Strongly forcing m x n matrix whose zero count grows linearly in m + n.

    Take the pattern, replace the column holding the leftmost 1 of its first
    non-zero row by n - t + 1 copies of itself, then replace that row by
    m - s + 1 copies of itself. Every 1-entry of the result keeps an exact
    pattern copy through it because duplicated rows and columns are
    interchangeable in any selection.
    """
    s, t = pattern.rows, pattern.cols
    check_pattern(m, n, pattern)
    check_sides(m, n)
    rr = 0
    while pattern.bits[rr] == 0:
        rr += 1
    first = pattern.bits[rr]
    cc = (first & -first).bit_length() - 1

    extra = n - t
    low_mask = (1 << cc) - 1
    widened = []
    for row in pattern.bits:
        dup = ((1 << (extra + 1)) - 1) << cc if (row >> cc) & 1 else 0
        widened.append((row & low_mask) | dup | (row >> (cc + 1)) << (cc + 1 + extra))
    out = widened[:rr] + [widened[rr]] * (m - s + 1) + widened[rr + 1 :]
    return BitMatrix(m, n, tuple(out))


def split_witness(n: int, pattern: BitMatrix) -> BitMatrix | None:
    """Strongly forcing n x n witness for a separable permutation, else None.

    Base cases: all ones for the 1 x 1 pattern, and for 12 all ones with the
    anti-diagonal zeroed. A permutation whose first c rows map onto its first
    c columns is a direct sum, forced by the direct sum of its parts'
    witnesses. One with no such cut gets the row reversal of its row
    reversal's witness; that reversal has a cut exactly when the permutation
    is a skew sum. Ties keep the first best cut c, then part order n1 of
    n1 + n2 = n, both increasing. Ones counts are compared first; each
    (permutation, order) is built once.
    """
    check_fit(n, n, pattern)
    check_sides(n, n)
    if not is_permutation_matrix(pattern):
        return None

    def cuts(perm: tuple[int, ...]) -> list[int]:
        return [c for c in range(1, len(perm)) if max(perm[:c]) == c - 1]

    @lru_cache(maxsize=None)
    def witness(perm: tuple[int, ...], m: int) -> tuple[int, BitMatrix] | None:
        """(ones, matrix) of perm's witness at order m; None when perm is not separable."""
        k = len(perm)
        if k == 1:
            return m * m, make(m, m, 1)
        if perm == (0, 1):
            full = (1 << m) - 1
            return m * m - m, BitMatrix(m, m, tuple(full & ~(1 << (m - 1 - i)) for i in range(m)))
        if not (split := cuts(perm)):
            got = witness(perm[::-1], m) if cuts(perm[::-1]) else None
            return None if got is None else (got[0], got[1].reflect_h())
        # witness(perm, m)'s ones are convex in m: m^2 and m^2 - m are, and a
        # split's value is then the larger of its two end-point sums, each
        # convex in m. The sum over m1 is convex too, so its first maximum
        # lies at an end of the range.
        best = None
        for c in split:
            left, right = perm[:c], tuple(x - c for x in perm[c:])
            for m1 in (c, m - (k - c)):
                a, b = witness(left, m1), witness(right, m - m1)
                if a is None or b is None:
                    return None
                if best is None or a[0] + b[0] > best[0]:
                    best = (a[0] + b[0], a[1], b[1])
        return best[0], direct_sum(best[1], best[2])

    got = witness(permutation_of(pattern), n)
    return None if got is None else got[1]


def extremal_identity_witness(n: int, k: int) -> BitMatrix:
    """Strongly forcing witness for the k x k identity meeting the conjectured maximum.

    The split witness: a (k-2) x (k-2) identity block, then an all-ones block
    with its anti-diagonal zeroed. Ones count is n^2 - (2k-3)n - (2k - k^2).
    """
    if k < 2 or n < k:
        raise ValueError("construction needs n >= k >= 2")
    return split_witness(n, identity(k))


def extremal_132_witness(n: int) -> BitMatrix:
    """Strongly forcing witness for the 3x3 permutation 132 with n^2 - 3n + 3 ones.

    The split witness of 1 + 21: a single 1 followed by an all-ones block
    with its main diagonal zeroed.
    """
    return split_witness(n, permutation_matrix((0, 2, 1)))


# -- bounds ---------------------------------------------------------------------


def upper_bound_simple(n: int, k: int) -> int:
    """n^2 - (k-1)n, valid for every k x k permutation pattern."""
    if k < 1 or n < k:
        raise ValueError("bound needs n >= k >= 1")
    return n * n - (k - 1) * n


def conjectured_max_identity(n: int, k: int) -> int:
    """g(k, n) = n^2 - (2k-3)n - (2k - k^2), the one formula of the strong-forcing maxima.

    The split floor of every separable k x k permutation: g(k, n) = g(k-1, n-1)
    + 1 and g(a, a) = a, so parts of sizes a and k - a, one at its own order a,
    give a + g(k-a, n-a) = g(k, n) ones. Exact for every 2x2 and 3x3
    permutation (n^2 - n, n^2 - 3n + 3); conjectured exact for the identity.
    """
    if k < 2 or n < k:
        raise ValueError("formula needs n >= k >= 2")
    return n * n - (2 * k - 3) * n - (2 * k - k * k)


# -- dihedral symmetries ----------------------------------------------------------


_OPS: tuple[tuple[str, ...], ...] = (
    (), ("h",), ("v",), ("h", "v"),
    ("t",), ("t", "h"), ("t", "v"), ("t", "h", "v"),
)


def apply_symmetry(mat: BitMatrix, ops: Iterable[str]) -> BitMatrix:
    """Apply a sequence of generators: t transpose, h row reversal, v column reversal."""
    for op in ops:
        if op == "t":
            mat = mat.transpose()
        elif op == "h":
            mat = mat.reflect_h()
        elif op == "v":
            mat = mat.reflect_v()
        else:
            raise ValueError(f"unknown symmetry generator {op!r}")
    return mat


def symmetry_ops(mat: BitMatrix) -> tuple[tuple[str, ...], ...]:
    """Generator sequences of mat's symmetries: all eight when square, else the four keeping its shape."""
    return _OPS if mat.rows == mat.cols else _OPS[:4]


def canonical_with_ops(pattern: BitMatrix) -> tuple[BitMatrix, tuple[str, ...]]:
    """The orbit member with the least text form, and the first sequence reaching it."""
    return min(
        ((apply_symmetry(pattern, seq), seq) for seq in symmetry_ops(pattern)),
        key=lambda image_seq: serialize(image_seq[0]),
    )


# -- exact search -------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Search options; None leaves the node budget unset, a negative one raises ValueError."""

    node_budget: int | None = None
    use_dihedral_reduction: bool = False
    enumerate_all_extremal: bool = False

    def __post_init__(self):
        if self.node_budget is not None and not self.node_budget >= 0:
            raise ValueError(f"node budget must be non-negative, got {self.node_budget}")


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    best_ones: int
    witnesses: tuple[BitMatrix, ...]
    nodes_explored: int
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "best_ones": self.best_ones,
            "witnesses": [serialize(w) for w in self.witnesses],
            "nodes_explored": self.nodes_explored,
            "elapsed_ms": int(self.elapsed * 1000),
        }


class _BudgetExhausted(Exception):
    pass


def _baseline_witness(n: int, pattern: BitMatrix) -> BitMatrix:
    """Best known-by-construction strongly forcing matrix, checked before use.

    The candidates are the all-zero matrix, the linear-zero construction and,
    for a separable permutation, its split witness; the first with the most
    ones wins.
    """
    candidates = [make(n, n, 0), linear_zero_construction(n, n, pattern),
                  split_witness(n, pattern)]
    # The all-zero matrix always verifies, so max sees at least one candidate.
    return max((cand for cand in candidates
                if cand is not None and is_strongly_forcing(cand, pattern)),
               key=BitMatrix.ones_count)


def search_max(n: int, pattern: BitMatrix, config: SearchConfig | None = None,
               cache: "ResultsCache | None" = None) -> SearchOutcome:
    """Exact maximum ones over strongly forcing n x n matrices.

    Status "exact" certifies best_ones as the maximum; a node budget cut gives
    "budget_exhausted" with the best verified matrix so far, never below the
    construction floor, at the same node on every run. With
    enumerate_all_extremal the witnesses are the whole maximum level set,
    else one matrix; either way they are sorted by text form. nodes_explored
    counts every candidate row tried and is deterministic. For a pattern
    equal to its transpose only one matrix of each pair M != M^T is
    searched, by the rule in the module docstring, and a level set adds the
    transposes of those it found. With use_dihedral_reduction the question
    becomes that of the pattern's canonical_with_ops image, whose witnesses
    are mapped back at the end. A cache stores exact outcomes only, under
    the key of that question, and serves a hit only when no node budget is
    set or the hit's nodes_explored fits in it. The module docstring
    describes the search itself.
    """
    config = config or SearchConfig()
    check_pattern(n, n, pattern)
    if n > 16:
        raise ValueError("exact search supports orders up to 16")

    pattern, ops = canonical_with_ops(pattern) if config.use_dihedral_reduction else (pattern, ())
    all_extremal = config.enumerate_all_extremal
    outcome = cache.get(n, pattern, all_extremal) if cache is not None else None
    if outcome is None or (config.node_budget is not None
                           and outcome.nodes_explored > config.node_budget):
        outcome = _branch_and_bound(n, pattern, config)
        if cache is not None and outcome.status == STATUS_EXACT:
            cache.put(n, pattern, outcome, all_extremal)
            cache.save()
    return replace(outcome, witnesses=tuple(sorted(
        (apply_symmetry(w, ops[::-1]) for w in outcome.witnesses), key=serialize)))


def _branch_and_bound(n: int, pattern: BitMatrix, config: SearchConfig) -> SearchOutcome:
    start = time.monotonic()
    node_limit = math.inf if config.node_budget is None else config.node_budget
    full = (1 << n) - 1
    s, t = pattern.rows, pattern.cols
    q_ones = _pattern_ones(pattern)
    # Minimum zeros any 1-bearing row (resp. column) of a strongly forcing
    # matrix must carry: the scarcest zero count among pattern rows
    # (columns) that hold a 1.
    zr = min(t - row.bit_count() for row in pattern.bits if row)
    transposed = pattern.transpose()
    zc = min(s - col.bit_count() for col in transposed.bits if col)
    baseline = _baseline_witness(n, pattern)

    # Every row's candidates: zero masks with at least zr zeros, by zero
    # count and then by mask.
    candidates = sorted((zmask.bit_count(), zmask) for zmask in range(1 << n)
                        if zmask.bit_count() >= zr)

    # With a pattern equal to its transpose, one of each pair {M, M^T} is
    # searched; see place.
    symmetric = transposed == pattern
    nodes = 0
    found: list[BitMatrix] = []
    # Most zeros a recorded matrix may have: the construction floor's count,
    # then each verified matrix's count (all-extremal) or one less.
    cap = n * n - baseline.ones_count()
    rows = [0] * n

    def place(i: int, used: int, col_ones: int, reached: tuple[int, ...],
              cov: tuple[int, ...], tied: bool) -> None:
        # reached[j] holds the columns with more than j zeros so far; a
        # column with a 1 needs zc zeros, i.e. membership in reached[zc-1].
        # cov is the prefix test's coverage of rows 0..i-1, by prefix length,
        # one int per length with entry (r, c) at bit r * n + c. tied: the
        # pattern is symmetric and so is the top-left i x i block of rows,
        # so M and M^T are not yet told apart.
        nonlocal nodes, cap
        if i == n:
            mat = BitMatrix(n, n, tuple(rows))
            if used < cap or not config.enumerate_all_extremal:
                found.clear()
            found.append(mat)
            if symmetric and not tied and config.enumerate_all_extremal:
                found.append(mat.transpose())
            cap = used if config.enumerate_all_extremal else used - 1
            return
        if tied:
            # Column i over rows 0..i-1, M[b][i] at bit b, to hold against
            # row i's first i bits M[i][b].
            col_i = 0
            for b in range(i):
                col_i |= (rows[b] >> i & 1) << b
            low = (1 << i) - 1
        rows_after = n - i - 1
        last = zc - 1 - rows_after
        below = (full,) + reached[:-1]
        # Each later row needs zr zeros too. z only grows along the list,
        # and a verified leaf below may lower the cap, so the first z past
        # it ends the row.
        reserve = used + rows_after * zr
        completions = None
        for z, zmask in candidates:
            if z + reserve > cap:
                return
            nodes += 1
            if nodes > node_limit:
                raise _BudgetExhausted
            row = full ^ zmask
            child_tied = tied
            if tied:
                # The first b where M[i][b] != M[b][i] decides: a row with
                # M[i][b] = 1 is skipped, its transpose being kept, and one
                # with M[b][i] = 1 ends the test for the rows below.
                diff = col_i ^ (row & low)
                if diff:
                    if row & diff & -diff:
                        continue
                    child_tied = False
            ones = col_ones | row
            nxt = tuple([r | (b & zmask) for b, r in zip(below, reached)])
            # Column reach: a 1 outside nxt[last] cannot get zc zeros in its
            # column. Kept only as cheap, it never changes the tree: each 1 in
            # column c lies in a copy of the pattern's first p >= s - rows_after
            # rows inside rows 0..i, whose pattern column holds at least zc
            # zeros, at least zc - (s - p) of them in those p rows, all landing
            # in column c. So a child rejected here fails the prefix test too.
            if last >= 0 and ones & ~nxt[last]:
                continue
            deficit = sum([(ones & ~r).bit_count() for r in nxt])
            if deficit > cap - used - z:
                continue
            if completions is None:
                completions = _Completions(rows, i, n, pattern.bits, t, q_ones,
                                           max(1, s - rows_after), cov)
            nxt_cov = completions.child_cov(row)
            if nxt_cov is not None:
                rows[i] = row
                place(i + 1, used + z, ones, nxt, nxt_cov, child_tied)

    try:
        place(0, 0, 0, (0,) * zc, (0,) * (s + 1), symmetric)
        status = STATUS_EXACT
    except _BudgetExhausted:
        status = STATUS_BUDGET
    if not found:  # only a budget cut leaves the floor level unsearched
        found.append(baseline)
    witnesses = tuple(sorted(found, key=serialize))
    return SearchOutcome(status, witnesses[0].ones_count(), witnesses, nodes,
                         time.monotonic() - start)


# -- results cache ----------------------------------------------------------------

# Stored with every cache entry; an entry with another or no version is a
# miss. Raise it whenever the search or the entry layout changes what an
# entry records, e.g. nodes_explored (2: the prefix witness test; 3: the
# split-witness floor of separable permutations; 4: level sets under their
# own ":all" key, so older plain keys that hold one are never served; 5: the
# transpose rule of symmetric patterns, and no elapsed time stored).
CACHE_VERSION = 5


def _decode_entry(entry) -> SearchOutcome | None:
    # The exact outcome a current-version entry stores, or None when it is
    # not a dict or a field is missing, mistyped or unparsable.
    if not isinstance(entry, dict):
        return None
    texts, best, nodes = entry.get("witnesses"), entry.get("best_ones"), entry.get("nodes_explored")
    if not (entry.get("version") == CACHE_VERSION and entry.get("status") == STATUS_EXACT
            and isinstance(texts, list) and all(isinstance(text, str) for text in texts)
            and type(best) is int and type(nodes) is int):
        return None
    try:
        witnesses = tuple(parse(text) for text in texts)
    except ValueError:
        return None
    return SearchOutcome(STATUS_EXACT, best, witnesses, nodes, 0.0)


class ResultsCache:
    """JSON-backed store of exact search outcomes, one key per question.

    The key is the order, a colon, then the pattern rows as 0/1 text joined by
    "/", e.g. "6:1000/0100/0010/0001", with ":all" appended when the search
    collects the whole extremal level set. The node budget is not part of
    the key: search_max serves a hit only when no node budget is set or the
    hit's nodes_explored fits in it, so a hit is what the same search
    returns cold, less its elapsed time. Only exact outcomes are stored,
    each with the CACHE_VERSION that wrote it. save re-reads the file just
    before its write and rename and keeps the entries of keys it lacks; two
    saves interleaving in that short window can still lose one. A file that
    is not one JSON object, or a path whose parent is not a directory, is
    refused with ValueError at construction, before any search runs; a
    refused file is never overwritten.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        if not self.path.parent.is_dir():
            raise ValueError(f"cache directory {self.path.parent} does not exist")
        self.entries: dict[str, dict] = self._read() if self.path.exists() else {}

    def _read(self) -> dict:
        entries = json.loads(self.path.read_text())
        if not isinstance(entries, dict):
            raise ValueError(f"cache file {self.path} does not hold a JSON object")
        return entries

    @staticmethod
    def key(n: int, pattern: BitMatrix, all_extremal: bool = False) -> str:
        return f"{n}:" + str(pattern).replace("\n", "/") + (":all" if all_extremal else "")

    def get(self, n: int, pattern: BitMatrix, all_extremal: bool = False) -> SearchOutcome | None:
        """The stored outcome, or None; elapsed is this lookup's own time."""
        start = time.monotonic()
        hit = _decode_entry(self.entries.get(self.key(n, pattern, all_extremal)))
        # Trusted only with distinct witnesses, just one unless it is a level
        # set, each still verifying at its stated ones count; else a miss. A
        # level set of a pattern equal to its transpose holds the transpose
        # of each of its matrices.
        count = len(hit.witnesses) if hit else 0
        if not count or len(set(hit.witnesses)) < count or (count > 1 and not all_extremal) or not all(
            (w.rows, w.cols) == (n, n) and w.ones_count() == hit.best_ones
            and is_strongly_forcing(w, pattern) for w in hit.witnesses
        ) or (all_extremal and pattern == pattern.transpose()
              and {w.transpose() for w in hit.witnesses} != set(hit.witnesses)):
            return None
        return replace(hit, elapsed=time.monotonic() - start)

    def put(self, n: int, pattern: BitMatrix, outcome: SearchOutcome, all_extremal: bool) -> None:
        # The search's elapsed time is not stored: a hit reports its own, and
        # the file's bytes then depend on the outcome alone.
        record = outcome.to_json_dict()
        del record["elapsed_ms"]
        record["version"] = CACHE_VERSION
        self.entries[self.key(n, pattern, all_extremal)] = record

    def save(self) -> None:
        # Renaming a finished sibling file over the cache survives a crash.
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        try:
            if self.path.exists():
                self.entries = {**self._read(), **self.entries}
            tmp.write_text(json.dumps(self.entries, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)

