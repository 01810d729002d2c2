"""Pattern-forcing matrices: minimum-ones constructions and exact counts.

A matrix A forces a pattern Q when every submatrix of A with Q's dimensions
can be turned into Q by changing 1s to 0s, i.e. Q is entrywise at most every
such submatrix selection. The union of Q's 1-entries over all contiguous
window positions is the unique minimum-ones forcing matrix, and its ones
count has closed forms driven by four corner profiles of Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .bitmatrix import BitMatrix, Position, check_fit, check_pattern, check_sides, entrywise_leq, serialize
from .patterns import hankel, identity, permutation_of


# -- corner profiles ---------------------------------------------------------
#
# (i, j) dominates (y, x) when i >= y and j >= x, and alt-dominates it when
# i <= y and j >= x. Four sets of 0-entries, one per corner:
#   nw: dominate no 1-entry          sw: alt-dominate no 1-entry
#   ne: alt-dominated by no 1-entry  se: dominated by no 1-entry
# Oriented toward its corner, each set is a staircase (Young-diagram) region;
# the shape vectors list row lengths after rotating that corner to the upper
# left, so they are always non-increasing. (i, j) dominates no 1-entry
# exactly when rows 0..i hold no 1 in columns 0..j, so nw's row i reaches up
# to the lowest column set in the OR of rows 0..i, and ne's row i covers the
# columns above the highest. sw and se read the ORs of rows i..s-1 the same
# way, listed from the bottom row up.


@dataclass(frozen=True)
class CornerReport:
    nw: frozenset[Position]
    ne: frozenset[Position]
    se: frozenset[Position]
    sw: frozenset[Position]
    nw_shape: tuple[int, ...]
    ne_shape: tuple[int, ...]
    se_shape: tuple[int, ...]
    sw_shape: tuple[int, ...]

    def total(self) -> int:
        return len(self.nw) + len(self.ne) + len(self.se) + len(self.sw)

    def to_json_dict(self) -> dict:
        def fmt(pts: frozenset[Position]) -> list[list[int]]:
            return [[r + 1, c + 1] for r, c in sorted(pts)]

        return {
            "nw": fmt(self.nw),
            "ne": fmt(self.ne),
            "se": fmt(self.se),
            "sw": fmt(self.sw),
            "nw_shape": list(self.nw_shape),
            "ne_shape": list(self.ne_shape),
            "se_shape": list(self.se_shape),
            "sw_shape": list(self.sw_shape),
        }


def _corner_widths(pattern: BitMatrix) -> tuple[list[int], ...]:
    """Row widths of the nw, ne, sw and se staircases, each from its corner's row."""
    t = pattern.cols

    def sweep(rows) -> tuple[list[int], list[int]]:
        low, high = [], []
        seen = 0
        for row in rows:
            seen |= row
            low.append((seen & -seen).bit_length() - 1 if seen else t)
            high.append(t - seen.bit_length())
        return low, high

    return sweep(pattern.bits) + sweep(reversed(pattern.bits))


def _trim(shape: list[int]) -> tuple[int, ...]:
    while shape and shape[-1] == 0:
        shape.pop()
    return tuple(shape)


def corner_functions(pattern: BitMatrix) -> CornerReport:
    """Corner sets of a pattern with their staircase shape vectors."""
    s, t = pattern.rows, pattern.cols
    nw_w, ne_w, sw_w, se_w = _corner_widths(pattern)

    nw = frozenset(Position(i, j) for i, w in enumerate(nw_w) for j in range(w))
    ne = frozenset(Position(i, t - 1 - j) for i, w in enumerate(ne_w) for j in range(w))
    sw = frozenset(Position(s - 1 - i, j) for i, w in enumerate(sw_w) for j in range(w))
    se = frozenset(Position(s - 1 - i, t - 1 - j) for i, w in enumerate(se_w) for j in range(w))

    return CornerReport(
        nw=nw, ne=ne, se=se, sw=sw,
        nw_shape=_trim(nw_w), ne_shape=_trim(ne_w),
        se_shape=_trim(se_w), sw_shape=_trim(sw_w),
    )


# -- core decomposition ------------------------------------------------------


@dataclass(frozen=True)
class CoreDecomposition:
    """A pattern split into its all-zero border and the enclosed core.

    The core is the smallest window whose first and last rows and columns
    each contain a 1; the four counts record how many all-zero rows or
    columns were stripped from each side.
    """

    top_zero_rows: int
    bottom_zero_rows: int
    left_zero_cols: int
    right_zero_cols: int
    core: BitMatrix

    def restore(self) -> BitMatrix:
        """Re-pad the core with its zero borders, reconstructing the input."""
        t = self.left_zero_cols + self.core.cols + self.right_zero_cols
        rows = [0] * self.top_zero_rows
        rows += [row << self.left_zero_cols for row in self.core.bits]
        rows += [0] * self.bottom_zero_rows
        return BitMatrix(self.top_zero_rows + self.core.rows + self.bottom_zero_rows, t, tuple(rows))

    def to_json_dict(self) -> dict:
        return {
            "top_zero_rows": self.top_zero_rows,
            "bottom_zero_rows": self.bottom_zero_rows,
            "left_zero_cols": self.left_zero_cols,
            "right_zero_cols": self.right_zero_cols,
            "core": serialize(self.core),
        }


def core(pattern: BitMatrix) -> CoreDecomposition:
    if pattern.ones_count() == 0:
        raise ValueError("all-zero patterns have no core")
    top = 0
    while pattern.bits[top] == 0:
        top += 1
    bottom = 0
    while pattern.bits[pattern.rows - 1 - bottom] == 0:
        bottom += 1
    col_union = 0
    for row in pattern.bits:
        col_union |= row
    left = (col_union & -col_union).bit_length() - 1
    right = pattern.cols - col_union.bit_length()
    width = pattern.cols - left - right
    mask = (1 << width) - 1
    inner = tuple((row >> left) & mask for row in pattern.bits[top : pattern.rows - bottom])
    return CoreDecomposition(top, bottom, left, right, BitMatrix(len(inner), width, inner))


# -- minimum-ones forcing matrices -------------------------------------------


def _smear(value: int, width: int) -> int:
    # OR of value << k over 0 <= k < width, by doubling.
    out = value
    done = 1
    while done < width:
        step = min(done, width - done)
        out |= out << step
        done += step
    return out


def minimal_forcing(m: int, n: int, pattern: BitMatrix) -> BitMatrix:
    """The unique minimum-ones m x n matrix forcing the pattern.

    Entry (r0+y, c0+x) must be 1 whenever the pattern has a 1 at (y, x) and
    (r0, c0) is a valid window position; the minimum is exactly that union.
    Row i therefore ORs the horizontal smear of every pattern row that some
    window can place on row i.
    """
    check_pattern(m, n, pattern)
    check_sides(m, n)
    s, t = pattern.rows, pattern.cols
    smears = [_smear(row, n - t + 1) for row in pattern.bits]
    span = m - s
    out = []
    for i in range(m):
        acc = 0
        for y in range(max(0, i - span), min(s - 1, i) + 1):
            acc |= smears[y]
        out.append(acc)
    return BitMatrix(m, n, tuple(out))


def is_forcing(mat: BitMatrix, pattern: BitMatrix) -> bool:
    """True when every pattern-shaped submatrix of mat can be reduced to the pattern."""
    check_fit(mat.rows, mat.cols, pattern)
    if pattern.ones_count() == 0:
        return True
    return entrywise_leq(minimal_forcing(mat.rows, mat.cols, pattern), mat)


def minimal_forcing_from_corners(m: int, n: int, pattern: BitMatrix) -> BitMatrix:
    """Assemble the minimum-ones forcing matrix directly from corner data.

    Valid for m >= 2s, n >= 2t: start from all ones and read the four corner
    staircases row by row. Row i zeroes its first nw[i] and last ne[i]
    columns, row m-1-i its first sw[i] and last se[i]; then zero the border
    bands matching the pattern's all-zero boundary rows and columns. Equals
    minimal_forcing on its whole domain, without touching window unions.
    A tested paper result, not exported from the package.
    """
    check_pattern(m, n, pattern)
    _check_doubled(m, n, pattern, "corner assembly")
    borders = core(pattern)
    full = (1 << n) - 1
    zeros = [((1 << borders.left_zero_cols) - 1) | (full ^ full >> borders.right_zero_cols)] * m
    nw, ne, sw, se = _corner_widths(pattern)
    for i in range(pattern.rows):
        zeros[i] |= ((1 << nw[i]) - 1) | (full ^ full >> ne[i])
        zeros[m - 1 - i] |= ((1 << sw[i]) - 1) | (full ^ full >> se[i])
    for i in range(borders.top_zero_rows):
        zeros[i] = full
    for i in range(borders.bottom_zero_rows):
        zeros[m - 1 - i] = full
    return BitMatrix(m, n, tuple(full & ~z for z in zeros))


# -- exact minimum counts -----------------------------------------------------


class MinOnesResult(NamedTuple):
    value: int
    method: str


def _check_doubled(m: int, n: int, pattern: BitMatrix, what: str) -> None:
    # The corner formulas need the four corner blocks of an m x n ambient disjoint.
    if m < 2 * pattern.rows or n < 2 * pattern.cols:
        raise ValueError(f"{what} needs m >= {2 * pattern.rows} and n >= {2 * pattern.cols}")


def min_ones_general(m: int, n: int, pattern: BitMatrix) -> int:
    """Closed form for the minimum ones when m >= 2s and n >= 2t."""
    check_pattern(m, n, pattern)
    _check_doubled(m, n, pattern, "general formula")
    s, t = pattern.rows, pattern.cols
    borders = core(pattern)
    s_core = borders.core.rows
    t_core = borders.core.cols
    corners = sum(map(sum, _corner_widths(pattern)))
    return m * n - (m - 2 * s) * (t - t_core) - (n - 2 * t) * (s - s_core) - corners


def min_ones_boundary(m: int, n: int, pattern: BitMatrix) -> int:
    """General formula specialised to patterns with 1s on all four boundaries."""
    check_pattern(m, n, pattern)
    if core(pattern).core != pattern:
        raise ValueError("pattern has an all-zero boundary row or column")
    _check_doubled(m, n, pattern, "boundary formula")
    return m * n - sum(map(sum, _corner_widths(pattern)))


def _core_formula(m: int, n: int, pattern: BitMatrix, inner: BitMatrix) -> int | None:
    # The core closed form given the pattern's core, or None when the
    # shrunken ambient is too small for it.
    m_eff = m - (pattern.rows - inner.rows)
    n_eff = n - (pattern.cols - inner.cols)
    if m_eff < 2 * inner.rows or n_eff < 2 * inner.cols:
        return None
    return m_eff * n_eff - sum(map(sum, _corner_widths(inner)))


def min_ones_core(m: int, n: int, pattern: BitMatrix) -> int:
    """Closed form through the core: strip zero borders, shrink the ambient, recount."""
    check_pattern(m, n, pattern)
    inner = core(pattern).core
    count = _core_formula(m, n, pattern, inner)
    if count is None:
        s_off, t_off = pattern.rows - inner.rows, pattern.cols - inner.cols
        raise ValueError(
            f"core formula needs m - {s_off} >= {2 * inner.rows} and n - {t_off} >= {2 * inner.cols}"
        )
    return count


def min_ones(m: int, n: int, pattern: BitMatrix) -> MinOnesResult:
    """Minimum ones over all m x n matrices forcing the pattern.

    Dispatch: a pattern filling the whole ambient is its own unique forcing
    matrix; otherwise the core closed form applies whenever its precondition
    holds (it subsumes the general one); otherwise fall back to counting the
    window construction directly.
    """
    check_pattern(m, n, pattern)
    if (m, n) == (pattern.rows, pattern.cols):
        return MinOnesResult(pattern.ones_count(), "exact-dimensions")
    count = _core_formula(m, n, pattern, core(pattern).core)
    if count is not None:
        return MinOnesResult(count, "core-formula")
    return MinOnesResult(minimal_forcing(m, n, pattern).ones_count(), "window-popcount")


# -- permutation patterns ------------------------------------------------------


def perm_min_bound(n: int, k: int) -> int:
    """Lower bound n^2 - k(k-1) for the forcing minimum of any k x k permutation."""
    if k < 1 or n < 2 * k:
        raise ValueError("bound needs k >= 1 and n >= 2k")
    return n * n - k * (k - 1)


def perm_min_equality(pattern: BitMatrix) -> bool:
    """Whether the permutation attains the n^2 - k(k-1) minimum.

    Exactly the identity and the anti-identity do; the identity equals its
    own transpose, so the anti-diagonal matrix is the only other extremal
    case. Verified exhaustively for small orders in the test suite.
    """
    k = len(permutation_of(pattern))
    return pattern == identity(k) or pattern == hankel(k)


def perm_max_m(n: int, k: int) -> int:
    """Maximum of the forcing minimum over all k x k permutations, for n >= 2k."""
    if k < 1 or n < 2 * k:
        raise ValueError("maximum needs k >= 1 and n >= 2k")
    if k == 1:
        return n * n
    if k == 2:
        return n * n - 2
    if k == 3:
        return n * n - 5
    return n * n - 4 * k + 8


def perm_max_extremal(pattern: BitMatrix) -> bool:
    """Whether a k x k permutation (k >= 4) maximises the forcing minimum.

    Maximisers are characterised by one of two quadruples of forced
    1-entries: {(1,2), (2,k), (k,k-1), (k-1,1)} or its mirror
    {(2,1), (k,2), (k-1,k), (1,k-1)}, positions 1-based.
    """
    k = len(permutation_of(pattern))
    if k < 4:
        raise ValueError("the quadruple characterisation applies to k >= 4 only")
    first = ((0, 1), (1, k - 1), (k - 1, k - 2), (k - 2, 0))
    second = ((1, 0), (k - 1, 1), (k - 2, k - 1), (0, k - 2))
    return all(pattern.get(i, j) for i, j in first) or all(
        pattern.get(i, j) for i, j in second
    )
