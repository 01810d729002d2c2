"""Dense (0,1)-matrices with bit-packed rows.

Each row is stored as one arbitrary-precision Python int whose bit j holds
column j, so popcounts and row masking are single int operations. Bits at
or above ``cols`` are always zero; the constructor enforces this so
``int.bit_count`` totals are exact.

Text conversions run in builtins rather than per bit: a row's text is its
``format(row, "b")`` digits, zero-padded to ``cols`` and reversed so column 0
comes first, and parse packs a line with ``int(line[::-1], 2)`` once counting
its '0's and '1's has shown it holds nothing else (``int`` would also take
signs, underscores, spaces and non-ASCII digits). transpose and reflect_v go
through the same row text.

Indexing is 0-based everywhere in this package. Anything user-facing
(CLI output, error messages, JSON reports) converts to 1-based at the edge.
Instances are frozen, hence safe to share across threads, and hashable: the
hash is computed on first use and kept, so a dict or lru_cache key reads its
bits once and construction costs nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

MAX_SIDE = 1 << 16


class MatrixFormatError(ValueError):
    """Raised when matrix text cannot be parsed."""


class Position(NamedTuple):
    """A (row, col) coordinate, 0-based."""

    row: int
    col: int


@dataclass(frozen=True)
class BitMatrix:
    rows: int
    cols: int
    bits: tuple[int, ...]
    # Not a field: the hash, stored on the instance by the first __hash__.
    _hash = None

    def __post_init__(self) -> None:
        check_sides(self.rows, self.cols)
        if len(self.bits) != self.rows:
            raise ValueError(f"expected {self.rows} packed rows, got {len(self.bits)}")
        limit = 1 << self.cols
        if min(self.bits) < 0 or max(self.bits) >= limit:
            i = next(i for i, row in enumerate(self.bits) if not 0 <= row < limit)
            raise ValueError(f"row {i + 1} has bits outside the declared {self.cols} columns")

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.bits))
            object.__setattr__(self, "_hash", h)
        return h

    # -- entry access ----------------------------------------------------

    def get(self, i: int, j: int) -> int:
        """Entry at (i, j) as 0 or 1."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"position ({i}, {j}) outside {self.rows}x{self.cols} matrix")
        return (self.bits[i] >> j) & 1

    def ones_count(self) -> int:
        return sum(map(int.bit_count, self.bits))

    def iter_ones(self) -> Iterator[Position]:
        """Positions of 1-entries in row-major order."""
        for i, row in enumerate(self.bits):
            while row:
                low = row & -row
                yield Position(i, low.bit_length() - 1)
                row ^= low

    # -- shape transforms ------------------------------------------------

    def transpose(self) -> "BitMatrix":
        # Column j read from the last row up is the text of transposed row j
        # with its last column first, as int(text, 2) reads it.
        texts = [_row_text(row, self.cols) for row in reversed(self.bits)]
        return BitMatrix(self.cols, self.rows,
                         tuple(int("".join(col), 2) for col in zip(*texts)))

    def reflect_h(self) -> "BitMatrix":
        """Reverse the row order: entry (i, j) moves to (rows-1-i, j)."""
        return BitMatrix(self.rows, self.cols, tuple(reversed(self.bits)))

    def reflect_v(self) -> "BitMatrix":
        """Reverse the column order: entry (i, j) moves to (i, cols-1-j)."""
        n = self.cols
        return BitMatrix(self.rows, n, tuple(int(_row_text(row, n), 2) for row in self.bits))

    # -- selection -------------------------------------------------------

    def submatrix(self, row_sel: Sequence[int], col_sel: Sequence[int]) -> "BitMatrix":
        """Submatrix on strictly increasing row and column selections."""
        _check_selection(row_sel, self.rows, "row")
        _check_selection(col_sel, self.cols, "column")
        out = []
        for i in row_sel:
            src = self.bits[i]
            packed = 0
            for x, j in enumerate(col_sel):
                packed |= ((src >> j) & 1) << x
            out.append(packed)
        return BitMatrix(len(row_sel), len(col_sel), tuple(out))

    def __str__(self) -> str:
        return "\n".join(_row_text(row, self.cols) for row in self.bits)

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols}, {'/'.join(_row_text(r, self.cols) for r in self.bits)})"


def check_sides(rows: int, cols: int) -> None:
    """Raise ValueError unless rows x cols is a valid shape; builders call it before allocating."""
    if not (1 <= rows <= MAX_SIDE and 1 <= cols <= MAX_SIDE):
        raise ValueError(f"dimensions must be within [1, {MAX_SIDE}] per side, got {rows}x{cols}")


def check_fit(m: int, n: int, pattern: BitMatrix) -> None:
    """Raise ValueError unless the pattern fits inside an m x n matrix."""
    if m < pattern.rows or n < pattern.cols:
        raise ValueError(f"pattern {pattern.rows}x{pattern.cols} does not fit in {m}x{n}")


def check_pattern(m: int, n: int, pattern: BitMatrix) -> None:
    """Raise ValueError unless the pattern has a 1-entry and fits inside m x n."""
    if pattern.ones_count() == 0:
        raise ValueError("pattern must contain at least one 1-entry")
    check_fit(m, n, pattern)


def _check_selection(sel: Sequence[int], bound: int, what: str) -> None:
    if len(sel) == 0:
        raise ValueError(f"{what} selection is empty")
    prev = -1
    for v in sel:
        if v <= prev or v >= bound:
            raise ValueError(
                f"{what} selection must be strictly increasing within [1, {bound}]"
            )
        prev = v


def _row_text(row: int, cols: int) -> str:
    # Column 0 first: the binary digits of the row, lowest bit last, reversed.
    return format(row, f"0{cols}b")[::-1]


# -- constructors ----------------------------------------------------------


def make(rows: int, cols: int, fill: int = 0) -> BitMatrix:
    """Constant matrix filled with 0s or 1s."""
    check_sides(rows, cols)
    if fill not in (0, 1):
        raise ValueError("fill must be 0 or 1")
    row = (1 << cols) - 1 if fill else 0
    return BitMatrix(rows, cols, (row,) * rows)


def identity(k: int) -> BitMatrix:
    """k x k matrix with 1s on the main diagonal."""
    check_sides(k, k)
    return BitMatrix(k, k, tuple(1 << i for i in range(k)))


def hankel(k: int) -> BitMatrix:
    """k x k matrix with 1s on the anti-diagonal."""
    check_sides(k, k)
    return BitMatrix(k, k, tuple(1 << (k - 1 - i) for i in range(k)))


def direct_sum(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Block-diagonal stack: a in the upper left, b in the lower right."""
    rows = list(a.bits) + [row << a.cols for row in b.bits]
    return BitMatrix(a.rows + b.rows, a.cols + b.cols, tuple(rows))


def entrywise_leq(a: BitMatrix, b: BitMatrix) -> bool:
    """True when every 1-entry of a is also a 1-entry of b (same shape)."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError(
            f"shape mismatch: {a.rows}x{a.cols} versus {b.rows}x{b.cols}"
        )
    return all(ra & ~rb == 0 for ra, rb in zip(a.bits, b.bits))


# -- text format -----------------------------------------------------------
#
# One matrix row per line as a string of '0'/'1' characters, optionally
# preceded by a header line "rows cols". serialize always emits the header;
# parse accepts either form.


def parse(text: str) -> BitMatrix:
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MatrixFormatError("empty matrix text")

    declared: tuple[int, int] | None = None
    if any(map(str.isspace, lines[0])):
        # A first line with any whitespace is a header: ASCII digits split by
        # ASCII spaces. str.isdigit also takes '²' and '２', and str.split
        # also splits at tabs and no-break spaces.
        parts = [p for p in lines[0].split(" ") if p]
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise MatrixFormatError(f"malformed header line {lines[0]!r}, expected 'rows cols'")
        declared = (int(parts[0]), int(parts[1]))
        if declared[0] < 1 or declared[1] < 1:
            raise MatrixFormatError("header dimensions must be positive")
        lines = lines[1:]
        if not lines:
            raise MatrixFormatError("header present but no matrix rows follow")

    width = len(lines[0])
    if width == 0:
        raise MatrixFormatError("row 1 is empty")
    packed = []
    for k, line in enumerate(lines):
        if len(line) != width:
            raise MatrixFormatError(f"row {k + 1} has {len(line)} columns, expected {width}")
        # Counting proves every character a '0' or '1' before int() sees it.
        if line.count("0") + line.count("1") != width:
            j, ch = next((j, ch) for j, ch in enumerate(line) if ch not in "01")
            raise MatrixFormatError(f"row {k + 1} column {j + 1}: invalid character {ch!r}")
        packed.append(int(line[::-1], 2))

    if declared is not None and declared != (len(packed), width):
        raise MatrixFormatError(
            f"header declares {declared[0]}x{declared[1]} but body is {len(packed)}x{width}"
        )
    return BitMatrix(len(packed), width, tuple(packed))


def serialize(mat: BitMatrix) -> str:
    return f"{mat.rows} {mat.cols}\n{mat}\n"
