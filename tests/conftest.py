"""Shared strategies, brute-force reference checkers, and fixture loading.

The brute helpers re-derive every property straight from the definitions
(quantifying over all submatrix selections or positions) so the fast paths
in the package are always tested against an independent implementation.
"""

from __future__ import annotations

from itertools import combinations, product
from pathlib import Path

from hypothesis import strategies as st

from mforce import BitMatrix, parse

DATA = Path(__file__).parent / "data"


def load(name: str) -> str:
    return (DATA / name).read_text()


def load_matrix(name: str) -> BitMatrix:
    return parse(load(name))


@st.composite
def bitmatrices(draw, max_rows: int = 4, max_cols: int = 4,
                min_rows: int = 1, min_cols: int = 1) -> BitMatrix:
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    bits = draw(st.tuples(*[st.integers(0, (1 << cols) - 1)] * rows))
    return BitMatrix(rows, cols, bits)


def all_nonzero_patterns(max_side: int = 3):
    """Every nonzero pattern with at most max_side rows and columns.

    Ordered by rows, then columns, then row bits as itertools.product yields
    them; seeded samples of this list depend on that order.
    """
    for s in range(1, max_side + 1):
        for t in range(1, max_side + 1):
            for bits in product(range(1 << t), repeat=s):
                if any(bits):
                    yield BitMatrix(s, t, bits)


@st.composite
def nonzero_patterns(draw, max_rows: int = 3, max_cols: int = 3) -> BitMatrix:
    mat = draw(bitmatrices(max_rows, max_cols))
    if mat.ones_count() == 0:
        row = draw(st.integers(0, mat.rows - 1))
        col = draw(st.integers(0, mat.cols - 1))
        bits = list(mat.bits)
        bits[row] |= 1 << col
        mat = BitMatrix(mat.rows, mat.cols, tuple(bits))
    return mat


def brute_is_forcing(mat: BitMatrix, pattern: BitMatrix) -> bool:
    """Every submatrix selection of the pattern's shape dominates the pattern."""
    s, t = pattern.rows, pattern.cols
    if mat.rows < s or mat.cols < t:
        raise ValueError("pattern does not fit")
    for row_sel in combinations(range(mat.rows), s):
        for col_sel in combinations(range(mat.cols), t):
            sub = mat.submatrix(row_sel, col_sel)
            if any(q & ~a for q, a in zip(pattern.bits, sub.bits)):
                return False
    return True


def brute_corner_sets(pattern: BitMatrix):
    """The four corner sets straight from the domination definitions."""
    ones = list(pattern.iter_ones())
    zeros = [
        (i, j)
        for i in range(pattern.rows)
        for j in range(pattern.cols)
        if not pattern.get(i, j)
    ]
    dom = lambda p, q: p[0] >= q[0] and p[1] >= q[1]
    alt = lambda p, q: p[0] <= q[0] and p[1] >= q[1]
    nw = {p for p in zeros if not any(dom(p, q) for q in ones)}
    sw = {p for p in zeros if not any(alt(p, q) for q in ones)}
    ne = {p for p in zeros if not any(alt(q, p) for q in ones)}
    se = {p for p in zeros if not any(dom(q, p) for q in ones)}
    return nw, ne, se, sw
