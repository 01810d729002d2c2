"""Sanity checks on the brute-force reference implementations.

The oracles are the ground truth for the rest of the suite, so these tests
only pin them against hand-checkable instances and their own documented
guard rails.
"""

from itertools import combinations, product

import pytest

from conftest import all_nonzero_patterns
from mforce import (
    BitMatrix,
    EnumerationCapError,
    identity,
    make,
    named,
    oracle_is_strongly_forcing,
    oracle_max_strong,
    oracle_minimal_forcing,
    parse,
    serialize,
)
from mforce.oracle import _covered_by_copies, _placements


class TestMinimalForcingOracle:
    def test_single_one_pattern_needs_every_entry(self):
        assert oracle_minimal_forcing(3, 4, make(1, 1, 1)) == make(3, 4, 1)

    def test_exact_dimensions_is_the_pattern(self):
        q = parse("101\n010\n")
        assert oracle_minimal_forcing(2, 3, q) == q

    def test_i2_in_3x3_by_hand(self):
        # No placement of a rising pair reaches (0,2) or (2,0).
        want = parse("110\n111\n011\n")
        assert oracle_minimal_forcing(3, 3, identity(2)) == want

    def test_rejects_oversized_pattern(self):
        with pytest.raises(ValueError):
            oracle_minimal_forcing(2, 2, identity(3))

    def test_rejects_all_zero_pattern(self):
        with pytest.raises(ValueError):
            oracle_minimal_forcing(3, 3, make(2, 2, 0))

    def test_cap_guard(self):
        with pytest.raises(EnumerationCapError):
            oracle_minimal_forcing(40, 40, identity(10))

    def test_matches_the_literal_union(self):
        # One process for every pattern and shape, so tables built for one
        # pattern are reused by the next one of the same size.
        for q in all_nonzero_patterns():
            ones = list(q.iter_ones())
            for m, n in ((3, 3), (3, 5), (5, 3), (4, 6), (6, 4)):
                if q.rows > m or q.cols > n:
                    continue
                grid = [0] * m
                for row_sel in combinations(range(m), q.rows):
                    for col_sel in combinations(range(n), q.cols):
                        for y, x in ones:
                            grid[row_sel[y]] |= 1 << col_sel[x]
                assert oracle_minimal_forcing(m, n, q) == BitMatrix(m, n, tuple(grid)), (m, n, q)


class TestStronglyForcingOracle:
    def test_j_minus_h_forces_i2(self):
        mat = parse("1110\n1101\n1011\n0111\n")
        assert oracle_is_strongly_forcing(mat, identity(2))

    def test_flipping_a_zero_breaks_it(self):
        mat = parse("1111\n1101\n1011\n0111\n")
        assert not oracle_is_strongly_forcing(mat, identity(2))

    def test_all_zero_matrix_is_vacuously_strong(self):
        assert oracle_is_strongly_forcing(make(3, 3, 0), identity(2))

    def test_pattern_itself_is_strongly_forcing(self):
        q = parse("011\n110\n")
        assert oracle_is_strongly_forcing(q, q)

    def test_cap_guard(self):
        with pytest.raises(EnumerationCapError):
            oracle_is_strongly_forcing(make(40, 40, 0), identity(10))

    @pytest.mark.parametrize("rows, cols", [(3, 4), (4, 3)])
    @pytest.mark.parametrize("pattern", [identity(2), parse("100\n011\n")], ids=["i2", "100/011"])
    def test_every_rectangular_matrix_matches_the_definition(self, rows, cols, pattern):
        # Non-square matrices pin the row-major flattening: a row shift by
        # the wrong side length would mix up entries of neighbouring rows.
        def by_definition(mat):
            covered = set()
            for row_sel in combinations(range(mat.rows), pattern.rows):
                for col_sel in combinations(range(mat.cols), pattern.cols):
                    if mat.submatrix(row_sel, col_sel) == pattern:
                        covered.update((row_sel[y], col_sel[x]) for y, x in pattern.iter_ones())
            return covered == set(mat.iter_ones())

        forcing = 0
        for bits in product(range(1 << cols), repeat=rows):
            mat = BitMatrix(rows, cols, bits)
            want = by_definition(mat)
            assert oracle_is_strongly_forcing(mat, pattern) == want, mat
            forcing += want
        assert 1 < forcing < 1 << (rows * cols)


class TestMaxStrongSweep:
    def test_order_3_i2(self):
        best, level = oracle_max_strong(3, identity(2))
        assert best == 6
        assert level == [parse("110\n101\n011\n")]

    def test_order_3_i3(self):
        # Only one placement exists, so the level set is the pattern itself.
        best, level = oracle_max_strong(3, identity(3))
        assert best == 3
        assert level == [identity(3)]

    def test_level_is_sorted_and_deduplicated(self):
        # Text order and packed-bit order disagree on this level set.
        _, level = oracle_max_strong(3, parse("100\n010\n"))
        assert len(level) == 2
        keys = [serialize(m) for m in level]
        assert keys == sorted(keys)
        assert len(set(level)) == len(level)

    @pytest.mark.parametrize("n", [5, 6])
    def test_orders_above_4_are_refused(self, n):
        with pytest.raises(ValueError, match="out of range"):
            oracle_max_strong(n, identity(2))

    def test_pattern_must_fit(self):
        with pytest.raises(ValueError):
            oracle_max_strong(2, identity(3))


def per_code_sweep(n, pattern):
    """The strong-forcing maximum by testing each of the 2^(n*n) codes in turn."""
    placements = list(_placements(n, n, pattern))
    codes = [code for code in range(1 << (n * n)) if _covered_by_copies(code, placements)]
    best = max(code.bit_count() for code in codes)
    row_mask = (1 << n) - 1
    level = [BitMatrix(n, n, tuple((code >> (i * n)) & row_mask for i in range(n)))
             for code in codes if code.bit_count() == best]
    return best, sorted(level, key=serialize)


class TestBitSlicedSweep:
    """The sweep tests all codes at once; a literal per-code loop must agree."""

    def test_every_pattern_up_to_2x2_at_orders_up_to_3(self):
        for s, t in product((1, 2), repeat=2):
            for bits in product(range(1 << t), repeat=s):
                q = BitMatrix(s, t, bits)
                for n in range(max(s, t), 4):
                    assert oracle_max_strong(n, q) == per_code_sweep(n, q), (n, q)

    @pytest.mark.parametrize("name", ["i2", "h2", "i3", "b3", "c3", "d3", "e3", "h3"])
    def test_order_4(self, name):
        q = named(name)
        assert oracle_max_strong(4, q) == per_code_sweep(4, q)
