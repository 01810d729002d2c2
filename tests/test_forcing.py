"""Forcing matrices: corner profiles, core splitting, minimum-ones counts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_nonzero_patterns, brute_corner_sets, brute_is_forcing, load_matrix, nonzero_patterns
from mforce import (
    BitMatrix,
    all_permutation_matrices,
    core,
    corner_functions,
    hankel,
    identity,
    is_forcing,
    make,
    min_ones,
    min_ones_boundary,
    min_ones_core,
    min_ones_general,
    minimal_forcing,
    named,
    parse,
    perm_max_extremal,
    perm_max_m,
    perm_min_bound,
    perm_min_equality,
    permutation_matrix,
)
from mforce.forcing import minimal_forcing_from_corners


class TestCornerFunctions:
    def test_i2_by_hand(self):
        rep = corner_functions(identity(2))
        assert rep.nw == frozenset()
        assert rep.ne == frozenset({(0, 1)})
        assert rep.sw == frozenset({(1, 0)})
        assert rep.se == frozenset()
        assert rep.total() == 2

    def test_all_ones_has_empty_corners(self):
        rep = corner_functions(make(3, 4, 1))
        assert rep.total() == 0
        assert rep.nw_shape == ()

    def test_seven_by_six_example(self):
        rep = corner_functions(load_matrix("example_pattern_7x6.txt"))
        assert (len(rep.nw), len(rep.ne), len(rep.se), len(rep.sw)) == (7, 8, 2, 4)
        assert rep.nw_shape == (2, 2, 1, 1, 1)
        assert rep.ne_shape == (3, 2, 2, 1)
        assert rep.se_shape == (1, 1)
        assert rep.sw_shape == (4,)
        assert rep.total() == 21

    @given(nonzero_patterns())
    def test_matches_brute_force_definitions(self, pattern):
        rep = corner_functions(pattern)
        nw, ne, se, sw = brute_corner_sets(pattern)
        assert rep.nw == nw
        assert rep.ne == ne
        assert rep.se == se
        assert rep.sw == sw

    @given(nonzero_patterns())
    def test_shapes_are_non_increasing_and_sized(self, pattern):
        rep = corner_functions(pattern)
        for shape, pts in [
            (rep.nw_shape, rep.nw),
            (rep.ne_shape, rep.ne),
            (rep.se_shape, rep.se),
            (rep.sw_shape, rep.sw),
        ]:
            assert all(a >= b for a, b in zip(shape, shape[1:]))
            assert sum(shape) == len(pts)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_permutation_corners_partition_offdiagonal_budget(self, k):
        # For permutation patterns the four staircases are disjoint and
        # together never exceed the k(k-1) off-staircase zero budget.
        for q in all_permutation_matrices(k):
            rep = corner_functions(q)
            pieces = [rep.nw, rep.ne, rep.se, rep.sw]
            assert len(frozenset().union(*pieces)) == rep.total()
            assert rep.total() <= k * (k - 1)

    def test_identity_attains_the_budget(self):
        assert corner_functions(identity(4)).total() == 12
        assert corner_functions(hankel(4)).total() == 12

    def test_json_positions_are_one_based(self):
        rep = corner_functions(identity(2))
        data = rep.to_json_dict()
        assert data["ne"] == [[1, 2]]
        assert data["sw"] == [[2, 1]]
        assert data["nw"] == []
        assert data["nw_shape"] == []
        assert data["se_shape"] == []


class TestCore:
    def test_seven_by_five_example(self):
        dec = core(load_matrix("example_core_input_7x5.txt"))
        assert (dec.top_zero_rows, dec.bottom_zero_rows) == (3, 0)
        assert (dec.left_zero_cols, dec.right_zero_cols) == (0, 1)
        assert dec.core == parse("1001\n0000\n1110\n1110\n")

    def test_small_hand_case(self):
        dec = core(parse("01\n00\n"))
        assert (dec.top_zero_rows, dec.bottom_zero_rows) == (0, 1)
        assert (dec.left_zero_cols, dec.right_zero_cols) == (1, 0)
        assert dec.core == make(1, 1, 1)

    def test_full_pattern_is_its_own_core(self):
        q = identity(3)
        dec = core(q)
        assert dec.core == q
        assert dec.top_zero_rows == dec.bottom_zero_rows == 0
        assert dec.left_zero_cols == dec.right_zero_cols == 0

    @given(nonzero_patterns())
    def test_restore_inverts(self, pattern):
        assert core(pattern).restore() == pattern

    @given(nonzero_patterns())
    def test_core_has_ones_on_all_boundaries(self, pattern):
        inner = core(pattern).core
        assert inner.bits[0] != 0 and inner.bits[-1] != 0
        union = 0
        for row in inner.bits:
            union |= row
        assert union & 1
        assert union >> (inner.cols - 1)

    def test_all_zero_pattern_rejected(self):
        with pytest.raises(ValueError):
            core(make(2, 3, 0))


class TestMinimalForcing:
    def test_seven_by_six_example_at_14x12(self):
        q = load_matrix("example_pattern_7x6.txt")
        got = minimal_forcing(14, 12, q)
        assert got == load_matrix("example_minimal_14x12.txt")
        assert got.ones_count() == 147

    def test_exact_dimensions_returns_pattern(self):
        q = load_matrix("example_pattern_7x6.txt")
        assert minimal_forcing(7, 6, q) == q

    def test_single_one_fills_ambient(self):
        assert minimal_forcing(4, 5, make(1, 1, 1)) == make(4, 5, 1)

    def test_i2_leaves_two_corners_free(self):
        assert minimal_forcing(3, 3, identity(2)) == parse("110\n111\n011\n")

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            minimal_forcing(2, 2, identity(3))
        with pytest.raises(ValueError):
            minimal_forcing(3, 3, make(2, 2, 0))

    @given(nonzero_patterns(), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=60)
    def test_is_forcing_and_every_one_is_needed(self, pattern, dm, dn):
        m, n = pattern.rows + dm, pattern.cols + dn
        built = minimal_forcing(m, n, pattern)
        assert brute_is_forcing(built, pattern)
        assert is_forcing(built, pattern)

    @given(nonzero_patterns(max_rows=2, max_cols=2), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=30)
    def test_minimality_single_flips(self, pattern, dm, dn):
        m, n = pattern.rows + dm, pattern.cols + dn
        built = minimal_forcing(m, n, pattern)
        for i, j in built.iter_ones():
            bits = list(built.bits)
            bits[i] ^= 1 << j
            weakened = BitMatrix(m, n, tuple(bits))
            assert not brute_is_forcing(weakened, pattern)

    @given(nonzero_patterns(), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=60)
    def test_forcing_is_monotone_in_the_pattern(self, pattern, dm, dn):
        # Any matrix forcing a pattern also forces every nonzero sub-pattern
        # of the same shape.
        m, n = pattern.rows + dm, pattern.cols + dn
        built = minimal_forcing(m, n, pattern)
        first = next(iter(pattern.iter_ones()))
        sub = BitMatrix(
            pattern.rows,
            pattern.cols,
            tuple(
                1 << first[1] if i == first[0] else 0
                for i in range(pattern.rows)
            ),
        )
        assert is_forcing(built, sub)

    def test_is_forcing_all_zero_pattern_is_vacuous(self):
        assert is_forcing(make(2, 2, 0), make(2, 2, 0))


class TestCornerAssembly:
    def test_matches_window_union_on_its_domain(self):
        # Every nonzero pattern up to 3x3 at every margin 0..3 past 2s x 2t.
        for pattern in all_nonzero_patterns():
            for dm in range(4):
                for dn in range(4):
                    m = 2 * pattern.rows + dm
                    n = 2 * pattern.cols + dn
                    got = minimal_forcing_from_corners(m, n, pattern)
                    assert got == minimal_forcing(m, n, pattern), (pattern, m, n)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            minimal_forcing_from_corners(3, 4, identity(2))


class TestMinOnes:
    def test_seven_by_six_example(self):
        q = load_matrix("example_pattern_7x6.txt")
        assert min_ones(14, 12, q) == (147, "core-formula")

    def test_exact_dimensions_method(self):
        q = load_matrix("example_pattern_7x6.txt")
        assert min_ones(7, 6, q) == (q.ones_count(), "exact-dimensions")

    def test_window_popcount_method(self):
        got = min_ones(4, 4, identity(3))
        assert got.method == "window-popcount"
        assert got.value == minimal_forcing(4, 4, identity(3)).ones_count()

    def test_i2_leaves_exactly_two_entries_free(self):
        for n in range(4, 9):
            assert min_ones(n, n, identity(2)).value == n * n - 2

    def test_single_one_in_corner_costs_a_cross(self):
        # A lone 1 in the top-left corner of a 2x2 pattern zeroes one full
        # row band and one full column band of the ambient.
        q = parse("10\n00\n")
        for m in range(4, 8):
            for n in range(4, 8):
                assert min_ones(m, n, q).value == (m - 1) * (n - 1)

    @given(nonzero_patterns(), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=80)
    def test_general_and_core_forms_agree_with_popcount(self, pattern, dm, dn):
        m = 2 * pattern.rows + dm
        n = 2 * pattern.cols + dn
        want = minimal_forcing(m, n, pattern).ones_count()
        assert min_ones_general(m, n, pattern) == want
        assert min_ones_core(m, n, pattern) == want
        assert min_ones(m, n, pattern).value == want

    def test_boundary_form_requires_full_core(self):
        with pytest.raises(ValueError):
            min_ones_boundary(8, 8, parse("0100\n0010\n0110\n0011\n"))
        assert min_ones_boundary(8, 8, identity(4)) == 64 - 12

    def test_core_form_reaches_below_double_dimensions(self):
        # Zero borders shrink the effective pattern, so the closed form can
        # apply even when the ambient is under twice the raw dimensions.
        q = parse("010\n000\n")
        assert min_ones_core(3, 4, q) == min_ones(3, 4, q).value
        assert min_ones(3, 4, q).method == "core-formula"
        with pytest.raises(ValueError):
            min_ones_general(3, 4, q)
        with pytest.raises(ValueError, match="core formula needs m - 0 >= 4 and n - 0 >= 4"):
            min_ones_core(3, 3, identity(2))


class TestPermutationForcing:
    def test_min_bound_value(self):
        assert perm_min_bound(8, 3) == 58
        assert perm_min_bound(2, 1) == 4

    def test_min_bound_guard(self):
        with pytest.raises(ValueError):
            perm_min_bound(5, 3)

    def test_equality_members(self):
        assert perm_min_equality(identity(5))
        assert perm_min_equality(hankel(4))
        assert not perm_min_equality(permutation_matrix((1, 2, 0, 3)))

    def test_equality_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            perm_min_equality(make(2, 2, 1))

    def test_max_values(self):
        assert perm_max_m(8, 3) == 59
        assert perm_max_m(10, 4) == 92
        assert perm_max_m(6, 2) == 34
        assert perm_max_m(4, 1) == 16

    def test_max_guard(self):
        with pytest.raises(ValueError):
            perm_max_m(7, 4)

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 6), (4, 8)])
    def test_max_is_attained(self, k, n):
        values = [min_ones(n, n, q).value for q in all_permutation_matrices(k)]
        assert max(values) == perm_max_m(n, k)

    def test_extremal_quadruple_matches_maximum_at_k4(self):
        n = 8
        for q in all_permutation_matrices(4):
            attains = min_ones(n, n, q).value == perm_max_m(n, 4)
            assert attains == perm_max_extremal(q)

    def test_extremal_guards(self):
        with pytest.raises(ValueError):
            perm_max_extremal(identity(3))
        with pytest.raises(ValueError):
            perm_max_extremal(named("j4"))


class TestNonMonotonicity:
    def test_submatrix_chain_is_not_monotone(self):
        # Growing a pattern by a submatrix step can lower the minimum and
        # then raise it again: a lone 1 needs the full ambient, padding it
        # with a zero row and column frees a row and column band, and adding
        # a second diagonal 1 pulls the cost back up to two free entries.
        q1 = make(1, 1, 1)
        q2 = parse("10\n00\n")
        q3 = identity(2)
        for n in range(4, 13):
            a = min_ones(n, n, q1).value
            b = min_ones(n, n, q2).value
            c = min_ones(n, n, q3).value
            assert a == n * n
            assert b == (n - 1) * (n - 1)
            assert c == n * n - 2
            assert a > b < c

    @given(nonzero_patterns(max_rows=2, max_cols=3), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=40)
    def test_same_shape_containment_is_monotone(self, pattern, dm, dn):
        # Entrywise containment at fixed shape does order the minima.
        m, n = pattern.rows + dm, pattern.cols + dn
        first = next(iter(pattern.iter_ones()))
        sub = BitMatrix(
            pattern.rows,
            pattern.cols,
            tuple(1 << first[1] if i == first[0] else 0 for i in range(pattern.rows)),
        )
        assert min_ones(m, n, sub).value <= min_ones(m, n, pattern).value

    def test_growing_the_ambient_never_lowers_the_minimum(self):
        # For a fixed pattern the minimum does not decrease from m x n to
        # (m+1) x n or to m x (n+1): every nonzero pattern up to 3x3, every
        # ambient up to 8x8 (25,495 cells).
        cells = 0
        for pattern in all_nonzero_patterns(3):
            value = {(m, n): min_ones(m, n, pattern).value
                     for m in range(pattern.rows, 9) for n in range(pattern.cols, 9)}
            cells += len(value)
            for (m, n), v in value.items():
                for bigger in ((m + 1, n), (m, n + 1)):
                    assert value.get(bigger, v) >= v, (pattern, m, n, bigger)
        assert cells == 25495
