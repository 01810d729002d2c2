"""Strongly forcing matrices: witnesses, constructions, bounds, symmetries."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_nonzero_patterns, load, load_matrix, nonzero_patterns
from mforce import (
    BitMatrix,
    WitnessEmbedding,
    all_permutation_matrices,
    apply_symmetry,
    canonical_with_ops,
    conjectured_max_identity,
    direct_sum,
    extremal_132_witness,
    extremal_identity_witness,
    find_witness,
    hankel,
    identity,
    is_strongly_forcing,
    linear_zero_construction,
    make,
    named,
    oracle_is_strongly_forcing,
    parse,
    permutation_of,
    split_witness,
    upper_bound_simple,
)
from mforce import strong_forcing
from mforce.strong_forcing import _Completions, symmetry_ops


class TestNarrow:
    # _narrow is the one greedy column pass behind every witness test: the
    # anchor's row, every later row of a copy, and a search child's row.
    def test_least_columns_match_a_literal_search(self):
        rng = random.Random(22)
        accepted = refused = 0
        for _ in range(3000):
            t, n = rng.randint(1, 5), rng.randint(1, 8)
            masks = [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(t)]
            row, qrow = rng.getrandbits(n), rng.getrandbits(t)
            narrowed = [mask & (row if qrow >> j & 1 else ~row) for j, mask in enumerate(masks)]
            want = next((list(cols) for cols in combinations(range(n), t)
                         if all(narrowed[j] >> col & 1 for j, col in enumerate(cols))), None)
            got = strong_forcing._narrow(masks, row, ~row, qrow)
            assert got == (None if want is None else (narrowed, want)), (masks, row, qrow)
            accepted += want is not None
            refused += want is None
        assert min(accepted, refused) > 600, (accepted, refused)


def literal_witness(mat, pattern, r, c):
    """The first pattern 1 in row-major order that admits a copy through
    (r, c), then the least row and least column selections by itertools
    order: the witness the CLI prints must not drift from this."""
    for y, x in pattern.iter_ones():
        for row_sel in combinations(range(mat.rows), pattern.rows):
            if row_sel[y] != r:
                continue
            for col_sel in combinations(range(mat.cols), pattern.cols):
                if col_sel[x] == c and mat.submatrix(row_sel, col_sel) == pattern:
                    return WitnessEmbedding(row_sel, col_sel)
    return None


def compare_with_literal(rng, rounds, max_side, rows):
    """find_witness against literal_witness on every 1-entry of random
    matrices up to max_side, bits from rows(m, n), with patterns up to 3x3;
    returns how many entries had a witness and how many had none."""
    found = missing = 0
    for _ in range(rounds):
        s, t = rng.randint(1, 3), rng.randint(1, 3)
        pattern = BitMatrix(s, t, tuple(rng.getrandbits(t) for _ in range(s)))
        m, n = rng.randint(s, max_side), rng.randint(t, max_side)
        mat = BitMatrix(m, n, rows(m, n))
        for pos in mat.iter_ones():
            want = literal_witness(mat, pattern, *pos)
            assert find_witness(mat, pattern, pos) == want, (mat, pattern, pos)
            found += want is not None
            missing += want is None
    return found, missing


class TestFindWitness:
    def test_hand_example(self):
        mat = split_witness(3, identity(2))
        got = find_witness(mat, identity(2), (0, 0))
        assert got == WitnessEmbedding((0, 2), (0, 2))

    def test_every_entry_of_a_strong_matrix_has_one(self):
        mat = load_matrix("s5.txt")
        q = identity(3)
        for pos in mat.iter_ones():
            emb = find_witness(mat, q, pos)
            assert emb is not None
            sub = mat.submatrix(emb.row_sel, emb.col_sel)
            assert sub == q
            assert pos[0] in emb.row_sel and pos[1] in emb.col_sel

    def test_none_when_no_exact_copy_exists(self):
        assert find_witness(make(3, 3, 1), identity(2), (0, 0)) is None

    def test_repeat_calls_agree(self):
        mat = load_matrix("t5.txt")
        q = named("b3")
        first = [find_witness(mat, q, pos) for pos in mat.iter_ones()]
        second = [find_witness(mat, q, pos) for pos in mat.iter_ones()]
        assert first == second

    def test_rejects_zero_positions_and_misfits(self):
        with pytest.raises(ValueError):
            find_witness(identity(3), identity(2), (0, 1))
        with pytest.raises(ValueError):
            find_witness(identity(2), identity(3), (0, 0))

    def test_order_matches_a_literal_search(self):
        rng = random.Random(9)
        found, missing = compare_with_literal(
            rng, 600, 6, lambda m, n: tuple(rng.getrandbits(n) for _ in range(m)))
        assert found > 1000 and missing > 2000

    @pytest.mark.parametrize("seed, lo, hi, rounds, floor", [
        pytest.param(10, 0.85, 1.0, 400, 1000, id="dense"),
        pytest.param(11, 0.0, 0.15, 1500, 500, id="sparse"),
    ])
    def test_order_matches_a_literal_search_at_extreme_densities(self, seed, lo, hi, rounds,
                                                                 floor):
        # In a dense or sparse matrix most rows a copy could use disagree
        # with the pattern row at the anchor column, so the matcher skips
        # them before the column pass.
        rng = random.Random(seed)

        def rows(m, n):
            density = rng.uniform(lo, hi)
            return tuple(sum(1 << j for j in range(n) if rng.random() < density)
                         for _ in range(m))

        found, missing = compare_with_literal(rng, rounds, 7, rows)
        assert found > floor and missing > floor

    @pytest.mark.parametrize("build, q, name", [
        pytest.param(lambda: extremal_identity_witness(24, 5), lambda: identity(5),
                     "witnesses_s-nk_24_5.txt", id="s-nk-24-5"),
        pytest.param(lambda: extremal_identity_witness(32, 4), lambda: identity(4),
                     "witnesses_s-nk_32_4.txt", id="s-nk-32-4"),
        pytest.param(lambda: linear_zero_construction(20, 20, load_matrix("q3.txt")),
                     lambda: load_matrix("q3.txt"), "witnesses_linear-zero_20_q3.txt",
                     id="linear-zero-20-q3"),
    ])
    def test_pinned_witnesses_at_scale(self, build, q, name):
        # The pinned text of `construct s-nk --n 24 --k 5 | check strong
        # --ambient - --pattern i5 --witness`, of s-nk --n 32 --k 4 against
        # i4, and of linear-zero --m 20 --n 20 against tests/data/q3.txt.
        mat, q = build(), q()
        lines = ["yes" if is_strongly_forcing(mat, q) else "no"]
        for pos in mat.iter_ones():
            emb = find_witness(mat, q, pos).to_json_dict()
            rows = ",".join(map(str, emb["rows"]))
            cols = ",".join(map(str, emb["cols"]))
            lines.append(f"({pos.row + 1},{pos.col + 1}) rows [{rows}] cols [{cols}]")
        assert lines == load(name).splitlines()

    def test_shuffled_queries_over_two_matrices_and_two_patterns(self):
        # find_witness reads each row's witnesses from one walk, kept for the
        # last (matrix, pattern, row) asked. b shares row 0 with a but not
        # all of its witnesses there, and a2 equals a as another object. The
        # queries go row by row, each row's 1s for one pattern and matrix
        # after another, then in shuffled order.
        rng = random.Random(34)
        a = BitMatrix(7, 7, tuple(rng.getrandbits(7) | rng.getrandbits(7) for _ in range(7)))
        b = BitMatrix(7, 7, a.bits[:1] + (a.bits[1] ^ 0b1111111,) + a.bits[2:])
        a2 = BitMatrix(7, 7, tuple(list(a.bits)))
        patterns = (identity(3), parse("110\n011"))
        by_row = [(mat, q, pos) for r in range(7) for q in patterns for mat in (a, a2, b)
                  for pos in mat.iter_ones() if pos.row == r]
        shuffled = rng.sample(by_row, len(by_row))
        got = {}
        for mat, q, pos in by_row + shuffled:
            want = literal_witness(mat, q, *pos)
            assert find_witness(mat, q, pos) == want, (mat, q, pos)
            got[id(mat), q, pos] = want
        assert a2 is not a and a2 == a
        assert any(got[id(a), q, pos] != got[id(b), q, pos]
                   for q in patterns for pos in a.iter_ones() if pos.row == 0)
        assert None in got.values() and len(set(got.values())) > 15

    def test_json_positions_are_one_based(self):
        emb = WitnessEmbedding((0, 2), (1, 3))
        assert emb.to_json_dict() == {"rows": [1, 3], "cols": [2, 4]}


class TestRowWalk:
    # One _witness_through walk settles every column of a set: at each
    # complete row selection it reaches, each pending column that fits.
    # Each column must come out as from a walk of its own, and as
    # literal_witness gives it, copies missing included.
    @pytest.mark.parametrize("seed, lo, hi, rounds", [
        pytest.param(31, 0.3, 0.7, 150, id="mixed"),
        pytest.param(32, 0.8, 1.0, 100, id="dense"),
        pytest.param(33, 0.05, 0.25, 300, id="sparse"),
    ])
    def test_a_row_walk_equals_one_walk_per_column_and_the_literal_search(self, seed, lo, hi,
                                                                         rounds):
        rng = random.Random(seed)
        found = missing = 0
        for _ in range(rounds):
            s, t = rng.randint(1, 3), rng.randint(1, 3)
            pattern = BitMatrix(s, t, tuple(rng.getrandbits(t) for _ in range(s)))
            m, n = rng.randint(max(s, 4), 10), rng.randint(max(t, 4), 10)
            density = rng.uniform(lo, hi)
            mat = BitMatrix(m, n, tuple(sum(1 << j for j in range(n) if rng.random() < density)
                                        for _ in range(m)))
            args = (mat.bits, m, n, pattern.bits, t, tuple(pattern.iter_ones()), s)
            for r, row in enumerate(mat.bits):
                walk = strong_forcing._witness_through(*args, r, row)
                assert set(walk) <= {c for c in range(n) if row >> c & 1}
                for c in range(n):
                    if row >> c & 1:
                        alone = strong_forcing._witness_through(*args, r, 1 << c)
                        want = literal_witness(mat, pattern, r, c)
                        want = want and (want.row_sel, want.col_sel)
                        assert walk.get(c) == alone.get(c) == want, (mat, pattern, r, c)
                        found += want is not None
                        missing += want is None
        assert found > 800 and missing > 800, (found, missing)


class TestIsStronglyForcing:
    def test_named_constructions(self):
        assert is_strongly_forcing(load_matrix("s5.txt"), identity(3))
        assert is_strongly_forcing(load_matrix("t5.txt"), named("b3"))
        assert is_strongly_forcing(split_witness(4, identity(2)), identity(2))
        assert is_strongly_forcing(split_witness(4, hankel(2)), hankel(2))
        # Two all-ones blocks on the diagonal: a 1 of one block and a 1 of the
        # other make an I_2, and each 1 lies in a 2 x 2 block of 1s, but an
        # anti-diagonal pair of 1s always shares a block with a third 1.
        blocks = direct_sum(make(32, 32, 1), make(32, 32, 1))
        assert is_strongly_forcing(blocks, identity(2))
        assert is_strongly_forcing(blocks, named("j2"))
        assert not is_strongly_forcing(blocks, hankel(2))

    def test_t5_does_not_force_213(self):
        # The one-followed-by-offdiagonal matrix reads as 132 copies; its
        # half-turn image is the one that reads as 213.
        t5 = load_matrix("t5.txt")
        assert not is_strongly_forcing(t5, named("c3"))
        flipped = apply_symmetry(t5, ("h", "v"))
        assert is_strongly_forcing(flipped, named("c3"))

    def test_all_zero_matrix_is_vacuous(self):
        assert is_strongly_forcing(make(4, 4, 0), identity(3))

    def test_single_extra_one_breaks_s5(self):
        bits = list(load_matrix("s5.txt").bits)
        bits[0] |= 1 << 4
        assert not is_strongly_forcing(BitMatrix(5, 5, tuple(bits)), identity(3))

    def test_misfit_rejected(self):
        with pytest.raises(ValueError):
            is_strongly_forcing(identity(2), identity(3))

    @pytest.mark.parametrize("text", ["10\n01", "100\n010\n001", "001\n010\n100", "100\n001\n010",
                                      "010\n100\n001", "1111\n1101\n1001\n1111",
                                      "010\n001\n100", "110\n011\n001", "10\n11", "101\n010"])
    def test_symmetric_matrices_match_the_oracle(self, text):
        # Each copy's transpose is marked too when the matrix and the
        # pattern both equal their transposes; the last four patterns do
        # not, and a copy's transpose is then a copy of the transposed
        # pattern. Each matrix is M OR M^T, M a few random copies of the
        # pattern, sometimes with a symmetric pair of entries flipped.
        pattern = parse(text)
        s, t = pattern.rows, pattern.cols
        rng = random.Random(text)
        verdicts = {True: 0, False: 0}
        for _ in range(150):
            n = rng.randint(max(s, t), 7)
            bits = [0] * n
            for _ in range(rng.randint(1, 3)):
                rows, cols = sorted(rng.sample(range(n), s)), sorted(rng.sample(range(n), t))
                for y, x in pattern.iter_ones():
                    bits[rows[y]] |= 1 << cols[x]
                    bits[cols[x]] |= 1 << rows[y]
            if rng.random() < 0.3:
                i, j = rng.randrange(n), rng.randrange(n)
                bits[i] ^= 1 << j
                if i != j:
                    bits[j] ^= 1 << i
            mat = BitMatrix(n, n, tuple(bits))
            assert mat == mat.transpose()
            want = oracle_is_strongly_forcing(mat, pattern)
            assert is_strongly_forcing(mat, pattern) == want, (mat, pattern)
            verdicts[want] += 1
        # A control matrix holds copies of the pattern and of its transpose,
        # so it seldom forces the pattern: the verdict a mirrored copy
        # would get wrong.
        assert min(verdicts.values()) >= (20 if pattern == pattern.transpose() else 1), verdicts

    @given(
        st.builds(
            BitMatrix,
            st.just(4),
            st.just(4),
            st.tuples(*[st.integers(0, 15)] * 4),
        ),
        nonzero_patterns(max_rows=2, max_cols=2),
    )
    @settings(max_examples=120)
    def test_agrees_with_enumeration_oracle(self, mat, pattern):
        assert is_strongly_forcing(mat, pattern) == oracle_is_strongly_forcing(
            mat, pattern
        )


def literal_prefix_cover(rows, n, pattern, p):
    """1-entries of rows lying in an exact copy of the pattern's first p rows."""
    qrows = pattern.bits[:p]
    cover = set()
    for row_sel in combinations(range(len(rows)), p):
        for col_sel in combinations(range(n), pattern.cols):
            cells = [((r, c), qrow >> x & 1) for r, qrow in zip(row_sel, qrows)
                     for x, c in enumerate(col_sel)]
            if all(rows[r] >> c & 1 == bit for (r, c), bit in cells):
                cover.update(pos for pos, bit in cells if bit)
    return cover


def check_children(rng, rows, i, n, pattern, p_min, cov):
    """Every child row of one _Completions against the prefix-copy
    definition, in a random order: its verdict, and that each mark it
    carries names an entry lying in a copy of that many rows. Rows i.. of
    the list it reads hold junk, as in the search. Returns the passing
    children with their coverage, and whether some 1 of rows 0..i-1 is
    covered under no child row."""
    node = _Completions(rows + [rng.getrandbits(n) for _ in range(3)], i, n, pattern.bits,
                        pattern.cols, tuple(pattern.iter_ones()), p_min, cov)
    earlier = {(r, c) for r in range(i) for c in range(n) if rows[r] >> c & 1}
    stuck, children = set(earlier), []
    for row in rng.sample(range(1 << n), 1 << n):
        cand = rows + [row]
        literal = [literal_prefix_cover(cand, n, pattern, p) for p in range(pattern.rows + 1)]
        covered = set().union(*literal[p_min:])
        ones = earlier | {(i, c) for c in range(n) if row >> c & 1}
        got = node.child_cov(row)
        assert (got is not None) == (ones <= covered), (pattern, cand, p_min)
        stuck -= covered
        if got is not None:
            for p in range(pattern.rows + 1):
                marked = {(r, c) for r in range(i + 1) for c in range(n)
                          if got[p] >> (r * n + c) & 1}
                assert marked <= set().union(*literal[p:]), (pattern, cand, p)
            children.append((row, got))
    return children, bool(stuck)


class TestPrefixCoverage:
    # The search makes one _Completions per node, with rows 0..i-1 fixed,
    # p_min = max(1, s - rows_after) and the node's coverage, and asks it
    # for each child row's verdict and coverage. Nodes here come from random
    # walks down that tree. A search node's stale entries always have a
    # completion, so nodes with arbitrary rows, no coverage and any p_min
    # come too: some have an entry that no child row can cover.
    def test_row_by_row_verdicts_match_the_definition(self):
        rng = random.Random(8)
        walked = carried = stuck = 0
        while walked < 300:
            s, t = rng.randint(1, 3), rng.randint(1, 3)
            pattern = BitMatrix(s, t, tuple(rng.getrandbits(t) for _ in range(s)))
            if pattern.ones_count() == 0:
                continue
            m, n = rng.randint(s, 5), rng.randint(t, 5)
            i = rng.randrange(m)
            rows = [rng.getrandbits(n) for _ in range(i)]
            stuck += check_children(rng, rows, i, n, pattern, rng.randint(1, s),
                                    (0,) * (s + 1))[1]
            rows, cov = [], (0,) * (s + 1)
            for i in range(m):
                p_min = max(1, s - (m - 1 - i))
                children, _ = check_children(rng, rows, i, n, pattern, p_min, cov)
                walked += 1
                carried += p_min > 1 and bool(children)
                if not children:
                    break
                row, cov = rng.choice(children)
                rows = rows + [row]
        assert carried > 50 and stuck > 10, (carried, stuck)


def flip_near_runs(rng, mat, rows, cols):
    """mat with one 0 turned to 1, drawn from the 0s in or beside rows
    rows or columns cols; mat itself when there is none."""
    zeros = [(r, c) for r, row in enumerate(mat.bits) for c in range(mat.cols)
             if not row >> c & 1 and (r in rows or c in cols)]
    if not zeros:
        return mat
    r, c = rng.choice(zeros)
    bits = list(mat.bits)
    bits[r] |= 1 << c
    return BitMatrix(mat.rows, mat.cols, tuple(bits))


def repeated(rng, base, m, n):
    """base with each row and column repeated in place, grown to m x n."""
    row_counts, col_counts = [1] * base.rows, [1] * base.cols
    for _ in range(m - base.rows):
        row_counts[rng.randrange(base.rows)] += 1
    for _ in range(n - base.cols):
        col_counts[rng.randrange(base.cols)] += 1
    out = []
    for row, times in zip(base.bits, row_counts):
        wide, at = 0, 0
        for x, width in enumerate(col_counts):
            if row >> x & 1:
                wide |= ((1 << width) - 1) << at
            at += width
        out += [wide] * times
    return BitMatrix(m, n, tuple(out))


class TestCollapse:
    # is_strongly_forcing checks _collapse(mat, s, t), which keeps at most s
    # rows of each run of equal rows and t columns of each run of equal
    # columns; these matrices are made of such runs.
    def test_linear_zero_constructions_and_flips_match_the_oracle(self):
        rng = random.Random(20)
        verdicts = {True: 0, False: 0}
        for pattern in all_nonzero_patterns(3):
            s, t = pattern.rows, pattern.cols
            rr = next(i for i, row in enumerate(pattern.bits) if row)
            cc = (pattern.bits[rr] & -pattern.bits[rr]).bit_length() - 1
            for m in range(s, 7):
                for n in range(t, 7):
                    built = linear_zero_construction(m, n, pattern)
                    flipped = flip_near_runs(rng, built, range(rr - 1, rr + m - s + 2),
                                             range(cc - 1, cc + n - t + 2))
                    for mat in (built, flipped):
                        want = oracle_is_strongly_forcing(mat, pattern)
                        assert is_strongly_forcing(mat, pattern) == want, (mat, pattern)
                        verdicts[want] += 1
        assert verdicts[False] > 1000, verdicts

    @pytest.mark.parametrize("text, calls", [("101\n010", 6), ("110\n011\n001", 9),
                                             ("1010\n0101", 8), ("1111\n1101\n1001\n1111", 10),
                                             ("100\n001\n010", 6)])
    def test_matcher_calls_do_not_grow_with_n(self, text, calls, monkeypatch):
        # The repeated row and column of a linear-zero construction collapse
        # to the same matrix at every n, so the witness searches are the same.
        # The fourth and fifth patterns equal their transposes, and so do
        # their collapsed constructions: each copy's transpose is marked too.
        counted = []
        witness_through = strong_forcing._witness_through

        def counting(*args):
            counted.append(args)
            return witness_through(*args)

        monkeypatch.setattr(strong_forcing, "_witness_through", counting)
        pattern = parse(text)
        for n in (16, 64):
            counted.clear()
            assert is_strongly_forcing(linear_zero_construction(n, n, pattern), pattern)
            assert len(counted) == calls, n

    def test_random_repeated_rows_and_columns_match_the_oracle(self):
        rng = random.Random(21)
        verdicts = {True: 0, False: 0}
        for _ in range(2000):
            s, t = rng.randint(1, 3), rng.randint(1, 3)
            pattern = BitMatrix(s, t, tuple(rng.getrandbits(t) for _ in range(s)))
            if pattern.ones_count() == 0:
                pattern = make(s, t, 1)
            # Half the bases are the pattern itself, which its repeats force.
            if rng.random() < 0.5:
                base = pattern
            else:
                a, b = rng.randint(1, 4), rng.randint(1, 4)
                base = BitMatrix(a, b, tuple(rng.getrandbits(b) for _ in range(a)))
            m, n = rng.randint(max(s, base.rows), 7), rng.randint(max(t, base.cols), 7)
            mat = repeated(rng, base, m, n)
            if rng.random() < 0.3:
                mat = flip_near_runs(rng, mat, range(m), range(n))
            want = oracle_is_strongly_forcing(mat, pattern)
            assert is_strongly_forcing(mat, pattern) == want, (mat, pattern)
            verdicts[want] += 1
        assert min(verdicts.values()) > 300, verdicts


class TestLinearZeroConstruction:
    def test_i2_in_10x10_has_18_zeros(self):
        built = linear_zero_construction(10, 10, identity(2))
        assert 10 * 10 - built.ones_count() == 18
        assert is_strongly_forcing(built, identity(2))

    def test_exact_dimensions_returns_pattern(self):
        q = parse("011\n100\n")
        assert linear_zero_construction(2, 3, q) == q

    def test_single_one_pattern_gives_all_ones(self):
        assert linear_zero_construction(3, 4, make(1, 1, 1)) == make(3, 4, 1)

    @given(nonzero_patterns(max_rows=3, max_cols=3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=60)
    def test_strongly_forcing_with_linear_zero_count(self, pattern, dm, dn):
        s, t = pattern.rows, pattern.cols
        m, n = s + dm, t + dn
        built = linear_zero_construction(m, n, pattern)
        assert is_strongly_forcing(built, pattern)

        rr = next(i for i, row in enumerate(pattern.bits) if row)
        cc = (pattern.bits[rr] & -pattern.bits[rr]).bit_length() - 1
        z_row = t - pattern.bits[rr].bit_count()
        z_col = sum(1 for row in pattern.bits if not (row >> cc) & 1)
        want = s * t - pattern.ones_count() + (n - t) * z_col + (m - s) * z_row
        assert m * n - built.ones_count() == want

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            linear_zero_construction(2, 2, make(2, 2, 0))
        with pytest.raises(ValueError):
            linear_zero_construction(2, 2, identity(3))


def literal_2x2(n, variant):
    """All ones but row i's zero: at column n-1-i for i2, at column i for h2."""
    zero = (lambda i: n - 1 - i) if variant == "i2" else (lambda i: i)
    return parse("".join(
        "".join("0" if j == zero(i) else "1" for j in range(n)) + "\n" for i in range(n)
    ))


class TestExtremalWitnesses:
    def test_2x2_shapes(self):
        assert split_witness(2, identity(2)) == identity(2)
        assert split_witness(2, hankel(2)) == hankel(2)
        assert split_witness(4, identity(2)) == parse("1110\n1101\n1011\n0111\n")
        assert split_witness(4, hankel(2)) == parse("0111\n1011\n1101\n1110\n")
        # split_witness's 2x2 cases are compared with a build from the
        # definition: the all-ones matrix less one diagonal.
        for n in range(2, 13):
            for variant, q in [("i2", identity(2)), ("h2", hankel(2))]:
                assert (n, variant, split_witness(n, q)) == (n, variant, literal_2x2(n, variant))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_2x2_counts_and_strength(self, n):
        for q in [identity(2), hankel(2)]:
            built = split_witness(n, q)
            assert built.ones_count() == n * n - n
            assert is_strongly_forcing(built, q)

    def test_identity_witness_fixture(self):
        assert extremal_identity_witness(5, 3) == load_matrix("s5.txt")
        assert split_witness(5, identity(3)) == load_matrix("s5.txt")

    def test_132_witness_fixture(self):
        assert extremal_132_witness(5) == load_matrix("t5.txt")

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_identity_witness_meets_conjectured_count(self, k):
        for n in range(k, k + 5):
            built = extremal_identity_witness(n, k)
            assert built.ones_count() == conjectured_max_identity(n, k)
            assert is_strongly_forcing(built, identity(k))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_3x3_witnesses_meet_exact_maximum(self, n):
        s = split_witness(n, identity(3))
        t = extremal_132_witness(n)
        assert s.ones_count() == t.ones_count() == n * n - 3 * n + 3
        assert is_strongly_forcing(s, identity(3))
        assert is_strongly_forcing(t, named("b3"))

    def test_witness_guards(self):
        with pytest.raises(ValueError):
            extremal_identity_witness(3, 1)
        with pytest.raises(ValueError):
            extremal_identity_witness(2, 3)
        with pytest.raises(ValueError):
            extremal_132_witness(2)


class TestBounds:
    def test_simple_upper_bound(self):
        assert upper_bound_simple(8, 3) == 48
        assert upper_bound_simple(4, 1) == 16
        with pytest.raises(ValueError):
            upper_bound_simple(2, 3)

    def test_conjectured_value_specialises_to_known_cases(self):
        for n in range(2, 10):
            assert conjectured_max_identity(n, 2) == n * n - n
        for n in range(3, 10):
            assert conjectured_max_identity(n, 3) == n * n - 3 * n + 3

    def test_conjectured_value_guard(self):
        with pytest.raises(ValueError):
            conjectured_max_identity(4, 1)
        with pytest.raises(ValueError):
            conjectured_max_identity(3, 4)

    def test_conjectured_value_never_exceeds_simple_bound(self):
        for k in range(2, 8):
            for n in range(k, k + 10):
                assert conjectured_max_identity(n, k) <= upper_bound_simple(n, k)


class TestDirectSumClosure:
    @given(
        nonzero_patterns(max_rows=2, max_cols=2),
        nonzero_patterns(max_rows=2, max_cols=2),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    @settings(max_examples=40)
    def test_block_diagonal_stacking(self, p, q, dm, dn):
        # Strongly forcing blocks with at least one 1 each stack into a
        # strongly forcing matrix for the stacked pattern: a copy through
        # any 1-entry combines its block's copy with any copy in the other.
        a = linear_zero_construction(p.rows + dm, p.cols + dn, p)
        b = linear_zero_construction(q.rows + dn, q.cols + dm, q)
        assert is_strongly_forcing(direct_sum(a, b), direct_sum(p, q))

    def test_zero_block_can_break_stacking(self):
        # An empty lower block leaves upper-block entries without the
        # lower pattern half, so the stacked matrix is not strongly forcing.
        a = split_witness(3, identity(2))
        stacked = direct_sum(a, make(2, 2, 0))
        assert not is_strongly_forcing(stacked, direct_sum(identity(2), identity(1)))


def reference_split(perm, m):
    """split_witness's rule with every part order m1 tried: first best wins."""
    k = len(perm)
    if k == 1:
        return make(m, m, 1)
    if perm == (0, 1):
        return literal_2x2(m, "i2")
    cuts = [c for c in range(1, k) if max(perm[:c]) == c - 1]
    if not cuts:
        rev = perm[::-1]
        if not any(max(rev[:c]) == c - 1 for c in range(1, k)):
            return None
        got = reference_split(rev, m)
        return None if got is None else got.reflect_h()
    best = None
    for c in cuts:
        for m1 in range(c, m - (k - c) + 1):
            a = reference_split(perm[:c], m1)
            b = reference_split(tuple(x - c for x in perm[c:]), m - m1)
            if a is None or b is None:
                return None
            if best is None or a.ones_count() + b.ones_count() > best.ones_count():
                best = direct_sum(a, b)
    return best


class TestSplitWitness:
    def test_best_split_for_6_4(self):
        built = split_witness(6, identity(4))
        assert built.ones_count() == 14
        assert built == direct_sum(identity(2), literal_2x2(4, "i2"))
        assert is_strongly_forcing(built, identity(4))

    def test_k1_is_the_all_ones_block(self):
        assert split_witness(5, identity(1)) == make(5, 5, 1)

    def test_skew_sums_go_through_the_row_reversal(self):
        assert split_witness(4, hankel(2)) == literal_2x2(4, "h2")
        assert split_witness(5, named("b3")) == extremal_132_witness(5)
        assert split_witness(5, named("d3")) == extremal_132_witness(5).reflect_h()

    def test_identity_floor_is_the_conjectured_value(self):
        for k in range(2, 15):
            for n in range(k, 41):
                built = split_witness(n, identity(k))
                assert (n, k, built.ones_count()) == (n, k, conjectured_max_identity(n, k))

    def test_none_outside_separable_permutations(self):
        assert split_witness(5, named("perm:2413")) is None
        assert split_witness(5, named("perm:3142")) is None
        assert split_witness(6, named("perm:25314")) is None
        assert split_witness(4, parse("11\n01")) is None
        assert split_witness(4, make(2, 2, 1)) is None

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            split_witness(2, identity(3))

    def test_every_separable_floor_is_the_one_formula(self):
        # Separable means avoiding 2413 and 3142, tested here on every four
        # entries; each such k x k permutation's split witness has
        # conjectured_max_identity(n, k) ones, and any other has none.
        def separable(perm):
            return not any(
                tuple(sorted(sub).index(v) for v in sub) in ((1, 3, 0, 2), (2, 0, 3, 1))
                for sub in combinations(perm, 4))

        pairs = 0
        for k in range(2, 7):
            for p in all_permutation_matrices(k):
                perm = permutation_of(p)
                for n in range(k, 13):
                    built = split_witness(n, p)
                    if separable(perm):
                        assert (perm, n, built.ones_count()) == (perm, n, conjectured_max_identity(n, k))
                        pairs += 1
                    else:
                        assert (perm, n, built) == (perm, n, None)
        assert pairs == 3758

    @pytest.mark.parametrize("k", range(1, 6))
    def test_end_point_splits_match_every_split(self, k):
        # The construction compares only the two end orders of each split;
        # trying every order must give the same matrix, tie-break included.
        for p in all_permutation_matrices(k):
            for n in range(k, 9):
                want = reference_split(permutation_of(p), n)
                got = split_witness(n, p)
                assert (permutation_of(p), n, got) == (permutation_of(p), n, want)
                if got is not None:
                    assert is_strongly_forcing(got, p)


def orbit(pattern):
    """The pattern's images under every generator sequence of its symmetry group."""
    return {apply_symmetry(pattern, seq) for seq in symmetry_ops(pattern)}


class TestDihedral:
    def test_eight_images_of_a_square_and_four_of_a_rectangle(self):
        square = parse("110\n000\n000\n")  # fixed by no symmetry but the identity
        assert len(symmetry_ops(square)) == len(orbit(square)) == 8
        rect = parse("110\n000\n")
        assert len(symmetry_ops(rect)) == len(orbit(rect)) == 4

    def test_identity_class_is_the_two_diagonals(self):
        assert orbit(identity(3)) == {identity(3), hankel(3)}

    def test_132_class_has_the_other_four_words(self):
        assert orbit(named("b3")) == {named(x) for x in ["b3", "c3", "d3", "e3"]}

    def test_rectangles_use_reflections_only(self):
        got = orbit(parse("10\n"))
        assert got == {parse("10\n"), parse("01\n")}
        assert all(m.rows == 1 and m.cols == 2 for m in got)

    @given(nonzero_patterns())
    def test_canonical_form_is_an_orbit_invariant(self, pattern):
        canon, ops = canonical_with_ops(pattern)
        assert apply_symmetry(pattern, ops) == canon
        assert canon in orbit(pattern)
        for member in orbit(pattern):
            assert canonical_with_ops(member)[0] == canon

    def test_apply_symmetry_composition(self):
        q = parse("110\n010\n001\n")
        assert apply_symmetry(q, ("t", "t")) == q
        assert apply_symmetry(q, ("h", "v")) == q.reflect_h().reflect_v()

    def test_apply_symmetry_rejects_unknown_generator(self):
        with pytest.raises(ValueError):
            apply_symmetry(identity(2), ("r",))
