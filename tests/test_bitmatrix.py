"""Matrix value type: construction, transforms, selections, text format."""

import copy
import random
import re
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given

from mforce import (
    BitMatrix,
    MatrixFormatError,
    direct_sum,
    entrywise_leq,
    hankel,
    identity,
    linear_zero_construction,
    make,
    minimal_forcing,
    parse,
    serialize,
    split_witness,
)
from mforce.bitmatrix import MAX_SIDE

from conftest import bitmatrices, load


class TestConstruction:
    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            BitMatrix(0, 3, ())

    def test_rejects_zero_cols(self):
        with pytest.raises(ValueError):
            BitMatrix(3, 0, (0, 0, 0))

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError):
            BitMatrix(2, 2, (1,))

    def test_rejects_bits_beyond_cols(self):
        with pytest.raises(ValueError, match="row 2"):
            BitMatrix(2, 2, (1, 4))

    def test_rejects_negative_row(self):
        with pytest.raises(ValueError):
            BitMatrix(1, 2, (-1,))

    def test_make_fill(self):
        assert make(3, 3, 1) == BitMatrix(3, 3, (7, 7, 7))
        assert make(3, 3, 1).ones_count() == 9
        assert make(2, 5, 0).ones_count() == 0
        with pytest.raises(ValueError, match="fill must be 0 or 1"):
            make(2, 2, 2)

    def test_identity_and_hankel(self):
        assert identity(2) == parse("10\n01\n")
        assert hankel(3) == parse("001\n010\n100\n")
        assert identity(4).transpose() == identity(4)

    def test_hashable_value_semantics(self):
        assert len({identity(3), identity(3), hankel(3)}) == 2

    def test_equal_matrices_hash_equally_however_built(self):
        # The hash is kept after its first use, so each way to build a matrix
        # runs before and after its sources have been hashed: a kept hash
        # must never outlive a change of bits.
        text = "0110\n1011\n0001"
        for hash_sources_first in (False, True):
            source, ones = parse(text), make(3, 4, 1)
            if hash_sources_first:
                hash(source), hash(ones)
            built = [source, parse(text), BitMatrix(3, 4, (6, 13, 8)),
                     source.transpose().transpose(), replace(ones, bits=source.bits),
                     copy.copy(source), replace(source, bits=source.bits)]
            for mat in built:
                assert mat == source and hash(mat) == hash(source), mat
            assert hash(replace(source, bits=(6, 13, 9))) == hash(BitMatrix(3, 4, (6, 13, 9)))
            assert len(set(built)) == 1

    @pytest.mark.parametrize("build", [
        lambda: identity(MAX_SIDE + 1),
        lambda: hankel(MAX_SIDE + 1),
        lambda: split_witness(MAX_SIDE + 1, identity(3)),
        lambda: minimal_forcing(MAX_SIDE + 1, MAX_SIDE + 1, identity(2)),
        lambda: linear_zero_construction(10**7, 2, identity(2)),
        lambda: linear_zero_construction(2, 10**8, identity(2)),
    ], ids=["identity", "hankel", "split_witness", "minimal_forcing",
            "linear_zero_rows", "linear_zero_cols"])
    def test_an_oversized_side_is_refused_before_anything_is_built(self, build):
        # One 65537 x 65537 matrix holds 512 MiB of row bits; the refusal
        # must come first, with the one side-limit message.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"within \[1, {MAX_SIDE}\] per side"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestCounts:
    @given(bitmatrices())
    def test_iter_ones_matches_get(self, mat):
        listed = set(mat.iter_ones())
        for i in range(mat.rows):
            for j in range(mat.cols):
                assert ((i, j) in listed) == bool(mat.get(i, j))

    def test_get_outside_the_matrix_raises(self):
        with pytest.raises(IndexError, match=r"position \(3, 0\) outside 3x3 matrix"):
            identity(3).get(3, 0)

    @given(bitmatrices())
    def test_padding_bits_stay_zero(self, mat):
        for image in (mat.transpose(), mat.reflect_h(), mat.reflect_v()):
            assert all(0 <= row < (1 << image.cols) for row in image.bits)


class TestTransforms:
    @given(bitmatrices())
    def test_involutions(self, mat):
        assert mat.transpose().transpose() == mat
        assert mat.reflect_h().reflect_h() == mat
        assert mat.reflect_v().reflect_v() == mat

    @given(bitmatrices())
    def test_ones_count_preserved(self, mat):
        count = mat.ones_count()
        assert mat.transpose().ones_count() == count
        assert mat.reflect_h().ones_count() == count
        assert mat.reflect_v().ones_count() == count

    @given(bitmatrices())
    def test_entry_maps(self, mat):
        t, h, v = mat.transpose(), mat.reflect_h(), mat.reflect_v()
        for i in range(mat.rows):
            for j in range(mat.cols):
                value = mat.get(i, j)
                assert t.get(j, i) == value
                assert h.get(mat.rows - 1 - i, j) == value
                assert v.get(i, mat.cols - 1 - j) == value

    def test_reflect_h_of_identity_is_hankel(self):
        assert identity(3).reflect_h() == hankel(3)

    def test_transpose_example(self):
        assert parse("110\n001\n").transpose() == parse("10\n10\n01\n")

    @given(bitmatrices(max_rows=3, max_cols=3))
    def test_dihedral_images_closed_under_generators(self, mat):
        images = {mat}
        frontier = [mat]
        while frontier:
            current = frontier.pop()
            for nxt in (current.transpose(), current.reflect_h(), current.reflect_v()):
                if nxt not in images:
                    images.add(nxt)
                    frontier.append(nxt)
        assert len(images) <= 8
        for image in images:
            assert image.transpose() in images
            assert image.reflect_h() in images
            assert image.reflect_v() in images


class TestSelections:
    @given(bitmatrices())
    def test_full_selection_is_identity(self, mat):
        rows = tuple(range(mat.rows))
        cols = tuple(range(mat.cols))
        assert mat.submatrix(rows, cols) == mat

    def test_submatrix_examples(self):
        assert identity(3).submatrix((0, 2), (0, 2)) == identity(2)
        j_minus_h = parse("1110\n1101\n1011\n0111\n")
        assert j_minus_h.submatrix((0, 1), (0, 1)) == make(2, 2, 1)

    def test_selection_errors(self):
        mat = identity(3)
        with pytest.raises(ValueError):
            mat.submatrix((2, 0), (0,))
        with pytest.raises(ValueError):
            mat.submatrix((0, 0), (1,))
        with pytest.raises(ValueError):
            mat.submatrix((0, 3), (0,))
        with pytest.raises(ValueError):
            mat.submatrix((), (0,))


class TestCombinators:
    def test_entrywise_leq(self):
        assert entrywise_leq(identity(2), make(2, 2, 1))
        assert not entrywise_leq(make(2, 2, 1), identity(2))
        with pytest.raises(ValueError):
            entrywise_leq(identity(2), identity(3))

    @given(bitmatrices(), bitmatrices())
    def test_direct_sum_shape_and_count(self, a, b):
        total = direct_sum(a, b)
        assert (total.rows, total.cols) == (a.rows + b.rows, a.cols + b.cols)
        assert total.ones_count() == a.ones_count() + b.ones_count()
        assert total.submatrix(range(a.rows), range(a.cols)) == a
        assert total.submatrix(range(a.rows, total.rows), range(a.cols, total.cols)) == b

    def test_direct_sum_builds_the_13_ones_example(self):
        j_minus_h = parse("1110\n1101\n1011\n0111\n")
        combined = direct_sum(make(1, 1, 1), j_minus_h)
        assert serialize(combined) == load("s5.txt")
        assert combined.ones_count() == 13


class TestTextFormat:
    @given(bitmatrices())
    def test_round_trip(self, mat):
        assert parse(serialize(mat)) == mat

    def test_header_optional_on_parse(self):
        assert parse("10\n01\n") == parse("2 2\n10\n01\n") == identity(2)
        assert parse("2  2\n10\n01\n") == parse(" 2 2 \n10\n01\n") == identity(2)

    def test_serialize_always_emits_header(self):
        assert serialize(identity(2)) == "2 2\n10\n01\n"

    def test_ragged_rows_rejected(self):
        with pytest.raises(MatrixFormatError, match="row 2"):
            parse("10\n0\n")

    def test_invalid_characters_rejected(self):
        with pytest.raises(MatrixFormatError, match="column 2"):
            parse("12\n00\n")

    def test_header_mismatch_rejected(self):
        with pytest.raises(MatrixFormatError):
            parse("3 2\n10\n01\n")

    def test_empty_text_rejected(self):
        with pytest.raises(MatrixFormatError):
            parse("")

    @pytest.mark.parametrize("text, message", [
        ("0 3\n000\n", "header dimensions must be positive"),
        ("2 2\n", "header present but no matrix rows follow"),
    ], ids=["zero-rows", "no-body"])
    def test_a_header_without_a_body_it_can_describe_is_rejected(self, text, message):
        with pytest.raises(MatrixFormatError, match=message):
            parse(text)

    def test_empty_first_row_rejected(self):
        # int("", 2) would raise a bare ValueError on the zero-width row.
        for text in ("\n11\n", "2 2\n\n11\n"):
            with pytest.raises(MatrixFormatError, match="row 1 is empty"):
                parse(text)

    @pytest.mark.parametrize("header", ["² 2", "2 ²", "２ ２", "٢ 2", "2 +2",
                                        "2 \u00a02", "2\t2", "2\u20032", "2 2\r"],
                             ids=["superscript", "superscript-cols", "fullwidth", "arabic-indic", "sign",
                                  "no-break-space", "tab", "em-space", "carriage-return"])
    def test_header_fields_take_ascii_digits_only(self, header):
        # A superscript digit passes str.isdigit but not int(); a fullwidth or
        # Arabic-Indic one passes both. A first line holding any whitespace is
        # a header, and only ASCII spaces separate its fields. Each is a
        # malformed header.
        with pytest.raises(MatrixFormatError, match="malformed header line"):
            parse(f"{header}\n11\n11\n")

    def test_str_is_headerless_body(self):
        assert str(identity(2)) == "10\n01"


def wide_matrices():
    """Seeded matrices at every width 1..130, across the 64-bit boundary,
    with an all-zero, an all-ones and a top-column-only row among random ones."""
    rng = random.Random(130)
    for cols in range(1, 131):
        rows = [0, (1 << cols) - 1, 1 << (cols - 1)]
        rows += [rng.getrandbits(cols) for _ in range(rng.randint(0, 3))]
        rng.shuffle(rows)
        yield BitMatrix(len(rows), cols, tuple(rows))


def reference_body(mat):
    return "\n".join("".join(str(mat.get(i, j)) for j in range(mat.cols))
                      for i in range(mat.rows))


class TestTextKernels:
    # The builtin text kernels against a per-bit reference built from get.
    def test_text_forms_match_the_per_bit_reference(self):
        for mat in wide_matrices():
            body = reference_body(mat)
            assert str(mat) == body
            assert serialize(mat) == f"{mat.rows} {mat.cols}\n{body}\n"
            assert parse(body) == parse(serialize(mat)) == mat
            assert mat.ones_count() == sum(mat.get(i, j) for i in range(mat.rows)
                                           for j in range(mat.cols))

    def test_transforms_match_the_per_bit_reference(self):
        for mat in wide_matrices():
            t, v = mat.transpose(), mat.reflect_v()
            assert (t.rows, t.cols, v.rows, v.cols) == (mat.cols, mat.rows, mat.rows, mat.cols)
            for i in range(mat.rows):
                for j in range(mat.cols):
                    assert t.get(j, i) == v.get(i, mat.cols - 1 - j) == mat.get(i, j)

    @pytest.mark.parametrize("ch", ["_", "+", "-", "\t", " ", "\uff10", "\u0661"])
    def test_parse_names_each_character_int_would_take(self, ch):
        # int(text, 2) accepts underscores, a sign, surrounding whitespace and
        # non-ASCII digits; parse must name each as an invalid character.
        for cols in (1, 4, 65, 130):
            for j in range(0, cols, max(1, cols // 3)):
                row = "1" * cols
                bad = row[:j] + ch + row[j + 1:]
                message = f"row 2 column {j + 1}: invalid character {ch!r}"
                with pytest.raises(MatrixFormatError, match=re.escape(message)):
                    parse(f"{row}\n{bad}\n{row}\n")
                with pytest.raises(MatrixFormatError, match=re.escape(message)):
                    parse(f"3 {cols}\n{row}\n{bad}\n{row}\n")
