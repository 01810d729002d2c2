"""Permutation matrices and the named-pattern registry."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mforce import (
    all_permutation_matrices,
    hankel,
    identity,
    is_permutation_matrix,
    named,
    parse,
    permutation_matrix,
    permutation_of,
)

permutations = st.integers(1, 6).flatmap(
    lambda k: st.permutations(list(range(k)))
)


class TestPermutationMatrices:
    @given(permutations)
    def test_round_trip(self, images):
        mat = permutation_matrix(tuple(images))
        assert is_permutation_matrix(mat)
        assert permutation_of(mat) == tuple(images)

    def test_identity_and_hankel_words(self):
        assert permutation_matrix((0, 1, 2)) == identity(3)
        assert permutation_matrix((2, 1, 0)) == hankel(3)

    def test_rejects_non_permutation_images(self):
        with pytest.raises(ValueError):
            permutation_matrix((0, 0, 1))
        with pytest.raises(ValueError):
            permutation_matrix((0, 2))

    def test_is_permutation_matrix_negatives(self):
        assert not is_permutation_matrix(parse("11\n00\n"))
        assert not is_permutation_matrix(parse("10\n10\n"))
        assert not is_permutation_matrix(parse("100\n010\n"))
        assert not is_permutation_matrix(parse("00\n00\n"))

    def test_permutation_of_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permutation_of(parse("11\n11\n"))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_all_permutation_matrices(self, k):
        mats = list(all_permutation_matrices(k))
        words = [permutation_of(m) for m in mats]
        assert len(mats) == len(set(mats))
        assert words == sorted(words)
        assert len(mats) == len(list(itertools.permutations(range(k))))


class TestNamedPatterns:
    @pytest.mark.parametrize(
        "name,word",
        [
            ("i2", (0, 1)),
            ("h2", (1, 0)),
            ("i3", (0, 1, 2)),
            ("h3", (2, 1, 0)),
            ("b3", (0, 2, 1)),
            ("c3", (1, 0, 2)),
            ("d3", (1, 2, 0)),
            ("e3", (2, 0, 1)),
            ("i4", (0, 1, 2, 3)),
        ],
    )
    def test_builtin_permutation_names(self, name, word):
        assert named(name) == permutation_matrix(word)

    def test_family_names_scale(self):
        assert named("i7") == identity(7)
        assert named("h5") == hankel(5)
        assert named("j3") == parse("111\n111\n111\n")

    def test_perm_word_digits(self):
        assert named("perm:2413") == permutation_matrix((1, 3, 0, 2))

    def test_perm_word_comma_separated(self):
        assert named("perm:2,4,1,3") == permutation_matrix((1, 3, 0, 2))
        assert named("perm:10,1,2,3,4,5,6,7,8,9") == permutation_matrix(
            (9, 0, 1, 2, 3, 4, 5, 6, 7, 8)
        )

    @pytest.mark.parametrize("bad", ["", "x9", "perm:11", "perm:0,1", "i0", "q2"])
    def test_unknown_names_rejected(self, bad):
        with pytest.raises(ValueError):
            named(bad)

    @pytest.mark.parametrize("bad", [
        "perm:+2,1", "perm: 2, 1", "perm:2,1 ", "perm:2_1", "perm:\u0662\u0661",
        "perm:2,,1", "perm:2,1,", "perm:", "perm:21\n",
    ])
    def test_perm_words_take_ascii_digits_only(self, bad):
        # int() would read each of these; a word is ASCII digits or comma-separated groups.
        with pytest.raises(ValueError, match="malformed permutation word"):
            named(bad)

    @pytest.mark.parametrize("bad", ["i\u0663", "i1\u0662", "h3\n", "j 2"])
    def test_family_names_take_ascii_digits_only(self, bad):
        with pytest.raises(ValueError, match="unknown pattern name"):
            named(bad)

    @pytest.mark.parametrize("word", ["11", "2,1,3,3", "0,1", "13"])
    def test_perm_words_that_repeat_or_skip_an_entry(self, word):
        with pytest.raises(ValueError, match="is not a permutation of 1.."):
            named(f"perm:{word}")
