"""Permutation matrices and the short names used on the command line."""

from __future__ import annotations

import re
from itertools import permutations
from typing import Iterator, Sequence

from .bitmatrix import BitMatrix, hankel, identity, make

# Aliases for the 3x3 permutation matrices by one-line word. i3 and h3 come
# from the generic families below; these four fill in the remaining words.
PERM_WORD_ALIASES = {
    "b3": (0, 2, 1),  # 132
    "c3": (1, 0, 2),  # 213
    "d3": (1, 2, 0),  # 231
    "e3": (2, 0, 1),  # 312
}

# Names are matched whole and in ASCII digits only, as parse reads matrix text.
_FAMILY = re.compile(r"([ihj])([1-9][0-9]*)")
_PERM_WORD = re.compile(r"[0-9]+(,[0-9]+)*")


def permutation_matrix(images: Sequence[int]) -> BitMatrix:
    """Matrix of a permutation given as 0-based images: row i has its 1 in column images[i]."""
    k = len(images)
    if sorted(images) != list(range(k)):
        raise ValueError(f"{images!r} is not a permutation of 0..{k - 1}")
    return BitMatrix(k, k, tuple(1 << j for j in images))


def is_permutation_matrix(mat: BitMatrix) -> bool:
    if mat.rows != mat.cols:
        return False
    seen = 0
    for row in mat.bits:
        if row.bit_count() != 1 or row & seen:
            return False
        seen |= row
    return True


def permutation_of(mat: BitMatrix) -> tuple[int, ...]:
    """0-based images of a permutation matrix."""
    if not is_permutation_matrix(mat):
        raise ValueError("matrix is not a permutation matrix")
    return tuple(row.bit_length() - 1 for row in mat.bits)


def all_permutation_matrices(k: int) -> Iterator[BitMatrix]:
    """All k! permutation matrices, in lexicographic image order."""
    for images in permutations(range(k)):
        yield permutation_matrix(images)


def named(name: str) -> BitMatrix:
    """Resolve a built-in pattern name.

    Families: i<k> identity, h<k> anti-diagonal, j<k> all-one. Fixed aliases
    b3, c3, d3, e3 cover the 3x3 permutation words 132, 213, 231, 312
    (i3 is 123 and h3 is 321). perm:<word> builds any permutation matrix
    from a 1-based one-line word: ASCII digits, one per entry, or
    comma-separated groups of them. Anything else is a malformed word.
    """
    key = name.lower()
    if key in PERM_WORD_ALIASES:
        return permutation_matrix(PERM_WORD_ALIASES[key])
    m = _FAMILY.fullmatch(key)
    if m:
        family, k = m.group(1), int(m.group(2))
        if family == "i":
            return identity(k)
        if family == "h":
            return hankel(k)
        return make(k, k, 1)
    if key.startswith("perm:"):
        word = key[len("perm:"):]
        if not _PERM_WORD.fullmatch(word):
            raise ValueError(f"malformed permutation word {word!r}")
        entries = [int(p) - 1 for p in (word.split(",") if "," in word else word)]
        if sorted(entries) != list(range(len(entries))):
            raise ValueError(f"permutation word {word!r} is not a permutation of 1..{len(entries)}")
        return permutation_matrix(entries)
    raise ValueError(f"unknown pattern name {name!r}")
