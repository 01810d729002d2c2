"""Strongly pattern-forcing matrices: checks, constructions, and exact search.

A matrix A is strongly Q-forcing when every 1-entry of A lies inside some
submatrix of A that equals Q exactly. Where plain forcing asks for minimum
ones, the natural extremal question here is the maximum: search_max computes
max ones over strongly forcing square matrices by descending over target
levels with a zero-placement DFS, so the first feasible level is exact.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping

from .bitmatrix import (
    BitMatrix, Position, direct_sum, identity, make, parse, serialize,
)
from .patterns import is_permutation_matrix, permutation_matrix

STATUS_EXACT = "exact"
STATUS_LOWER_BOUND = "lower_bound_only"
STATUS_BUDGET = "budget_exhausted"


# -- witness embeddings -------------------------------------------------------


@dataclass(frozen=True)
class WitnessEmbedding:
    """Row and column selections carving an exact pattern copy out of a matrix."""

    row_sel: tuple[int, ...]
    col_sel: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "rows": [r + 1 for r in self.row_sel],
            "cols": [c + 1 for c in self.col_sel],
        }


def _transversal(cands: list[int]) -> list[int] | None:
    # Greedy smallest increasing pick, one column per candidate mask.
    # Succeeds whenever any increasing transversal exists.
    prev = -1
    out = []
    for mask in cands:
        avail = mask >> (prev + 1)
        if avail == 0:
            return None
        prev += (avail & -avail).bit_length()
        out.append(prev)
    return out


def _witness_through(abits, m: int, n: int, qbits, s: int, t: int,
                     q_ones, r: int, c: int):
    """Exact pattern copy through 1-entry (r, c), or None.

    Tries every pattern 1-coordinate (y, x) as the anchor for (r, c) in
    row-major order, then assigns the remaining pattern rows to matrix rows
    in ascending order while filtering, per pattern column, the mask of
    matrix columns still consistent with the rows chosen so far. A greedy
    increasing transversal of those masks certifies column feasibility at
    every step and produces the final column selection.
    """
    full = (1 << n) - 1
    arow_r = abits[r]
    for y, x in q_ones:
        if r < y or m - 1 - r < s - 1 - y:
            continue
        if c < x or n - 1 - c < t - 1 - x:
            continue
        qrow = qbits[y]
        cands = []
        for j in range(t):
            mask = arow_r if (qrow >> j) & 1 else ~arow_r & full
            if j == x:
                mask &= 1 << c
            if mask == 0:
                cands = None
                break
            cands.append(mask)
        if cands is None or _transversal(cands) is None:
            continue

        rows_sel = [0] * s
        rows_sel[y] = r

        def assign(i: int, prev: int, masks: list[int]):
            if i == s:
                return _transversal(masks)
            if i == y:
                if prev >= r:
                    return None
                return assign(i + 1, r, masks)
            hi = r - (y - i) if i < y else m - (s - i)
            qrow_i = qbits[i]
            for rr in range(prev + 1, hi + 1):
                arow = abits[rr]
                nxt = []
                for j in range(t):
                    mask = masks[j] & (arow if (qrow_i >> j) & 1 else ~arow & full)
                    if mask == 0:
                        nxt = None
                        break
                    nxt.append(mask)
                if nxt is None or _transversal(nxt) is None:
                    continue
                rows_sel[i] = rr
                got = assign(i + 1, rr, nxt)
                if got is not None:
                    return got
            return None

        cols = assign(0, -1, cands)
        if cols is not None:
            return tuple(rows_sel), tuple(cols)
    return None


def find_witness(mat: BitMatrix, pattern: BitMatrix, pos: Position | tuple[int, int]) -> WitnessEmbedding | None:
    """Deterministic witness for one 1-entry, or None when no exact copy contains it."""
    r, c = pos
    if mat.rows < pattern.rows or mat.cols < pattern.cols:
        raise ValueError(
            f"pattern {pattern.rows}x{pattern.cols} does not fit in {mat.rows}x{mat.cols}"
        )
    if mat.get(r, c) != 1:
        raise ValueError(f"position ({r + 1}, {c + 1}) is not a 1-entry")
    got = _witness_through(
        mat.bits, mat.rows, mat.cols, pattern.bits, pattern.rows, pattern.cols,
        list(pattern.iter_ones()), r, c,
    )
    if got is None:
        return None
    return WitnessEmbedding(*got)


def _strongly_forcing_rows(abits, m: int, n: int, qbits, s: int, t: int, q_ones) -> bool:
    # Coverage memo: a found copy witnesses every 1-entry it touches, so
    # later entries inside it need no fresh search.
    covered = [0] * m
    for r in range(m):
        row = abits[r]
        while row:
            low = row & -row
            row ^= low
            c = low.bit_length() - 1
            if (covered[r] >> c) & 1:
                continue
            got = _witness_through(abits, m, n, qbits, s, t, q_ones, r, c)
            if got is None:
                return False
            rows_sel, cols_sel = got
            for y, x in q_ones:
                covered[rows_sel[y]] |= 1 << cols_sel[x]
    return True


def is_strongly_forcing(mat: BitMatrix, pattern: BitMatrix) -> bool:
    """True when every 1-entry of mat lies in a submatrix equal to the pattern.

    An all-zero matrix passes vacuously, whatever the pattern.
    """
    if mat.rows < pattern.rows or mat.cols < pattern.cols:
        raise ValueError(
            f"pattern {pattern.rows}x{pattern.cols} does not fit in {mat.rows}x{mat.cols}"
        )
    return _strongly_forcing_rows(
        mat.bits, mat.rows, mat.cols, pattern.bits, pattern.rows, pattern.cols,
        list(pattern.iter_ones()),
    )


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
    if pattern.ones_count() == 0:
        raise ValueError("pattern must contain at least one 1-entry")
    if m < s or n < t:
        raise ValueError(f"pattern {s}x{t} does not fit in {m}x{n}")
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


def extremal_2x2(n: int, variant: str = "i2") -> BitMatrix:
    """The unique maximum strongly forcing matrix for a 2x2 permutation pattern.

    All ones except one zero per row: the anti-diagonal zeroed for the
    identity pattern ("i2"), the main diagonal zeroed for the anti-identity
    ("h2"). Ones count is n^2 - n.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    full = (1 << n) - 1
    if variant == "i2":
        rows = tuple(full & ~(1 << (n - 1 - i)) for i in range(n))
    elif variant == "h2":
        rows = tuple(full & ~(1 << i) for i in range(n))
    else:
        raise ValueError(f"unknown variant {variant!r}, expected 'i2' or 'h2'")
    return BitMatrix(n, n, rows)


def extremal_identity_witness(n: int, k: int) -> BitMatrix:
    """Strongly forcing witness for the k x k identity meeting the conjectured maximum.

    A (k-2) x (k-2) identity block followed by an all-ones block with its
    anti-diagonal zeroed. Ones count is n^2 - (2k-3)n - (2k - k^2).
    """
    if k < 2 or n < k:
        raise ValueError("construction needs n >= k >= 2")
    tail = extremal_2x2(n - k + 2, "i2")
    if k == 2:
        return tail
    return direct_sum(identity(k - 2), tail)


def extremal_132_witness(n: int) -> BitMatrix:
    """Strongly forcing witness for the 3x3 permutation 132 with n^2 - 3n + 3 ones.

    A single 1 followed by an all-ones block with its main diagonal zeroed.
    Witnesses for the other patterns in the 132 dihedral class (213, 231,
    312) are its images under the corresponding symmetry.
    """
    if n < 3:
        raise ValueError("order must be at least 3")
    return direct_sum(make(1, 1, 1), extremal_2x2(n - 1, "h2"))


def extremal_123_witness(n: int) -> BitMatrix:
    """Strongly forcing witness for the 3x3 identity with n^2 - 3n + 3 ones."""
    return extremal_identity_witness(n, 3)


# -- bounds ---------------------------------------------------------------------


def upper_bound_simple(n: int, k: int) -> int:
    """n^2 - (k-1)n, valid for every k x k permutation pattern."""
    if k < 1 or n < k:
        raise ValueError("bound needs n >= k >= 1")
    return n * n - (k - 1) * n


def upper_bound_3x3(n: int) -> int:
    """Exact maximum n^2 - 3n + 3, shared by all six 3x3 permutation patterns."""
    if n < 3:
        raise ValueError("order must be at least 3")
    return n * n - 3 * n + 3


def conjectured_max_identity(n: int, k: int) -> int:
    """Conjectured maximum for the k x k identity: n^2 - (2k-3)n - (2k - k^2).

    Realised by extremal_identity_witness, hence always a lower bound; known
    exact for k = 2 and k = 3.
    """
    if k < 2 or n < k:
        raise ValueError("formula needs n >= k >= 2")
    return n * n - (2 * k - 3) * n - (2 * k - k * k)


def recurrence_lower_bound(n: int, k: int, table: Mapping[tuple[int, int], int]) -> int | None:
    """Best block-diagonal split bound for the k x k identity in an n x n ambient.

    Two strongly forcing blocks for smaller identities stack into one for
    their direct sum, so max over n1 + n2 = n, k1 + k2 = k with 1 <= ki <= ni
    of table[n1, k1] + table[n2, k2] bounds the maximum from below. Returns
    None for k = 1, which admits no split.
    """
    if k < 1 or n < k:
        raise ValueError("recurrence needs n >= k >= 1")
    best: int | None = None
    for k1 in range(1, k):
        k2 = k - k1
        for n1 in range(k1, n - k2 + 1):
            n2 = n - n1
            for key in ((n1, k1), (n2, k2)):
                if key not in table:
                    raise KeyError(f"recurrence table is missing entry {key}")
            value = table[n1, k1] + table[n2, k2]
            if best is None or value > best:
                best = value
    return best


# -- dihedral symmetries ----------------------------------------------------------


_SQUARE_OPS: tuple[tuple[str, ...], ...] = (
    (), ("h",), ("v",), ("h", "v"),
    ("t",), ("t", "h"), ("t", "v"), ("t", "h", "v"),
)
_RECT_OPS: tuple[tuple[str, ...], ...] = ((), ("h",), ("v",), ("h", "v"))


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
    """Generator sequences of mat's symmetry group: all eight when square, else four."""
    return _SQUARE_OPS if mat.rows == mat.cols else _RECT_OPS


def dihedral_class(pattern: BitMatrix) -> frozenset[BitMatrix]:
    """Orbit under row reversal, column reversal, and (square only) transposition."""
    return frozenset(apply_symmetry(pattern, seq) for seq in symmetry_ops(pattern))


def canonical_form(pattern: BitMatrix) -> BitMatrix:
    """The orbit member with the lexicographically least text form."""
    return canonical_with_ops(pattern)[0]


def canonical_with_ops(pattern: BitMatrix) -> tuple[BitMatrix, tuple[str, ...]]:
    """The orbit member with the least text form, and the first sequence reaching it."""
    return min(
        ((apply_symmetry(pattern, seq), seq) for seq in symmetry_ops(pattern)),
        key=lambda image_seq: serialize(image_seq[0]),
    )


# -- exact search -------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    node_budget: int | None = None
    time_budget: float | None = None
    use_dihedral_reduction: bool = False
    enumerate_all_extremal: bool = False


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


def _row_anchor_requirements(pattern: BitMatrix) -> list[tuple[int, int, int, int, int, int]]:
    # For each pattern 1-entry (y, x): rows needed above and below, and the
    # ones/zeros the anchored matrix row must offer left and right of the
    # anchored column. Necessary conditions only.
    s, t = pattern.rows, pattern.cols
    reqs = []
    for y, x in pattern.iter_ones():
        row = pattern.bits[y]
        ones_left = (row & ((1 << x) - 1)).bit_count()
        ones_right = (row >> (x + 1)).bit_count()
        reqs.append((
            y, s - 1 - y,
            ones_left, x - ones_left,
            ones_right, (t - 1 - x) - ones_right,
        ))
    return reqs


def _row_mask_admissible(ones_mask: int, i: int, n: int, reqs) -> bool:
    # Every 1 in this row needs some anchor whose row-local demands fit.
    mask = ones_mask
    while mask:
        low = mask & -mask
        mask ^= low
        c = low.bit_length() - 1
        left = ones_mask & (low - 1)
        ones_l = left.bit_count()
        zeros_l = c - ones_l
        ones_r = (ones_mask >> (c + 1)).bit_count()
        zeros_r = (n - 1 - c) - ones_r
        for above, below, need_ol, need_zl, need_or, need_zr in reqs:
            if (i >= above and n - 1 - i >= below
                    and ones_l >= need_ol and zeros_l >= need_zl
                    and ones_r >= need_or and zeros_r >= need_zr):
                break
        else:
            return False
    return True


def _min_zero_demand(pattern: BitMatrix) -> tuple[int, int]:
    # Minimum zeros any 1-bearing row (resp. column) of a strongly forcing
    # matrix must carry: the scarcest zero count among pattern rows (columns)
    # that hold a 1.
    zr = min(
        pattern.cols - row.bit_count() for row in pattern.bits if row
    )
    tp = pattern.transpose()
    zc = min(
        tp.cols - col.bit_count() for col in tp.bits if col
    )
    return zr, zc


def _baseline_witness(n: int, pattern: BitMatrix) -> BitMatrix:
    """Best known-by-construction strongly forcing matrix, checked before use.

    Construction witnesses for a base pattern transfer to every member of
    its dihedral class: when g maps the pattern onto the base, the inverse
    image of the base witness strongly forces the pattern.
    """
    candidates = [make(n, n, 0), linear_zero_construction(n, n, pattern)]
    k = pattern.rows
    bases: list[tuple[BitMatrix, BitMatrix]] = []
    if pattern.rows == pattern.cols and is_permutation_matrix(pattern) and n >= k >= 2:
        bases.append((identity(k), extremal_identity_witness(n, k)))
        if k == 3:
            bases.append((permutation_matrix((0, 2, 1)), extremal_132_witness(n)))
    for base_pattern, base_witness in bases:
        for seq in symmetry_ops(pattern):
            if apply_symmetry(pattern, seq) == base_pattern:
                candidates.append(apply_symmetry(base_witness, tuple(reversed(seq))))
                break
    best = None
    for cand in candidates:
        if is_strongly_forcing(cand, pattern):
            if best is None or cand.ones_count() > best.ones_count():
                best = cand
    assert best is not None  # the all-zero matrix always qualifies
    return best


def search_max(n: int, pattern: BitMatrix, config: SearchConfig | None = None,
               cache: "ResultsCache | None" = None) -> SearchOutcome:
    """Exact maximum ones over strongly forcing n x n matrices.

    Iterates target ones counts downward from a necessary-condition upper
    bound; each level runs a depth-first placement of the complementary
    zeros, row by row, pruned by per-row anchor demands and per-column zero
    deficits. The first level holding a verified matrix is the maximum, so
    status "exact" certifies optimality. Construction lower bounds cap the
    descent and provide the reported result when a budget runs out.

    With enumerate_all_extremal the whole maximum level set is collected;
    witnesses are always sorted by text form. nodes_explored counts every
    candidate row zero mask tried, including those the row anchor test
    rejects; it is deterministic.
    """
    config = config or SearchConfig()
    s, t = pattern.rows, pattern.cols
    if pattern.ones_count() == 0:
        raise ValueError("pattern must contain at least one 1-entry")
    if n < s or n < t:
        raise ValueError(f"pattern {s}x{t} does not fit in {n}x{n}")
    if n > 16:
        raise ValueError("exact search supports orders up to 16")

    if config.use_dihedral_reduction:
        canon, ops = canonical_with_ops(pattern)
        if canon != pattern:
            base = search_max(n, canon, replace(config, use_dihedral_reduction=False), cache)
            inv = tuple(reversed(ops))
            mapped = tuple(sorted(
                (apply_symmetry(w, inv) for w in base.witnesses), key=serialize
            ))
            return replace(base, witnesses=mapped)
        config = replace(config, use_dihedral_reduction=False)

    if cache is not None:
        hit = cache.get(n, pattern, need_all_extremal=config.enumerate_all_extremal)
        if hit is not None:
            return hit

    outcome = _descend(n, pattern, config)
    if cache is not None and outcome.status == STATUS_EXACT:
        cache.put(n, pattern, outcome, all_extremal=config.enumerate_all_extremal)
        cache.save()
    return outcome


def _descend(n: int, pattern: BitMatrix, config: SearchConfig) -> SearchOutcome:
    start = time.monotonic()
    deadline = start + config.time_budget if config.time_budget is not None else None
    zr, zc = _min_zero_demand(pattern)
    upper = n * n - n * max(zr, zc)
    baseline = _baseline_witness(n, pattern)
    floor = baseline.ones_count()

    reqs = _row_anchor_requirements(pattern)
    full = (1 << n) - 1
    q_ones = list(pattern.iter_ones())
    qbits, s, t = pattern.bits, pattern.rows, pattern.cols

    # Candidate zero masks per row class and zero count, in increasing mask
    # order, each flagged by the row anchor test; built on first use. The
    # class (min(i, s), min(n-1-i, s)) fixes the test, since no anchor needs
    # s or more rows on either side.
    candidate_lists: dict[tuple[int, int, int], list[tuple[int, bool]]] = {}

    def candidates(i: int, z: int) -> list[tuple[int, bool]]:
        key = (min(i, s), min(n - 1 - i, s), z)
        got = candidate_lists.get(key)
        if got is None:
            masks = sorted(sum(1 << c for c in cols) for cols in combinations(range(n), z))
            got = candidate_lists[key] = [
                (zmask, zmask == full or _row_mask_admissible(full & ~zmask, i, n, reqs))
                for zmask in masks
            ]
        return got

    nodes = 0
    found: list[BitMatrix] = []

    def level(target: int) -> bool:
        zeros_total = n * n - target
        if zeros_total < n * zr or zeros_total < n * zc:
            return False
        chosen = [0] * n

        def place(i: int, zeros_left: int, col_ones: int, reached: tuple[int, ...]) -> bool:
            # reached[j] holds the columns with more than j zeros so far; a
            # column with a 1 needs zc zeros, i.e. membership in reached[zc-1].
            nonlocal nodes
            if i == n:
                abits = tuple(full & ~z for z in chosen)
                if _strongly_forcing_rows(abits, n, n, qbits, s, t, q_ones):
                    found.append(BitMatrix(n, n, abits))
                    return not config.enumerate_all_extremal
                return False
            rows_after = n - i - 1
            # Columns outside reached[last] can no longer reach zc zeros.
            last = zc - 1 - rows_after
            below = (full,) + reached[:-1]
            z_lo = max(zr, zeros_left - rows_after * n)
            z_hi = min(n, zeros_left - rows_after * zr)
            for z in range(z_lo, z_hi + 1):
                for zmask, admissible in candidates(i, z):
                    nodes += 1
                    if config.node_budget is not None and nodes > config.node_budget:
                        raise _BudgetExhausted
                    if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
                        raise _BudgetExhausted
                    if not admissible:
                        continue
                    ones = col_ones | (full ^ zmask)
                    nxt = tuple([r | (b & zmask) for b, r in zip(below, reached)])
                    if last >= 0 and ones & ~nxt[last]:
                        continue
                    deficit = sum([(ones & ~r).bit_count() for r in nxt])
                    if deficit <= zeros_left - z:
                        chosen[i] = zmask
                        if place(i + 1, zeros_left - z, ones, nxt):
                            return True
            return False

        place(0, zeros_total, 0, (0,) * zc)
        return bool(found)

    try:
        for target in range(upper, floor - 1, -1):
            if level(target):
                witnesses = tuple(sorted(found, key=serialize))
                return SearchOutcome(
                    STATUS_EXACT, target, witnesses, nodes, time.monotonic() - start
                )
        raise AssertionError("descent passed the construction floor without a witness")
    except _BudgetExhausted:
        if found:
            best = max(w.ones_count() for w in found)
            witnesses = tuple(sorted(
                (w for w in found if w.ones_count() == best), key=serialize
            ))
        else:
            best = floor
            witnesses = (baseline,)
        return SearchOutcome(STATUS_BUDGET, best, witnesses, nodes, time.monotonic() - start)


# -- results cache ----------------------------------------------------------------


class ResultsCache:
    """JSON-backed store of exact search outcomes, keyed by order and pattern.

    The key is the order, a colon, then the pattern rows as 0/1 text joined
    by "/", e.g. "6:1000/0100/0010/0001". Only exact outcomes are stored;
    entries remember whether they hold the complete extremal level set.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.entries: dict[str, dict] = {}
        if self.path.exists():
            self.entries = json.loads(self.path.read_text())

    @staticmethod
    def key(n: int, pattern: BitMatrix) -> str:
        return f"{n}:" + str(pattern).replace("\n", "/")

    def get(self, n: int, pattern: BitMatrix, need_all_extremal: bool = False) -> SearchOutcome | None:
        entry = self.entries.get(self.key(n, pattern))
        if entry is None:
            return None
        if need_all_extremal and not entry.get("all_extremal", False):
            return None
        return SearchOutcome(
            status=entry["status"],
            best_ones=entry["best_ones"],
            witnesses=tuple(parse(text) for text in entry["witnesses"]),
            nodes_explored=entry["nodes_explored"],
            elapsed=entry["elapsed_ms"] / 1000.0,
        )

    def put(self, n: int, pattern: BitMatrix, outcome: SearchOutcome, all_extremal: bool) -> None:
        record = outcome.to_json_dict()
        record["all_extremal"] = all_extremal
        self.entries[self.key(n, pattern)] = record

    def save(self) -> None:
        self.path.write_text(json.dumps(self.entries, indent=2, sort_keys=True) + "\n")

