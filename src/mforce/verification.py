"""Named verification suites re-deriving the package's exact results.

Each suite replays one family of claims (formula agreement, extremal values,
symmetry transfer, bound consistency) against independent recomputation and
yields one (theorem_id, instance, expected, actual) claim per checked
statement, so tables stay readable at CLI scale.

Every suite takes the same keywords, n_max (ambient order) and k_max
(pattern order), each with the suite's own default; a suite whose instances
do not vary in one of them ignores it. run_suite is the single entry point,
used by `mforce verify`, and the only place that turns claims into rows: it
grades each claim and stamps its millis with the suite's work since the
previous row, so setup a suite does before its first claim (the dihedral
searches) counts toward the row after it.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from itertools import product
from typing import Callable, Iterator

from .bitmatrix import BitMatrix, hankel, identity, serialize
from .forcing import (
    core,
    min_ones,
    min_ones_boundary,
    min_ones_core,
    min_ones_general,
    minimal_forcing,
    perm_max_extremal,
    perm_max_m,
    perm_min_bound,
    perm_min_equality,
)
from .oracle import oracle_max_strong, oracle_minimal_forcing
from .patterns import all_permutation_matrices, named, permutation_of
from .strong_forcing import (
    SearchConfig,
    apply_symmetry,
    conjectured_max_identity,
    extremal_132_witness,
    extremal_identity_witness,
    is_strongly_forcing,
    search_max,
    split_witness,
    symmetry_ops,
    upper_bound_simple,
)

PASS = "pass"
FAIL = "fail"
OPEN = "open"

# Largest order of the 3x3-suite construction checks.
CONSTRUCTION_N_MAX = 12
# The conjecture suite searches only orders with n^2 <= this, within this many nodes.
CONJECTURE_SEARCH_MAX_AREA = 36
CONJECTURE_NODE_BUDGET = 8_000_000


@dataclass(frozen=True)
class VerifyRow:
    theorem_id: str
    instance: str
    expected: str
    actual: str
    status: str
    millis: int

    def to_json_dict(self) -> dict:
        return asdict(self)


# What a suite yields: (theorem_id, instance, expected, actual), plus a status
# only where the claim is not graded by expected == actual.
Claim = tuple[str, ...]


def _word(perm_matrix: BitMatrix) -> str:
    """One-line notation of a permutation matrix, e.g. "132"."""
    return "".join(str(i + 1) for i in permutation_of(perm_matrix))


def _small_patterns() -> list[BitMatrix]:
    pats = []
    for s in range(1, 4):
        for t in range(1, 4):
            for bits in product(range(1 << t), repeat=s):
                q = BitMatrix(s, t, tuple(bits))
                if q.ones_count():
                    pats.append(q)
    return pats


def _agreement(theorem_id: str, n_max: int,
               applies: Callable[[int, int, BitMatrix], bool],
               agrees: Callable[[int, int, BitMatrix], bool]) -> Iterator[Claim]:
    """One claim per m x n (4 <= m, n <= n_max): agrees holds for every pattern <= 3x3 it applies to."""
    pats = _small_patterns()
    for m in range(4, n_max + 1):
        for n in range(4, n_max + 1):
            checked = agree = 0
            first_bad = ""
            for q in pats:
                if not applies(m, n, q):
                    continue
                checked += 1
                if agrees(m, n, q):
                    agree += 1
                elif not first_bad:
                    first_bad = f" first disagreement {q.rows}x{q.cols}:{q.bits}"
            yield (theorem_id, f"m={m},n={n}", f"{checked}/{checked} agree",
                   f"{agree}/{checked} agree{first_bad}")


def suite_lemma21(n_max: int = 7, k_max: int | None = None) -> Iterator[Claim]:
    """Window construction equals the all-placements oracle, all patterns <= 3x3."""
    return _agreement(
        "window-equals-oracle", n_max, lambda m, n, q: True,
        lambda m, n, q: minimal_forcing(m, n, q) == oracle_minimal_forcing(m, n, q),
    )


def _closed_forms_agree(m: int, n: int, q: BitMatrix) -> bool:
    truth = minimal_forcing(m, n, q).ones_count()
    values = [min_ones_general(m, n, q), min_ones_core(m, n, q), min_ones(m, n, q).value]
    if core(q).core == q:
        values.append(min_ones_boundary(m, n, q))
    return all(v == truth for v in values)


def suite_formulas(n_max: int = 7, k_max: int | None = None) -> Iterator[Claim]:
    """Closed-form minimum counts match the window construction wherever they apply."""
    return _agreement(
        "closed-forms-match-window", n_max,
        lambda m, n, q: m >= 2 * q.rows and n >= 2 * q.cols, _closed_forms_agree,
    )


def suite_perm_bounds(n_max: int | None = None, k_max: int = 5) -> Iterator[Claim]:
    """Forcing-minimum bounds over permutation patterns, with extremal classification."""
    for k in range(2, min(k_max, 4) + 1):
        n = 2 * k
        bound = perm_min_bound(n, k)
        attained = []
        detail = ""  # the first violation, as _agreement keeps its first_bad
        for p in all_permutation_matrices(k):
            value = min_ones(n, n, p).value
            fault = ("below bound at" if value < bound else
                     "misclassified" if (value == bound) != perm_min_equality(p) else "")
            if fault and not detail:
                detail = f" {fault} {permutation_of(p)}"
            if value == bound:
                attained.append(p)
        expected = f"min {bound} attained by exactly {{identity, anti-identity}}"
        actual = expected if not detail and len(attained) == 2 else f"violations:{detail or ' count ' + str(len(attained))}"
        yield "perm-min-bound", f"k={k},n={n}", expected, actual
    for k in range(1, k_max + 1):
        n = 2 * k + 2
        formula = perm_max_m(n, k)
        values = {p: min_ones(n, n, p).value for p in all_permutation_matrices(k)}
        best = max(values.values())
        classified = k < 4 or all(perm_max_extremal(p) == (value == best)
                                  for p, value in values.items())
        expected = f"max {formula}" + (", quadruple classification" if k >= 4 else "")
        actual = f"max {best}" + (
            (", quadruple classification" if classified else ", misclassified") if k >= 4 else ""
        )
        yield "perm-min-maximum", f"k={k},n={n}", expected, actual


def suite_2x2(n_max: int = 6, k_max: int | None = None) -> Iterator[Claim]:
    """Maximum ones for the 2x2 permutation patterns, value and uniqueness."""
    for n in range(2, min(n_max, 4) + 1):  # the oracle sweeps stop at n = 4
        best, level = oracle_max_strong(n, identity(2))
        unique = len(level) == 1 and level[0] == split_witness(n, identity(2))
        yield (
            "max-strong-2x2-sweep", f"n={n},pattern=i2",
            f"{conjectured_max_identity(n, 2)}, unique complement of anti-identity",
            f"{best}, {'unique complement of anti-identity' if unique else 'level size ' + str(len(level))}",
        )
    for variant, pat in (("i2", identity(2)), ("h2", hankel(2))):
        for n in range(2, n_max + 1):
            out = search_max(n, pat, SearchConfig(enumerate_all_extremal=True))
            unique = len(out.witnesses) == 1 and out.witnesses[0] == split_witness(n, pat)
            yield (
                "max-strong-2x2-search", f"n={n},pattern={variant}",
                f"exact {conjectured_max_identity(n, 2)}, unique",
                f"{out.status} {out.best_ones}, {'unique' if unique else str(len(out.witnesses)) + ' witnesses'}",
            )


def suite_3x3(n_max: int = 5, k_max: int | None = None) -> Iterator[Claim]:
    """Maximum ones n^2-3n+3 for all six 3x3 permutation patterns."""
    for p in all_permutation_matrices(3):
        word = _word(p)
        if n_max >= 4:
            o4, _ = oracle_max_strong(4, p)
            yield "max-strong-3x3-sweep", f"n=4,pattern={word}", str(conjectured_max_identity(4, 3)), str(o4)
        for n in range(4, n_max + 1):
            out = search_max(n, p)
            yield ("max-strong-3x3-search", f"n={n},pattern={word}",
                   f"exact {conjectured_max_identity(n, 3)}", f"{out.status} {out.best_ones}")
    for n in range(3, CONSTRUCTION_N_MAX + 1):
        for theorem_id, witness, pattern in (
            ("construction-123", extremal_identity_witness(n, 3), identity(3)),
            ("construction-132", extremal_132_witness(n), named("b3")),
        ):
            forcing = "strongly forcing" if is_strongly_forcing(witness, pattern) else "NOT strongly forcing"
            yield (theorem_id, f"n={n}", f"{conjectured_max_identity(n, 3)} ones, strongly forcing",
                   f"{witness.ones_count()} ones, {forcing}")


def suite_dihedral(n_max: int = 4, k_max: int | None = None) -> Iterator[Claim]:
    """Symmetry transfer at order n_max: equal maxima and mapped witness sets per class."""
    classes = ((named("i3"), named("h3")),
               (named("b3"), named("c3"), named("d3"), named("e3")))
    for members in classes:
        outcomes = {p: search_max(n_max, p, SearchConfig(enumerate_all_extremal=True))
                    for p in members}
        instance = "class={" + ",".join(map(_word, members)) + "}," + f"n={n_max}"
        values = {out.best_ones for out in outcomes.values()}
        yield ("dihedral-equal-maxima", instance, "one shared maximum",
               f"maxima {sorted(values)}", PASS if len(values) == 1 else FAIL)
        # Each class is a whole dihedral orbit, so every image is a member.
        maps = [{serialize(apply_symmetry(w, seq)) for w in outcomes[p].witnesses}
                == {serialize(w) for w in outcomes[apply_symmetry(p, seq)].witnesses}
                for p in members for seq in symmetry_ops(p)]
        yield ("dihedral-witness-transfer", instance,
               f"{len(maps)}/{len(maps)} witness sets map exactly",
               f"{sum(maps)}/{len(maps)} witness sets map exactly")


def suite_conjecture(n_max: int = 12, k_max: int = 6) -> Iterator[Claim]:
    """Evidence table for the conjectured identity maxima.

    Each (n, k) row reports the construction lower bound and the simple
    upper bound; a search verdict appears only when the exact search
    finishes within its node budget. Rows without an exact value carry
    status "open": they are evidence, not verification.
    """
    for k in range(3, k_max + 1):
        for n in range(k, n_max + 1):
            conj = conjectured_max_identity(n, k)
            witness = extremal_identity_witness(n, k)
            built_ok = (witness.ones_count() == conj
                        and is_strongly_forcing(witness, identity(k)))
            ub = upper_bound_simple(n, k)
            bounds_ok = built_ok and conj <= ub
            # Proven: k = 3 (the 3x3 theorem) and k = n (only the diagonal
            # itself lies in a copy of I_n); every other order is searched.
            exact = conj if k in (3, n) else None
            if exact is None and n * n <= CONJECTURE_SEARCH_MAX_AREA:
                out = search_max(n, identity(k), SearchConfig(node_budget=CONJECTURE_NODE_BUDGET))
                if out.status == "exact":
                    exact = out.best_ones
            if exact is not None:
                actual = f"max {exact}" if bounds_ok else f"max {exact}, bound violation"
                yield "conjecture-identity-max", f"n={n},k={k}", f"max {conj}", actual
            else:
                yield ("conjecture-identity-max", f"n={n},k={k}", f"conjectured {conj}",
                       f"{conj} <= max <= {ub}", OPEN if bounds_ok else FAIL)


SUITES: dict[str, Callable[..., Iterator[Claim]]] = {
    "lemma21": suite_lemma21,
    "formulas": suite_formulas,
    "perm-bounds": suite_perm_bounds,
    "2x2": suite_2x2,
    "3x3": suite_3x3,
    "dihedral": suite_dihedral,
    "conjecture": suite_conjecture,
}


def run_suite(name: str, n_max: int | None = None, k_max: int | None = None) -> list[VerifyRow]:
    """Run a named suite; a limit left as None keeps the suite's default.

    Each claim is graded pass/fail by expected == actual unless it carries
    its own status, and its millis is the suite's work since the previous row.
    A suite that yields no claim at the given limits raises ValueError: an
    empty report is not a pass.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {sorted(SUITES)}")
    limits = {"n_max": n_max, "k_max": k_max}
    claims = SUITES[name](**{key: value for key, value in limits.items() if value is not None})
    rows = []
    last = time.monotonic()
    for theorem_id, instance, expected, actual, *given in claims:
        now = time.monotonic()
        status = given[0] if given else PASS if expected == actual else FAIL
        rows.append(VerifyRow(theorem_id, instance, expected, actual, status,
                              int((now - last) * 1000)))
        last = now
    if not rows:
        given = ", ".join(f"{key}={value}" for key, value in limits.items() if value is not None)
        raise ValueError(f"suite {name!r} yields no claim at {given or 'its default limits'}")
    return rows
