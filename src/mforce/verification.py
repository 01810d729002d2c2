"""Named verification suites re-deriving the package's exact results.

Each suite replays one family of claims (formula agreement, extremal values,
symmetry transfer, bound consistency) against independent recomputation and
returns tabular rows. Suites aggregate instances into one row per checked
statement so tables stay readable at CLI scale.

Every suite takes the same keywords, n_max (ambient order) and k_max
(pattern order), each with the suite's own default; a suite whose instances
do not vary in one of them ignores it. run_suite is the single entry point,
used by `mforce verify`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Callable

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
    extremal_123_witness,
    extremal_132_witness,
    extremal_2x2,
    extremal_identity_witness,
    is_strongly_forcing,
    recurrence_lower_bound,
    search_max,
    symmetry_ops,
    upper_bound_3x3,
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
        return {
            "theorem_id": self.theorem_id,
            "instance": self.instance,
            "expected": self.expected,
            "actual": self.actual,
            "status": self.status,
            "millis": self.millis,
        }


def _row(theorem_id: str, instance: str, expected: str, actual: str,
         started: float, status: str | None = None) -> VerifyRow:
    if status is None:
        status = PASS if expected == actual else FAIL
    return VerifyRow(
        theorem_id, instance, expected, actual, status,
        int((time.monotonic() - started) * 1000),
    )


def _small_patterns(max_rows: int = 3, max_cols: int = 3) -> list[BitMatrix]:
    pats = []
    for s in range(1, max_rows + 1):
        for t in range(1, max_cols + 1):
            for bits in product(range(1 << t), repeat=s):
                q = BitMatrix(s, t, tuple(bits))
                if q.ones_count():
                    pats.append(q)
    return pats


def suite_lemma21(n_max: int = 7, k_max: int | None = None) -> list[VerifyRow]:
    """Window construction equals the all-placements oracle, all patterns <= 3x3."""
    rows = []
    pats = _small_patterns()
    for m in range(4, n_max + 1):
        for n in range(4, n_max + 1):
            started = time.monotonic()
            agree = 0
            first_bad = ""
            for q in pats:
                if minimal_forcing(m, n, q) == oracle_minimal_forcing(m, n, q):
                    agree += 1
                elif not first_bad:
                    first_bad = f" first disagreement {q.rows}x{q.cols}:{q.bits}"
            rows.append(_row(
                "window-equals-oracle", f"m={m},n={n}",
                f"{len(pats)}/{len(pats)} agree",
                f"{agree}/{len(pats)} agree{first_bad}", started,
            ))
    return rows


def suite_formulas(n_max: int = 7, k_max: int | None = None) -> list[VerifyRow]:
    """Closed-form minimum counts match the window construction wherever they apply."""
    rows = []
    pats = _small_patterns()
    for m in range(4, n_max + 1):
        for n in range(4, n_max + 1):
            started = time.monotonic()
            checked = 0
            agree = 0
            first_bad = ""
            for q in pats:
                s, t = q.rows, q.cols
                if m < 2 * s or n < 2 * t:
                    continue
                truth = minimal_forcing(m, n, q).ones_count()
                values = [min_ones_general(m, n, q), min_ones_core(m, n, q),
                          min_ones(m, n, q).value]
                if core(q).core == q:
                    values.append(min_ones_boundary(m, n, q))
                checked += 1
                if all(v == truth for v in values):
                    agree += 1
                elif not first_bad:
                    first_bad = f" first disagreement {q.rows}x{q.cols}:{q.bits}"
            rows.append(_row(
                "closed-forms-match-window", f"m={m},n={n}",
                f"{checked}/{checked} agree",
                f"{agree}/{checked} agree{first_bad}", started,
            ))
    return rows


def suite_perm_bounds(n_max: int | None = None, k_max: int = 5) -> list[VerifyRow]:
    """Forcing-minimum bounds over permutation patterns, with extremal classification."""
    rows = []
    for k in range(2, min(k_max, 4) + 1):
        n = 2 * k
        started = time.monotonic()
        bound = perm_min_bound(n, k)
        ok = True
        attained = []
        detail = ""
        for p in all_permutation_matrices(k):
            value = min_ones(n, n, p).value
            if value < bound:
                ok = False
                detail = f" below bound at {permutation_of(p)}"
            if (value == bound) != perm_min_equality(p):
                ok = False
                detail = f" misclassified {permutation_of(p)}"
            if value == bound:
                attained.append(p)
        expected = f"min {bound} attained by exactly {{identity, anti-identity}}"
        actual = expected if ok and len(attained) == 2 else f"violations:{detail or ' count ' + str(len(attained))}"
        rows.append(_row("perm-min-bound", f"k={k},n={n}", expected, actual, started))
    for k in range(1, k_max + 1):
        n = 2 * k + 2
        started = time.monotonic()
        formula = perm_max_m(n, k)
        best = max(min_ones(n, n, p).value for p in all_permutation_matrices(k))
        classified = True
        if k >= 4:
            classified = all(
                perm_max_extremal(p) == (min_ones(n, n, p).value == best)
                for p in all_permutation_matrices(k)
            )
        expected = f"max {formula}" + (", quadruple classification" if k >= 4 else "")
        actual = f"max {best}" + (
            (", quadruple classification" if classified else ", misclassified") if k >= 4 else ""
        )
        rows.append(_row("perm-min-maximum", f"k={k},n={n}", expected, actual, started))
    return rows


def suite_2x2(n_max: int = 6, k_max: int | None = None) -> list[VerifyRow]:
    """Maximum ones for the 2x2 permutation patterns, value and uniqueness."""
    rows = []
    for n in range(2, min(n_max, 4) + 1):  # the oracle sweeps stop at n = 4
        started = time.monotonic()
        best, level = oracle_max_strong(n, identity(2))
        unique = len(level) == 1 and level[0] == extremal_2x2(n, "i2")
        rows.append(_row(
            "max-strong-2x2-sweep", f"n={n},pattern=i2",
            f"{n * n - n}, unique complement of anti-identity",
            f"{best}, {'unique complement of anti-identity' if unique else 'level size ' + str(len(level))}",
            started,
        ))
    for variant, pat in (("i2", identity(2)), ("h2", hankel(2))):
        for n in range(2, n_max + 1):
            started = time.monotonic()
            out = search_max(n, pat, SearchConfig(enumerate_all_extremal=True))
            unique = (len(out.witnesses) == 1
                      and out.witnesses[0] == extremal_2x2(n, variant))
            rows.append(_row(
                "max-strong-2x2-search", f"n={n},pattern={variant}",
                f"exact {n * n - n}, unique",
                f"{out.status} {out.best_ones}, {'unique' if unique else str(len(out.witnesses)) + ' witnesses'}",
                started,
            ))
    return rows


def suite_3x3(n_max: int = 5, k_max: int | None = None) -> list[VerifyRow]:
    """Maximum ones n^2-3n+3 for all six 3x3 permutation patterns."""
    rows = []
    for p in all_permutation_matrices(3):
        word = "".join(str(i + 1) for i in permutation_of(p))
        if n_max >= 4:
            started = time.monotonic()
            o4, _ = oracle_max_strong(4, p)
            rows.append(_row(
                "max-strong-3x3-sweep", f"n=4,pattern={word}", "7", str(o4), started,
            ))
        for n in range(4, n_max + 1):
            started = time.monotonic()
            out = search_max(n, p)
            rows.append(_row(
                "max-strong-3x3-search", f"n={n},pattern={word}",
                f"exact {n * n - 3 * n + 3}",
                f"{out.status} {out.best_ones}", started,
            ))
    for n in range(3, CONSTRUCTION_N_MAX + 1):
        started = time.monotonic()
        s_n = extremal_123_witness(n)
        ok = (s_n.ones_count() == upper_bound_3x3(n)
              and is_strongly_forcing(s_n, identity(3)))
        rows.append(_row(
            "construction-123", f"n={n}",
            f"{upper_bound_3x3(n)} ones, strongly forcing",
            f"{s_n.ones_count()} ones, {'strongly forcing' if ok else 'NOT strongly forcing'}",
            started,
        ))
        started = time.monotonic()
        t_n = extremal_132_witness(n)
        ok = (t_n.ones_count() == upper_bound_3x3(n)
              and is_strongly_forcing(t_n, named("b3")))
        rows.append(_row(
            "construction-132", f"n={n}",
            f"{upper_bound_3x3(n)} ones, strongly forcing",
            f"{t_n.ones_count()} ones, {'strongly forcing' if ok else 'NOT strongly forcing'}",
            started,
        ))
    return rows


def suite_dihedral(n_max: int = 4, k_max: int | None = None) -> list[VerifyRow]:
    """Symmetry transfer at order n_max: equal maxima and mapped witness sets per class."""
    rows = []
    classes = ((named("i3"), named("h3")),
               (named("b3"), named("c3"), named("d3"), named("e3")))
    for members in classes:
        outcomes = {}
        for p in members:
            outcomes[p] = search_max(n_max, p, SearchConfig(enumerate_all_extremal=True))
        words = [
            "".join(str(i + 1) for i in permutation_of(p)) for p in members
        ]
        started = time.monotonic()
        values = {out.best_ones for out in outcomes.values()}
        rows.append(_row(
            "dihedral-equal-maxima", "class={" + ",".join(words) + "}," + f"n={n_max}",
            "one shared maximum",
            f"maxima {sorted(values)}", started,
            status=PASS if len(values) == 1 else FAIL,
        ))
        started = time.monotonic()
        transfers = 0
        failures = 0
        for p in members:
            for seq in symmetry_ops(p):
                image = apply_symmetry(p, seq)
                if image not in outcomes:
                    continue
                mapped = {serialize(apply_symmetry(w, seq)) for w in outcomes[p].witnesses}
                target = {serialize(w) for w in outcomes[image].witnesses}
                transfers += 1
                if mapped != target:
                    failures += 1
        rows.append(_row(
            "dihedral-witness-transfer", "class={" + ",".join(words) + "}," + f"n={n_max}",
            f"{transfers}/{transfers} witness sets map exactly",
            f"{transfers - failures}/{transfers} witness sets map exactly", started,
        ))
    return rows


def exact_max_identity(n: int, k: int) -> int | None:
    """Known-exact maximum for the k x k identity, None when open."""
    if k == 1:
        return n * n
    if k == 2 and n >= 2:
        return n * n - n
    if k == 3 and n >= 3:
        return upper_bound_3x3(n)
    if k == n:
        return k
    return None


def conjecture_table(n_max: int, k_max: int) -> dict[tuple[int, int], int]:
    """Best known lower bounds for the identity maxima, recurrence-saturated."""
    table: dict[tuple[int, int], int] = {}
    for n in range(1, n_max + 1):
        for k in range(1, min(n, k_max) + 1):
            exact = exact_max_identity(n, k)
            if exact is not None:
                table[n, k] = exact
                continue
            best = conjectured_max_identity(n, k)
            rec = recurrence_lower_bound(n, k, table)
            if rec is not None and rec > best:
                best = rec
            table[n, k] = best
    return table


def suite_conjecture(n_max: int = 12, k_max: int = 6) -> list[VerifyRow]:
    """Evidence table for the conjectured identity maxima.

    Each (n, k) row reports the construction and recurrence lower bounds and
    the simple upper bound; a search verdict appears only when the exact
    search finishes within its node budget. Rows without an exact value
    carry status "open": they are evidence, not verification.
    """
    rows = []
    table = conjecture_table(n_max, k_max)
    for k in range(3, k_max + 1):
        for n in range(k, n_max + 1):
            started = time.monotonic()
            conj = conjectured_max_identity(n, k)
            witness = extremal_identity_witness(n, k)
            built_ok = (witness.ones_count() == conj
                        and is_strongly_forcing(witness, identity(k)))
            rec = recurrence_lower_bound(n, k, table)
            ub = upper_bound_simple(n, k)
            bounds_ok = built_ok and conj <= ub and (rec is None or rec <= ub)
            exact = exact_max_identity(n, k)
            if exact is None and n * n <= CONJECTURE_SEARCH_MAX_AREA:
                out = search_max(n, identity(k), SearchConfig(node_budget=CONJECTURE_NODE_BUDGET))
                if out.status == "exact":
                    exact = out.best_ones
            lo = max(conj, rec or 0)
            if exact is not None:
                expected = f"max {conj}"
                actual = f"max {exact}" if bounds_ok else f"max {exact}, bound violation"
                status = PASS if expected == actual else FAIL
            else:
                expected = f"conjectured {conj}"
                actual = f"{lo} <= max <= {ub}"
                status = OPEN if bounds_ok and lo <= ub else FAIL
            rows.append(_row(
                "conjecture-identity-max", f"n={n},k={k}", expected, actual,
                started, status=status,
            ))
    return rows


SUITES: dict[str, Callable[..., list[VerifyRow]]] = {
    "lemma21": suite_lemma21,
    "formulas": suite_formulas,
    "perm-bounds": suite_perm_bounds,
    "2x2": suite_2x2,
    "3x3": suite_3x3,
    "dihedral": suite_dihedral,
    "conjecture": suite_conjecture,
}


def run_suite(name: str, n_max: int | None = None, k_max: int | None = None) -> list[VerifyRow]:
    """Run a named suite; a limit left as None keeps the suite's default."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {sorted(SUITES)}")
    limits = {"n_max": n_max, "k_max": k_max}
    return SUITES[name](**{key: value for key, value in limits.items() if value is not None})
