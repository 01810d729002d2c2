"""run_suite, the one place that grades and times verify-suite claims, and
real suites reporting fail when the result they check is broken."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from mforce import BitMatrix, identity, named, verification
from mforce.verification import FAIL, OPEN, PASS, run_suite


def test_run_suite_grades_times_and_keeps_order(monkeypatch):
    clock = SimpleNamespace(now=10.0)
    monkeypatch.setattr(verification, "time", SimpleNamespace(monotonic=lambda: clock.now))
    calls = []

    def stub(**limits):
        calls.append(limits)
        clock.now += 0.5  # setup before the first claim counts toward it
        yield "same", "a", "1", "1"
        yield "differ", "b", "1", "2"
        clock.now += 0.25
        yield "given", "c", "conjectured 3", "2 <= max <= 4", OPEN
        yield "given", "d", "x", "x", FAIL

    monkeypatch.setitem(verification.SUITES, "stub", stub)
    rows = run_suite("stub")
    assert [(r.theorem_id, r.instance, r.status, r.millis) for r in rows] == [
        ("same", "a", PASS, 500), ("differ", "b", FAIL, 0),
        ("given", "c", OPEN, 250), ("given", "d", FAIL, 0),
    ]
    assert all(type(r.millis) is int for r in rows)
    assert rows[0].to_json_dict() == {
        "theorem_id": "same", "instance": "a", "expected": "1", "actual": "1",
        "status": PASS, "millis": 500,
    }

    run_suite("stub", n_max=3)
    run_suite("stub", k_max=2)
    assert calls == [{}, {"n_max": 3}, {"k_max": 2}]


def test_a_suite_without_claims_is_an_error(monkeypatch):
    monkeypatch.setitem(verification.SUITES, "stub", lambda **limits: iter(()))
    with pytest.raises(ValueError, match=r"suite 'stub' yields no claim at n_max=3"):
        run_suite("stub", n_max=3)
    with pytest.raises(ValueError, match=r"suite 'stub' yields no claim at its default limits"):
        run_suite("stub")


def test_an_unknown_suite_is_an_error():
    with pytest.raises(ValueError, match=r"unknown suite 'nope', expected one of \['2x2', "):
        run_suite("nope")


def _failing(rows):
    return sorted({(r.theorem_id, r.instance) for r in rows if r.status == FAIL})


def _clear_first_one(mat):
    r = next(i for i, row in enumerate(mat.bits) if row)
    bits = list(mat.bits)
    bits[r] &= bits[r] - 1
    return BitMatrix(mat.rows, mat.cols, tuple(bits))


def test_lemma21_fails_when_the_window_construction_is_off_by_one(monkeypatch):
    real = verification.minimal_forcing

    def off_by_one(m, n, q):
        out = real(m, n, q)
        return _clear_first_one(out) if q == identity(2) else out

    monkeypatch.setattr(verification, "minimal_forcing", off_by_one)
    assert _failing(run_suite("lemma21", n_max=4)) == [("window-equals-oracle", "m=4,n=4")]


def test_3x3_fails_when_the_oracle_finds_one_less(monkeypatch):
    real = verification.oracle_max_strong

    def one_less(n, pattern):
        best, level = real(n, pattern)
        return best - 1, level

    monkeypatch.setattr(verification, "oracle_max_strong", one_less)
    failing = _failing(run_suite("3x3", n_max=4))
    assert [theorem_id for theorem_id, _ in failing] == ["max-strong-3x3-sweep"] * 6


def test_dihedral_fails_when_one_member_loses_a_witness(monkeypatch):
    real = verification.search_max

    def drop_one(n, pattern, config=None, cache=None):
        out = real(n, pattern, config, cache)
        return replace(out, witnesses=out.witnesses[1:]) if pattern == named("c3") else out

    monkeypatch.setattr(verification, "search_max", drop_one)
    assert _failing(run_suite("dihedral", n_max=4)) == [
        ("dihedral-witness-transfer", "class={132,213,231,312},n=4"),
    ]


def test_conjecture_fails_when_the_construction_loses_a_one(monkeypatch):
    real = verification.extremal_identity_witness
    monkeypatch.setattr(verification, "extremal_identity_witness",
                        lambda n, k: _clear_first_one(real(n, k)))
    rows = run_suite("conjecture", n_max=5, k_max=4)
    assert rows and all(r.status == FAIL for r in rows)


@pytest.mark.parametrize("patch, detail", [
    ("perm_min_bound", " below bound at (0, 1, 2)"),
    ("perm_min_equality", " misclassified (0, 1, 2)"),
], ids=["below-bound", "misclassified"])
def test_perm_bounds_reports_the_first_violation(monkeypatch, patch, detail):
    # A bound one too high puts the identity, the first permutation, below
    # it; a classifier that never answers yes misses the identity first. A
    # later violation (the anti-identity's misclassification, with the bound
    # raised) must not overwrite it.
    real_bound = verification.perm_min_bound
    fakes = {"perm_min_bound": lambda n, k: real_bound(n, k) + 1,
             "perm_min_equality": lambda p: False}
    monkeypatch.setattr(verification, patch, fakes[patch])
    rows = [r for r in run_suite("perm-bounds", k_max=3) if r.theorem_id == "perm-min-bound"]
    assert [(r.instance, r.status) for r in rows] == [("k=2,n=4", FAIL), ("k=3,n=6", FAIL)]
    assert rows[1].actual == "violations:" + detail
