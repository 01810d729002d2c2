"""run_suite: the one place that grades and times verify-suite claims."""

from types import SimpleNamespace

from mforce import verification
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
