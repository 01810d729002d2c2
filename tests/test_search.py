"""Certified descent search for maximum strongly forcing matrices."""

import itertools

import pytest

from mforce import (
    BitMatrix,
    ResultsCache,
    SearchConfig,
    SearchOutcome,
    extremal_2x2,
    hankel,
    identity,
    is_strongly_forcing,
    make,
    named,
    oracle_max_strong,
    parse,
    search_max,
    serialize,
)


def all_nonzero_patterns(max_side):
    """Every nonzero pattern with at most max_side rows and columns."""
    for s in range(1, max_side + 1):
        for t in range(1, max_side + 1):
            for bits in itertools.product(range(1 << t), repeat=s):
                if any(bits):
                    yield BitMatrix(s, t, bits)


class TestExactValues:
    def test_order_3_i2(self):
        out = search_max(3, identity(2))
        assert out.status == "exact"
        assert out.best_ones == 6
        assert out.witnesses[0] == extremal_2x2(3, "i2")

    def test_order_4_i2_unique_extremal(self):
        out = search_max(4, identity(2), SearchConfig(enumerate_all_extremal=True))
        assert out.best_ones == 12
        assert out.witnesses == (extremal_2x2(4, "i2"),)

    def test_order_5_132(self):
        out = search_max(5, named("b3"))
        assert out.status == "exact"
        assert out.best_ones == 13
        assert is_strongly_forcing(out.witnesses[0], named("b3"))

    def test_single_one_pattern(self):
        out = search_max(3, make(1, 1, 1))
        assert out.best_ones == 9
        assert out.witnesses == (make(3, 3, 1),)

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_sweep_on_2x2_patterns(self, n):
        # At n = 3 this covers all 673 nonzero patterns up to 3x3.
        for q in all_nonzero_patterns(n):
            want_best, want_level = oracle_max_strong(n, q)
            out = search_max(n, q, SearchConfig(enumerate_all_extremal=True))
            assert out.status == "exact"
            assert out.best_ones == want_best
            assert list(out.witnesses) == want_level

    @pytest.mark.slow
    def test_agrees_with_sweep_at_order_4_sample(self):
        sample = [identity(2), hankel(2), parse("11\n00\n"), parse("10\n00\n")]
        for q in sample:
            want_best, want_level = oracle_max_strong(4, q)
            out = search_max(4, q, SearchConfig(enumerate_all_extremal=True))
            assert out.best_ones == want_best
            assert list(out.witnesses) == want_level

    @pytest.mark.slow
    def test_agrees_with_sweep_on_3x3_permutations(self):
        for name in ["i3", "h3", "b3", "c3", "d3", "e3"]:
            q = named(name)
            want_best, want_level = oracle_max_strong(4, q)
            out = search_max(4, q, SearchConfig(enumerate_all_extremal=True))
            assert out.best_ones == want_best
            assert list(out.witnesses) == want_level


class TestWitnessDiscipline:
    def test_witnesses_sorted_by_text_form(self):
        out = search_max(4, identity(3), SearchConfig(enumerate_all_extremal=True))
        texts = [serialize(w) for w in out.witnesses]
        assert texts == sorted(texts)
        assert len(set(texts)) == len(texts)

    def test_all_witnesses_verify(self):
        out = search_max(4, hankel(3), SearchConfig(enumerate_all_extremal=True))
        for w in out.witnesses:
            assert w.ones_count() == out.best_ones
            assert is_strongly_forcing(w, hankel(3))

    def test_repeat_runs_identical_modulo_timing(self):
        first = search_max(4, identity(3))
        second = search_max(4, identity(3))
        assert (first.status, first.best_ones, first.witnesses) == (
            second.status, second.best_ones, second.witnesses,
        )
        assert first.nodes_explored == second.nodes_explored


class TestSearchTree:
    # Exact node counts pin the DFS tree, its order and its budget cut
    # points; a kernel change that alters any of them fails here.
    @pytest.mark.parametrize("n, name, config, status, nodes", [
        (4, "i3", SearchConfig(), "exact", 104),
        (4, "b3", SearchConfig(enumerate_all_extremal=True), "exact", 420),
        (5, "i3", SearchConfig(), "exact", 14_425),
        (5, "i3", SearchConfig(enumerate_all_extremal=True), "exact", 53_120),
        (5, "i4", SearchConfig(), "exact", 1_815),
        (6, "i5", SearchConfig(), "exact", 26_123),
        (5, "i3", SearchConfig(node_budget=1000), "budget_exhausted", 1_001),
    ])
    def test_nodes_explored(self, n, name, config, status, nodes):
        out = search_max(n, named(name), config)
        assert (out.status, out.nodes_explored) == (status, nodes)


class TestBudgets:
    def test_node_budget_returns_construction_floor(self):
        out = search_max(5, identity(3), SearchConfig(node_budget=1))
        assert out.status == "budget_exhausted"
        assert out.best_ones == 13
        assert len(out.witnesses) == 1
        assert is_strongly_forcing(out.witnesses[0], identity(3))

    def test_tiny_time_budget(self):
        out = search_max(6, identity(4), SearchConfig(time_budget=0.0))
        assert out.status == "budget_exhausted"
        assert out.best_ones >= 14  # construction floor is already exact here
        assert is_strongly_forcing(out.witnesses[0], identity(4))

    def test_budget_result_is_a_true_lower_bound(self):
        exact = search_max(4, named("c3")).best_ones
        capped = search_max(4, named("c3"), SearchConfig(node_budget=16))
        assert capped.best_ones <= exact


class TestDihedralReduction:
    @pytest.mark.parametrize("name", ["h3", "c3", "d3", "e3"])
    def test_matches_direct_search(self, name):
        q = named(name)
        direct = search_max(4, q, SearchConfig(enumerate_all_extremal=True))
        reduced = search_max(
            4, q, SearchConfig(enumerate_all_extremal=True, use_dihedral_reduction=True)
        )
        assert reduced.status == "exact"
        assert reduced.best_ones == direct.best_ones
        assert reduced.witnesses == direct.witnesses

    def test_reduction_witnesses_force_the_requested_pattern(self):
        out = search_max(5, named("d3"), SearchConfig(use_dihedral_reduction=True))
        assert out.best_ones == 13
        for w in out.witnesses:
            assert is_strongly_forcing(w, named("d3"))


class TestResultsCache:
    @staticmethod
    def payload(out):
        # Everything except the elapsed wall-clock field, which may not
        # survive the millisecond round trip and is not part of the result.
        return (out.status, out.best_ones, out.witnesses, out.nodes_explored)

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "results.json"
        cache = ResultsCache(path)
        first = search_max(4, identity(2), cache=cache)
        assert path.exists()

        fresh = ResultsCache(path)
        hit = search_max(4, identity(2), cache=fresh)
        assert self.payload(hit) == self.payload(first)

    def test_partial_entry_does_not_serve_all_extremal(self, tmp_path):
        path = tmp_path / "results.json"
        cache = ResultsCache(path)
        search_max(4, identity(3), cache=cache)
        entry = cache.get(4, identity(3))
        assert entry is not None
        assert cache.get(4, identity(3), need_all_extremal=True) is None

        full = search_max(
            4, identity(3), SearchConfig(enumerate_all_extremal=True), cache=cache
        )
        got = cache.get(4, identity(3), need_all_extremal=True)
        assert self.payload(got) == self.payload(full)

    def test_key_forms(self):
        assert ResultsCache.key(6, identity(4)) == "6:1000/0100/0010/0001"
        assert ResultsCache.key(5, parse("2 3\n110\n001\n")) == "5:110/001"
        assert ResultsCache.key(6, named("b3")) != ResultsCache.key(6, named("c3"))
        assert ResultsCache.key(6, identity(2)) != ResultsCache.key(5, identity(2))

    def test_budget_outcomes_are_not_cached(self, tmp_path):
        cache = ResultsCache(tmp_path / "results.json")
        out = search_max(5, identity(3), SearchConfig(node_budget=1), cache=cache)
        assert out.status == "budget_exhausted"
        assert cache.entries == {}


class TestGuards:
    def test_rejects_all_zero_pattern(self):
        with pytest.raises(ValueError):
            search_max(3, make(2, 2, 0))

    def test_rejects_misfit_pattern(self):
        with pytest.raises(ValueError):
            search_max(2, identity(3))

    def test_rejects_oversized_order(self):
        with pytest.raises(ValueError):
            search_max(17, identity(2))

    def test_rectangular_patterns_are_searchable(self):
        q = parse("11\n")
        out = search_max(3, q)
        assert out.status == "exact"
        assert out.best_ones == 9


class TestJsonShape:
    def test_outcome_keys(self):
        out = search_max(3, identity(2))
        data = out.to_json_dict()
        assert set(data) == {
            "status", "best_ones", "witnesses", "nodes_explored", "elapsed_ms",
        }
        assert data["status"] == "exact"
        assert data["best_ones"] == 6
        assert all(isinstance(w, str) for w in data["witnesses"])
        assert isinstance(data["elapsed_ms"], int)

    def test_outcome_is_a_search_outcome(self):
        assert isinstance(search_max(2, identity(2)), SearchOutcome)
