"""Certified branch-and-bound search for maximum strongly forcing matrices."""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_nonzero_patterns, nonzero_patterns
from mforce import (
    ResultsCache,
    SearchConfig,
    SearchOutcome,
    all_permutation_matrices,
    conjectured_max_identity,
    direct_sum,
    hankel,
    identity,
    is_strongly_forcing,
    linear_zero_construction,
    make,
    named,
    oracle_max_strong,
    parse,
    permutation_matrix,
    permutation_of,
    search_max,
    serialize,
    split_witness,
    upper_bound_simple,
)
from mforce.strong_forcing import CACHE_VERSION


class TestExactValues:
    def test_order_3_i2(self):
        out = search_max(3, identity(2))
        assert out.status == "exact"
        assert out.best_ones == 6
        assert out.witnesses[0] == split_witness(3, identity(2))

    def test_order_4_i2_unique_extremal(self):
        out = search_max(4, identity(2), SearchConfig(enumerate_all_extremal=True))
        assert out.best_ones == 12
        assert out.witnesses == (split_witness(4, identity(2)),)

    def test_order_5_132(self):
        out = search_max(5, named("b3"))
        assert out.status == "exact"
        assert out.best_ones == 13
        assert is_strongly_forcing(out.witnesses[0], named("b3"))

    @pytest.mark.parametrize("k, best, nodes", [
        pytest.param(6, 10, 2_154, id="6-10"),
        pytest.param(5, 15, 123_819, id="5-15", marks=pytest.mark.slow),
    ])
    def test_order_7_identity_meets_conjecture(self, k, best, nodes):
        # nodes_explored pins the search tree at the n = 7 frontier.
        out = search_max(7, identity(k))
        assert (out.status, out.best_ones, out.nodes_explored) == ("exact", best, nodes)
        assert best == conjectured_max_identity(7, k)
        assert is_strongly_forcing(out.witnesses[0], identity(k))

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

    def test_agrees_with_sweep_at_order_4_sample(self):
        # Four 2x2 patterns, then a fixed seeded draw of 64 of the 673
        # nonzero patterns up to 3x3.
        sample = [identity(2), hankel(2), parse("11\n00\n"), parse("10\n00\n")]
        sample += random.Random(4).sample(list(all_nonzero_patterns(3)), 64)
        for q in sample:
            want_best, want_level = oracle_max_strong(4, q)
            out = search_max(4, q, SearchConfig(enumerate_all_extremal=True))
            assert out.status == "exact"
            assert out.best_ones == want_best
            assert list(out.witnesses) == want_level

    def test_agrees_with_sweep_on_3x3_permutations(self):
        for name in ("i3", "h3", "b3", "c3", "d3", "e3"):
            want_best, want_level = oracle_max_strong(4, named(name))
            out = search_max(4, named(name), SearchConfig(enumerate_all_extremal=True))
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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: st.tuples(
        st.permutations(range(k)), st.integers(k, 5))))
    def test_permutation_extremal_sets_verify_between_bounds(self, case):
        images, n = case
        p, k = permutation_matrix(images), len(images)
        out = search_max(n, p, SearchConfig(enumerate_all_extremal=True))
        assert out.status == "exact"
        for w in out.witnesses:
            assert is_strongly_forcing(w, p)
            assert w.ones_count() == out.best_ones
        floor = linear_zero_construction(n, n, p).ones_count()
        assert floor <= out.best_ones <= upper_bound_simple(n, k)

    @settings(max_examples=100, deadline=None)
    @given(nonzero_patterns(max_rows=2, max_cols=3).flatmap(lambda q: st.tuples(
        st.just(q), st.integers(max(q.rows, q.cols), 4))))
    def test_general_extremal_sets_verify_and_match_the_sweep(self, case):
        q, n = case
        out = search_max(n, q, SearchConfig(enumerate_all_extremal=True))
        assert out.status == "exact"
        for w in out.witnesses:
            assert is_strongly_forcing(w, q)
            assert w.ones_count() == out.best_ones
        assert linear_zero_construction(n, n, q).ones_count() <= out.best_ones
        assert out.best_ones == oracle_max_strong(n, q)[0]


class TestSearchTree:
    # Exact node counts pin the DFS tree, its order and its budget cut
    # points; a kernel change that alters any of them fails here. The two
    # 2x3 patterns have a construction floor far below their maximum, so
    # the zero cap starts loose there. d3 and e3 are not their own
    # transposes, so their trees are searched without the transpose rule.
    @pytest.mark.parametrize("n, pattern, config, status, nodes", [
        pytest.param(4, named("i3"), SearchConfig(), "exact", 31, id="4-i3"),
        pytest.param(4, named("b3"), SearchConfig(enumerate_all_extremal=True),
                     "exact", 106, id="4-b3-all"),
        pytest.param(5, named("i3"), SearchConfig(), "exact", 461, id="5-i3"),
        pytest.param(5, named("i3"), SearchConfig(enumerate_all_extremal=True),
                     "exact", 2_550, id="5-i3-all"),
        pytest.param(5, named("i4"), SearchConfig(), "exact", 206, id="5-i4"),
        pytest.param(6, named("i5"), SearchConfig(), "exact", 774, id="6-i5"),
        pytest.param(6, named("i3"), SearchConfig(), "exact", 20_627, id="6-i3"),
        pytest.param(6, named("i4"), SearchConfig(), "exact", 14_904, id="6-i4"),
        pytest.param(5, named("i3"), SearchConfig(node_budget=400),
                     "budget_exhausted", 401, id="5-i3-budget"),
        pytest.param(5, parse("100\n101"), SearchConfig(enumerate_all_extremal=True),
                     "exact", 35, id="5-100_101-all"),
        pytest.param(5, parse("001\n110"), SearchConfig(enumerate_all_extremal=True),
                     "exact", 140, id="5-001_110-all"),
        pytest.param(6, named("perm:1324"), SearchConfig(), "exact", 27_434, id="6-1324"),
        # A pattern row without zeros: zr = 0, so every mask is a candidate.
        pytest.param(4, parse("1\n0"), SearchConfig(), "exact", 61, id="4-1_0"),
        pytest.param(4, parse("1\n0"), SearchConfig(enumerate_all_extremal=True),
                     "exact", 2_166, id="4-1_0-all"),
        pytest.param(5, named("d3"), SearchConfig(), "exact", 655, id="5-d3"),
        pytest.param(5, named("e3"), SearchConfig(), "exact", 3_185, id="5-e3"),
        pytest.param(5, named("b3"),
                     SearchConfig(use_dihedral_reduction=True, enumerate_all_extremal=True),
                     "exact", 3_405, id="5-b3-reduced-all"),
        # The widest patterns searched here: the child test runs the greedy
        # column pass over t = 6 and t = 7 pattern columns.
        pytest.param(7, named("i6"), SearchConfig(enumerate_all_extremal=True),
                     "exact", 3_740, id="7-i6-all"),
        pytest.param(8, named("i7"), SearchConfig(enumerate_all_extremal=True),
                     "exact", 7_883, id="8-i7-all"),
    ])
    def test_nodes_explored(self, n, pattern, config, status, nodes):
        out = search_max(n, pattern, config)
        assert (out.status, out.nodes_explored) == (status, nodes)

    # Budget cuts pin where the tree stops and the best level verified by
    # then. At (6, I_4) node 401 is one of the 20 candidates for row 4
    # (nodes 386-405) that all fail column reach, the deficit or the
    # prefix test; the two 2x3 patterns stop between their floor and their
    # maximum.
    @pytest.mark.parametrize("n, pattern, config, best, nodes", [
        pytest.param(6, named("i4"), SearchConfig(node_budget=400), 14, 401, id="6-i4-400"),
        pytest.param(5, parse("001\n110"),
                     SearchConfig(node_budget=90, enumerate_all_extremal=True), 17, 91,
                     id="5-001_110-all-90"),
        pytest.param(5, parse("100\n101"),
                     SearchConfig(node_budget=31, enumerate_all_extremal=True), 19, 32,
                     id="5-100_101-all-31"),
    ])
    def test_budget_cut_points(self, n, pattern, config, best, nodes):
        out = search_max(n, pattern, config)
        assert (out.status, out.best_ones, out.nodes_explored) == ("budget_exhausted", best, nodes)
        assert all(is_strongly_forcing(w, pattern) and w.ones_count() == best
                   for w in out.witnesses)


class TestTransposeRule:
    # A pattern equal to its transpose searches one of each pair {M, M^T}
    # and puts the skipped transposes back into a level set.
    def test_symmetric_patterns_match_the_sweep_at_order_4(self):
        symmetric = [q for q in all_nonzero_patterns(3) if q.transpose() == q]
        assert len(symmetric) == 71
        for q in symmetric:
            want_best, want_level = oracle_max_strong(4, q)
            out = search_max(4, q, SearchConfig(enumerate_all_extremal=True))
            assert (out.status, out.best_ones, list(out.witnesses)) == ("exact", want_best, want_level)

    @pytest.mark.parametrize("pattern", [
        named("h3"), named("perm:1432"), named("perm:4321"), parse("101\n000\n101"),
        parse("101\n010\n101"),
    ], ids=["h3", "1432", "4321", "101_000_101", "101_010_101"])
    def test_level_sets_are_closed_under_transpose(self, pattern):
        level = search_max(5, pattern, SearchConfig(enumerate_all_extremal=True)).witnesses
        assert any(w.transpose() != w for w in level)
        assert {w.transpose() for w in level} == set(level)


class TestSplitFloor:
    @pytest.mark.parametrize("p", list(all_permutation_matrices(4)),
                             ids=lambda p: "".join(str(i + 1) for i in permutation_of(p)))
    def test_size_4_permutations_at_order_5(self, p):
        # The split witness is the exact floor for every separable 4x4
        # permutation; 2413 and 3142 are the non-separable ones.
        built = split_witness(5, p)
        if permutation_of(p) in ((1, 3, 0, 2), (2, 0, 3, 1)):
            assert built is None
            return
        assert is_strongly_forcing(built, p)
        assert built.ones_count() == search_max(5, p).best_ones == 8


class TestBudgets:
    def test_node_budget_returns_construction_floor(self):
        out = search_max(5, identity(3), SearchConfig(node_budget=1))
        assert out.status == "budget_exhausted"
        assert out.best_ones == 13
        assert len(out.witnesses) == 1
        assert is_strongly_forcing(out.witnesses[0], identity(3))

    def test_budget_cut_keeps_best_verified_matrix_above_floor(self):
        # The construction floor here is 10; an 11 verifies within 50 nodes.
        q = parse("101\n001")
        out = search_max(4, q, SearchConfig(node_budget=50))
        assert (out.status, out.best_ones) == ("budget_exhausted", 11)
        assert len(out.witnesses) == 1
        assert out.witnesses[0].ones_count() == 11
        assert is_strongly_forcing(out.witnesses[0], q)

    def test_budget_result_is_a_true_lower_bound(self):
        exact = search_max(4, named("c3")).best_ones
        capped = search_max(4, named("c3"), SearchConfig(node_budget=16))
        assert capped.best_ones <= exact

    @pytest.mark.parametrize("budget, error, message", [
        ({"node_budget": -1}, ValueError, "node budget must be non-negative, got -1"),
        ({"time_budget": 1}, TypeError, "unexpected keyword argument 'time_budget'"),
    ], ids=["negative-nodes", "no-time-budget"])
    def test_bad_budgets_are_refused(self, budget, error, message):
        with pytest.raises(error, match=message):
            SearchConfig(**budget)

    def test_zero_budgets_are_accepted(self):
        out = search_max(5, identity(3), SearchConfig(node_budget=0))
        assert (out.status, out.nodes_explored) == ("budget_exhausted", 1)


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
        assert cache.get(4, identity(3), all_extremal=True) is None

        full = search_max(
            4, identity(3), SearchConfig(enumerate_all_extremal=True), cache=cache
        )
        got = cache.get(4, identity(3), all_extremal=True)
        assert self.payload(got) == self.payload(full)

    @pytest.mark.parametrize("n, name, reduce", [(4, "i3", False), (5, "b3", True)])
    @pytest.mark.parametrize("all_first", [True, False], ids=["all-first", "plain-first"])
    def test_hit_is_the_cold_outcome_in_either_order(self, tmp_path, n, name, reduce, all_first):
        configs = [SearchConfig(use_dihedral_reduction=reduce, enumerate_all_extremal=full)
                   for full in (True, False)]
        if not all_first:
            configs.reverse()
        path = tmp_path / "results.json"
        for config in configs:
            search_max(n, named(name), config, cache=ResultsCache(path))
        for config in configs:
            cold = search_max(n, named(name), config)
            hit = search_max(n, named(name), config, cache=ResultsCache(path))
            assert self.payload(hit) == self.payload(cold)

    def test_key_forms(self):
        assert ResultsCache.key(6, identity(4)) == "6:1000/0100/0010/0001"
        assert ResultsCache.key(6, identity(4), all_extremal=True) == "6:1000/0100/0010/0001:all"
        assert ResultsCache.key(5, parse("2 3\n110\n001\n")) == "5:110/001"
        assert ResultsCache.key(6, named("b3")) != ResultsCache.key(6, named("c3"))
        assert ResultsCache.key(6, identity(2)) != ResultsCache.key(5, identity(2))

    def test_path_in_a_missing_directory_is_refused(self, tmp_path):
        with pytest.raises(ValueError):
            ResultsCache(tmp_path / "missing" / "results.json")
        (tmp_path / "plain").write_text("")
        with pytest.raises(ValueError):
            ResultsCache(tmp_path / "plain" / "results.json")
        assert [p.name for p in tmp_path.iterdir()] == ["plain"]

    def test_hit_reports_its_own_time_and_the_stored_nodes(self, tmp_path):
        cache = ResultsCache(tmp_path / "results.json")
        out = search_max(4, identity(2))
        cache.put(4, identity(2), replace(out, elapsed=3600.0), all_extremal=False)
        hit = cache.get(4, identity(2))
        assert hit.elapsed < 3600.0
        assert hit.nodes_explored == out.nodes_explored

    def test_file_bytes_do_not_depend_on_the_search_time(self, tmp_path):
        out = search_max(4, identity(2))
        texts = []
        for elapsed in (0.001, 3600.0):
            cache = ResultsCache(tmp_path / f"{elapsed}.json")
            cache.put(4, identity(2), replace(out, elapsed=elapsed), all_extremal=False)
            cache.save()
            texts.append(cache.path.read_bytes())
        assert texts[0] == texts[1]

    def test_failed_save_leaves_previous_file_loadable(self, tmp_path, monkeypatch):
        path = tmp_path / "results.json"
        cache = ResultsCache(path)
        search_max(4, identity(2), cache=cache)
        before = path.read_text()

        def write_half_then_fail(self, data, *args, **kwargs):
            with open(self, "w") as handle:
                handle.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError):
            search_max(4, identity(3), cache=cache)
        monkeypatch.undo()
        assert path.read_text() == before
        assert ResultsCache(path).get(4, identity(2)) is not None
        assert [p.name for p in tmp_path.iterdir()] == ["results.json"]

    @pytest.mark.parametrize("field, value", [
        ("witnesses", [serialize(split_witness(4, hankel(2)))]),  # 12 ones, no I_2 copy
        ("witnesses", [serialize(direct_sum(split_witness(4, identity(2)), make(1, 1, 0)))]),
        ("witnesses", []),
        ("best_ones", 13),
        ("version", CACHE_VERSION - 1),  # written by an older search
        ("version", None),  # None deletes the field
        ("witnesses", None),
        ("witnesses", ["4 4\n1110\n11x1\n1011\n0111\n"]),  # does not parse
        ("witnesses", serialize(split_witness(4, identity(2)))),  # text, not a list of texts
        ("nodes_explored", "12"),
        (None, [serialize(split_witness(4, identity(2)))]),  # field None replaces the whole entry
        ("witnesses", [serialize(split_witness(4, identity(2)))] * 2),
        # Two forcing 11-one matrices: a plain key holds one witness, not a level set.
        (None, {"version": CACHE_VERSION, "status": "exact", "best_ones": 11, "nodes_explored": 10,
                "witnesses": ["4 4\n1100\n1011\n0111\n0111\n", "4 4\n1100\n1011\n1011\n0111\n"]}),
    ], ids=["witness-not-forcing", "witness-wrong-order", "no-witness", "ones-count-mismatch",
            "version-older", "version-missing", "witnesses-missing", "witness-unparsable",
            "witnesses-not-a-list", "nodes-not-an-int", "entry-not-an-object", "witness-repeated",
            "plain-key-holds-two"])
    def test_entry_that_fails_to_verify_is_searched_again(self, tmp_path, field, value):
        path = tmp_path / "results.json"
        first = search_max(4, identity(2), cache=ResultsCache(path))
        entries = json.loads(path.read_text())
        entry = entries[ResultsCache.key(4, identity(2))]
        if field is None:
            entries[ResultsCache.key(4, identity(2))] = value
        elif value is None:
            del entry[field]
        else:
            entry[field] = value
        path.write_text(json.dumps(entries))

        cache = ResultsCache(path)
        assert cache.get(4, identity(2)) is None
        again = search_max(4, identity(2), cache=cache)
        assert self.payload(again) == self.payload(first)
        assert self.payload(ResultsCache(path).get(4, identity(2))) == self.payload(first)

    def test_level_set_is_served_only_under_its_own_key_and_without_repeats(self, tmp_path):
        cache = ResultsCache(tmp_path / "results.json")
        level = search_max(4, identity(3), SearchConfig(enumerate_all_extremal=True))
        assert len(level.witnesses) == 2
        cache.put(4, identity(3), level, all_extremal=True)
        assert self.payload(cache.get(4, identity(3), all_extremal=True)) == self.payload(level)
        cache.put(4, identity(3), level, all_extremal=False)
        assert cache.get(4, identity(3)) is None
        repeated = replace(level, witnesses=level.witnesses[:1] * 2)
        cache.put(4, identity(3), repeated, all_extremal=True)
        assert cache.get(4, identity(3), all_extremal=True) is None
        # The level set of a pattern equal to its transpose is closed under
        # transposition; (4, 001/000/100)'s is two transposes of each other.
        corners = parse("001\n000\n100")
        level = search_max(4, corners, SearchConfig(enumerate_all_extremal=True))
        assert level.witnesses[1] == level.witnesses[0].transpose()
        for kept in level.witnesses:
            cache.put(4, corners, replace(level, witnesses=(kept,)), all_extremal=True)
            assert cache.get(4, corners, all_extremal=True) is None
            assert self.payload(search_max(4, corners, SearchConfig(enumerate_all_extremal=True),
                                           cache=cache)) == self.payload(level)

    def test_file_that_is_not_an_object_is_refused_and_kept(self, tmp_path):
        path = tmp_path / "results.json"
        cache = ResultsCache(path)
        path.write_text("[1, 2]\n")  # another run writes a list before this one saves
        with pytest.raises(ValueError):
            ResultsCache(path)
        with pytest.raises(ValueError):
            search_max(4, identity(2), cache=cache)
        assert path.read_text() == "[1, 2]\n"
        assert [p.name for p in tmp_path.iterdir()] == ["results.json"]

    def test_concurrent_saves_keep_each_others_entries(self, tmp_path):
        path = tmp_path / "results.json"
        first, second = ResultsCache(path), ResultsCache(path)
        out2, out3 = search_max(4, identity(2)), search_max(4, identity(3))
        first.put(4, identity(2), out2, all_extremal=False)
        first.save()
        second.put(4, identity(3), out3, all_extremal=False)
        second.save()
        reloaded = ResultsCache(path)
        assert self.payload(reloaded.get(4, identity(2))) == self.payload(out2)
        assert self.payload(reloaded.get(4, identity(3))) == self.payload(out3)

    def test_hit_is_served_only_within_the_node_budget(self, tmp_path):
        # (5, I_3) is exact in 461 nodes; a smaller budget must cut the
        # search where a cold one would, not return the stored answer.
        cache = ResultsCache(tmp_path / "results.json")
        exact = search_max(5, identity(3), cache=cache)
        assert (exact.status, exact.nodes_explored) == ("exact", 461)
        for budget, status, nodes in [(10, "budget_exhausted", 11), (460, "budget_exhausted", 461),
                                      (461, "exact", 461)]:
            config = SearchConfig(node_budget=budget)
            got = search_max(5, identity(3), config, cache=cache)
            assert self.payload(got) == self.payload(search_max(5, identity(3), config))
            assert (got.status, got.nodes_explored) == (status, nodes)

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
