"""The three benchmark workloads: inputs, one timed round, and checks.

Each workload is built from the freshly imported ``mforce`` package and a
seed. ``round(call)`` runs the timed calls through ``call`` (which counts
them and, in a traced run, records a span around each) and returns the
round's outputs. ``check(out)`` verifies one round against the benchmark's
own brute force and the proven properties; ``digest(out)`` is what must
repeat exactly in every later round. ``counts(out)`` gives the per-round
work counts that the per-layer report needs.

Only names exported by ``mforce`` are used, plus
``mforce.verification.SUITES`` and ``run_suite``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import brute

# Patterns as text, so the brute-force side never asks mforce what they are.
PERM3 = {
    "i3": "100\n010\n001",  # 123
    "b3": "100\n001\n010",  # 132
    "c3": "010\n100\n001",  # 213
    "d3": "010\n001\n100",  # 231
    "e3": "001\n100\n010",  # 312
}


def identity_text(k: int) -> str:
    return "\n".join("".join("1" if j == i else "0" for j in range(k)) for i in range(k))


def _fail(errors: list[str], ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


# -- search-exact ---------------------------------------------------------------


class SearchExact:
    """Exact maxima at the n = 6 frontier, cold then warm through ResultsCache, plus one CLI run.

    The seed orders the instances and picks which member of the 132 class
    the CLI run searches. With --dihedral-reduction every member reduces to
    the same canonical search, so the work does not depend on the seed.
    """

    name = "search-exact"

    def __init__(self, mf, verification, seed: int, scratch: Path, src: Path):
        rng = random.Random(seed)
        self.mf = mf
        self.scratch = scratch
        self.src = src
        plain = mf.SearchConfig()
        full = mf.SearchConfig(use_dihedral_reduction=True, enumerate_all_extremal=True)
        self.instances = [
            ("n6_i3", 6, identity_text(3), plain),
            ("n6_i4", 6, identity_text(4), plain),
            ("n6_i5", 6, identity_text(5), plain),
            ("n5_b3", 5, PERM3["b3"], full),
        ]
        rng.shuffle(self.instances)
        self.patterns = {name: mf.parse(text) for name, _, text, _ in self.instances}
        self.cli_member = rng.choice(["b3", "c3", "d3", "e3"])

    def _cli_search(self, cache_path: Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mforce.cli", "search", "--n", "5",
             "--pattern", self.cli_member, "--all-extremal", "--dihedral-reduction",
             "--cache", str(cache_path)],
            env=env, cwd=self.src.parent, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"mforce search exited {proc.returncode}: {proc.stderr.strip()}")
        return json.loads(proc.stdout)

    def round(self, call) -> dict:
        mf = self.mf
        tmp = self.scratch
        tmp.mkdir(parents=True)
        cold_path = tmp / "cold.json"
        cold, warm = {}, {}
        try:
            cache = call("cache.open", mf.ResultsCache, cold_path)
            for name, n, _, config in self.instances:
                cold[name] = call("search.search_max", mf.search_max, n,
                                  self.patterns[name], config, cache, label=name)
            file_bytes = cold_path.stat().st_size if cold_path.exists() else 0
            with call.group("cache.warm"):
                cache = call("cache.load", mf.ResultsCache, cold_path)
                for name, n, _, config in self.instances:
                    warm[name] = call("cache.hit", mf.search_max, n,
                                      self.patterns[name], config, cache, label=name)
            cli = call("cli.search", self._cli_search, tmp / "cli.json")
            cli_witnesses = None
            if cli is not None:
                cli_witnesses = [call("bitmatrix.parse", mf.parse, text) for text in cli["witnesses"]]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return {"cold": cold, "warm": warm, "cli": cli, "cli_witnesses": cli_witnesses,
                "file_bytes": file_bytes}

    @staticmethod
    def _summary(outcome) -> tuple | None:
        if outcome is None:
            return None
        texts = frozenset(brute.text_of(brute.rows_from_bits(w.bits, w.cols)) for w in outcome.witnesses)
        return outcome.status, outcome.best_ones, texts, outcome.nodes_explored

    def digest(self, out: dict):
        cli = out["cli"]
        return (
            {name: self._summary(o) for name, o in out["cold"].items()},
            {name: self._summary(o) for name, o in out["warm"].items()},
            None if cli is None else (cli["status"], cli["best_ones"],
                                      frozenset(brute.text_of(brute.rows_from_text(t)) for t in cli["witnesses"]),
                                      cli["nodes_explored"]),
        )

    def counts(self, out: dict) -> dict:
        nodes = {f"search.{name}.nodes": o.nodes_explored
                 for name, o in out["cold"].items() if o is not None}
        nodes["search.nodes"] = sum(nodes.values())
        nodes["cache.file_bytes"] = out["file_bytes"]
        return nodes

    def check(self, out: dict) -> list[str]:
        mf = self.mf
        errors: list[str] = []
        cold = {name: self._summary(o) for name, o in out["cold"].items()}
        warm = {name: self._summary(o) for name, o in out["warm"].items()}
        for name, n, text, config in self.instances:
            got = cold[name]
            if got is None:
                continue
            status, best, witnesses, _ = got
            q = brute.rows_from_text(text)
            k = len(q)
            _fail(errors, status == "exact", f"{name}: status {status}")
            _fail(errors, bool(witnesses), f"{name}: no witness")
            for w in witnesses:
                rows = brute.rows_from_text(w)
                _fail(errors, len(brute.ones(rows)) == best, f"{name}: witness ones != best_ones {best}")
                _fail(errors, brute.strongly_forcing(rows, q), f"{name}: witness not strongly forcing")
            if text == PERM3["b3"]:
                floor_matrix = mf.extremal_132_witness(n)
            else:
                floor_matrix = mf.extremal_identity_witness(n, k)
            floor_rows = brute.rows_from_bits(floor_matrix.bits, floor_matrix.cols)
            _fail(errors, brute.strongly_forcing(floor_rows, q), f"{name}: construction not strongly forcing")
            floor = len(brute.ones(floor_rows))
            upper = mf.upper_bound_simple(n, k)
            _fail(errors, floor <= best <= upper, f"{name}: best {best} outside [{floor}, {upper}]")
            if k == 3:
                _fail(errors, best == n * n - 3 * n + 3, f"{name}: best {best} != n^2-3n+3")
            if config.enumerate_all_extremal:
                # The level set is closed under every symmetry that fixes the pattern.
                for ops in brute.SYMMETRIES:
                    if brute.apply(q, ops) == q:
                        image = {brute.text_of(brute.apply(brute.rows_from_text(w), ops)) for w in witnesses}
                        _fail(errors, image == set(witnesses), f"{name}: level set not closed under {ops!r}")
            _fail(errors, warm[name] == got, f"{name}: warm cache result differs from the cold search")

        cli, base = out["cli"], cold.get("n5_b3")
        if cli is not None and base is not None:
            member = brute.rows_from_text(PERM3[self.cli_member])
            b3 = brute.rows_from_text(PERM3["b3"])
            ops = next(g for g in brute.SYMMETRIES if brute.apply(b3, g) == member)
            expected = {brute.text_of(brute.apply(brute.rows_from_text(w), ops)) for w in base[2]}
            got = {brute.text_of(brute.rows_from_bits(w.bits, w.cols)) for w in out["cli_witnesses"]}
            _fail(errors, cli["status"] == "exact", f"cli: status {cli['status']}")
            _fail(errors, cli["best_ones"] == base[1], f"cli: best {cli['best_ones']} != {base[1]}")
            _fail(errors, got == expected, f"cli: witnesses for {self.cli_member} are not the mapped b3 set")
            _fail(errors, cli["nodes_explored"] == base[3],
                  f"cli: {cli['nodes_explored']} nodes, in-process search {base[3]}")
            for w in got:
                _fail(errors, brute.strongly_forcing(brute.rows_from_text(w), member),
                      "cli: witness not strongly forcing")
        return errors


# -- check-large ------------------------------------------------------------------


# Non-permutation patterns for linear_zero_construction.
LINEAR_ZERO_PATTERNS = ("101\n010", "110\n011\n001", "1010\n0101")
WITNESS_SIZES = (16, 32, 64)
# Ambient sizes for minimal_forcing / min_ones / is_forcing, and the pattern
# shapes used at each; only the pattern bits depend on the seed.
FORCING_SIZES = ((64, 96), (192, 128), (320, 256))
FORCING_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4), (2, 4))
SMALL_FORCING = 8
NEGATIVES = 8


def _random_pattern(rng: random.Random, s: int, t: int) -> str:
    while True:
        rows = ["".join(rng.choice("01") for _ in range(t)) for _ in range(s)]
        if "1" in "".join(rows):
            return "\n".join(rows)


class CheckLarge:
    """Constructed witnesses at n = 16, 32, 64 through text and the checker; forcing at large m x n.

    The witnesses and their sizes are fixed. The seed orders them, draws the
    forcing patterns (bits only, shapes fixed), and makes the n <= 12
    instances: a 3x3 permutation witness under a random symmetry, and the
    same matrix with one random 0 turned to 1. The 3x3 permutation maximum
    is n^2 - 3n + 3, so the latter is never strongly forcing.
    """

    name = "check-large"

    def __init__(self, mf, verification, seed: int, scratch: Path, src: Path):
        rng = random.Random(seed)
        self.mf = mf
        self.witnesses = []  # (key, construction, args, pattern text)
        for n in WITNESS_SIZES:
            for k in range(3, 7):
                self.witnesses.append((f"identity-k{k}-n{n}", mf.extremal_identity_witness, (n, k), identity_text(k)))
            self.witnesses.append((f"132-n{n}", mf.extremal_132_witness, (n,), PERM3["b3"]))
            for i, text in enumerate(LINEAR_ZERO_PATTERNS):
                self.witnesses.append((f"linear-zero{i}-n{n}", mf.linear_zero_construction,
                                       (n, n, mf.parse(text)), text))
        rng.shuffle(self.witnesses)
        self.patterns = {text: mf.parse(text) for *_, text in self.witnesses}

        self.small = []  # (key, matrix, pattern text, expected)
        for index in range(NEGATIVES):
            n = rng.randint(6, 12)
            base = rng.choice(["i3", "b3"])
            ops = rng.choice(brute.SYMMETRIES)
            built = mf.extremal_identity_witness(n, 3) if base == "i3" else mf.extremal_132_witness(n)
            rows = brute.apply(brute.rows_from_bits(built.bits, built.cols), ops)
            q = brute.text_of(brute.apply(brute.rows_from_text(PERM3[base]), ops))
            zi, zj = rng.choice(sorted({(i, j) for i in range(n) for j in range(n)} - brute.ones(rows)))
            flipped = tuple(tuple(1 if (i, j) == (zi, zj) else v for j, v in enumerate(row))
                            for i, row in enumerate(rows))
            self.small.append((f"small{index}-{base}{ops}-n{n}", mf.parse(brute.text_of(rows)), q, True))
            self.small.append((f"small{index}-{base}{ops}-n{n}-flip", mf.parse(brute.text_of(flipped)), q, False))
        for _, _, q, _ in self.small:
            self.patterns.setdefault(q, mf.parse(q))

        self.forcing = []  # (key, m, n, pattern text, row index whose lowest 1 is cleared)
        for m, n in FORCING_SIZES:
            for s, t in FORCING_SHAPES:
                self.forcing.append((f"forcing-{s}x{t}-{m}x{n}", m, n, _random_pattern(rng, s, t), rng.randrange(m)))
        for i in range(SMALL_FORCING):
            s, t = rng.randint(1, 3), rng.randint(1, 3)
            m, n = rng.randint(s, 7), rng.randint(t, 7)
            self.forcing.append((f"forcing-small{i}-{m}x{n}", m, n, _random_pattern(rng, s, t), rng.randrange(m)))
        rng.shuffle(self.forcing)
        for _, _, _, text, _ in self.forcing:
            self.patterns.setdefault(text, mf.parse(text))

    def round(self, call) -> dict:
        mf = self.mf
        out = {"witnesses": [], "small": [], "forcing": [], "text_bytes": 0, "entries": 0}
        for key, build, args, qtext in self.witnesses:
            self._witness(call, out, key, build, args, self.patterns[qtext])
        for key, mat, qtext, _ in self.small:
            strong = call("checker.is_strongly_forcing", mf.is_strongly_forcing, mat,
                          self.patterns[qtext], label="small")
            out["small"].append((key, strong))
        for key, m, n, qtext, row in self.forcing:
            self._forcing(call, out, key, m, n, self.patterns[qtext], row)
        return out

    def _witness(self, call, out, key, build, args, q) -> None:
        mf = self.mf
        built = call("constructions", build, *args, label=key)
        if built is None:
            return
        text = call("bitmatrix.serialize", mf.serialize, built)
        if text is None:
            return
        out["text_bytes"] += len(text)
        mat = call("bitmatrix.parse", mf.parse, text)
        if mat is None:
            return
        strong = call("checker.is_strongly_forcing", mf.is_strongly_forcing, mat, q, label=key)
        if strong:
            out["entries"] += mat.ones_count()
        embeddings = [
            (pos, call("checker.find_witness", mf.find_witness, mat, q, pos, label=key))
            for pos in mat.iter_ones()
        ]
        out["witnesses"].append((key, built, text, mat, strong, embeddings))

    def _forcing(self, call, out, key, m, n, q, row) -> None:
        mf = self.mf
        mat = call("forcing.minimal_forcing", mf.minimal_forcing, m, n, q)
        count = call("forcing.min_ones", mf.min_ones, m, n, q)
        if mat is None:
            return
        forced = call("forcing.is_forcing", mf.is_forcing, mat, q)
        # The minimum is unique, so clearing any one of its 1s must break forcing:
        # clear the lowest 1 of the first nonzero row from `row` on.
        bits = list(mat.bits)
        row = next((r % m for r in range(row, row + m) if bits[r % m]), None)
        short = None
        if row is not None:
            bits[row] &= bits[row] - 1
            short = call("forcing.is_forcing", mf.is_forcing, mf.BitMatrix(m, n, tuple(bits)), q)
        text = call("bitmatrix.serialize", mf.serialize, mat)
        if text is not None:
            out["text_bytes"] += len(text)
            call("bitmatrix.parse", mf.parse, text)
        out["forcing"].append((key, mat, None if count is None else count.value, forced, short))

    def digest(self, out: dict):
        return (
            [(key, text, strong, [(tuple(pos), None if e is None else (e.row_sel, e.col_sel)) for pos, e in emb])
             for key, _, text, _, strong, emb in out["witnesses"]],
            out["small"],
            [(key, mat.bits, count, forced, short) for key, mat, count, forced, short in out["forcing"]],
        )

    def counts(self, out: dict) -> dict:
        return {"bitmatrix.text_bytes": out["text_bytes"], "checker.entries": out["entries"]}

    def check(self, out: dict) -> list[str]:
        errors: list[str] = []
        qrows = {text: brute.rows_from_text(text) for text in self.patterns}
        qtext_of = {key: qtext for key, _, _, qtext in self.witnesses}
        for key, built, text, mat, strong, embeddings in out["witnesses"]:
            rows = brute.rows_from_bits(built.bits, built.cols)
            q = qrows[qtext_of[key]]
            _fail(errors, text == brute.text_of(rows), f"{key}: serialize disagrees with the rows")
            _fail(errors, brute.rows_from_bits(mat.bits, mat.cols) == rows, f"{key}: parse(serialize) changed the matrix")
            _fail(errors, strong is True, f"{key}: construction reported not strongly forcing")
            _fail(errors, len(embeddings) == len(brute.ones(rows)), f"{key}: find_witness missed 1-entries")
            for pos, e in embeddings:
                if e is None or not brute.embedding_exact(rows, q, e.row_sel, e.col_sel, tuple(pos)):
                    errors.append(f"{key}: no exact embedding certified through {tuple(pos)}")
                    break
        for (key, mat, qtext, expected), (_, strong) in zip(self.small, out["small"]):
            rows = brute.rows_from_bits(mat.bits, mat.cols)
            truth = brute.strongly_forcing(rows, qrows[qtext])
            _fail(errors, truth is expected, f"{key}: brute force says {truth}, construction claims {expected}")
            _fail(errors, strong is truth, f"{key}: is_strongly_forcing {strong}, brute force {truth}")
        spec = {key: (m, n, qtext) for key, m, n, qtext, _ in self.forcing}
        for key, mat, count, forced, short in out["forcing"]:
            m, n, qtext = spec[key]
            rows = brute.rows_from_bits(mat.bits, mat.cols)
            _fail(errors, count == len(brute.ones(rows)), f"{key}: min_ones {count} != popcount of minimal_forcing")
            _fail(errors, forced is True, f"{key}: minimal_forcing result does not force the pattern")
            _fail(errors, short is False, f"{key}: forcing survives removing a 1 from the minimum")
            if m <= 7 and n <= 7:
                _fail(errors, brute.ones(rows) == brute.forcing_union(m, n, qrows[qtext]),
                      f"{key}: minimal_forcing is not the union of all placements")
                _fail(errors, brute.forces(rows, qrows[qtext]), f"{key}: brute force says not forcing")
        return errors


# -- verify-all -------------------------------------------------------------------


class VerifyAll:
    """Every suite in verification.SUITES at its default limits, as the reproduce script runs them.

    Suites take no inputs; the seed only orders them.
    """

    name = "verify-all"

    def __init__(self, mf, verification, seed: int, scratch: Path, src: Path):
        self.verification = verification
        self.suites = sorted(verification.SUITES)
        random.Random(seed).shuffle(self.suites)

    def round(self, call) -> dict:
        return {name: call(f"verification.{name}", self.verification.run_suite, name)
                for name in self.suites}

    def digest(self, out: dict):
        return {name: None if rows is None else [
            (r.theorem_id, r.instance, r.expected, r.actual, r.status) for r in rows
        ] for name, rows in out.items()}

    def counts(self, out: dict) -> dict:
        return {"verification.rows": sum(len(rows) for rows in out.values() if rows is not None)}

    def check(self, out: dict) -> list[str]:
        errors: list[str] = []
        for name, rows in out.items():
            if rows is None:
                continue
            _fail(errors, bool(rows), f"suite {name} returned no rows")
            for r in rows:
                _fail(errors, r.status in ("pass", "open"),
                      f"suite {name}: {r.theorem_id} {r.instance} is {r.status}: expected {r.expected}, got {r.actual}")
        return errors


WORKLOADS = {cls.name: cls for cls in (SearchExact, CheckLarge, VerifyAll)}
