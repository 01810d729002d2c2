#!/usr/bin/env python3
"""mforce benchmark: run one workload, check its outputs, print its metrics.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload search-exact|check-large|verify-all \\
        --seed N --seconds S --trace 0|1

The workload runs whole rounds of the same calls, in this one process and
thread, until S seconds have passed (at least one round); wall_s is the
median round time. Each round starts from a fresh import of mforce and
freshly generated inputs (the set-up, timed as setup_s). The first round's
outputs are checked against the benchmark's own brute force and proven
properties; every later round must reproduce them exactly, search node
counts included. Node counts are also compared with those of earlier runs
of the same source code, kept under perfbench/out/.

With --trace 0 the last stdout line reports the end-to-end metrics, taken
with no spans recorded. With --trace 1 the run then repeats as many rounds
again with a span around every call into mforce, writes the spans to
perfbench/out/, and reports per-layer self times and counts, plus the
tracing overhead: the traced median round time against the untraced one.

Exit codes: 0 result printed and correct, 1 result printed but incorrect,
2 no result (bad arguments, or no mforce sources next to perfbench/).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXTRA_SETUPS = 4  # set-ups before the first round, on top of one per round
SUITES = ("2x2", "3x3", "conjecture", "dihedral", "formulas", "lemma21", "perm-bounds")
SEARCH_INSTANCES = ("n6_i3", "n6_i4", "n6_i5", "n5_b3")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "bitmatrix.parse_s": "s",
    "bitmatrix.serialize_s": "s",
    "bitmatrix.text_bytes": "bytes",
    "forcing.minimal_forcing_s": "s",
    "forcing.min_ones_s": "s",
    "forcing.is_forcing_s": "s",
    "forcing.calls": "count",
    "checker.is_strongly_forcing_s": "s",
    "checker.calls": "count",
    "checker.entries": "count",
    "checker.certified_entries_per_s": "1/s",
    "checker.find_witness_s": "s",
    "checker.find_witness_calls": "count",
    "checker.witnesses_per_s": "1/s",
    "constructions_s": "s",
    "search.search_max_s": "s",
    "search.calls": "count",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    **{f"search.{name}.{kind}": unit for name in SEARCH_INSTANCES
       for kind, unit in (("nodes", "count"), ("s", "s"))},
    "cache.cold_s": "s",
    "cache.warm_s": "s",
    "cache.file_bytes": "bytes",
    "cli.search_s": "s",
    **{f"verification.{name}_s": "s" for name in SUITES},
    "verification.rows": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


class Calls:
    """Calls into mforce: counted, with a span around each when tracing.

    An exception from a call is printed and counted as a failed operation;
    the call then returns None.
    """

    def __init__(self):
        self.tracer = None
        self.attempted = 0
        self.failed = 0

    def __call__(self, name, fn, *args, label=None):
        self.attempted += 1
        try:
            if self.tracer is None:
                return fn(*args)
            with self.tracer.span(name, label):
                return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def group(self, name):
        """A span around several calls, when tracing."""
        return nullcontext() if self.tracer is None else self.tracer.span(name)


def import_mforce():
    """Import mforce from this checkout's sources, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "mforce" or m.startswith("mforce.")]:
        del sys.modules[name]
    mf = importlib.import_module("mforce")
    verification = importlib.import_module("mforce.verification")
    if Path(mf.__file__).resolve().parent != SRC / "mforce":
        raise ImportError(f"mforce imported from {mf.__file__}, not from {SRC}")
    return mf, verification


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "mforce").glob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def search_nodes(counts: dict) -> dict:
    return {k: v for k, v in counts.items() if k.startswith("search.") and k.endswith("nodes")}


def check_nodes_across_runs(nodes: dict) -> list[str]:
    """Node counts must equal those any earlier run of the same sources recorded."""
    path = OUT / f"nodes-{source_hash()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        return [f"{key}: {nodes[key]} nodes, an earlier run of the same code had {before[key]}"
                for key in sorted(nodes) if key in before and before[key] != nodes[key]]
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(nodes, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return []


class Run:
    """Set-ups, rounds and checks of one workload in one process."""

    def __init__(self, workload_cls, seed: int, scratch: Path):
        self.workload_cls = workload_cls
        self.seed = seed
        self.scratch = scratch
        self.calls = Calls()
        self.setups: list[float] = []
        self.errors: list[str] = []
        self.first = None
        self.counts: dict = {}

    def setup(self):
        t0 = perf_counter()
        mf, verification = import_mforce()
        workload = self.workload_cls(mf, verification, self.seed,
                                     self.scratch / f"setup{len(self.setups)}", SRC)
        self.setups.append(perf_counter() - t0)
        return workload

    def rounds(self, seconds: float | None = None, count: int | None = None) -> list[float]:
        """Times of whole rounds: `count` of them, or as many as fill `seconds` (at least one)."""
        walls = []
        started = perf_counter()
        while True:
            workload = self.setup()
            with self.calls.group("round"):
                t0 = perf_counter()
                out = workload.round(self.calls)
                walls.append(perf_counter() - t0)
            self.compare(workload, out)
            del out
            if len(walls) == count or count is None and perf_counter() - started >= seconds:
                return walls

    def compare(self, workload, out) -> None:
        digest, counts = workload.digest(out), workload.counts(out)
        if self.first is None:
            self.errors.extend(workload.check(out))
            self.first, self.counts = digest, counts
            nodes = search_nodes(counts)
            if nodes:
                self.errors.extend(check_nodes_across_runs(nodes))
            return
        if search_nodes(counts) != search_nodes(self.counts):
            self.errors.append(f"node counts {search_nodes(counts)} differ from the first round's "
                               f"{search_nodes(self.counts)}")
        if digest != self.first:
            self.errors.append("a round's outputs differ from the first round's")


def layer_metrics(tracer, rounds: int, counts: dict, overhead: float) -> dict:
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    positive_s = 0.0
    for rec, incl, own in tracer.durations():
        name = rec["name"]
        self_s[name] += own
        calls[name] += 1
        incl_s[name] += incl
        if rec["label"] is not None:
            incl_s[f"{name}:{rec['label']}"] += incl
        if name == "checker.is_strongly_forcing" and rec["label"] != "small":
            positive_s += own

    def rate(num, seconds):
        return num / seconds if seconds > 0 else 0.0

    m = {
        "bitmatrix.parse_s": self_s["bitmatrix.parse"],
        "bitmatrix.serialize_s": self_s["bitmatrix.serialize"],
        "forcing.minimal_forcing_s": self_s["forcing.minimal_forcing"],
        "forcing.min_ones_s": self_s["forcing.min_ones"],
        "forcing.is_forcing_s": self_s["forcing.is_forcing"],
        "forcing.calls": sum(calls[n] for n in calls if n.startswith("forcing.")),
        "checker.is_strongly_forcing_s": self_s["checker.is_strongly_forcing"],
        "checker.calls": calls["checker.is_strongly_forcing"],
        "checker.find_witness_s": self_s["checker.find_witness"],
        "checker.find_witness_calls": calls["checker.find_witness"],
        "constructions_s": self_s["constructions"],
        "search.search_max_s": self_s["search.search_max"],
        "search.calls": calls["search.search_max"],
        "cache.cold_s": incl_s["cache.open"] + incl_s["search.search_max"],
        "cache.warm_s": incl_s["cache.warm"],
        "cli.search_s": incl_s["cli.search"],
        "trace.spans": len(tracer.spans),
        **{f"search.{name}.s": incl_s[f"search.search_max:{name}"] for name in SEARCH_INSTANCES},
        **{f"verification.{name}_s": self_s[f"verification.{name}"] for name in SUITES},
    }
    m = {key: value / rounds if PER_LAYER[key] == "s" else value // rounds for key, value in m.items()}
    m.update({key: counts.get(key, 0) for key in PER_LAYER if key not in m})
    m["checker.certified_entries_per_s"] = rate(m["checker.entries"] * rounds, positive_s)
    m["checker.witnesses_per_s"] = rate(m["checker.find_witness_calls"], m["checker.find_witness_s"])
    m["search.nodes_per_s"] = rate(m["search.nodes"], m["search.search_max_s"])
    m["trace.overhead_pct"] = overhead * 100
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mforce benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mforce" / "__init__.py").is_file():
        print(f"error: no mforce sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run = Run(workloads.WORKLOADS[args.workload], args.seed, OUT / f"tmp-{run_id}")
    try:
        for _ in range(EXTRA_SETUPS):
            run.setup()
        untraced = run.rounds(seconds=args.seconds)
        end_to_end = {
            "setup_s": statistics.median(run.setups),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if args.trace:
            tracer = run.calls.tracer = Tracer(run_id)
            traced = run.rounds(count=len(untraced))
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)

    values, units = end_to_end, END_TO_END
    if args.trace:
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        overhead = statistics.median(traced) / end_to_end["wall_s"] - 1
        values, units = layer_metrics(tracer, len(traced), run.counts, overhead), PER_LAYER
        # The JSON line carries only the per-layer metrics; show the untraced ones here.
        for key, unit in END_TO_END.items():
            print(f"{key} {end_to_end[key]} {unit}", file=sys.stderr)
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}

    for message in run.errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload}: {len(untraced)} rounds {[round(w, 3) for w in untraced]}, "
          f"{run.calls.attempted} calls, {run.calls.failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.calls.attempted,
        "failed": run.calls.failed,
        "metrics": metrics,
    }))
    return 1 if run.errors else 0


if __name__ == "__main__":
    sys.exit(main())
