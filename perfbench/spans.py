"""In-memory spans around the benchmark's calls into mforce.

A span records one call from the benchmark into a layer: its id (its
index in the list), name, an optional label (the instance it ran on),
start and end on the ``perf_counter`` clock, the id of the enclosing span
and the run id.
Spans stay in a list until the run ends; ``dump`` writes them as JSON.

A layer's self time is the sum, over its spans, of each span's duration
minus the part covered by its direct children.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, label: str | None = None):
        index = len(self.spans)
        record = {
            "id": index,
            "name": name,
            "label": label,
            "start": perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def durations(self) -> list[tuple[dict, float, float]]:
        """Each span with its inclusive duration and its self time."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        return [
            (rec, rec["end"] - rec["start"], rec["end"] - rec["start"] - child_time[i])
            for i, rec in enumerate(self.spans)
        ]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"run_id": self.run_id, "spans": self.spans}) + "\n")
        os.replace(tmp, path)
