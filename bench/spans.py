"""Spans around the benchmark's calls into the library.

A span is (name, start, end, parent, run). Names are ``<module>.<function>``
for library calls, so the part before the first dot is the layer; the
benchmark's own spans use the layer name ``bench``. Spans stay in memory and
are written out once, when the run ends. A disabled tracer calls straight
through, which is how the untraced (end-to-end) runs measure.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

BENCH = "bench"


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.run = None  # identifier shared by every span of one pass, setup or probe
        self._open = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Yields the span's attribute dict so callers can add counts."""
        if not self.enabled:
            yield attrs
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "run": self.run,
            "parent": self._open[-1] if self._open else None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self):
        """Per span id: its duration minus the time its children cover."""
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in self.spans}

    def by_run(self, run):
        return [s for s in self.spans if s["run"] == run]

    def dump(self, path, **extra):
        selfs = self.self_times()
        layers = defaultdict(float)
        for s in self.spans:
            layers[layer(s["name"])] += selfs[s["id"]]
        with open(path, "w") as fh:
            json.dump(
                {
                    **extra,
                    "self_s_by_layer": dict(sorted(layers.items())),
                    "spans": [{**s, "self": selfs[s["id"]]} for s in self.spans],
                },
                fh,
                indent=1,
            )


def layer(name: str) -> str:
    return name.split(".", 1)[0]
