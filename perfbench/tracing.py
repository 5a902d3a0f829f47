"""In-memory spans around the benchmark's calls into each layer.

A span is ``(name, span_id, parent_id, start_ns, end_ns)``.  Each operation
is a root span named ``op``; the calls it makes into the library are its
children, named ``<module>.<function>``.  Counts (iterations, draws, bytes)
are recorded next to the spans, tagged with the round that produced them.
Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import statistics
import time


class NullTracer:
    """Tracing off: calls go straight through."""

    def begin_op(self, round_index: int):
        pass

    def end_op(self):
        pass

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float):
        pass


class Tracer:
    """Tracing on: spans and counts kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: list[tuple[str, int, float]] = []
        self._op = -1
        self._op_start = 0
        self._round = 0

    def begin_op(self, round_index: int):
        self._round = round_index
        self._op = len(self.spans)
        self.spans.append(("op", self._op, -1, 0, 0))
        self._op_start = time.perf_counter_ns()

    def end_op(self):
        self.spans[self._op] = ("op", self._op, -1, self._op_start, time.perf_counter_ns())
        self._op = -1

    def call(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, len(self.spans), self._op, t0, time.perf_counter_ns()))

    def count(self, name: str, value: float):
        self.counts.append((name, self._round, value))

    # --- summaries -----------------------------------------------------------

    def durations_ms(self, name: str) -> list[float]:
        return [(e - s) / 1e6 for n, _, _, s, e in self.spans if n == name]

    def median_ms(self, name: str) -> float:
        d = self.durations_ms(name)
        return statistics.median(d) if d else 0.0

    def total_ms(self, name: str) -> float:
        return sum(self.durations_ms(name))

    def round_counts(self, name: str, round_index: int = 0) -> list[float]:
        return [v for n, r, v in self.counts if n == name and r == round_index]

    def all_counts(self, name: str) -> list[float]:
        return [v for n, _, v in self.counts if n == name]

    def layer_shares(self) -> dict[str, float]:
        """Share of all operation time spent in each layer's calls, and the
        remainder (the benchmark's own glue) as ``self``."""
        ops = sum(e - s for n, _, _, s, e in self.spans if n == "op")
        busy: dict[str, int] = {}
        for n, _, parent, s, e in self.spans:
            if n != "op" and parent >= 0:
                layer = n.split(".", 1)[0]
                busy[layer] = busy.get(layer, 0) + (e - s)
        if ops <= 0:
            return {}
        shares = {k: v / ops for k, v in sorted(busy.items())}
        shares["self"] = 1.0 - sum(shares.values())
        return shares

    def dump(self, path, extra: dict):
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans, "counts": self.counts}, fh)
