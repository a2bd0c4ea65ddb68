"""Layer trace taken from outside the program.

A traced run wraps public attributes of situfuse for its duration and
restores them afterwards: every public ``SituationStore`` method on the
measured paths, and the ``situfuse.fusion`` module globals that
``fuse_situation`` looks up at call time.  The benchmark's own call sites
open spans around the calls it makes itself (``wire.read_ksb``,
``fuse_situation``, the metrics and stress-map functions).

A span is ``[name, start_ns, end_ns, parent, request]``: ``parent`` is the
index of the enclosing span (-1 for a request root) and ``request`` the id
shared by every span of one benchmark operation.  The run is single-threaded,
so child spans are sequential inside their parent and a span's self time
(its duration minus its direct children's durations) is never negative.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from situfuse import fusion
from situfuse.store import SituationStore

REQUEST_PREFIX = "request."

STORE_METHODS = (
    "insert_envelope",
    "insert_raw",
    "put_topology",
    "query_raw",
    "vut_fix_near",
    "vut_fixes",
    "topologies",
    "environment_candidates",
    "persist_situation",
    "load_situation",
    "driver_samples",
)

# fusion global -> span name
FUSION_GLOBALS = {
    "dedup": "fusion.dedup",
    "backend_dedup": "aggregators.backend_dedup",
    "observation_from_cam": "messages.observations",
    "observations_from_cpm": "messages.observations",
    "join_topology": "fusion.join_topology",
    "link_lanes": "fusion.link_lanes",
}


class Tracer:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.requests: Counter = Counter()
        self._stack: list[int] = []
        self._request = -1

    @contextmanager
    def request(self, kind: str):
        """One benchmark operation; its root span is named ``request.<kind>``."""
        self.requests[kind] += 1
        self._request += 1
        with self.span(REQUEST_PREFIX + kind):
            yield

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self._request]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def self_times_ns(self) -> list[int]:
        """Self time of every span, in span order."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [end - start - child for (_, start, end, _, _), child in zip(self.spans, child_ns)]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self ns, and the request kinds it ran in."""
        kinds = {}
        for name, _, _, parent, request in self.spans:
            if parent == -1 and name.startswith(REQUEST_PREFIX):
                kinds[request] = name[len(REQUEST_PREFIX):]
        out: dict[str, dict] = {}
        for (name, start, end, _, request), self_ns in zip(self.spans, self.self_times_ns()):
            entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "kinds": set()})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += self_ns
            entry["kinds"].add(kinds.get(request, "none"))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "requests": dict(self.requests),
                },
                fp,
            )


class NullTracer:
    """Stands in for Tracer in untraced runs: calls straight through."""

    @contextmanager
    def request(self, kind: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, key: str, value: float) -> None:
        pass


def _wrap(tracer: Tracer, name: str, fn, after=None):
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_dedup(tracer: Tracer, fn):
    """fusion.dedup with its work counters filled on every call."""

    def traced(obs, th=None, cfg=None, stats=None):
        stats = stats if stats is not None else fusion.DedupStats()
        with tracer.span("fusion.dedup"):
            result = fn(obs, th, cfg, stats)
        tracer.add("fusion.dedup.observations", stats.observations)
        tracer.add("fusion.dedup.comparisons", stats.comparisons)
        tracer.add("fusion.dedup.brute_force", stats.brute_force_comparisons)
        tracer.add("fusion.dedup.groups", len(result))
        return result

    traced.__wrapped__ = fn
    return traced


def _count_query(tracer, args, result):
    tracer.add("store.query_raw.rows_returned", len(result))


def _count_backend_dedup(tracer, args, result):
    tracer.add("aggregators.backend_dedup.rows_in", len(args[0]))
    tracer.add("aggregators.backend_dedup.rows_out", len(result))


def _count_linked(tracer, args, result):
    tracer.add("fusion.link_lanes.linked", sum(1 for o in result if o.lane_id is not None))


def _count_inserted(tracer, args, result):
    tracer.add("store.rows_new", result)


_AFTER = {
    "query_raw": _count_query,
    "insert_envelope": _count_inserted,
    "backend_dedup": _count_backend_dedup,
    "link_lanes": _count_linked,
}


@contextmanager
def installed(tracer: Tracer):
    """Wrap the traced attributes for the duration of the block, then restore them."""
    saved_store = {name: SituationStore.__dict__[name] for name in STORE_METHODS}
    saved_fusion = {name: getattr(fusion, name) for name in FUSION_GLOBALS}
    try:
        for name, fn in saved_store.items():
            setattr(SituationStore, name, _wrap(tracer, "store." + name, fn, _AFTER.get(name)))
        for name, fn in saved_fusion.items():
            if name == "dedup":
                wrapped = _wrap_dedup(tracer, fn)
            else:
                wrapped = _wrap(tracer, FUSION_GLOBALS[name], fn, _AFTER.get(name))
            setattr(fusion, name, wrapped)
        yield tracer
    finally:
        for name, fn in saved_store.items():
            setattr(SituationStore, name, fn)
        for name, fn in saved_fusion.items():
            setattr(fusion, name, fn)
