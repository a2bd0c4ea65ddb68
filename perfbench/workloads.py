"""The three workloads, their output checks and their metrics.

A run is a closed loop with one client made of *parts*, at least PARTS of
them and more until the measured time reaches the requested seconds.  A part
is one set-up (encode the generated stream to a `.ksb` file and open a fresh
file-backed store; the fuse workloads also ingest the stream and the map
topology), on `ingest` a timed ingest pass, then a slice of a cycle's fuse
steps on that store, each followed by its VUT's stress map.  ``setup_s`` is the median
set-up.  The first cycle's situations are scored against the simgen ground
truth after the loop, outside every timer.

A fuse step is ``fuse_situation`` (persist on), then ``load_situation`` ->
``evaluate_situation`` -> ``rows_to_csv``; a stress map is ``driver_samples``
-> ``tree_from_samples`` -> ``cells`` -> ``export_geojson``.  Every workload
reports every end-to-end metric: on ``ingest`` the fuse steps read back the
freshly written stores, and on the fuse workloads ``ingest_records_per_s``
comes from the set-ups.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import sqlite3
import time
from dataclasses import dataclass, field

import numpy as np

from situfuse import fusion, metrics, simgen, stressmap, wire
from situfuse.fusion import NoVutFix
from situfuse.store import RAW_TABLES, SituationStore, StorageFailure
from situfuse.stressmap import StressSample

from . import scenes
from .trace import NullTracer, Tracer, installed

PARTS = {"ingest": 4, "fuse_dense": 3, "fuse_history": 3}  # set-ups per run, at least
READBACK_CALLS = 24  # ingest: fuse steps per cycle on freshly written stores
DENSE_CYCLE = 60  # fuse_dense: steps per cycle; its tail is then p83 (ten beyond)
HISTORY_VISITS = 14  # fuse_history: visits per scene per cycle
OVERHEAD_STEPS = 10  # traced runs: fuse steps in the overhead sample
TAIL_BEYOND = 10  # samples a tail percentile must leave beyond it
PROBLEMS_KEPT = 10


@dataclass
class Tally:
    """Operations attempted and failed; a failed output check is a failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < PROBLEMS_KEPT:
            self.problems.append(what)


@dataclass
class Samples:
    """Per-operation wall times in seconds, and what the measured phase produced."""

    setup_s: list[float] = field(default_factory=list)
    ingest_rates: list[float] = field(default_factory=list)
    fuse_s: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    stressmap_s: list[float] = field(default_factory=list)
    fuse_phase_s: float = 0.0
    scored: list = field(default_factory=list)  # (part, record) of the first cycle


def tail_rank(n: int) -> float:
    """The highest rank up to 0.9 that leaves TAIL_BEYOND samples beyond it."""
    return min(0.9, max(0.5, 1.0 - TAIL_BEYOND / n)) if n else 0.9


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(values, q)) if values else math.nan


# --- operations ---------------------------------------------------------------


def ingest_pass(stream, ksb_path, store, tracer, tally) -> tuple[float | None, int]:
    """Decode the stream file and insert every frame.

    Returns the records offered per second (None when the stream was
    rejected) and the raw rows the store then holds."""
    offered = stream.records
    tally.attempted += len(stream.envelopes)
    with tracer.request("ingest"):
        t0 = time.perf_counter()
        try:
            envelopes = tracer.call("wire.read_ksb", wire.read_ksb, ksb_path)
        except wire.WireError as err:
            tracer.add("wire.frames_rejected", 1)
            tally.fail(f"read_ksb: {type(err).__name__}: {err}")
            return None, 0
        new_rows = []
        for env in envelopes:
            try:
                new_rows.append(store.insert_envelope(env, scenes.receive_time(env)))
            except StorageFailure as err:
                new_rows.append(None)
                tally.fail(f"insert_envelope: {err}")
        if stream.topology is not None:
            store.put_topology(stream.topology)
        elapsed = time.perf_counter() - t0

    if len(envelopes) != len(stream.envelopes):
        tally.fail(f"read {len(envelopes)} frames, wrote {len(stream.envelopes)}")
    for new, resent, env in zip(new_rows, stream.retransmit, envelopes):
        if new is not None and resent and new != 0:
            tally.fail(f"retransmitted frame of station {env.meta.station} added {new} rows")
    stored = store.stats()
    for table in RAW_TABLES:
        if stored[table] != stream.expected_rows[table]:
            tally.fail(f"{table}: {stored[table]} rows, expected {stream.expected_rows[table]}")
    tracer.add("wire.frames", len(envelopes))
    tracer.add("store.records_offered", offered)
    return offered / elapsed, sum(stored[t] for t in RAW_TABLES)


def fuse_step(store, part, t, tracer, tally, samples: Samples):
    """One situation: fuse it, then reload and evaluate it."""
    vut = part.cfg.vut_station
    tally.attempted += 1
    try:
        with tracer.request("fuse"):
            t0 = time.perf_counter()
            record = tracer.call("fusion.fuse_situation", fusion.fuse_situation, vut, t, store)
            samples.fuse_s.append(time.perf_counter() - t0)
    except (NoVutFix, StorageFailure) as err:
        tally.fail(f"fuse_situation({vut}, {t}): {type(err).__name__}: {err}")
        return None

    tally.attempted += 1
    try:
        with tracer.request("eval"):
            t0 = time.perf_counter()
            loaded = store.load_situation(record.situation_id)
            rows = tracer.call("metrics.evaluate_situation", metrics.evaluate_situation, loaded)
            csv = tracer.call("metrics.rows_to_csv", metrics.rows_to_csv, rows)
            samples.eval_s.append(time.perf_counter() - t0)
    except StorageFailure as err:
        tally.fail(f"load_situation({record.situation_id}): {err}")
    else:
        tracer.add("metrics.rows", len(rows))
        if loaded != record:
            tally.fail(f"situation {record.situation_id} reloads unequal to the fused record")
        if csv.count("\n") != len(rows) + 1:
            tally.fail(f"csv of situation {record.situation_id} has the wrong line count")
    return record


def stress_map(store, vut, tracer, tally, samples: Samples) -> None:
    """A VUT's stress map from its driver samples, exported as GeoJSON."""
    tally.attempted += 1
    try:
        with tracer.request("stressmap"):
            t0 = time.perf_counter()
            stress = [
                StressSample(r.position, r.sample.timestamp, r.sample.valence, r.sample.arousal)
                for r in store.driver_samples(vut)
            ]
            tree = tracer.call("stressmap.tree_from_samples", stressmap.tree_from_samples, stress)
            cells = tracer.call("stressmap.cells", tree.cells)
            tracer.call("stressmap.export_geojson", stressmap.export_geojson, cells)
            samples.stressmap_s.append(time.perf_counter() - t0)
    except StorageFailure as err:
        tally.fail(f"driver_samples({vut}): {err}")
        return
    tracer.add("stressmap.samples", len(stress))
    tracer.add("stressmap.cells", len(cells))
    if sum(c.count for c in cells) != len(stress):
        tally.fail(f"stress map of VUT {vut}: cell counts do not sum to {len(stress)} samples")


def dense_cycle(rng, stream, calls: int) -> list:
    part = stream.parts[0]
    phases = scenes.stratified_phases(rng, calls)
    times = scenes.fuse_times(rng, part, scenes.DENSE_PERIOD_MS, calls, phases)
    return [(part, times[i]) for i in rng.permutation(calls)]


def history_cycle(rng, stream, visits: int) -> list:
    phases = scenes.stratified_phases(rng, visits * len(stream.parts))
    targets = []
    for k, part in enumerate(stream.parts):
        own = phases[k * visits : (k + 1) * visits]
        times = scenes.fuse_times(rng, part, scenes.HISTORY_PERIOD_MS, visits, own)
        targets += [(part, t) for t in times]
    return [targets[i] for i in rng.permutation(len(targets))]


def fuse_steps(store, targets, tracer, tally, samples: Samples, score: bool) -> None:
    """A fuse step and the VUT's stress map at each target; `score` keeps the
    situations for scoring."""
    for part, t in targets:
        t0 = time.perf_counter()
        record = fuse_step(store, part, t, tracer, tally, samples)
        samples.fuse_phase_s += time.perf_counter() - t0
        if score and record is not None:
            samples.scored.append((part, record))
        stress_map(store, part.cfg.vut_station, tracer, tally, samples)


# --- workloads ----------------------------------------------------------------


class Workload:
    """One run of one workload, with its files in `workdir` under the checkout."""

    def __init__(self, name: str, seed: int, seconds: float, workdir):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tally = Tally()
        self.samples = Samples()
        self.rows_total = 0
        self.info: dict = {}
        self._rng = np.random.default_rng([seed, 3])
        self._stores = 0

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _fresh_store(self) -> tuple[SituationStore, str]:
        self._stores += 1
        db = self._path(f"store-{self._stores}.db")
        return SituationStore(db), db

    @staticmethod
    def _drop(store, db) -> None:
        store.close()
        os.remove(db)

    def _cycles(self, stream):
        while True:
            if self.name == "fuse_history":
                yield history_cycle(self._rng, stream, HISTORY_VISITS)
            else:
                calls = DENSE_CYCLE if self.name == "fuse_dense" else READBACK_CALLS
                yield dense_cycle(self._rng, stream, calls)

    def _ingest(self, stream, store, tracer) -> None:
        rate, self.rows_total = ingest_pass(stream, self._path("stream.ksb"), store, tracer, self.tally)
        if rate is not None:
            self.samples.ingest_rates.append(rate)

    # -- phases --------------------------------------------------------------

    def generate(self):
        t0 = time.perf_counter()
        if self.name == "fuse_history":
            stream = scenes.history_stream(self.seed)
        else:
            stream = scenes.dense_stream(self.seed, with_intersection=self.name == "fuse_dense")
        self.info.update(
            input_generation_s=time.perf_counter() - t0,
            scenes=len(stream.parts),
            frames=len(stream.envelopes),
            frames_retransmitted=sum(stream.retransmit),
            records=stream.records,
            distinct_records=sum(stream.expected_rows.values()),
            expected_rows=stream.expected_rows,
            stream_sha256=stream.digest(),
        )
        return stream

    def build(self, stream):
        """One set-up: encode the stream, open a fresh store and, for the fuse
        workloads, ingest the stream into it.  Returns the store, its file and
        the seconds taken."""
        t0 = time.perf_counter()
        self.info["stream_bytes"] = stream.write(self._path("stream.ksb"))
        store, db = self._fresh_store()
        if self.name != "ingest":
            self._ingest(stream, store, NullTracer())
            self.info["db_bytes"] = os.path.getsize(db)
        return store, db, time.perf_counter() - t0

    def record_flush_policy(self, db) -> None:
        """The store file's sqlite settings as a new connection sees them."""
        conn = sqlite3.connect(db)
        try:
            for pragma in ("journal_mode", "synchronous", "page_size", "cache_size"):
                self.info[f"sqlite_{pragma}"] = conn.execute(f"PRAGMA {pragma}").fetchone()[0]
        finally:
            conn.close()
        self.info["flush_policy"] = (
            "sqlite defaults; one transaction per insert_envelope call (per frame) "
            "and per persisted situation"
        )

    # -- runs ----------------------------------------------------------------

    def run(self, trace: bool) -> dict:
        """The metrics of one run: end to end, or per layer when traced."""
        stream = self.generate()
        self._settle()
        try:
            return self.run_traced(stream) if trace else self.run_plain(stream)
        finally:
            gc.unfreeze()

    @staticmethod
    def _settle() -> None:
        """Exempt the generated inputs from later collections, so that the
        cyclic collector's pauses while measuring scale with the program's
        own objects, not with the benchmark's."""
        gc.collect()
        gc.freeze()

    def run_plain(self, stream) -> dict:
        """Parts until at least PARTS have run and `seconds` have been measured.

        A part is one set-up followed by a slice of a cycle's fuse steps, each
        with its VUT's stress map, on the part's store; on ingest a timed
        ingest pass comes first.
        Spreading every kind of operation over the whole run keeps a slow
        spell of the machine from landing on one metric alone.
        """
        parts = PARTS[self.name]
        cycles = self._cycles(stream)
        slices: list = []
        done = 0
        measured = 0.0
        while done < parts or measured < self.seconds:
            if not slices:
                cycle = next(cycles)
                n = len(cycle)
                slices = [cycle[i * n // parts : (i + 1) * n // parts] for i in range(parts)]
            store, db, seconds = self.build(stream)
            self.samples.setup_s.append(seconds)
            if done == 0:
                self.record_flush_policy(db)
            t0 = time.perf_counter()
            if self.name == "ingest":
                self._ingest(stream, store, NullTracer())
                self.info["db_bytes"] = os.path.getsize(db)
            fuse_steps(store, slices.pop(0), NullTracer(), self.tally, self.samples, done < parts)
            measured += time.perf_counter() - t0
            self._drop(store, db)
            done += 1
        self.info["parts"] = done
        self.info["measured_s"] = measured
        return self.end_to_end()

    def run_traced(self, stream) -> dict:
        """Per-layer metrics from one traced ingest pass and one traced cycle.

        The tracing overhead compares the same sample, an ingest pass into a
        fresh store plus the first OVERHEAD_STEPS fuse steps, run without and
        then with the wrappers installed.
        """
        targets = next(self._cycles(stream))
        head, rest = targets[:OVERHEAD_STEPS], targets[OVERHEAD_STEPS:]
        self.info["stream_bytes"] = stream.write(self._path("stream.ksb"))

        def sample(tracer):
            t0 = time.perf_counter()
            store, db = self._fresh_store()
            self._ingest(stream, store, tracer)
            self.info["db_bytes"] = os.path.getsize(db)
            fuse_steps(store, head, tracer, self.tally, self.samples, False)
            return time.perf_counter() - t0, store, db

        plain_s, store, db = sample(NullTracer())
        self.record_flush_policy(db)
        self._drop(store, db)
        tracer = Tracer()
        with installed(tracer):
            traced_s, store, db = sample(tracer)
            fuse_steps(store, rest, tracer, self.tally, self.samples, False)
        self._drop(store, db)
        self.info["overhead_sample_s"] = {"untraced": plain_s, "traced": traced_s}
        self.info["traced_requests"] = dict(tracer.requests)
        tracer.write(self._path("trace.json"))
        return self.layers(tracer, traced_s / plain_s - 1.0)

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict:
        s = self.samples
        scores = [simgen.score(part.truth, record) for part, record in s.scored]
        precision = [x.precision for x in scores]
        recall = [x.recall for x in scores]
        self.info["fuse_calls"] = len(s.fuse_s)
        self.info["fuse_tail_rank"] = tail_rank(len(s.fuse_s))
        self.info["eval_calls"] = len(s.eval_s)
        self.info["eval_tail_rank"] = tail_rank(len(s.eval_s))
        self.info["stressmap_calls"] = len(s.stressmap_s)
        # Reported, not a bounded metric: see perfbench/README.md.
        self.info["stressmap_ms_p50"] = _quantile(s.stressmap_s, 0.5) * 1e3
        self.info["scored_situations"] = len(s.scored)
        self.info["setups"] = len(s.setup_s)
        self.info["ingest_rate_samples"] = len(s.ingest_rates)
        return {
            "setup_s": (float(np.median(s.setup_s)), "s"),
            "ingest_records_per_s": (float(np.median(s.ingest_rates)), "records/s"),
            "fuse_ms_p50": (_quantile(s.fuse_s, 0.5) * 1e3, "ms"),
            "fuse_ms_p90": (_quantile(s.fuse_s, tail_rank(len(s.fuse_s))) * 1e3, "ms"),
            "fuse_per_s": (len(s.fuse_s) / s.fuse_phase_s, "1/s"),
            "eval_ms_p50": (_quantile(s.eval_s, 0.5) * 1e3, "ms"),
            "eval_ms_p90": (_quantile(s.eval_s, tail_rank(len(s.eval_s))) * 1e3, "ms"),
            "fuse_precision": (float(np.mean(precision)) if precision else math.nan, "ratio"),
            "fuse_recall": (float(np.mean(recall)) if recall else math.nan, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def layers(self, tracer: Tracer, overhead: float) -> dict:
        spans = tracer.summary()
        c = tracer.counts

        def per_request(span: str) -> float:
            entry = spans.get(span)
            if entry is None:
                return 0.0
            n = sum(tracer.requests[k] for k in entry["kinds"])
            return entry["self_ns"] / 1e6 / n

        def calls(span: str) -> int:
            return spans.get(span, {}).get("calls", 0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def share(span: str) -> float:
            fuse = spans.get("fusion.fuse_situation", {}).get("total_ns", 0)
            return ratio(spans.get(span, {}).get("total_ns", 0), fuse)

        ingests = tracer.requests["ingest"]
        offered = c["store.records_offered"]
        ms = "ms"
        return {
            "wire.read_ksb.ms": (per_request("wire.read_ksb"), ms),
            "wire.frames": (ratio(c["wire.frames"], ingests), "count"),
            "wire.bytes_per_record": (ratio(self.info["stream_bytes"], self.info["records"]), "B/record"),
            "wire.frames_rejected": (c["wire.frames_rejected"], "count"),
            "store.insert_envelope.ms": (per_request("store.insert_envelope"), ms),
            "store.insert_raw.ms": (per_request("store.insert_raw"), ms),
            "store.rows_new": (ratio(c["store.rows_new"], ingests), "count"),
            "store.rows_ignored": (ratio(offered - c["store.rows_new"], ingests), "count"),
            "store.insert_new_ratio": (ratio(c["store.rows_new"], offered), "ratio"),
            "store.db_bytes_per_record": (ratio(self.info["db_bytes"], self.rows_total), "B/record"),
            "store.query_raw.ms": (per_request("store.query_raw"), ms),
            "store.query_raw.rows_returned": (
                ratio(c["store.query_raw.rows_returned"], calls("store.query_raw")), "count"),
            "store.rows_total": (self.rows_total, "count"),
            "store.vut_fix_near.ms": (per_request("store.vut_fix_near"), ms),
            "store.vut_fixes.ms": (per_request("store.vut_fixes"), ms),
            "store.topologies.ms": (per_request("store.topologies"), ms),
            "store.environment_candidates.ms": (per_request("store.environment_candidates"), ms),
            "fusion.dedup.ms": (per_request("fusion.dedup"), ms),
            "fusion.dedup.observations": (ratio(c["fusion.dedup.observations"], calls("fusion.dedup")), "count"),
            "fusion.dedup.comparisons": (ratio(c["fusion.dedup.comparisons"], calls("fusion.dedup")), "count"),
            "fusion.dedup.comparison_ratio": (
                ratio(c["fusion.dedup.comparisons"], c["fusion.dedup.brute_force"]), "ratio"),
            "fusion.dedup.groups": (ratio(c["fusion.dedup.groups"], calls("fusion.dedup")), "count"),
            "fusion.dedup.share_of_fuse": (share("fusion.dedup"), "ratio"),
            "fusion.fuse_situation.self_ms": (per_request("fusion.fuse_situation"), ms),
            "messages.observations.ms": (per_request("messages.observations"), ms),
            "aggregators.backend_dedup.ms": (per_request("aggregators.backend_dedup"), ms),
            "aggregators.backend_dedup.kept_ratio": (
                ratio(c["aggregators.backend_dedup.rows_out"], c["aggregators.backend_dedup.rows_in"]), "ratio"),
            "fusion.join_topology.ms": (per_request("fusion.join_topology"), ms),
            "fusion.link_lanes.ms": (per_request("fusion.link_lanes"), ms),
            "fusion.link_lanes.linked": (ratio(c["fusion.link_lanes.linked"], calls("fusion.link_lanes")), "count"),
            "store.persist_situation.ms": (per_request("store.persist_situation"), ms),
            "store.query_raw.share_of_fuse": (share("store.query_raw"), "ratio"),
            "store.load_situation.ms": (per_request("store.load_situation"), ms),
            "metrics.evaluate_situation.ms": (per_request("metrics.evaluate_situation"), ms),
            "metrics.rows_to_csv.ms": (per_request("metrics.rows_to_csv"), ms),
            "metrics.rows": (ratio(c["metrics.rows"], calls("metrics.evaluate_situation")), "count"),
            "store.driver_samples.ms": (per_request("store.driver_samples"), ms),
            "stressmap.tree_from_samples.ms": (per_request("stressmap.tree_from_samples"), ms),
            "stressmap.cells.ms": (per_request("stressmap.cells"), ms),
            "stressmap.export_geojson.ms": (per_request("stressmap.export_geojson"), ms),
            "stressmap.samples": (ratio(c["stressmap.samples"], tracer.requests["stressmap"]), "count"),
            "stressmap.cells": (ratio(c["stressmap.cells"], tracer.requests["stressmap"]), "count"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }
