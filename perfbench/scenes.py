"""Seeded inputs: simgen scenes written as one `.ksb` stream in arrival order.

Everything here is derived from the workload seed alone, so one seed gives
byte-identical streams.  simgen produces the inputs and the ground truth used
for scoring; it is not a layer under test.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from situfuse import simgen, wire
from situfuse.geo import GeoPosition, LocalPoint, from_local_enu, haversine_distance
from situfuse.messages import MapLane, MapTopology, SignalPhase, SpatExtract
from situfuse.simgen import MessageRates, ScenarioConfig

# The ROADMAP scene, ~100k records in ~103 frames; driver samples at 10 Hz
# as in the history scenes, so that its stress map has 301 samples.
DENSE = dict(
    duration_s=30.0,
    vehicle_count=200,
    pedestrian_count=50,
    spawn_radius_m=150.0,
    rates=MessageRates(cam_hz=10.0, cpm_hz=10.0, vut_hz=10.0, driver_hz=10.0),
)
DENSE_PERIOD_MS = 100  # CAM/CPM/VUT emission period

# One history scene; HISTORY_SCENES of them share one store.
HISTORY = dict(
    duration_s=60.0,
    vehicle_count=100,
    pedestrian_count=20,
    rates=MessageRates(cam_hz=1.0, cpm_hz=1.0, vut_hz=5.0, driver_hz=10.0),
)
HISTORY_SCENES = 24
HISTORY_PERIOD_MS = 1000  # CAM/CPM emission period
HISTORY_SPACING_M = 2000.0
HISTORY_GRID_COLUMNS = 6
HISTORY_GAP_MS = 1000  # between the end of one scene and the start of the next

RETRANSMIT_SHARE = 0.10
RECEIVE_DELAY_MS = 250

# The dense scene's VUT drives through the intersection: its closest approach
# to the centre is within CROSSING_M and falls in the middle third of the scene.
CROSSING_M = 20.0

RSU_STATION = 900
INTERSECTION_ID = 1
APPROACH_M = 150.0  # lane length from the stop line outwards
STOP_LINE_M = 8.0
LANE_OFFSET_M = 1.75
SIGNAL_CYCLE_MS = 30_000

_TABLE_OF_KIND = {
    wire.RecordKind.CAM_EXTRACT: "raw_cam",
    wire.RecordKind.CPM_DETECTION: "raw_cpm_detection",
    wire.RecordKind.SPAT: "raw_spat",
    wire.RecordKind.VUT_SENSOR: "raw_vut_sensor",
    wire.RecordKind.DRIVER_STATE: "raw_driver",
    wire.RecordKind.ENVIRONMENT: "raw_environment",
    wire.RecordKind.HAZARD: "raw_hazard",
}


@dataclass
class ScenePart:
    """One simulated scene inside a stream."""

    cfg: ScenarioConfig
    truth: simgen.GroundTruth


@dataclass
class Stream:
    """A workload's input: frames in arrival order plus what they must produce."""

    envelopes: list  # wire.BatchEnvelope, in arrival order
    retransmit: list[bool]  # per frame: a re-send of an earlier frame
    parts: list[ScenePart]
    topology: MapTopology | None
    expected_rows: dict[str, int]  # raw table -> distinct generated records

    @property
    def records(self) -> int:
        return sum(len(e.records) for e in self.envelopes)

    def write(self, path) -> int:
        """Encode the stream as a `.ksb` file; returns its size in bytes."""
        wire.write_ksb(path, self.envelopes)
        return os.path.getsize(path)

    def digest(self) -> str:
        h = hashlib.sha256()
        for env in self.envelopes:
            h.update(wire.encode_batch(env))
        return h.hexdigest()


def receive_time(env) -> int:
    return env.meta.ref_time + RECEIVE_DELAY_MS


def _distinct_rows(envelopes) -> dict[str, int]:
    seen = set()
    per_table: Counter = Counter()
    for env in envelopes:
        m = env.meta
        for r in env.records:
            key = (m.station, m.ref_time, r.kind, r.rel_time, r.rel_lat, r.rel_lon, r.payload)
            if key not in seen:
                seen.add(key)
                per_table[_TABLE_OF_KIND[r.kind]] += 1
    return {table: per_table.get(table, 0) for table in _TABLE_OF_KIND.values()}


def _arrival_order(envelopes, rng) -> tuple[list, list[bool]]:
    """Frames by reference time, then station; ~10% re-sent later in the stream.

    Only vehicle frames are re-sent: vehicles send over a cellular link, the
    camera and the RSU over a wired one.  The camera's frames carry tens of
    thousands of records each, so re-sending one would swing the work of a
    run by a third.
    """
    ordered = sorted(envelopes, key=lambda e: (e.meta.ref_time, e.meta.station))
    n = len(ordered)
    wired = (simgen.CAMERA_STATION, RSU_STATION)
    vehicle_frames = [i for i, e in enumerate(ordered) if e.meta.station not in wired]
    count = max(1, round(RETRANSMIT_SHARE * n))
    resend = sorted(rng.choice(vehicle_frames, size=count, replace=False).tolist())
    # Each re-send lands at a seed-drawn slot after its original.
    slots: dict[int, list[int]] = {}
    for i in resend:
        slots.setdefault(int(rng.integers(i + 1, n + 1)), []).append(i)
    out, flags = [], []
    for pos in range(n + 1):
        for i in slots.get(pos, []):
            out.append(ordered[i])
            flags.append(True)
        if pos < n:
            out.append(ordered[pos])
            flags.append(False)
    return out, flags


def _sub_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def intersection(center: GeoPosition) -> MapTopology:
    """Four approaches; each has an ingress lane (signal group 1..4) and an egress lane."""
    lanes = []
    for k, course in enumerate((0.0, 90.0, 180.0, 270.0)):
        # Traffic on this approach drives along `course` towards the centre.
        east, north = math.sin(math.radians(course)), math.cos(math.radians(course))
        right_e, right_n = north, -east

        def at(along: float, lateral: float) -> GeoPosition:
            return from_local_enu(
                center,
                LocalPoint(along * east + lateral * right_e, along * north + lateral * right_n),
            )

        ingress = (at(-APPROACH_M, LANE_OFFSET_M), at(-STOP_LINE_M, LANE_OFFSET_M))
        egress = (at(STOP_LINE_M, LANE_OFFSET_M), at(APPROACH_M, LANE_OFFSET_M))
        lanes.append(MapLane(lane_id=2 * k + 1, signal_group=k + 1, polyline=ingress, ingress=True))
        lanes.append(MapLane(lane_id=2 * k + 2, signal_group=k + 1, polyline=egress, ingress=False))
    return MapTopology(intersection_id=INTERSECTION_ID, lanes=tuple(lanes))


def _phase(group: int, t_in_cycle: int) -> tuple[SignalPhase, int]:
    """Phase of a signal group and ms until it changes; N-S and E-W alternate."""
    half = SIGNAL_CYCLE_MS // 2
    own = t_in_cycle - (0 if group in (1, 3) else half)
    own %= SIGNAL_CYCLE_MS
    for phase, end in (
        (SignalPhase.GREEN, half - 3000),
        (SignalPhase.AMBER, half),
        (SignalPhase.RED, SIGNAL_CYCLE_MS - 1000),
        (SignalPhase.RED_AMBER, SIGNAL_CYCLE_MS),
    ):
        if own < end:
            return phase, end - own
    raise AssertionError("unreachable")


def _spat_envelopes(cfg: ScenarioConfig, rng) -> list:
    offset = int(rng.integers(0, SIGNAL_CYCLE_MS))
    duration_ms = round(cfg.duration_s * 1000)
    records = []
    for t in range(cfg.start_time_ms, cfg.start_time_ms + duration_ms + 1, DENSE_PERIOD_MS):
        for group in (1, 2, 3, 4):
            phase, left = _phase(group, (t - cfg.start_time_ms + offset) % SIGNAL_CYCLE_MS)
            spat = SpatExtract(INTERSECTION_ID, group, phase, t + left)
            records.append(
                wire.AbsoluteRecord(wire.RecordKind.SPAT, t, cfg.center, wire.pack_spat(spat))
            )
    return wire.plan_batches(records, RSU_STATION)


def _crosses_centre(cfg: ScenarioConfig, truth: simgen.GroundTruth) -> bool:
    vut = truth.object_by_id(simgen.VUT_OBJECT_ID)
    duration_ms = round(cfg.duration_s * 1000)
    distance, at = min(
        (haversine_distance(cfg.center, vut.state_at(cfg.start_time_ms + t)[0]), t)
        for t in range(0, duration_ms + 1, DENSE_PERIOD_MS)
    )
    return distance <= CROSSING_M and duration_ms / 3 <= at <= 2 * duration_ms / 3


def _dense_scene(rng) -> tuple[ScenarioConfig, simgen.GroundTruth, list]:
    """The first sub-seed whose VUT drives through the centre mid-scene.

    simgen places the VUT before any other object, so a probe scene without
    other objects shows the VUT's path cheaply; the full scene is checked too.
    """
    while True:
        cfg = ScenarioConfig(seed=_sub_seed(rng), **DENSE)
        probe = replace(cfg, vehicle_count=0, pedestrian_count=0)
        if not _crosses_centre(probe, simgen.generate(probe)[0]):
            continue
        truth, envelopes = simgen.generate(cfg)
        if _crosses_centre(cfg, truth):
            return cfg, truth, envelopes


def dense_stream(seed: int, with_intersection: bool) -> Stream:
    """The ROADMAP scene; with the intersection it also carries 10 Hz SPAT."""
    rng = np.random.default_rng([seed, 1])
    cfg, truth, envelopes = _dense_scene(rng)
    topology = None
    if with_intersection:
        envelopes = envelopes + _spat_envelopes(cfg, rng)
        topology = intersection(cfg.center)
    ordered, flags = _arrival_order(envelopes, rng)
    return Stream(ordered, flags, [ScenePart(cfg, truth)], topology, _distinct_rows(envelopes))


def history_stream(seed: int) -> Stream:
    """HISTORY_SCENES scenes, each with its own sub-seed, VUT, start time and centre."""
    rng = np.random.default_rng([seed, 2])
    origin = ScenarioConfig().center
    duration_ms = round(HISTORY["duration_s"] * 1000)
    stations = rng.choice(np.arange(1000, 2000), size=HISTORY_SCENES, replace=False)
    parts, envelopes = [], []
    for k in range(HISTORY_SCENES):
        row, col = divmod(k, HISTORY_GRID_COLUMNS)
        jitter = rng.uniform(-100.0, 100.0, size=2)
        center = from_local_enu(
            origin,
            LocalPoint(col * HISTORY_SPACING_M + jitter[0], row * HISTORY_SPACING_M + jitter[1]),
        )
        cfg = ScenarioConfig(
            seed=_sub_seed(rng),
            center=center,
            vut_station=int(stations[k]),
            start_time_ms=simgen.DEFAULT_START_MS
            + k * (duration_ms + HISTORY_GAP_MS)
            + int(rng.integers(0, HISTORY_GAP_MS)),
            **HISTORY,
        )
        truth, part_envelopes = simgen.generate(cfg)
        parts.append(ScenePart(cfg, truth))
        envelopes.extend(part_envelopes)
    ordered, flags = _arrival_order(envelopes, rng)
    return Stream(ordered, flags, parts, None, _distinct_rows(envelopes))


def fuse_times(rng, part: ScenePart, period_ms: int, calls: int, phases) -> list[int]:
    """Fuse timestamps across a scene's interior, stratified in time and in phase.

    Call i lands in the i-th of `calls` equal slices of the interior, on a
    seed-drawn emission instant, plus an offset of 1..period-1 ms taken from
    its own stratum of `phases` (fractions in [0, 1)).  No timestamp falls
    on an emission instant.
    """
    start = part.cfg.start_time_ms
    lo = start + period_ms * math.ceil(1000 / period_ms)
    n_periods = (round(part.cfg.duration_s * 1000) - 2000) // period_ms
    out = []
    for i in range(calls):
        j = int((i + rng.uniform()) * n_periods / calls)
        out.append(lo + j * period_ms + 1 + int(phases[i] * (period_ms - 1)))
    return out


def stratified_phases(rng, n: int) -> list[float]:
    """n fractions in [0, 1), one per stratum, in seed-drawn order."""
    return ((rng.permutation(n) + rng.uniform(size=n)) / n).tolist()
