"""Deterministic scenario generation and fusion scoring.

A scenario plants constant-velocity road users around an intersection,
then renders the message streams a real deployment would produce: awareness
self-reports from cooperative vehicles, camera detections of everything in
range, sensor and driver records from the vehicle under test.  Each station
queues its records through the station aggregators into its own local store,
and its batches are planned from that queue.  All emission clocks are aligned
to the scenario start, all noise comes from one seeded generator, so a config
maps to byte-identical batches every time.

Scoring compares a fused situation against the ground truth by greedy
nearest-neighbour matching at the situation timestamp.  Greedy is adequate
for the sparse scenes generated here; it can mis-assign in dense clusters
tighter than the match radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geo import (
    GeoPosition,
    LocalPoint,
    course_to_unit_vector,
    from_local_enu,
    haversine_distance,
    normalize_course,
)
from .config import check_scalars
from .aggregators import LocalStore, dda_ingest, tdac_ingest, vda_ingest
from .messages import (
    CamExtract,
    CpmDetection,
    CpmExtract,
    DoorState,
    DriverStateSample,
    ExteriorLight,
    ObjectClassification,
    StationId,
    VutSensorExtract,
)
from .situation import SituationRecord
from . import wire

DEFAULT_START_MS = 1_700_000_000_000

VUT_OBJECT_ID = 0
CAMERA_STATION = 500
CAMERA_TRACK_OFFSET = 1000
VEHICLE_STATION_OFFSET = 200
MATCH_RADIUS_M = 3.0  # score(): the farthest a fused object may lie from its truth
# generate() queues a whole scene before planning its batches: a scenario
# whose records could exceed this many is refused (the largest benchmark
# scene queues at most ~152k)
MAX_SCENARIO_RECORDS = 1_000_000


@dataclass(frozen=True)
class NoiseSpec:
    position_m: float = 0.5
    course_deg: float = 2.0
    speed_ms: float = 0.2

    def __post_init__(self):
        check_scalars(self, "noise")


@dataclass(frozen=True)
class MessageRates:
    cam_hz: float = 1.0
    cpm_hz: float = 1.0
    vut_hz: float = 5.0
    driver_hz: float = 1.0

    def __post_init__(self):
        check_scalars(self, "rates")
        for name in ("cam_hz", "cpm_hz", "vut_hz", "driver_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


_SCENARIO_BLOCKS = {
    "center": GeoPosition, "cam_noise": NoiseSpec, "cpm_noise": NoiseSpec, "vut_noise": NoiseSpec,
    "rates": MessageRates,
}


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 1
    duration_s: float = 10.0
    center: GeoPosition = GeoPosition(49.234, 6.9826)
    vehicle_count: int = 10
    pedestrian_count: int = 4
    cooperative_fraction: float = 0.5
    camera_radius_m: float = 300.0
    vut_station: StationId = 100
    cam_noise: NoiseSpec = NoiseSpec()
    cpm_noise: NoiseSpec = NoiseSpec()
    vut_noise: NoiseSpec = NoiseSpec(position_m=0.1, course_deg=1.0, speed_ms=0.1)
    rates: MessageRates = MessageRates()
    spawn_radius_m: float = 100.0
    start_time_ms: int = DEFAULT_START_MS

    def __post_init__(self):
        check_scalars(self, "scenario")
        check_scalars(self.center, "center")
        if min(self.vehicle_count, self.pedestrian_count) < 0:
            raise ValueError("vehicle and pedestrian counts must not be negative")
        if not (0.0 <= self.cooperative_fraction <= 1.0):
            raise ValueError(f"cooperative fraction out of [0,1]: {self.cooperative_fraction}")
        if self.duration_s <= 0 or self.camera_radius_m <= 0:
            raise ValueError("duration and camera radius must be positive")
        if self.spawn_radius_m < 0 or self.start_time_ms < 0:
            raise ValueError("spawn radius and start time must not be negative")
        end_ms = self.duration_s * 1000  # inf for the largest floats, so compare before round
        if end_ms > wire.MAX_TIME_MS or self.start_time_ms + round(end_ms) > wire.MAX_TIME_MS:
            raise ValueError(f"scenario ends after the last time a record can carry, {wire.MAX_TIME_MS}")
        # every object's CAMs and CPM detections, plus the VUT's and driver's samples
        r = self.rates
        cam, cpm, vut, driver = (
            round(end_ms) // _period_ms(hz) + 1 for hz in (r.cam_hz, r.cpm_hz, r.vut_hz, r.driver_hz)
        )
        bound = (1 + self.vehicle_count + self.pedestrian_count) * (cam + cpm) + vut + driver
        if bound > MAX_SCENARIO_RECORDS:
            raise ValueError(f"scenario may queue {bound} records, more than {MAX_SCENARIO_RECORDS}")
        if not 0 <= self.vut_station <= 0xFFFFFFFF:
            raise ValueError(f"vut_station does not fit u32: {self.vut_station}")
        # one station per sender; cooperative vehicle k (from 1) is VEHICLE_STATION_OFFSET + k
        vehicles = range(VEHICLE_STATION_OFFSET + 1, VEHICLE_STATION_OFFSET + 1 + self.cooperative_count)
        if self.vut_station == CAMERA_STATION or self.vut_station in vehicles or CAMERA_STATION in vehicles:
            raise ValueError(f"stations clash: VUT {self.vut_station}, camera {CAMERA_STATION}, {vehicles}")

    @property
    def cooperative_count(self) -> int:
        return round(self.vehicle_count * self.cooperative_fraction)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Raises ValueError for a top level that is not an object, an unknown
        key or a malformed nested block."""
        if not isinstance(data, dict):
            raise ValueError(f"scenario must be a JSON object, not {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        kwargs = dict(data)
        for key, block in _SCENARIO_BLOCKS.items():
            if key in kwargs:
                try:
                    kwargs[key] = block(**kwargs[key])
                except TypeError as e:
                    raise ValueError(f"bad scenario {key!r}: {e}") from None
        return cls(**kwargs)


@dataclass(frozen=True)
class TruthObject:
    object_id: int
    classification: ObjectClassification
    station: StationId | None  # None for a road user that sends no CAM
    t0_ms: int
    position: GeoPosition  # at t0_ms
    speed: float
    course: float

    @property
    def cooperative(self) -> bool:
        return self.station is not None

    def state_at(self, t_ms: int) -> tuple[GeoPosition, float, float]:
        """(position, speed, course) under constant velocity."""
        dt = (t_ms - self.t0_ms) / 1000.0
        east, north = course_to_unit_vector(self.course)
        pos = from_local_enu(
            self.position, LocalPoint(east * self.speed * dt, north * self.speed * dt)
        )
        return pos, self.speed, self.course


@dataclass(frozen=True)
class GroundTruth:
    start_time_ms: int
    duration_ms: int
    vut_station: StationId
    objects: tuple[TruthObject, ...]

    def object_by_id(self, object_id: int) -> TruthObject:
        for o in self.objects:
            if o.object_id == object_id:
                return o
        raise KeyError(object_id)


def _period_ms(rate_hz: float) -> int:
    """At least 1 ms; a period past every time a record can carry (up to inf) is that time."""
    return max(1, round(min(1000.0 / rate_hz, wire.MAX_TIME_MS)))


def _emission_instants(start_ms: int, duration_ms: int, rate_hz: float) -> range:
    return range(start_ms, start_ms + duration_ms + 1, _period_ms(rate_hz))


def _noisy_state(rng, pos: GeoPosition, speed: float, course: float, noise: NoiseSpec):
    de, dn = rng.normal(0.0, noise.position_m, size=2)
    noisy_pos = from_local_enu(pos, LocalPoint(de, dn))
    noisy_speed = max(0.0, speed + rng.normal(0.0, noise.speed_ms))
    noisy_course = normalize_course(course + rng.normal(0.0, noise.course_deg))
    return noisy_pos, noisy_speed, noisy_course


def _spawn_objects(cfg: ScenarioConfig, rng) -> list[TruthObject]:
    def spawn_position() -> GeoPosition:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = cfg.spawn_radius_m * math.sqrt(rng.uniform(0.0, 1.0))
        return from_local_enu(
            cfg.center, LocalPoint(radius * math.sin(angle), radius * math.cos(angle))
        )

    # The VUT drives one of the four approaches.
    vut_course = float(rng.choice([0.0, 90.0, 180.0, 270.0]))
    objects = [
        TruthObject(
            object_id=VUT_OBJECT_ID,
            classification=ObjectClassification.PASSENGER_CAR,
            station=cfg.vut_station,
            t0_ms=cfg.start_time_ms,
            position=spawn_position(),
            speed=rng.uniform(5.0, 12.0),
            course=vut_course,
        )
    ]

    for oid in range(1, 1 + cfg.vehicle_count):
        course = normalize_course(float(rng.choice([0.0, 90.0, 180.0, 270.0])) + rng.normal(0.0, 5.0))
        objects.append(
            TruthObject(
                object_id=oid,
                classification=ObjectClassification.PASSENGER_CAR,
                station=VEHICLE_STATION_OFFSET + oid if oid <= cfg.cooperative_count else None,
                t0_ms=cfg.start_time_ms,
                position=spawn_position(),
                speed=rng.uniform(3.0, 14.0),
                course=course,
            )
        )
    for oid in range(1 + cfg.vehicle_count, 1 + cfg.vehicle_count + cfg.pedestrian_count):
        objects.append(
            TruthObject(
                object_id=oid,
                classification=ObjectClassification.PEDESTRIAN,
                station=None,
                t0_ms=cfg.start_time_ms,
                position=spawn_position(),
                speed=rng.uniform(0.5, 2.0),
                course=rng.uniform(0.0, 360.0),
            )
        )
    return objects


def _default_vut_extract(t: int, gnss: GeoPosition, speed: float) -> VutSensorExtract:
    return VutSensorExtract(
        timestamp=t,
        brake_actuated=False,
        abs_active=False,
        panic_braking=False,
        clutch_pressed=False,
        gear=3,
        door_positions=(DoorState.CLOSED,) * 4,
        exterior_lights=ExteriorLight.LOW_BEAM,
        gnss=gnss,
        speed=speed,
        accel_longitudinal=0.0,
        accel_lateral=0.0,
        rain_intensity=0,
        wiper_active=False,
        yaw_rate=0.0,
        steering_wheel_angle=0.0,
        steering_wheel_velocity=0.0,
    )


def generate(cfg: ScenarioConfig) -> tuple[GroundTruth, list[wire.BatchEnvelope]]:
    """Ground truth plus the batches every remote station would transmit."""
    rng = np.random.default_rng(cfg.seed)
    duration_ms = round(cfg.duration_s * 1000)
    objects = _spawn_objects(cfg, rng)
    truth = GroundTruth(
        start_time_ms=cfg.start_time_ms,
        duration_ms=duration_ms,
        vut_station=cfg.vut_station,
        objects=tuple(objects),
    )

    stations = {
        station: LocalStore(station)
        for station in (CAMERA_STATION, *(obj.station for obj in objects if obj.cooperative))
    }

    # Cooperative self-reports, the VUT included.
    for t in _emission_instants(cfg.start_time_ms, duration_ms, cfg.rates.cam_hz):
        for obj in objects:
            if not obj.cooperative:
                continue
            pos, speed, course = obj.state_at(t)
            npos, nspeed, ncourse = _noisy_state(rng, pos, speed, course, cfg.cam_noise)
            cam = CamExtract(
                originator=obj.station,
                generation_time=t,
                position=npos,
                speed=nspeed,
                course=ncourse,
                classification=obj.classification,
            )
            tdac_ingest(cam, obj.station, stations[obj.station])

    # Camera detections of everything in range, one CPM per instant.
    for t in _emission_instants(cfg.start_time_ms, duration_ms, cfg.rates.cpm_hz):
        detections = []
        for obj in objects:
            pos, speed, course = obj.state_at(t)
            if haversine_distance(cfg.center, pos) > cfg.camera_radius_m:
                continue
            npos, nspeed, ncourse = _noisy_state(rng, pos, speed, course, cfg.cpm_noise)
            detections.append(CpmDetection(
                object_id=CAMERA_TRACK_OFFSET + obj.object_id,
                classification=obj.classification,
                position=npos,
                speed=nspeed,
                course=ncourse,
            ))
        if detections:
            cpm = CpmExtract(CAMERA_STATION, t, tuple(detections))
            tdac_ingest(cpm, CAMERA_STATION, stations[CAMERA_STATION])

    # VUT sensor extracts, one snapshot per instant.
    vut = objects[0]
    for t in _emission_instants(cfg.start_time_ms, duration_ms, cfg.rates.vut_hz):
        pos, speed, course = vut.state_at(t)
        npos, nspeed, _ = _noisy_state(rng, pos, speed, course, cfg.vut_noise)
        vda_ingest(_default_vut_extract(t, npos, nspeed), stations[cfg.vut_station])

    # Driver samples, georeferenced at the VUT.
    for t in _emission_instants(cfg.start_time_ms, duration_ms, cfg.rates.driver_hz):
        pos, _, _ = vut.state_at(t)
        sample = DriverStateSample(
            timestamp=t,
            valence=int(rng.integers(1, 6)),
            arousal=int(rng.integers(1, 6)),
            heart_rate_bpm=int(rng.integers(55, 100)),
            self_reported=False,
        )
        dda_ingest(sample, pos, stations[cfg.vut_station])

    envelopes: list[wire.BatchEnvelope] = []
    for station in sorted(stations):
        envelopes.extend(wire.plan_batches(stations[station].pending, station))
    return truth, envelopes


@dataclass(frozen=True)
class ScoreResult:
    precision: float
    recall: float
    duplicate_rate: float
    fused_count: int
    truth_in_area: int
    matched: int


def score(gt: GroundTruth, fused: SituationRecord) -> ScoreResult:
    """Greedy nearest-neighbour match of fused objects to truth positions."""
    truth_positions = {}
    for obj in gt.objects:
        pos, _, _ = obj.state_at(fused.timestamp)
        if haversine_distance(fused.center, pos) <= fused.radius_m:
            truth_positions[obj.object_id] = pos

    candidates = []
    for fi, fobj in enumerate(fused.objects):
        for tid, tpos in truth_positions.items():
            d = haversine_distance(fobj.position, tpos)
            if d <= MATCH_RADIUS_M:
                candidates.append((d, fi, tid))
    candidates.sort()
    used_fused: set[int] = set()
    used_truth: set[int] = set()
    for _, fi, tid in candidates:
        if fi in used_fused or tid in used_truth:
            continue
        used_fused.add(fi)
        used_truth.add(tid)

    fused_count = len(fused.objects)
    truth_count = len(truth_positions)
    matched = len(used_fused)
    precision = matched / fused_count if fused_count else 1.0
    recall = matched / truth_count if truth_count else 1.0
    duplicate_rate = (fused_count - matched) / truth_count if truth_count else 0.0
    return ScoreResult(
        precision=precision,
        recall=recall,
        duplicate_rate=duplicate_rate,
        fused_count=fused_count,
        truth_in_area=truth_count,
        matched=matched,
    )
