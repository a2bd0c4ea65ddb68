"""Common domain types for every aggregated data class.

These are deliberately simplified extract records: each carries only the
subset of fields the fusion pipeline consumes, not the full standardized
message bodies they were taken from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geo import GeoPosition

# Temporary station identifier of a sending/receiving node (unsigned 32 bit).
StationId = int


class ObjectClassification(enum.IntEnum):
    UNKNOWN = 0
    PEDESTRIAN = 1
    CYCLIST = 2
    MOPED = 3
    MOTORCYCLE = 4
    PASSENGER_CAR = 5
    BUS = 6
    LIGHT_TRUCK = 7
    HEAVY_TRUCK = 8
    TRAM = 11

    @classmethod
    def _missing_(cls, value):
        """Decoding is total: a code outside the table is UNKNOWN."""
        return cls.UNKNOWN

    @property
    def display_name(self) -> str:
        return self.name.replace("_", " ")


class ObservationSource(enum.IntEnum):
    CAM_SELF_REPORT = 1
    CPM_DETECTION = 2
    VUT_LOCAL_SENSOR = 3


class SignalPhase(enum.IntEnum):
    UNKNOWN = 0
    RED = 1
    RED_AMBER = 2
    GREEN = 3
    AMBER = 4

    @classmethod
    def _missing_(cls, value):
        return cls.UNKNOWN


class HazardKind(enum.IntEnum):
    OTHER = 0
    PANIC_BRAKING = 1
    EMERGENCY_VEHICLE_WARNING = 2

    @classmethod
    def _missing_(cls, value):
        return cls.OTHER


class DoorState(enum.IntEnum):
    CLOSED = 0
    AJAR = 1
    OPEN = 2


class ExteriorLight(enum.IntFlag):
    NONE = 0
    LOW_BEAM = 1
    HIGH_BEAM = 2
    FOG = 4
    HAZARD = 8
    TURN_LEFT = 16
    TURN_RIGHT = 32


def _check_course(course: float) -> None:
    if not (0.0 <= course < 360.0):
        raise ValueError(f"course out of range [0, 360): {course}")


def _check_speed(speed: float) -> None:
    if speed < 0.0:
        raise ValueError(f"negative speed: {speed}")


def _check_timestamp(timestamp: int) -> None:
    if timestamp <= 0:
        raise ValueError(f"timestamp must be positive: {timestamp}")


@dataclass(frozen=True)
class TrafficObjectObservation:
    """One detected or self-reported road user in the common format."""

    object_id: int
    classification: ObjectClassification
    position: GeoPosition
    speed: float
    course: float
    timestamp: int
    source: ObservationSource
    reporter: StationId

    def __post_init__(self):
        _check_speed(self.speed)
        _check_course(self.course)
        _check_timestamp(self.timestamp)


# code -> is it a class; codes outside 0..max clip onto the last entry, False
_KNOWN_CLASS = np.zeros(max(ObjectClassification) + 2, dtype=bool)
_KNOWN_CLASS[list(ObjectClassification)] = True


class ObservationColumns(NamedTuple):
    """Traffic object observations as parallel numpy columns.

    Made by :meth:`checked`, every entry has passed the checks
    of :class:`TrafficObjectObservation`, and class codes outside
    :class:`ObjectClassification` read UNKNOWN.
    """

    lat: np.ndarray
    lon: np.ndarray
    speed: np.ndarray
    course: np.ndarray
    classification: np.ndarray  # ObjectClassification codes
    timestamp: np.ndarray
    source: np.ndarray  # ObservationSource codes
    reporter: np.ndarray
    object_id: np.ndarray

    @classmethod
    def checked(cls, lat, lon, speed, course, classification, timestamp, source, reporter, object_id):
        """Columns from array-likes, ``source`` a scalar or one per entry;
        raises TrafficObjectObservation's ValueError for the first bad entry."""
        lat, lon, speed, course = (np.asarray(a, dtype=float) for a in (lat, lon, speed, course))
        codes, timestamp, reporter, object_id = (
            np.asarray(a, dtype=np.int64) for a in (classification, timestamp, reporter, object_id)
        )
        for bad, check, values in (
            (speed < 0.0, _check_speed, speed),
            (~((course >= 0.0) & (course < 360.0)), _check_course, course),
            (timestamp <= 0, _check_timestamp, timestamp),
        ):
            if bad.any():
                check(values[bad.argmax()].item())
        known = _KNOWN_CLASS[np.clip(codes, -1, len(_KNOWN_CLASS) - 1)]
        codes = np.where(known, codes, int(ObjectClassification.UNKNOWN))
        source = np.broadcast_to(np.asarray(source, dtype=np.int64), lat.shape)
        return cls(lat, lon, speed, course, codes, timestamp, source, reporter, object_id)


@dataclass(frozen=True)
class CamExtract:
    """Self-reported state of one cooperative station."""

    originator: StationId
    generation_time: int
    position: GeoPosition
    speed: float
    course: float
    classification: ObjectClassification

    def __post_init__(self):
        _check_speed(self.speed)
        _check_course(self.course)


@dataclass(frozen=True)
class CpmDetection:
    """One sensor-detected object inside a collective perception extract."""

    object_id: int
    classification: ObjectClassification
    position: GeoPosition
    speed: float
    course: float

    def __post_init__(self):
        _check_speed(self.speed)
        _check_course(self.course)


class EmptyDetectionList(ValueError):
    """A CPM extract carried no detections."""


@dataclass(frozen=True)
class CpmExtract:
    """Detections reported by one sensing station at one generation time."""

    originator: StationId
    generation_time: int
    detections: tuple[CpmDetection, ...]

    def __post_init__(self):
        if not self.detections:
            raise EmptyDetectionList("CPM extract without detections")


@dataclass(frozen=True)
class SpatExtract:
    intersection_id: int
    signal_group: int
    phase: SignalPhase
    change_time: int


@dataclass(frozen=True)
class MapLane:
    lane_id: int
    signal_group: int
    polyline: tuple[GeoPosition, ...]
    ingress: bool
    phase: SignalPhase = SignalPhase.UNKNOWN  # until fusion joins a SPaT

    def __post_init__(self):
        if len(self.polyline) < 2:
            raise ValueError("lane polyline needs at least 2 points")


@dataclass(frozen=True)
class MapTopology:
    intersection_id: int
    lanes: tuple[MapLane, ...]


@dataclass(frozen=True)
class HazardEvent:
    kind: HazardKind
    timestamp: int
    position: GeoPosition
    source: StationId


@dataclass(frozen=True)
class VutSensorExtract:
    """Snapshot of the in-vehicle sensor set of the vehicle under test."""

    timestamp: int
    brake_actuated: bool
    abs_active: bool
    panic_braking: bool
    clutch_pressed: bool
    gear: int
    door_positions: tuple[DoorState, DoorState, DoorState, DoorState]
    exterior_lights: ExteriorLight
    gnss: GeoPosition
    speed: float
    accel_longitudinal: float
    accel_lateral: float
    rain_intensity: int
    wiper_active: bool
    yaw_rate: float
    steering_wheel_angle: float
    steering_wheel_velocity: float

    def __post_init__(self):
        _check_speed(self.speed)
        if not (0 <= self.rain_intensity <= 7):
            raise ValueError(f"rain intensity out of range 0..7: {self.rain_intensity}")
        if self.gear < -1:
            raise ValueError(f"gear below reverse: {self.gear}")


@dataclass(frozen=True)
class DriverStateSample:
    """Five-point valence/arousal self or sensor assessment of the driver."""

    timestamp: int
    valence: int
    arousal: int
    heart_rate_bpm: int | None = None
    self_reported: bool = False

    def __post_init__(self):
        if self.valence not in (1, 2, 3, 4, 5):
            raise ValueError(f"valence out of scale 1..5: {self.valence}")
        if self.arousal not in (1, 2, 3, 4, 5):
            raise ValueError(f"arousal out of scale 1..5: {self.arousal}")
        if self.heart_rate_bpm is not None and self.heart_rate_bpm <= 0:
            raise ValueError(f"heart rate must be positive: {self.heart_rate_bpm}")


@dataclass(frozen=True)
class EnvironmentSample:
    """Weather snapshot valid for a time window and a circular area."""

    timestamp: int
    validity_duration_s: int
    area_center: GeoPosition
    area_radius_m: float
    temperature_c: float
    precipitation_mm_h: float
    wind_speed_ms: float
    wind_direction: float
    illuminance_lux: float
    visibility_m: float
    pressure_hpa: float
    humidity_pct: float
    cloudiness_pct: float

    def __post_init__(self):
        _check_course(self.wind_direction)
        if not (0.0 <= self.humidity_pct <= 100.0):
            raise ValueError(f"humidity out of range: {self.humidity_pct}")
        if not (0.0 <= self.cloudiness_pct <= 100.0):
            raise ValueError(f"cloudiness out of range: {self.cloudiness_pct}")


def observation_from_cam(c: CamExtract) -> TrafficObjectObservation:
    """A CAM is the originator's own report of its state."""
    return TrafficObjectObservation(
        c.originator, c.classification, c.position, c.speed, c.course, c.generation_time,
        ObservationSource.CAM_SELF_REPORT, c.originator,
    )


def observations_from_cpm(c: CpmExtract) -> list[TrafficObjectObservation]:
    """One observation per detection, attributed to the sensing station."""
    return [
        TrafficObjectObservation(
            d.object_id, d.classification, d.position, d.speed, d.course, c.generation_time,
            ObservationSource.CPM_DETECTION, c.originator,
        )
        for d in c.detections
    ]
