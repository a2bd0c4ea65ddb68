"""Fused situation record types.

A situation is a georeferenced, timestamped snapshot: the merged traffic
objects around the vehicle under test plus everything linked to the same
place and moment (signalized topology, VUT sensors, driver state, hazards,
weather).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .geo import GeoPosition
from .messages import (
    DriverStateSample,
    EnvironmentSample,
    HazardEvent,
    MapTopology,
    ObjectClassification,
    ObservationSource,
    StationId,
    VutSensorExtract,
)


class ProvenanceEntry(NamedTuple):
    source: ObservationSource
    reporter: StationId
    object_id: int


@dataclass(frozen=True)
class FusedObject:
    """One merged road user with the full list of raw reports behind it."""

    fused_id: int
    classification: ObjectClassification
    position: GeoPosition
    speed: float
    course: float
    provenance: tuple[ProvenanceEntry, ...]
    lane_id: int | None = None

    def __post_init__(self):
        if not self.provenance:
            raise ValueError("fused object without provenance")


@dataclass(frozen=True)
class SituationRecord:
    situation_id: int
    center: GeoPosition
    radius_m: float
    timestamp: int
    vut: StationId
    objects: tuple[FusedObject, ...]
    topology: MapTopology | None = None
    vut_sensor: VutSensorExtract | None = None
    driver: DriverStateSample | None = None
    hazards: tuple[HazardEvent, ...] = ()
    environment: EnvironmentSample | None = None
