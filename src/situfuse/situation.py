"""Fused situation record types.

A situation is a georeferenced, timestamped snapshot: the merged traffic
objects around the vehicle under test plus everything linked to the same
place and moment (signalized topology, VUT sensors, driver state, hazards,
weather).  Its objects travel as columns (``FusedColumns``) from dedup to
the CSV; a ``FusedObject`` is built only when one is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geo import GeoPosition
from .messages import (
    CLASSIFICATION_BY_CODE,
    SOURCE_BY_CODE,
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


_CLASS_CODES = np.array(list(ObjectClassification))
_DTYPES = dict(fused_id=np.int64, classification=np.int64, lat=float, lon=float, speed=float, course=float,
               source=np.int64, reporter=np.int64, object_id=np.int64, counts=np.int64)


@dataclass(frozen=True, eq=False)
class FusedColumns(Sequence):
    """Fused objects as columns, the provenance flat with ``counts`` entries
    per object; class codes outside ObjectClassification read UNKNOWN.  As a
    sequence it is the FusedObjects, built on first use, equal to any sequence
    of them and hashed like their tuple; two FusedColumns compare by columns.
    Building raises what the first object at fault would: GeoPosition's
    ValueError or "fused object without provenance"."""

    fused_id: np.ndarray
    classification: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    speed: np.ndarray
    course: np.ndarray
    lane_id: tuple  # int or None
    source: np.ndarray
    reporter: np.ndarray
    object_id: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        for name, dtype in _DTYPES.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        known = (self.classification[:, None] == _CLASS_CODES).any(axis=1)
        object.__setattr__(self, "classification", np.where(known, self.classification, 0))
        object.__setattr__(self, "lane_id", tuple(self.lane_id))
        bad = ~((np.abs(self.lat) <= 90.0) & (np.abs(self.lon) <= 180.0)) | (self.counts < 1)
        if bad.any():
            GeoPosition(self.lat[bad.argmax()].item(), self.lon[bad.argmax()].item())
            raise ValueError("fused object without provenance")

    @classmethod
    def of(cls, objects: Sequence[FusedObject]) -> FusedColumns:
        """``objects`` itself if it is a FusedColumns, else the columns of its FusedObjects."""
        if isinstance(objects, FusedColumns):
            return objects
        objects = tuple(objects)
        rows = [(o.fused_id, o.classification, o.position.lat, o.position.lon, o.speed, o.course, o.lane_id,
                 len(o.provenance)) for o in objects]
        *head, lane_id, counts = list(zip(*rows)) or [()] * 8
        entries = list(zip(*[e for o in objects for e in o.provenance])) or [()] * 3
        return cls(*head, lane_id, *entries, counts)

    @cached_property
    def typed(self) -> tuple[FusedObject, ...]:
        entries = list(map(ProvenanceEntry, map(SOURCE_BY_CODE.__getitem__, self.source.tolist()),
                           self.reporter.tolist(), self.object_id.tolist()))
        return tuple(
            FusedObject(fused_id, CLASSIFICATION_BY_CODE[code], GeoPosition(lat, lon), speed, course,
                        tuple(entries[end - count : end]), lane_id)
            for fused_id, code, lat, lon, speed, course, lane_id, count, end in zip(
                *(getattr(self, name).tolist() for name in list(_DTYPES)[:6]),  # fused_id .. course
                self.lane_id, self.counts.tolist(), np.cumsum(self.counts).tolist(),
            )
        )

    def __len__(self) -> int:
        return len(self.fused_id)

    def __getitem__(self, index):
        return self.typed[index]

    def __eq__(self, other):
        if isinstance(other, FusedColumns):
            return self.lane_id == other.lane_id and all(
                np.array_equal(getattr(self, name), getattr(other, name)) for name in _DTYPES)
        return self.typed == tuple(other) if isinstance(other, Sequence) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.typed)


@dataclass(frozen=True)
class SituationRecord:
    situation_id: int
    center: GeoPosition
    radius_m: float
    timestamp: int
    vut: StationId
    objects: FusedColumns  # given as any sequence of FusedObjects, kept as FusedColumns
    topology: MapTopology | None = None
    vut_sensor: VutSensorExtract | None = None
    driver: DriverStateSample | None = None
    hazards: tuple[HazardEvent, ...] = ()
    environment: EnvironmentSample | None = None

    def __post_init__(self):
        object.__setattr__(self, "objects", FusedColumns.of(self.objects))
