"""Situation evaluation metrics.

For every traffic object in a situation, four values describe its relation
to the vehicle under test:

* distance: great-circle distance in metres;
* TTI pair: the milliseconds the object (TTI_OBJ) and the VUT (TTI_VUT) need
  to reach the intersection point of their straight constant-velocity paths,
  or -1 for both when those paths never cross in the future or either party
  is slower than TTI_SPEED_FLOOR_MS;
* RU (relative urgency): milliseconds to contact at the current closing
  rate; the slower the approach, the larger the value, with a MAX sentinel
  when they close at RU_CLOSING_FLOOR_MS or less.

Evaluation reads the situation's columns: the VUT and every relation come
from one numpy pass, with the scalar formulas' floats bit for bit.

The CSV export mirrors the evaluation table layout with exactly these
columns: ID, Classification, Lat, Lon, Speed, Course, Distance, TTI_OBJ,
TTI_VUT, RU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .geo import EARTH_RADIUS_M, course_to_unit_vector, to_local_enu_arrays
from .messages import (
    CLASSIFICATION_BY_CODE,
    DriverStateSample,
    HazardEvent,
    HazardKind,
    ObjectClassification,
    ObservationSource,
)
from .situation import FusedColumns, SituationRecord

# RU sentinel meaning "not closing"; rendered as the literal MAX in CSV.
RU_MAX = None

TTI_SPEED_FLOOR_MS = 0.1
RU_CLOSING_FLOOR_MS = 0.05

HANDOVER_MIN_TTI_MS = 3000
HANDOVER_NEAR_DISTANCE_M = 25.0

CSV_HEADER = "ID,Classification,Lat,Lon,Speed,Course,Distance,TTI_OBJ,TTI_VUT,RU"

_PARALLEL_EPS = 1e-9


class MissingVutState(LookupError):
    """The situation contains no object identifiable as the VUT."""


class EvaluationRow(NamedTuple):
    object_id: int
    classification: ObjectClassification
    lat: float
    lon: float
    speed: float
    course: float
    distance_m: float
    tti_obj_ms: int
    tti_vut_ms: int
    ru: int | None  # None is the MAX sentinel


def _relations(vut: tuple[float, float, float, float], lat, lon, speed, course) -> tuple[list, ...]:
    """Distance, TTI_OBJ, TTI_VUT and RU lists of the objects (arrays) relative
    to ``vut`` (lat, lon, speed, course), with the scalar formulas' floats:
    math's sin, cos, asin and hypot mapped over lists and haversine's squares
    as Python ``** 2`` (numpy's differ in the last bit), ``round`` on kept
    values only.  A negative speed raises ValueError, the VUT's before any
    object's; then a far object raises RangeExceeded."""
    v_lat, v_lon, v_speed, v_course = vut
    if v_speed < 0:
        raise ValueError(f"negative speed: {v_speed}")
    if (speed < 0.0).any():
        raise ValueError(f"negative speed: {speed[speed < 0.0][0]}")
    east, north = to_local_enu_arrays(v_lat, v_lon, lat, lon)
    with np.errstate(all="ignore"):
        sin2_dphi = np.array([math.sin(x) ** 2 for x in (np.radians(lat - v_lat) / 2.0).tolist()])
        sin2_dlam = np.array([math.sin(x) ** 2 for x in (np.radians(lon - v_lon) / 2.0).tolist()])
        cos_phi2 = np.array(list(map(math.cos, np.radians(lat).tolist())))
        h = sin2_dphi + math.cos(math.radians(v_lat)) * cos_phi2 * sin2_dlam
        distance = 2.0 * EARTH_RADIUS_M * np.array(list(map(math.asin, np.minimum(1.0, np.sqrt(h)).tolist())))
        ve, vn = course_to_unit_vector(v_course)
        rad = np.radians(course).tolist()
        oe, on = np.array(list(map(math.sin, rad))), np.array(list(map(math.cos, rad)))
        det = oe * vn - on * ve
        dist_vut = (oe * north - on * east) / det
        dist_obj = (ve * north - vn * east) / det
        crossing = np.flatnonzero(~(
            (speed < TTI_SPEED_FLOOR_MS) | (v_speed < TTI_SPEED_FLOOR_MS)
            | (np.abs(det) < _PARALLEL_EPS) | (dist_vut < 0.0) | (dist_obj < 0.0)
        ))
        tti_obj, tti_vut = np.full((2, len(lat)), -1, dtype=object)
        tti_obj[crossing] = list(map(round, (1000.0 * dist_obj[crossing] / speed[crossing]).tolist()))
        tti_vut[crossing] = list(map(round, (1000.0 * dist_vut[crossing] / v_speed).tolist()))

        d = np.array(list(map(math.hypot, east.tolist(), north.tolist())))
        closing = -(east * (speed * oe - v_speed * ve) + north * (speed * on - v_speed * vn)) / d
        approaching = np.flatnonzero(~((d < 1e-9) | (closing <= RU_CLOSING_FLOOR_MS)))
        ru = np.full(len(lat), RU_MAX, dtype=object)
        ru[approaching] = [max(1, round(x)) for x in (1000.0 * d[approaching] / closing[approaching]).tolist()]
    return distance.tolist(), tti_obj.tolist(), tti_vut.tolist(), ru.tolist()


def vut_marks(objects: FusedColumns, vut_station: int) -> np.ndarray:
    """Per object 2 when the VUT's own sensors report it, else 1 when its CAM
    does (a self-report of object id ``vut_station``), else 0."""
    mark = np.where(objects.source == ObservationSource.VUT_LOCAL_SENSOR, 2,
                    (objects.source == ObservationSource.CAM_SELF_REPORT) & (objects.object_id == vut_station))
    return np.maximum.reduceat(mark, np.cumsum(objects.counts) - objects.counts)


def evaluate_situation(s: SituationRecord) -> list[EvaluationRow]:
    """One row per traffic object other than the VUT, ordered by object id
    (one id's objects in situation order), relative to the first object the
    VUT's own sensors report, else to the first its CAM reports."""
    o = s.objects
    marks = vut_marks(o, s.vut)
    if not marks.any():
        raise MissingVutState(f"situation {s.situation_id} has no object of VUT {s.vut}")
    vut = tuple(a[marks.argmax()].item() for a in (o.lat, o.lon, o.speed, o.course))
    others = marks == 0
    lat, lon, speed, course = (a[others] for a in (o.lat, o.lon, o.speed, o.course))
    rows = list(map(
        EvaluationRow, o.fused_id[others].tolist(),
        map(CLASSIFICATION_BY_CODE.__getitem__, o.classification[others].tolist()),
        lat.tolist(), lon.tolist(), speed.tolist(), course.tolist(), *_relations(vut, lat, lon, speed, course),
    ))
    rows.sort(key=itemgetter(0))
    return rows


def _fmt_coord(value: float) -> str:
    text = f"{value:.7f}".rstrip("0")
    return text[:-1] if text.endswith(".") else text


_DISPLAY_NAME = {c: c.display_name for c in ObjectClassification}


def rows_to_csv(rows) -> str:
    """Render evaluation rows in the fixed table layout."""
    lines = [CSV_HEADER]
    for object_id, cls, lat, lon, speed, course, distance, tti_obj, tti_vut, ru in rows:
        lines.append(
            f"{object_id},{_DISPLAY_NAME[cls]},{_fmt_coord(lat)},{_fmt_coord(lon)},{speed:.2f},"
            f"{course:.1f},{distance:.2f},{tti_obj},{tti_vut},{'MAX' if ru is None else ru}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class HandoverSummary:
    min_tti_ms: int | None
    near_object_count: int
    hazard_count: int
    stress_cell: tuple[int, int] | None
    suitable: bool


def handover_summary(
    rows,
    driver: DriverStateSample | None = None,
    hazards: tuple[HazardEvent, ...] = (),
    min_tti_threshold_ms: int = HANDOVER_MIN_TTI_MS,
) -> HandoverSummary:
    """Condense a situation for the handover decision.

    A situation is unsuitable when any path intersection lies closer than the
    TTI threshold or a panic braking event is linked.
    """
    finite = [
        t for r in rows for t in (r.tti_obj_ms, r.tti_vut_ms) if t >= 0
    ]
    min_tti = min(finite) if finite else None
    panic = any(h.kind is HazardKind.PANIC_BRAKING for h in hazards)
    suitable = not panic and (min_tti is None or min_tti >= min_tti_threshold_ms)
    return HandoverSummary(
        min_tti_ms=min_tti,
        near_object_count=sum(1 for r in rows if r.distance_m < HANDOVER_NEAR_DISTANCE_M),
        hazard_count=len(hazards),
        stress_cell=(driver.valence, driver.arousal) if driver is not None else None,
        suitable=suitable,
    )
