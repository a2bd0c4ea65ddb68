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

The CSV export mirrors the evaluation table layout with exactly these
columns: ID, Classification, Lat, Lon, Speed, Course, Distance, TTI_OBJ,
TTI_VUT, RU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geo import GeoPosition, course_to_unit_vector, haversine_distance, to_local_enu
from .messages import (
    DriverStateSample,
    HazardEvent,
    HazardKind,
    ObjectClassification,
    ObservationSource,
)
from .situation import FusedObject, SituationRecord

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


@dataclass(frozen=True)
class KinematicState:
    position: GeoPosition
    speed: float
    course: float

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError(f"negative speed: {self.speed}")


@dataclass(frozen=True)
class EvaluationRow:
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


def compute_tti(vut: KinematicState, obj: KinematicState) -> tuple[int, int]:
    """Milliseconds both parties need to reach their path intersection point.

    Returns (-1, -1) whenever that point does not exist in the future of
    both: parallel or anti-parallel courses, the crossing lying behind either
    party, or either of them practically standing still.  The -1 values are
    always paired.
    """
    slowest = min(vut.speed, obj.speed)
    if slowest < TTI_SPEED_FLOOR_MS:
        return (-1, -1)
    u_v = course_to_unit_vector(vut.course)
    u_o = course_to_unit_vector(obj.course)
    p_o = to_local_enu(vut.position, obj.position)

    det = u_o[0] * u_v[1] - u_o[1] * u_v[0]
    if abs(det) < _PARALLEL_EPS:
        return (-1, -1)
    dist_vut = (u_o[0] * p_o.north - u_o[1] * p_o.east) / det
    dist_obj = (u_v[0] * p_o.north - u_v[1] * p_o.east) / det
    if dist_vut < 0.0 or dist_obj < 0.0:
        return (-1, -1)
    return (
        round(1000.0 * dist_obj / obj.speed),
        round(1000.0 * dist_vut / vut.speed),
    )


def compute_ru(vut: KinematicState, obj: KinematicState) -> int | None:
    """Milliseconds to contact at the current closing rate, or MAX (None).

    The closing rate is the negative time derivative of the inter-object
    distance under constant velocities; receding or parallel-moving objects
    are not closing and yield MAX.
    """
    r = to_local_enu(vut.position, obj.position)
    d = math.hypot(r.east, r.north)
    if d < 1e-9:
        return RU_MAX
    u_v = course_to_unit_vector(vut.course)
    u_o = course_to_unit_vector(obj.course)
    rel_east = obj.speed * u_o[0] - vut.speed * u_v[0]
    rel_north = obj.speed * u_o[1] - vut.speed * u_v[1]
    closing = -(r.east * rel_east + r.north * rel_north) / d
    if closing <= RU_CLOSING_FLOOR_MS:
        return RU_MAX
    return max(1, round(1000.0 * d / closing))


def is_vut_object(obj: FusedObject, vut_station: int) -> bool:
    """Whether a fused object's provenance traces back to the VUT itself."""
    for entry in obj.provenance:
        if entry.source is ObservationSource.VUT_LOCAL_SENSOR:
            return True
        if entry.source is ObservationSource.CAM_SELF_REPORT and entry.object_id == vut_station:
            return True
    return False


def vut_state(s: SituationRecord) -> KinematicState:
    """The VUT's kinematic state taken from its fused object."""
    candidates = [o for o in s.objects if is_vut_object(o, s.vut)]
    if not candidates:
        raise MissingVutState(f"situation {s.situation_id} has no object of VUT {s.vut}")
    own_sensor = [
        o
        for o in candidates
        if any(e.source is ObservationSource.VUT_LOCAL_SENSOR for e in o.provenance)
    ]
    chosen = own_sensor[0] if own_sensor else candidates[0]
    return KinematicState(position=chosen.position, speed=chosen.speed, course=chosen.course)


def evaluate_situation(s: SituationRecord) -> list[EvaluationRow]:
    """One row per traffic object other than the VUT, ordered by object id."""
    vut = vut_state(s)
    rows = []
    for obj in s.objects:
        if is_vut_object(obj, s.vut):
            continue
        state = KinematicState(position=obj.position, speed=obj.speed, course=obj.course)
        tti_obj, tti_vut = compute_tti(vut, state)
        rows.append(
            EvaluationRow(
                object_id=obj.fused_id,
                classification=obj.classification,
                lat=obj.position.lat,
                lon=obj.position.lon,
                speed=obj.speed,
                course=obj.course,
                distance_m=haversine_distance(vut.position, obj.position),
                tti_obj_ms=tti_obj,
                tti_vut_ms=tti_vut,
                ru=compute_ru(vut, state),
            )
        )
    rows.sort(key=lambda r: r.object_id)
    return rows


def _fmt_coord(value: float) -> str:
    text = f"{value:.7f}".rstrip("0")
    return text[:-1] if text.endswith(".") else text


def rows_to_csv(rows) -> str:
    """Render evaluation rows in the fixed table layout."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    str(r.object_id),
                    r.classification.display_name,
                    _fmt_coord(r.lat),
                    _fmt_coord(r.lon),
                    f"{r.speed:.2f}",
                    f"{r.course:.1f}",
                    f"{r.distance_m:.2f}",
                    str(r.tti_obj_ms),
                    str(r.tti_vut_ms),
                    "MAX" if r.ru is None else str(r.ru),
                )
            )
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
    near_distance_m: float = HANDOVER_NEAR_DISTANCE_M,
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
        near_object_count=sum(1 for r in rows if r.distance_m < near_distance_m),
        hazard_count=len(hazards),
        stress_cell=(driver.valence, driver.arousal) if driver is not None else None,
        suitable=suitable,
    )
