"""Reference evaluation path: one object at a time, in scalar Python.

This is the evaluator that ``metrics.evaluate_situation`` replaced with one
numpy pass over the situation (``metrics._relations``): ``compute_tti`` and
``compute_ru`` on one pair of ``KinematicState``s, each projecting the object
with ``to_local_enu``, and ``evaluate_situation`` calling them object by
object after finding the VUT with ``is_vut_object``.  The tests use it as the
oracle that the array pass must match float bit for float bit, and error
for error.
"""

from __future__ import annotations

import math

from situfuse.geo import course_to_unit_vector, haversine_distance, to_local_enu
from situfuse.messages import ObservationSource
from situfuse.metrics import (
    RU_CLOSING_FLOOR_MS,
    RU_MAX,
    TTI_SPEED_FLOOR_MS,
    EvaluationRow,
    KinematicState,
    MissingVutState,
    _PARALLEL_EPS,
)
from situfuse.situation import FusedObject, SituationRecord


def compute_tti(vut: KinematicState, obj: KinematicState) -> tuple[int, int]:
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
    for entry in obj.provenance:
        if entry.source is ObservationSource.VUT_LOCAL_SENSOR:
            return True
        if entry.source is ObservationSource.CAM_SELF_REPORT and entry.object_id == vut_station:
            return True
    return False


def vut_state(s: SituationRecord) -> KinematicState:
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
    lines = ["ID,Classification,Lat,Lon,Speed,Course,Distance,TTI_OBJ,TTI_VUT,RU"]
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
