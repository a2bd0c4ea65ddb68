"""Reference fusion path: one typed object per window row.

This is the path that ``fuse_situation`` replaced with numpy columns from
the window to dedup: the VUT's fix and each CAM and CPM track's report
nearest t, picked in Python from a full scan of the time window and kept
inside the circle (``nearest_rows``) -> ``observation_from_cam``/
``observations_from_cpm`` -> each observation and the VUT's own
dead-reckoned to t (``predict``) -> ``dedup`` on the observation list ->
per-object, per-lane ``link_lanes``, with each signal group's SPaT row and
the VUT's driver sample picked the same way, the time window's hazard rows in
the circle read by a full scan and typed too (``object_decode.typed_rows``),
and the SPaT rows joined to the topology by ``join_topology_typed``.  It reads nothing through the store's
window or VUT-fix reads, so it is their oracle.  It also keeps the scalar
similarity check ``is_similar`` (with ``angular_difference``), the scalar
``merge_group_scalar`` and the window query, none of which the package has
any more.  The tests use them as the oracles the column path
must match exactly; ``of`` turns an observation list into the one
``ObservationColumns`` block that ``dedup`` takes, and ``merge_columns``
runs the package's column merge on one group, so tests can build a single
fused object.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from situfuse import fusion
from situfuse.aggregators import backend_dedup, environment_for
from situfuse.fusion import SimilarityThresholds
from situfuse.geo import (
    GeoPosition,
    LocalPoint,
    course_to_unit_vector,
    from_local_enu,
    haversine_distance,
    initial_bearing,
    normalize_course,
    to_local_enu,
)
from situfuse.messages import (
    CpmExtract,
    MapLane,
    MapTopology,
    ObjectClassification,
    ObservationColumns,
    ObservationSource,
    SignalPhase,
    StationId,
    TrafficObjectObservation,
    observation_from_cam,
    observations_from_cpm,
)
from situfuse.situation import FusedObject, ProvenanceEntry, SituationRecord
from situfuse.store import RAW_TABLE, RawSlice, RawSpat, SituationStore
from situfuse.wire import RecordKind

from object_decode import typed_rows


def query_window(
    vut: StationId,
    t: int,
    store: SituationStore,
    window_ms: int = fusion.DEFAULT_WINDOW_MS,
    radius_m: float = fusion.DEFAULT_RADIUS_M,
) -> RawSlice:
    """All raw data around the VUT at time t; fails without a nearby VUT fix."""
    fix = _fix_near(store, vut, t)
    topo = fusion._nearest_topology(store, fix.extract.gnss, radius_m)
    return store.query_raw(t, t - window_ms, t + window_ms, fix.extract.gnss, radius_m, vut,
                           topo.intersection_id if topo else None)


def _track_facts(kind: RecordKind, r) -> tuple:
    """(key, track, time, position) of a typed row: SPaT tracks are signal
    groups keyed by intersection, VUT-sensor and driver rows are keyed by
    station; CAM and CPM tracks have no key."""
    if kind is RecordKind.CAM_EXTRACT:
        return None, r.cam.originator, r.cam.generation_time, r.cam.position
    if kind is RecordKind.CPM_DETECTION:
        return None, (r.originator, r.detection.object_id), r.generation_time, r.detection.position
    if kind is RecordKind.SPAT:
        return r.spat.intersection_id, r.spat.signal_group, r.generation_time, r.position
    if kind is RecordKind.VUT_SENSOR:
        return r.station, r.station, r.extract.timestamp, r.extract.gnss
    return r.station, r.station, r.sample.timestamp, r.position


def nearest_rows(store: SituationStore, kind: RecordKind, t: int, t_min: int, t_max: int,
                 key=None, center: GeoPosition | None = None, radius_m: float = 0.0) -> list:
    """Typed rows of one kind, read by a full scan of its table's rows in
    [t_min, t_max]: of each track of the key (see _track_facts) the one
    nearest t, of two equally near the earlier; with a center, only those
    picked rows that lie within radius_m of it."""
    table, time_column = RAW_TABLE[kind].table, RAW_TABLE[kind].order[0]
    rows = store._conn.execute(
        f"SELECT * FROM {table} WHERE {time_column} BETWEEN ? AND ?", (t_min, t_max)
    ).fetchall()
    nearest = {}
    for r in typed_rows(kind, rows):
        row_key, track, time, position = _track_facts(kind, r)
        if row_key == key and (track not in nearest or (abs(time - t), time) < nearest[track][0]):
            nearest[track] = (abs(time - t), time), position, r
    return [r for _, position, r in nearest.values()
            if center is None or haversine_distance(center, position) <= radius_m]


def vut_fix_scan(store: SituationStore, vut: StationId, t: int, t_min: int, t_max: int):
    """The VUT's sensor row nearest t in [t_min, t_max] by a full scan; None without one."""
    return next(iter(nearest_rows(store, RecordKind.VUT_SENSOR, t, t_min, t_max, vut)), None)


def _fix_near(store: SituationStore, vut: StationId, t: int):
    tolerance = fusion.VUT_FIX_TOLERANCE_MS
    fix = vut_fix_scan(store, vut, t, t - tolerance, t + tolerance)
    if fix is None:
        raise fusion.NoVutFix(f"no GNSS fix of VUT {vut} near {t}")
    return fix


def predict(o: TrafficObjectObservation, t: int) -> TrafficObjectObservation:
    """An observation dead-reckoned to t at constant velocity, as simgen's
    TruthObject.state_at moves a truth object; one stamped t is unchanged."""
    dt = (t - o.timestamp) / 1000.0
    if dt == 0:
        return o
    east, north = course_to_unit_vector(o.course)
    step = LocalPoint(east * o.speed * dt, north * o.speed * dt)
    return replace(o, position=from_local_enu(o.position, step))


def angular_difference(a_deg: float, b_deg: float) -> float:
    """Smallest absolute angle between two courses, in [0, 180] degrees."""
    d = abs(a_deg - b_deg) % 360.0
    return 360.0 - d if d > 180.0 else d


def is_similar(
    a: TrafficObjectObservation, b: TrafficObjectObservation, th: SimilarityThresholds | None = None
) -> bool:
    """Symmetric pairwise check whether two observations may be the same object."""
    th = th or SimilarityThresholds()
    if abs(a.speed - b.speed) > th.max_speed_ms:
        return False
    if angular_difference(a.course, b.course) > th.max_course_deg:
        return False
    if (
        a.classification != b.classification
        and a.classification != ObjectClassification.UNKNOWN
        and b.classification != ObjectClassification.UNKNOWN
    ):
        return False
    return haversine_distance(a.position, b.position) <= th.max_position_m


def of(obs: Sequence[TrafficObjectObservation]) -> ObservationColumns:
    """Observation objects as one checked column block, in list order."""
    rows = [
        (o.position.lat, o.position.lon, o.speed, o.course, o.classification, o.timestamp,
         o.source, o.reporter, o.object_id)
        for o in obs
    ]
    return ObservationColumns.checked(*(zip(*rows) if rows else [()] * len(ObservationColumns._fields)))


def merge_columns(group: Sequence[TrafficObjectObservation]) -> FusedObject:
    """One non-empty group merged by the package's column merge."""
    return fusion._merge_groups(of(group), np.zeros(len(group), dtype=np.int64))[0]


def merge_group_scalar(group: Sequence[TrafficObjectObservation]) -> FusedObject:
    """The column merge, one observation object at a time."""
    members = sorted(group, key=lambda o: (o.timestamp, int(o.source), o.reporter, o.object_id))
    if len(members) == 1:
        only = members[0]
        return FusedObject(
            fused_id=only.object_id,
            classification=only.classification,
            position=only.position,
            speed=only.speed,
            course=only.course,
            provenance=(ProvenanceEntry(only.source, only.reporter, only.object_id),),
        )

    def newest(source: ObservationSource):
        candidates = [o for o in members if o.source is source]
        if not candidates:
            return None
        return max(candidates, key=lambda o: (o.timestamp, -o.reporter, -o.object_id))

    winner = newest(ObservationSource.CAM_SELF_REPORT) or newest(ObservationSource.VUT_LOCAL_SENSOR)
    if winner is not None:
        position, speed, course = winner.position, winner.speed, winner.course
        rep_id = winner.object_id
    else:
        origin = members[0].position
        pts = [to_local_enu(origin, o.position) for o in members]
        east = sum(p.east for p in pts) / len(pts)
        north = sum(p.north for p in pts) / len(pts)
        position = from_local_enu(origin, LocalPoint(east, north))
        speed = sum(o.speed for o in members) / len(members)
        sin_sum = sum(math.sin(math.radians(o.course)) for o in members)
        cos_sum = sum(math.cos(math.radians(o.course)) for o in members)
        course = normalize_course(math.degrees(math.atan2(sin_sum, cos_sum)))
        rep_id = min(o.object_id for o in members)

    non_unknown = {o.classification for o in members} - {ObjectClassification.UNKNOWN}
    classification = min(non_unknown) if non_unknown else ObjectClassification.UNKNOWN
    provenance = tuple(sorted(ProvenanceEntry(o.source, o.reporter, o.object_id) for o in members))
    return FusedObject(
        fused_id=rep_id,
        classification=classification,
        position=position,
        speed=speed,
        course=course,
        provenance=provenance,
    )


def _point_segment_distance(p, a, b) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.hypot(px - ax, py - ay)
    u = ((px - ax) * dx + (py - ay) * dy) / seg2
    u = min(1.0, max(0.0, u))
    return math.hypot(px - (ax + u * dx), py - (ay + u * dy))


def lane_distance_scalar(position: GeoPosition, polyline: Sequence[GeoPosition]) -> float:
    origin = polyline[0]
    p = to_local_enu(origin, position)
    pts = [to_local_enu(origin, q) for q in polyline]
    return min(_point_segment_distance(p, pts[k], pts[k + 1]) for k in range(len(pts) - 1))


def link_lanes_scalar(objects, topology, max_lateral_m: float = fusion.DEFAULT_MAX_LATERAL_M):
    """link_lanes, re-projecting every lane once per object."""
    if topology is None:
        return list(objects)
    linked = []
    for obj in objects:
        best = None
        for lane in topology.lanes:
            d = lane_distance_scalar(obj.position, lane.polyline)
            if d <= max_lateral_m and (best is None or (d, lane.lane_id) < best):
                best = (d, lane.lane_id)
        linked.append(replace(obj, lane_id=best[1]) if best else obj)
    return linked


def join_topology_typed(topo: MapTopology, spats: Sequence[RawSpat]) -> MapTopology:
    """join_topology on typed SPaT rows, one per signal group: each lane gets
    the phase of its signal group's row, UNKNOWN without one."""
    by_group = {s.spat.signal_group: s for s in spats}
    lanes = tuple(
        MapLane(
            lane.lane_id, lane.signal_group, lane.polyline, lane.ingress,
            by_group[lane.signal_group].spat.phase if lane.signal_group in by_group else SignalPhase.UNKNOWN,
        )
        for lane in topo.lanes
    )
    return MapTopology(topo.intersection_id, lanes)


def fuse_situation_typed(
    vut: StationId,
    t: int,
    store: SituationStore,
    window_ms: int = fusion.DEFAULT_WINDOW_MS,
    radius_m: float = fusion.DEFAULT_RADIUS_M,
    max_lateral_m: float = fusion.DEFAULT_MAX_LATERAL_M,
) -> SituationRecord:
    """fuse_situation (not persisted) with one typed object per window row."""
    fix = _fix_near(store, vut, t)
    center = fix.extract.gnss
    topo = fusion._nearest_topology(store, center, radius_m)
    intersection = topo.intersection_id if topo else None
    window = (t, t - window_ms, t + window_ms)
    cams = nearest_rows(store, RecordKind.CAM_EXTRACT, *window, None, center, radius_m)
    cpms = nearest_rows(store, RecordKind.CPM_DETECTION, *window, None, center, radius_m)
    spats = nearest_rows(store, RecordKind.SPAT, *window, intersection, center, radius_m)
    drivers = nearest_rows(store, RecordKind.DRIVER_STATE, *window, vut, center, radius_m)
    hazard_rows = [
        r for r in typed_rows(RecordKind.HAZARD, store._conn.execute(
            "SELECT * FROM raw_hazard WHERE timestamp_ms BETWEEN ? AND ?", window[1:]
        ).fetchall())
        if haversine_distance(center, r.event.position) <= radius_m
    ]

    observations: list[TrafficObjectObservation] = []
    for raw in cams:
        observations.append(observation_from_cam(raw.cam))
    for raw in cpms:
        extract = CpmExtract(raw.originator, raw.generation_time, (raw.detection,))
        observations.extend(observations_from_cpm(extract))
    # the course from the latest earlier fix within the tolerance, once the VUT has moved
    here = fix.extract
    last = vut_fix_scan(store, vut, here.timestamp - 1, here.timestamp - fusion.VUT_FIX_TOLERANCE_MS,
                        here.timestamp - 1)
    course = 0.0
    if last is not None and haversine_distance(last.extract.gnss, here.gnss) > 0.5:
        course = initial_bearing(last.extract.gnss, here.gnss)
    observations.append(TrafficObjectObservation(
        vut, ObjectClassification.PASSENGER_CAR, here.gnss, here.speed, course, here.timestamp,
        ObservationSource.VUT_LOCAL_SENSOR, vut,
    ))
    objects = fusion.dedup(of([predict(o, t) for o in observations]))

    topology = join_topology_typed(topo, spats) if topo else None
    objects = link_lanes_scalar(objects, topology, max_lateral_m)

    driver = drivers[0].sample if drivers else None
    hazards = tuple(
        sorted(
            (r.event for r in backend_dedup(hazard_rows)),
            key=lambda h: (h.timestamp, h.source, int(h.kind)),
        )
    )
    return SituationRecord(
        situation_id=0,
        center=center,
        radius_m=radius_m,
        timestamp=t,
        vut=vut,
        objects=tuple(objects),
        topology=topology,
        vut_sensor=fix.extract,
        driver=driver,
        hazards=hazards,
        environment=environment_for(t, center, store.environment_candidates(t)),
    )
