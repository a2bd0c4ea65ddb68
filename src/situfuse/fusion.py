"""Situation fusion: normalize, deduplicate, merge, link.

Several sources usually report the same physical road user (its own awareness
message, an infrastructure camera, the test vehicle's sensors).  Sensor error
makes those reports unequal, so duplicates can only be recognized by
similarity: position, course, speed and classification all within thresholds
chosen from the expected sensor error.

To avoid comparing every pair, observations are hashed into a uniform grid of
cubes over their 3-D positions on the sphere (the fixed-radius near-neighbour
cell grid) and compared only with the points of their own and adjacent
cells.  Two positions lie within haversine distance r exactly when their
chord is at most 2R*sin(r/2R); the chord bounds each coordinate difference,
and the cube edge is at least that chord, so every similar pair lies in
adjacent cells, at the poles and across +-180 degrees alike.  The grid is
therefore a pure optimization: the resulting groups are exactly the connected
components of the pairwise similarity relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .geo import (
    EARTH_RADIUS_M,
    GeoPosition,
    LocalPoint,
    from_local_enu,
    haversine_distance,
    initial_bearing,
    normalize_course,
    to_local_enu,
)
from .messages import (
    CpmExtract,
    MapTopology,
    ObjectClassification,
    ObservationSource,
    SignalPhase,
    StationId,
    TrafficObjectObservation,
    observation_from_cam,
    observations_from_cpm,
)
from .situation import (
    FusedObject,
    ProvenanceEntry,
    SignalizedLane,
    SignalizedTopology,
    SituationRecord,
)
from .aggregators import backend_dedup, environment_for
from .store import RawSlice, RawSpat, SituationStore
from .wire import MAX_TIME_MS

DEFAULT_WINDOW_MS = 500
DEFAULT_RADIUS_M = 300.0
DEFAULT_MAX_LATERAL_M = 2.0
VUT_FIX_TOLERANCE_MS = 2000

# Cell edge margin over the threshold chord; covers float rounding of the
# coordinates (~1e-9 m at Earth radius) many times over.
_GRID_MARGIN_M = 1e-3

# Offsets of the 13 neighbour cells that follow a cell in (x, y, z) order,
# plus the cell itself: every pair of adjacent cells is visited once.
_FORWARD_CELLS = np.array(
    [(dx, dy, dz) for dx in (0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
     if (dx, dy, dz) >= (0, 0, 0)]
)


class NoVutFix(LookupError):
    """No VUT position fix close enough to the requested timestamp."""


class EmptyGroup(ValueError):
    pass


@dataclass(frozen=True)
class SimilarityThresholds:
    """Two observations of the same object differ at most by these amounts."""

    max_position_m: float = 2.5
    max_course_deg: float = 15.0
    max_speed_ms: float = 1.5

    def __post_init__(self):
        if min(self.max_position_m, self.max_course_deg, self.max_speed_ms) <= 0:
            raise ValueError("thresholds must be positive")


@dataclass
class DedupStats:
    """Work counters filled by dedup when requested."""

    observations: int = 0
    comparisons: int = 0
    similar_pairs: int = 0
    groups: int = 0

    @property
    def brute_force_comparisons(self) -> int:
        return self.observations * (self.observations - 1) // 2


def is_similar(
    a: TrafficObjectObservation, b: TrafficObjectObservation, th: SimilarityThresholds | None = None
) -> bool:
    """Symmetric pairwise check whether two observations may be the same object."""
    th = th or SimilarityThresholds()
    if abs(a.speed - b.speed) > th.max_speed_ms:
        return False
    d = abs(a.course - b.course) % 360.0
    if min(d, 360.0 - d) > th.max_course_deg:
        return False
    if (
        a.classification != b.classification
        and a.classification != ObjectClassification.UNKNOWN
        and b.classification != ObjectClassification.UNKNOWN
    ):
        return False
    return haversine_distance(a.position, b.position) <= th.max_position_m


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _observation_arrays(obs: Sequence[TrafficObjectObservation]):
    lat = np.array([o.position.lat for o in obs])
    lon = np.array([o.position.lon for o in obs])
    course = np.array([o.course for o in obs])
    speed = np.array([o.speed for o in obs])
    cls = np.array([int(o.classification) for o in obs])
    return lat, lon, course, speed, cls


def _similar_pairs_mask(idx_i, idx_j, arrays, th: SimilarityThresholds):
    """Vectorized is_similar over index pairs; same formulas as the scalar path."""
    lat, lon, course, speed, cls = arrays
    ok = np.abs(speed[idx_i] - speed[idx_j]) <= th.max_speed_ms

    d = np.abs(course[idx_i] - course[idx_j]) % 360.0
    ok &= np.minimum(d, 360.0 - d) <= th.max_course_deg

    unknown = int(ObjectClassification.UNKNOWN)
    ok &= (
        (cls[idx_i] == cls[idx_j]) | (cls[idx_i] == unknown) | (cls[idx_j] == unknown)
    )

    # Haversine only where everything else already matches.
    sub = np.nonzero(ok)[0]
    if sub.size:
        i, j = idx_i[sub], idx_j[sub]
        phi1 = np.radians(lat[i])
        phi2 = np.radians(lat[j])
        dphi = np.radians(lat[j] - lat[i])
        dlam = np.radians(lon[j] - lon[i])
        h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
        dist = 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))
        keep = dist <= th.max_position_m
        mask = np.zeros(len(idx_i), dtype=bool)
        mask[sub[keep]] = True
        return mask
    return np.zeros(len(idx_i), dtype=bool)


def _grid_candidate_pairs(lat: np.ndarray, lon: np.ndarray, max_position_m: float):
    """Index pairs that may lie within ``max_position_m``; each pair once.

    Positions become 3-D points R*(cos(lat)cos(lon), cos(lat)sin(lon),
    sin(lat)).  Haversine distance d <= r holds exactly when the chord is at
    most 2R*sin(r/2R), and the chord bounds |dx|, |dy| and |dz|.  With a cube
    edge of at least that chord, the cell indices of a pair within r differ
    by at most one on every axis, so the pair is produced from the earlier
    point of a shared cell or from the cell whose neighbour offset to the
    other is one of the 13 forward offsets; the backward offsets are never
    scanned, so no pair appears twice.  Nothing depends on the longitude
    range, so the poles and the antimeridian need no special case.
    """
    half_angle = min(max_position_m / (2.0 * EARTH_RADIUS_M), math.pi / 2)
    edge = 2.0 * EARTH_RADIUS_M * math.sin(half_angle) + _GRID_MARGIN_M
    phi, lam = np.radians(lat), np.radians(lon)
    xyz = np.stack((np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)))
    cells = np.floor(EARTH_RADIUS_M * xyz / edge).astype(np.int64)

    # Rank each axis densely over the occupied indices and their neighbours:
    # a neighbour's rank is then the own rank +-1, and keys stay below (3n)^3.
    own = np.zeros(len(lat), dtype=np.int64)
    strides = np.zeros(3, dtype=np.int64)
    for axis, c in enumerate(cells):
        values = np.unique(np.concatenate((c - 1, c, c + 1)))
        own = own * len(values) + np.searchsorted(values, c)
        strides = strides * len(values)
        strides[axis] = 1

    # Work in key order: each row of neighbour keys is then ascending, which
    # keeps the binary searches short.
    order = np.argsort(own, kind="stable")
    sorted_keys = own[order]
    neighbours = sorted_keys + (_FORWARD_CELLS @ strides)[:, None]
    lo = np.searchsorted(sorted_keys, neighbours, side="left")
    hi = np.searchsorted(sorted_keys, neighbours, side="right")
    # Own cell (offset 0): only the points after this one.
    lo[0] = np.arange(1, len(lat) + 1)

    lo, counts = lo.ravel(), (hi - lo).ravel()
    within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    idx_i = np.repeat(np.tile(order, len(_FORWARD_CELLS)), counts)
    idx_j = order[np.repeat(lo, counts) + within]
    return idx_i, idx_j


def dedup(
    obs: Sequence[TrafficObjectObservation],
    th: SimilarityThresholds | None = None,
    cfg: object = None,
    stats: DedupStats | None = None,
) -> list[FusedObject]:
    """Merge all observations of the same physical object into one record.

    Groups are the connected components of the similarity relation; the cell
    grid only prunes pairs that can never be similar.  Output is ordered by
    fused position (lat, lon, then course).  ``cfg`` is deprecated and
    ignored; it once held the course-bucketing widths.
    """
    th = th or SimilarityThresholds()
    arrays = _observation_arrays(obs)
    idx_i, idx_j = _grid_candidate_pairs(arrays[0], arrays[1], th.max_position_m)
    similar = _similar_pairs_mask(idx_i, idx_j, arrays, th)

    uf = _UnionFind(len(obs))
    for a, b in zip(idx_i[similar].tolist(), idx_j[similar].tolist()):
        uf.union(a, b)

    groups: dict[int, list[TrafficObjectObservation]] = {}
    for k, o in enumerate(obs):
        groups.setdefault(uf.find(k), []).append(o)

    if stats is not None:
        stats.observations = len(obs)
        stats.comparisons = int(len(idx_i))
        stats.similar_pairs = int(similar.sum())
        stats.groups = len(groups)

    fused = [merge_group(g) for g in groups.values()]
    fused.sort(key=lambda f: (f.position.lat, f.position.lon, f.course))
    return fused


def merge_group(group: Sequence[TrafficObjectObservation]) -> FusedObject:
    """Collapse one similarity group into a single object.

    A self-report knows its own kinematics best, so a CAM wins outright, then
    the VUT's own sensors; otherwise detections are averaged (positions on
    the local plane, courses circularly).
    """
    if not group:
        raise EmptyGroup("cannot merge an empty group")
    members = sorted(
        group, key=lambda o: (o.timestamp, int(o.source), o.reporter, o.object_id)
    )
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

    provenance = tuple(
        sorted(
            ProvenanceEntry(o.source, o.reporter, o.object_id)
            for o in members
        )
    )
    return FusedObject(
        fused_id=rep_id,
        classification=classification,
        position=position,
        speed=speed,
        course=course,
        provenance=provenance,
    )


# --- window query and linking -----------------------------------------------


def query_window(
    vut: StationId,
    t: int,
    store: SituationStore,
    window_ms: int = DEFAULT_WINDOW_MS,
    radius_m: float = DEFAULT_RADIUS_M,
) -> RawSlice:
    """All raw data around the VUT at time t; fails without a nearby VUT fix."""
    fix = store.vut_fix_near(vut, t, VUT_FIX_TOLERANCE_MS)
    if fix is None:
        raise NoVutFix(f"no GNSS fix of VUT {vut} within {VUT_FIX_TOLERANCE_MS} ms of {t}")
    return store.query_raw(t - window_ms, t + window_ms, fix.extract.gnss, radius_m)


def join_topology(
    topo: MapTopology, spats: Sequence[RawSpat], t: int
) -> SignalizedTopology:
    """Attach to each lane the phase of its signal group nearest to t."""
    by_group: dict[int, RawSpat] = {}
    for s in spats:
        if s.spat.intersection_id != topo.intersection_id:
            continue
        kept = by_group.get(s.spat.signal_group)
        if kept is None or (
            (abs(s.generation_time - t), -s.generation_time)
            < (abs(kept.generation_time - t), -kept.generation_time)
        ):
            by_group[s.spat.signal_group] = s
    lanes = tuple(
        SignalizedLane(
            lane_id=lane.lane_id,
            signal_group=lane.signal_group,
            polyline=lane.polyline,
            ingress=lane.ingress,
            phase=(
                by_group[lane.signal_group].spat.phase
                if lane.signal_group in by_group
                else SignalPhase.UNKNOWN
            ),
        )
        for lane in topo.lanes
    )
    return SignalizedTopology(intersection_id=topo.intersection_id, lanes=lanes)


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


def lane_distance_m(position: GeoPosition, polyline: Sequence[GeoPosition]) -> float:
    """Minimum distance from a position to a lane centerline."""
    origin = polyline[0]
    p = to_local_enu(origin, position)
    pts = [to_local_enu(origin, q) for q in polyline]
    return min(
        _point_segment_distance(p, pts[k], pts[k + 1]) for k in range(len(pts) - 1)
    )


def link_lanes(objects, topology, max_lateral_m: float = DEFAULT_MAX_LATERAL_M):
    """Assign each object the nearest lane within the lateral tolerance."""
    if topology is None:
        return list(objects)
    linked = []
    for obj in objects:
        best = None
        for lane in topology.lanes:
            d = lane_distance_m(obj.position, lane.polyline)
            if d <= max_lateral_m and (best is None or (d, lane.lane_id) < best):
                best = (d, lane.lane_id)
        linked.append(replace(obj, lane_id=best[1]) if best else obj)
    return linked


# --- situation assembly -------------------------------------------------------


def _vut_observation(store: SituationStore, vut: StationId, fix) -> TrafficObjectObservation:
    """The VUT's own position vector as a traffic object.

    The sensor extract has no heading, so the course is derived from the
    previous GNSS fix when the vehicle has moved far enough for the bearing
    to mean anything.
    """
    extract = fix.extract
    course = 0.0
    previous = store.vut_fixes(vut, extract.timestamp - VUT_FIX_TOLERANCE_MS, extract.timestamp - 1)
    if previous:
        last = previous[-1]
        if haversine_distance(last.extract.gnss, extract.gnss) > 0.5:
            course = initial_bearing(last.extract.gnss, extract.gnss)
    return TrafficObjectObservation(
        object_id=vut,
        classification=ObjectClassification.PASSENGER_CAR,
        position=extract.gnss,
        speed=extract.speed,
        course=course,
        timestamp=extract.timestamp,
        source=ObservationSource.VUT_LOCAL_SENSOR,
        reporter=vut,
    )


def _nearest_topology(store: SituationStore, center: GeoPosition, radius_m: float):
    best = None
    for topo in store.topologies():
        d = min(
            min(haversine_distance(center, p) for p in lane.polyline) for lane in topo.lanes
        )
        if d <= radius_m and (best is None or d < best[0]):
            best = (d, topo)
    return best[1] if best else None


def fuse_situation(
    vut: StationId,
    t: int,
    store: SituationStore,
    th: SimilarityThresholds | None = None,
    window_ms: int = DEFAULT_WINDOW_MS,
    radius_m: float = DEFAULT_RADIUS_M,
    max_lateral_m: float = DEFAULT_MAX_LATERAL_M,
    persist: bool = True,
) -> SituationRecord:
    """Build (and normally persist) the situation for a VUT and timestamp.

    Rerunning on identical store content produces an identical record except
    for the situation identifier.  Raises ValueError for a t outside
    0..MAX_TIME_MS, the times a record can carry.
    """
    if not 0 <= t <= MAX_TIME_MS:
        raise ValueError(f"t out of range 0..MAX_TIME_MS: {t}")
    fix = store.vut_fix_near(vut, t, VUT_FIX_TOLERANCE_MS)
    if fix is None:
        raise NoVutFix(f"no GNSS fix of VUT {vut} within {VUT_FIX_TOLERANCE_MS} ms of {t}")
    center = fix.extract.gnss

    window = store.query_raw(t - window_ms, t + window_ms, center, radius_m)

    unique_cams = backend_dedup(window.cams)
    unique_cpms = backend_dedup(window.cpm_detections)

    observations: list[TrafficObjectObservation] = []
    for raw in unique_cams:
        observations.append(observation_from_cam(raw.cam))
    for raw in unique_cpms:
        extract = CpmExtract(
            originator=raw.originator,
            generation_time=raw.generation_time,
            detections=(raw.detection,),
        )
        observations.extend(observations_from_cpm(extract))
    observations.append(_vut_observation(store, vut, fix))

    objects = dedup(observations, th)

    topo = _nearest_topology(store, center, radius_m)
    topology = join_topology(topo, backend_dedup(window.spats), t) if topo else None
    objects = link_lanes(objects, topology, max_lateral_m)

    driver = None
    driver_rows = [r for r in window.driver_rows if r.station == vut]
    if driver_rows:
        nearest = min(driver_rows, key=lambda r: (abs(r.sample.timestamp - t), -r.sample.timestamp))
        driver = nearest.sample

    hazards = tuple(
        sorted(
            (r.event for r in backend_dedup(window.hazard_rows)),
            key=lambda h: (h.timestamp, h.source, int(h.kind)),
        )
    )

    environment = environment_for(t, center, store.environment_candidates(t))

    record = SituationRecord(
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
        environment=environment,
    )
    if persist:
        sid = store.persist_situation(record)
        record = replace(record, situation_id=sid)
    return record
