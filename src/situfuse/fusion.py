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
components of the pairwise similarity relation, joined with one relation of
identity: a station's own sensor row and its own self-report.  Every group
merges at once into the situation's columns (FusedColumns); link_lanes sets
their lane column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .geo import (
    EARTH_RADIUS_M,
    MAX_LOCAL_RANGE_M,
    GeoPosition,
    haversine_distance,
    haversine_distances,
    initial_bearing,
    to_local_enu_arrays,
)
from .messages import (
    MapLane,
    MapTopology,
    ObjectClassification,
    ObservationColumns,
    ObservationSource,
    SignalPhase,
    StationId,
)
# Not used here: perfbench/trace.py wraps these fusion globals by name.
from .aggregators import backend_dedup  # noqa: F401
from .messages import observation_from_cam, observations_from_cpm  # noqa: F401
from .situation import FusedColumns, SituationRecord
from .aggregators import environment_for
from .store import RawColumns, SituationStore, driver_from_columns, hazard_from_columns
from .wire import MAX_TIME_MS

DEFAULT_WINDOW_MS = 500
DEFAULT_RADIUS_M = 300.0
MAX_RADIUS_M = MAX_LOCAL_RANGE_M / 2  # eval projects two objects of an area onto one local plane
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


def _similar_pairs_mask(i, j, c: ObservationColumns, th: SimilarityThresholds):
    """Which index pairs (i, j) may be the same object: speed, course, classification
    (UNKNOWN matches any) and haversine distance each within the thresholds."""
    d = np.abs(c.course[i] - c.course[j]) % 360.0
    cls, unknown = c.classification, int(ObjectClassification.UNKNOWN)
    return (
        (np.abs(c.speed[i] - c.speed[j]) <= th.max_speed_ms)
        & (np.minimum(d, 360.0 - d) <= th.max_course_deg)
        & ((cls[i] == cls[j]) | (cls[i] == unknown) | (cls[j] == unknown))
        & (haversine_distances(c.lat[i], c.lon[i], c.lat[j], c.lon[j]) <= th.max_position_m)
    )


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each point's connected component under the edges (a, b), labelled by
    its smallest index.  Labels never exceed their index: each round hooks
    the larger root of every edge whose ends differ onto the smallest root
    proposed for it, then points every label at its root."""
    labels = np.arange(n)
    while True:
        la, lb = labels[a], labels[b]
        apart = la != lb
        if not apart.any():
            return labels
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            roots = labels[labels]
            if np.array_equal(roots, labels):
                break
            labels = roots


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


def _identity_pairs(c: ObservationColumns) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs of a station's self-report (CAM) and its own sensor row (same
    reporter and object id): one object however unlike, as a sensor course
    from two close GNSS fixes can be tens of degrees off."""
    cam = np.flatnonzero(c.source == ObservationSource.CAM_SELF_REPORT)
    own = np.flatnonzero(c.source == ObservationSource.VUT_LOCAL_SENSOR)
    same = (c.reporter[cam, None] == c.reporter[own]) & (c.object_id[cam, None] == c.object_id[own])
    i, j = np.nonzero(same)
    return cam[i], own[j]


def dedup(
    c: ObservationColumns,
    th: SimilarityThresholds | None = None,
    cfg: object = None,
    stats: DedupStats | None = None,
) -> FusedColumns:
    """Merge all observations of the same physical object into one record.

    Groups are the connected components of the similarity relation joined
    with the identity pairs (_identity_pairs); the cell grid only prunes
    pairs that can never be similar.  Output is ordered by
    fused position (lat, lon, then course).  ``cfg`` is deprecated and
    ignored; it once held the course-bucketing widths.
    """
    th = th or SimilarityThresholds()
    idx_i, idx_j = _grid_candidate_pairs(c.lat, c.lon, th.max_position_m)
    similar = _similar_pairs_mask(idx_i, idx_j, c, th)
    own_i, own_j = _identity_pairs(c)
    edges = np.concatenate((idx_i[similar], own_i)), np.concatenate((idx_j[similar], own_j))
    fused = _merge_groups(c, _components(len(c.lat), *edges))

    if stats is not None:
        stats.observations = len(c.lat)
        stats.comparisons = int(len(idx_i))
        stats.similar_pairs = int(similar.sum())
        stats.groups = len(fused)
    return fused


# A group's winner comes from its highest-ranked source; rank 0 never wins.
_WINNER_RANK = np.zeros(max(ObservationSource) + 1, dtype=np.int64)
_WINNER_RANK[[ObservationSource.VUT_LOCAL_SENSOR, ObservationSource.CAM_SELF_REPORT]] = 1, 2
_NO_CLASS = np.iinfo(np.int64).max


def _left_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each group's sum of each row of ``values``, whose columns run in groups
    of ``sizes``: added one column at a time from 0.0, as Python 3.11's
    ``sum`` (not numpy's pairwise sum, nor 3.12's compensated one).  Step j
    adds the j-th column of every group that has one; largest groups first."""
    by_size = np.argsort(-sizes, kind="stable")
    first = (np.cumsum(sizes) - sizes)[by_size]
    sums = np.zeros((len(values), len(sizes)))
    for j, k in enumerate(np.searchsorted(-sizes[by_size], -np.arange(sizes.max(initial=0))).tolist()):
        sums[:, by_size[:k]] += values[:, first[:k] + j]
    return sums


def _merge_groups(c: ObservationColumns, labels: np.ndarray) -> FusedColumns:
    """Collapse each set of equal labels into one object, ordered by fused
    position (lat, lon, then course), of equal positions in label order.

    A self-report knows its own kinematics best, so a CAM wins outright, then
    the VUT's own sensors; otherwise detections are averaged (positions on
    the local plane at the first member, courses circularly, summed in member
    order by ``_left_sums``).  Members are in (timestamp, source, reporter,
    object_id) order; a winner is its source's newest member, of equal times
    the lowest reporter, then object_id, then input position.  Provenance is
    in (source, reporter, object_id) order.
    """
    n = len(labels)
    order = np.lexsort((c.object_id, c.reporter, c.source, c.timestamp, labels))
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    sizes = np.diff(starts, append=n)
    rank = _WINNER_RANK[c.source]
    best = np.lexsort((-np.arange(n), -c.object_id, -c.reporter, c.timestamp, rank, labels))[starts + sizes - 1]
    averaged = (rank[best] == 0) & (sizes > 1)  # else the best member (or the only one) wins
    codes = np.minimum.reduceat(np.where(c.classification == 0, _NO_CLASS, c.classification)[order], starts)
    codes = np.where(codes == _NO_CLASS, 0, codes)
    fused_id, lat, lon, speed, course = (a[best] for a in (c.object_id, c.lat, c.lon, c.speed, c.course))

    k, members, first = sizes[averaged], order[np.repeat(averaged, sizes)], order[starts[averaged]]
    east, north = to_local_enu_arrays(np.repeat(c.lat[first], k), np.repeat(c.lon[first], k),
                                      c.lat[members], c.lon[members])
    rad = np.radians(c.course[members]).tolist()
    sums = _left_sums(np.array([east, north, c.speed[members], list(map(math.sin, rad)), list(map(math.cos, rad))]), k)
    # from_local_enu's and normalize_course's arithmetic
    cos_lat = np.array(list(map(math.cos, np.radians(c.lat[first]).tolist())))
    lat[averaged] = c.lat[first] + np.degrees(sums[1] / k / EARTH_RADIUS_M)
    wrapped = c.lon[first] + np.degrees(sums[0] / k / (EARTH_RADIUS_M * cos_lat))
    lon[averaged] = np.where(wrapped > 180.0, wrapped - 360.0, np.where(wrapped < -180.0, wrapped + 360.0, wrapped))
    speed[averaged] = sums[2] / k
    turned = np.fmod(np.degrees(list(map(math.atan2, sums[3].tolist(), sums[4].tolist()))), 360.0)
    course[averaged] = np.where(turned < 0.0, turned + 360.0, turned)
    fused_id[averaged] = np.minimum.reduceat(c.object_id[members], np.cumsum(k) - k)

    out = np.lexsort((course, lon, lat))
    rank_out = np.empty(n, dtype=np.intp)  # each observation's group's place in the output
    rank_out[order] = np.repeat(np.argsort(out), sizes)
    entries = np.lexsort((c.object_id, c.reporter, c.source, rank_out))
    return FusedColumns(
        fused_id[out], codes[out], lat[out], lon[out], speed[out], course[out], (None,) * len(out),
        c.source[entries], c.reporter[entries], c.object_id[entries], sizes[out],
    )


# --- linking ------------------------------------------------------------------


def join_topology(topo: MapTopology, spats: Sequence[tuple]) -> MapTopology:
    """Set each lane's phase from its signal group's SPaT row, UNKNOWN without
    one.  ``spats`` are raw_spat rows of the topology's intersection, one per
    signal group, as a window returns them."""
    phases = {group: SignalPhase(phase) for _, group, phase, *_ in spats}
    return replace(topo, lanes=tuple(
        replace(lane, phase=phases.get(lane.signal_group, SignalPhase.UNKNOWN)) for lane in topo.lanes
    ))


def _lane_distances(lat: np.ndarray, lon: np.ndarray, lanes: Sequence[MapLane]) -> np.ndarray:
    """Minimum distance from each position (columns) to each lane's centerline
    (rows), on the local plane at the lane polyline's first point."""
    points = [(q.lat, q.lon, lane.polyline[0].lat, lane.polyline[0].lon, k)
              for k, lane in enumerate(lanes) for q in lane.polyline]
    qlat, qlon, olat, olon, owner = np.array(points).T
    qx, qy = to_local_enu_arrays(olat, olon, qlat, qlon)
    a = np.flatnonzero(owner[1:] == owner[:-1])  # a segment starts at each point but a lane's last
    px, py = to_local_enu_arrays(olat[a, None], olon[a, None], lat, lon)
    # segments down the rows, positions along the columns
    ax, ay = qx[a, None], qy[a, None]
    dx, dy = (qx[a + 1] - qx[a])[:, None], (qy[a + 1] - qy[a])[:, None]
    seg2 = dx * dx + dy * dy
    num = (px - ax) * dx + (py - ay) * dy
    u = np.clip(np.divide(num, seg2, out=np.zeros_like(num), where=seg2 > 0.0), 0.0, 1.0)
    d = np.hypot(px - (ax + u * dx), py - (ay + u * dy))
    return np.minimum.reduceat(d, np.flatnonzero(np.diff(owner[a], prepend=-1)), axis=0)


def link_lanes(objects, topology, max_lateral_m: float = DEFAULT_MAX_LATERAL_M) -> FusedColumns:
    """Assign each object the nearest lane within the lateral tolerance; of
    equally near lanes, the lowest lane id.  An object near no lane keeps its
    lane id."""
    objects = FusedColumns.of(objects)
    if topology is None or not topology.lanes:
        return objects
    lanes = sorted(topology.lanes, key=lambda lane: lane.lane_id)
    d = _lane_distances(objects.lat, objects.lon, lanes)
    within = d <= max_lateral_m
    nearest = np.where(within, d, np.inf).argmin(axis=0)
    return replace(objects, lane_id=[
        lanes[k].lane_id if linked else lane_id
        for k, linked, lane_id in zip(nearest.tolist(), within.any(axis=0).tolist(), objects.lane_id)
    ])


# --- situation assembly -------------------------------------------------------


def _vut_observation(store: SituationStore, vut: StationId, fix) -> ObservationColumns:
    """The VUT's own position vector as a one-row traffic object block.

    The sensor extract has no heading, so the course is derived from the
    previous GNSS fix when the vehicle has moved far enough for the bearing
    to mean anything.
    """
    extract = fix.extract
    course = 0.0
    last = store.vut_fixes(vut, extract.timestamp - VUT_FIX_TOLERANCE_MS, extract.timestamp - 1)
    if last is not None and haversine_distance(last.extract.gnss, extract.gnss) > 0.5:
        course = initial_bearing(last.extract.gnss, extract.gnss)
    return ObservationColumns.checked(
        [extract.gnss.lat], [extract.gnss.lon], [extract.speed], [course],
        [ObjectClassification.PASSENGER_CAR], [extract.timestamp],
        ObservationSource.VUT_LOCAL_SENSOR, [vut], [vut],
    )


def _window_observations(cams: RawColumns, cpms: RawColumns) -> tuple[ObservationColumns, ...]:
    """CAM and CPM window rows as observations (see observation_from_cam and
    observations_from_cpm); one row per track, in window order."""

    def observations(rows: RawColumns, source: ObservationSource, object_id: str):
        return ObservationColumns.checked(
            *map(rows.column, ("lat", "lon", "speed", "course", "classification", "generation_time")),
            source, rows.column("originator"), rows.column(object_id),
        )

    return (
        observations(cams, ObservationSource.CAM_SELF_REPORT, "originator"),
        observations(cpms, ObservationSource.CPM_DETECTION, "object_id"),
    )


def _predict(c: ObservationColumns, t: int) -> ObservationColumns:
    """Each observation dead-reckoned from its timestamp to t at constant
    velocity, by from_local_enu's arithmetic (math's sin and cos, as
    course_to_unit_vector); one stamped t keeps its position bit for bit."""
    dt = (t - c.timestamp) / 1000.0
    rad, lat_rad = np.radians(c.course).tolist(), np.radians(c.lat).tolist()
    east = np.array(list(map(math.sin, rad))) * c.speed * dt
    north = np.array(list(map(math.cos, rad))) * c.speed * dt
    lat = c.lat + np.degrees(north / EARTH_RADIUS_M)
    lon = c.lon + np.degrees(east / (EARTH_RADIUS_M * np.array(list(map(math.cos, lat_rad)))))
    lon = np.where(lon > 180.0, lon - 360.0, np.where(lon < -180.0, lon + 360.0, lon))
    moved = dt != 0
    return c._replace(lat=np.where(moved, lat, c.lat), lon=np.where(moved, lon, c.lon))


def _nearest_topology(store: SituationStore, center: GeoPosition, radius_m: float):
    """The topology with a lane point nearest center, if within radius_m; of equally near, the first."""
    def distance(topo: MapTopology) -> float:
        return min(haversine_distance(center, p) for lane in topo.lanes for p in lane.polyline)

    best = min(store.topologies(), key=distance, default=None)
    return best if best is not None and distance(best) <= radius_m else None


def fuse_situation(
    vut: StationId,
    t: int,
    store: SituationStore,
    th: SimilarityThresholds | None = None,
    window_ms: int = DEFAULT_WINDOW_MS,
    radius_m: float = DEFAULT_RADIUS_M,
    max_lateral_m: float = DEFAULT_MAX_LATERAL_M,
) -> SituationRecord:
    """Build and persist the situation for a VUT and timestamp.

    The situation is the one at t: each CAM and CPM track's report nearest t
    in the window (``query_raw``) and the VUT's own fix are dead-reckoned to t
    at constant velocity (``_predict``) before dedup; lanes take each signal
    group's SPaT nearest t, and the driver is the VUT's sample nearest t.
    Rerunning on identical store content produces an identical record except
    for the situation identifier.  Raises ValueError for a t outside
    0..MAX_TIME_MS, the times a record can carry, a radius_m outside
    (0, MAX_RADIUS_M], and for a CAM or CPM window row, or the driver row it
    picks, that fails the checks of its typed record.
    """
    if not 0 <= t <= MAX_TIME_MS:
        raise ValueError(f"t out of range 0..MAX_TIME_MS: {t}")
    if not 0 < radius_m <= MAX_RADIUS_M:
        raise ValueError(f"radius_m out of range (0, MAX_RADIUS_M]: {radius_m}")
    fix = store.vut_fix_near(vut, t, VUT_FIX_TOLERANCE_MS)
    if fix is None:
        raise NoVutFix(f"no GNSS fix of VUT {vut} within {VUT_FIX_TOLERANCE_MS} ms of {t}")
    center = fix.extract.gnss
    topo = _nearest_topology(store, center, radius_m)

    window = store.query_raw(t, t - window_ms, t + window_ms, center, radius_m, vut,
                             topo.intersection_id if topo else None)
    blocks = (
        *_window_observations(window.cams, window.cpm_detections),
        _vut_observation(store, vut, fix),
    )
    objects = dedup(_predict(ObservationColumns(*map(np.concatenate, zip(*blocks))), t), th)

    topology = join_topology(topo, window.spats.rows) if topo else None
    record = SituationRecord(
        situation_id=0, center=center, radius_m=radius_m, timestamp=t, vut=vut,
        objects=link_lanes(objects, topology, max_lateral_m), topology=topology, vut_sensor=fix.extract,
        driver=next((driver_from_columns(r[1:6]) for r in window.driver_rows.rows), None),
        hazards=tuple(map(hazard_from_columns, window.hazard_rows.rows)),
        environment=environment_for(t, center, store.environment_candidates(t)),
    )
    sid = store.persist_situation(record)
    return replace(record, situation_id=sid)
