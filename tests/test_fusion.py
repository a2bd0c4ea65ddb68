import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from situfuse.geo import (
    EARTH_RADIUS_M,
    MAX_LOCAL_RANGE_M,
    GeoPosition,
    LocalPoint,
    from_local_enu,
    haversine_distance,
    to_local_enu,
)
from situfuse.messages import (
    CamExtract,
    MapLane,
    MapTopology,
    ObjectClassification,
    ObservationSource,
    SignalPhase,
    SpatExtract,
    TrafficObjectObservation,
)
from situfuse.fusion import (
    DEFAULT_WINDOW_MS,
    DedupStats,
    _grid_candidate_pairs,
    NoVutFix,
    SimilarityThresholds,
    dedup,
    fuse_situation,
    join_topology,
    _lane_distances,
    link_lanes,
)
from situfuse.simgen import CAMERA_TRACK_OFFSET, VUT_OBJECT_ID, score
from situfuse.store import RawCam, RawSpat, RawVutSensor, SituationStore
from situfuse.wire import MAX_TIME_MS, RecordKind
from object_decode import table_rows
from typed_fuse import is_similar, join_topology_typed, merge_columns, of, query_window
from conftest import (
    REFERENCE_T0,
    REFERENCE_VUT,
    make_vut_extract,
    oracle_components,
    oracle_haversine,
    reference_raw_rows,
    simulated_scene,
)

T0 = 1_700_000_000_000
CENTER = GeoPosition(49.234, 6.98)


def obs(
    k,
    east=0.0,
    north=0.0,
    speed=10.0,
    course=0.0,
    cls=ObjectClassification.PASSENGER_CAR,
    source=ObservationSource.CPM_DETECTION,
    reporter=500,
    t=T0,
):
    return TrafficObjectObservation(
        object_id=k,
        classification=cls,
        position=from_local_enu(CENTER, LocalPoint(east, north)),
        speed=speed,
        course=course,
        timestamp=t,
        source=source,
        reporter=reporter,
    )


# --- similarity ---------------------------------------------------------------
# is_similar is the scalar oracle (tests/typed_fuse.py); dedup of a pair is
# the package's similarity check: one fused object exactly when similar.


def merges(a, b, th=None):
    return len(dedup(of([a, b]), th)) == 1


def test_is_similar_identical():
    a = obs(1)
    assert is_similar(a, a)
    assert merges(a, a)


def test_is_similar_position_threshold():
    assert not is_similar(obs(1), obs(2, east=10.0))
    assert is_similar(obs(1), obs(2, east=2.0))
    assert not merges(obs(1), obs(2, east=10.0))
    assert merges(obs(1), obs(2, east=2.0))
    assert merges(obs(1), obs(2, east=10.0), SimilarityThresholds(max_position_m=10.5))


def test_is_similar_rule_application():
    a = obs(1, cls=ObjectClassification.PASSENGER_CAR)
    b = obs(2, east=2.0, course=5.0, speed=10.5, cls=ObjectClassification.UNKNOWN)
    assert is_similar(a, b)
    assert merges(a, b)
    c = replace_cls(b, ObjectClassification.PEDESTRIAN)
    assert not is_similar(a, c)
    assert not merges(a, c)
    # speed and course thresholds are inclusive, and each one alone separates
    assert merges(a, obs(3, speed=11.5, course=15.0))
    assert not merges(a, obs(3, speed=11.5000001))
    assert not merges(a, obs(3, course=345.0 - 1e-7))
    tight = SimilarityThresholds(max_course_deg=4.0, max_speed_ms=0.4)
    assert not merges(a, b, tight)
    assert merges(a, b, replace(tight, max_course_deg=5.0, max_speed_ms=0.5))


def replace_cls(o, cls):
    return TrafficObjectObservation(
        object_id=o.object_id, classification=cls, position=o.position, speed=o.speed,
        course=o.course, timestamp=o.timestamp, source=o.source, reporter=o.reporter,
    )


def test_is_similar_symmetric_reflexive_random():
    rng = random.Random(1)
    sample = [
        obs(
            k,
            east=rng.uniform(-10, 10),
            north=rng.uniform(-10, 10),
            speed=rng.uniform(0, 20),
            course=rng.uniform(0, 359.9),
            cls=rng.choice(list(ObjectClassification)),
        )
        for k in range(40)
    ]
    for a in sample:
        assert is_similar(a, a)
        assert merges(a, a)
        for b in sample:
            assert is_similar(a, b) == is_similar(b, a) == merges(a, b) == merges(b, a)


# --- dedup ----------------------------------------------------------------------


def test_dedup_all_dissimilar():
    sample = [obs(k, east=k * 50.0) for k in range(6)]
    assert len(dedup(of(sample))) == 6


def test_dedup_cam_plus_detection_merge():
    cam = obs(
        11, east=0.0, speed=10.0, course=90.0,
        source=ObservationSource.CAM_SELF_REPORT, reporter=11,
    )
    detection = obs(7, east=1.0, speed=10.4, course=92.0)
    fused = dedup(of([cam, detection]))
    assert len(fused) == 1
    assert fused[0].position == cam.position
    assert fused[0].speed == cam.speed
    assert fused[0].course == cam.course
    assert fused[0].fused_id == 11
    assert len(fused[0].provenance) == 2


def test_dedup_joins_a_stations_self_report_and_own_sensor_row():
    """A station's CAM and its own sensor row are one object however far
    apart their courses lie; another station's sensor row is not joined."""
    cam = obs(100, speed=10.0, course=270.0, source=ObservationSource.CAM_SELF_REPORT, reporter=100)
    own = obs(100, north=0.6, speed=10.1, course=300.0, source=ObservationSource.VUT_LOCAL_SENSOR,
              reporter=100)
    other = replace(own, object_id=101, reporter=101)
    assert not is_similar(cam, own)
    (fused,) = dedup(of([cam, own]))
    assert (fused.position, fused.course, len(fused.provenance)) == (cam.position, 270.0, 2)
    assert len(dedup(of([cam, other]))) == 2


def grouping_from_fused(fused):
    return frozenset(frozenset(e.object_id for e in f.provenance) for f in fused)


def grouping_from_components(components, sample):
    return frozenset(frozenset(sample[i].object_id for i in comp) for comp in components)


def random_instance(rng, n):
    """Mixed distribution: clustered anchors, uniform scatter, bin-edge courses."""
    sample = []
    anchors = [
        (
            rng.uniform(-250, 250),
            rng.uniform(-250, 250),
            rng.uniform(0, 359.9),
            rng.uniform(0, 20),
            rng.choice(list(ObjectClassification)),
        )
        for _ in range(max(1, n // 6))
    ]
    for k in range(n):
        style = rng.random()
        if style < 0.55:
            ae, an, ac, aspeed, acls = rng.choice(anchors)
            course = (ac + rng.uniform(-10, 10)) % 360.0
            sample.append(
                obs(
                    k,
                    east=ae + rng.uniform(-2.0, 2.0),
                    north=an + rng.uniform(-2.0, 2.0),
                    speed=max(0.0, aspeed + rng.uniform(-1.0, 1.0)),
                    course=course,
                    cls=acls if rng.random() < 0.8 else ObjectClassification.UNKNOWN,
                )
            )
        elif style < 0.8:
            sample.append(
                obs(
                    k,
                    east=rng.uniform(-250, 250),
                    north=rng.uniform(-250, 250),
                    speed=rng.uniform(0, 25),
                    course=rng.uniform(0, 359.9),
                    cls=rng.choice(list(ObjectClassification)),
                )
            )
        else:
            # courses hugging bucket edges, speeds hugging the slow floor
            edge = rng.randrange(0, 36) * 10.0
            sample.append(
                obs(
                    k,
                    east=rng.uniform(-30, 30),
                    north=rng.uniform(-30, 30),
                    speed=rng.choice([1.49, 1.5, 1.51, rng.uniform(0, 3)]),
                    course=(edge + rng.choice([-0.1, -1e-9, 0.0, 0.1])) % 360.0,
                )
            )
    return sample


def test_exact_threshold_courses_agree_between_paths():
    # course difference exactly at the threshold is inclusive, and the
    # vectorized pair evaluation must agree with the scalar predicate
    a = obs(1, east=0.0, course=100.0)
    b = obs(2, east=1.0, course=115.0)
    c = obs(3, east=1.0, course=115.0000001)
    assert is_similar(a, b)
    assert not is_similar(a, c)
    assert len(dedup(of([a, b]))) == 1
    assert len(dedup(of([a, c]))) == 2


def test_dedup_matches_brute_force_oracle():
    rng = random.Random(3)
    for trial in range(25):
        sample = random_instance(rng, rng.randrange(2, 240))
        fused = dedup(of(sample))
        expected = grouping_from_components(oracle_components(sample), sample)
        assert grouping_from_fused(fused) == expected, f"trial {trial}"


def test_dedup_output_order_deterministic():
    rng = random.Random(4)
    sample = random_instance(rng, 120)
    fused = dedup(of(sample))
    keys = [(f.position.lat, f.position.lon, f.course) for f in fused]
    assert keys == sorted(keys)
    shuffled = sample[:]
    rng.shuffle(shuffled)
    assert grouping_from_fused(dedup(of(shuffled))) == grouping_from_fused(fused)


def test_dedup_idempotent_on_own_output():
    # Scattered scene: merged representatives stay pairwise dissimilar, so a
    # second pass must change nothing.  (In pathologically dense scenes the
    # means of two groups can legitimately move within the thresholds.)
    rng = random.Random(5)
    sample = [
        obs(
            k,
            east=rng.uniform(-300, 300),
            north=rng.uniform(-300, 300),
            speed=rng.uniform(0, 20),
            course=rng.uniform(0, 359.9),
        )
        for k in range(150)
    ]
    fused = dedup(of(sample))
    again = dedup(
        of([
            TrafficObjectObservation(
                object_id=i,
                classification=f.classification,
                position=f.position,
                speed=f.speed,
                course=f.course,
                timestamp=T0,
                source=ObservationSource.CPM_DETECTION,
                reporter=500,
            )
            for i, f in enumerate(fused)
        ])
    )
    assert len(again) == len(fused)
    assert [(f.position, f.speed, f.course) for f in again] == [
        (f.position, f.speed, f.course) for f in fused
    ]


def test_dedup_comparison_counter():
    rng = random.Random(6)
    sample = random_instance(rng, 100)
    stats = DedupStats()
    fused = dedup(of(sample), stats=stats)
    assert stats.observations == 100
    assert 0 <= stats.comparisons <= stats.brute_force_comparisons
    similar = sum(is_similar(a, b) for a, b in itertools.combinations(sample, 2))
    assert 0 < stats.similar_pairs == similar <= stats.comparisons
    assert stats.groups == len(fused)
    empty = DedupStats(comparisons=7)
    assert dedup(of([]), stats=empty) == []
    assert empty == DedupStats()


def four_heading_sample(rng, n):
    """Traffic on four headings scattered over 800 m x 800 m."""
    sample = []
    for k in range(n):
        group_course = rng.choice([0.0, 90.0, 180.0, 270.0])
        sample.append(
            TrafficObjectObservation(
                object_id=k,
                classification=ObjectClassification.PASSENGER_CAR,
                position=from_local_enu(
                    CENTER, LocalPoint(rng.uniform(-400, 400), rng.uniform(-400, 400))
                ),
                speed=rng.uniform(5.0, 15.0),
                course=(group_course + rng.gauss(0.0, 3.0)) % 360.0,
                timestamp=T0,
                source=ObservationSource.CPM_DETECTION,
                reporter=500,
            )
        )
    return sample


def test_grid_comparisons_on_four_heading_traffic():
    stats = DedupStats()
    dedup(of(four_heading_sample(random.Random(1004), 20_000)), stats=stats)
    assert stats.comparisons <= 0.001 * stats.brute_force_comparisons


@settings(max_examples=200, deadline=None)
@given(
    lat=st.one_of(st.floats(-90, 90), st.floats(89.99, 90), st.floats(-90, -89.99)),
    lon=st.one_of(st.floats(-180, 180), st.floats(179.9999, 180), st.floats(-180, -179.9999)),
    spread_m=st.sampled_from([1.0, 5.0, 30.0]),
    max_position_m=st.sampled_from([0.5, 2.5, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_candidates_cover_brute_force(lat, lon, spread_m, max_position_m, seed):
    # Positions straight from degree offsets around the centre, wrapped across
    # +-180 and clamped at the poles, so the projection code plays no part.
    rng = random.Random(seed)
    points = []
    for _ in range(40):
        north, east = rng.uniform(-spread_m, spread_m), rng.uniform(-spread_m, spread_m)
        p_lat = min(90.0, max(-90.0, lat + math.degrees(north / EARTH_RADIUS_M)))
        scale = EARTH_RADIUS_M * max(math.cos(math.radians(lat)), 1e-12)
        p_lon = (lon + math.degrees(east / scale) + 180.0) % 360.0 - 180.0
        points.append((p_lat, p_lon))
    points += rng.sample(points, 3)  # co-located duplicates
    lats, lons = np.array(points).T

    idx_i, idx_j = _grid_candidate_pairs(lats, lons, max_position_m)
    candidates = [frozenset(p) for p in zip(idx_i.tolist(), idx_j.tolist())]
    assert all(len(p) == 2 for p in candidates)
    assert len(set(candidates)) == len(candidates)
    brute = {
        frozenset((a, b))
        for a, b in itertools.combinations(range(len(points)), 2)
        if oracle_haversine(*points[a], *points[b]) <= max_position_m
    }
    assert brute <= set(candidates)


@pytest.mark.parametrize("lat, lon", [(10.0, 179.999995), (89.99, 179.9999)])
def test_dedup_merges_pair_across_antimeridian(lat, lon):
    west, east = (
        TrafficObjectObservation(
            object_id=k,
            classification=ObjectClassification.PASSENGER_CAR,
            position=GeoPosition(lat, side * lon),
            speed=10.0,
            course=90.0,
            timestamp=T0,
            source=ObservationSource.CPM_DETECTION,
            reporter=500,
        )
        for k, side in ((1, 1.0), (2, -1.0))
    )
    apart = haversine_distance(west.position, east.position)
    assert apart < 2.5
    (fused,) = dedup(of([west, east]))
    assert len(fused.provenance) == 2
    assert haversine_distance(fused.position, west.position) <= apart
    assert haversine_distance(fused.position, east.position) <= apart


# --- merging ---------------------------------------------------------------------


def test_merge_single_observation_is_identity():
    a = obs(5, east=3.0, speed=4.0, course=120.0)
    fused = merge_columns([a])
    assert fused.position == a.position
    assert fused.speed == a.speed
    assert fused.course == a.course
    assert fused.fused_id == 5
    assert fused.provenance == ((a.source, a.reporter, a.object_id),)


def test_merge_mean_of_two_detections():
    a = obs(1, east=0.0, north=0.0)
    b = obs(2, east=2.0, north=0.0)
    fused = merge_columns([a, b])
    midpoint = from_local_enu(a.position, LocalPoint(1.0, 0.0))
    assert fused.position.lat == pytest.approx(midpoint.lat, abs=1e-9)
    assert fused.position.lon == pytest.approx(midpoint.lon, abs=1e-9)
    assert fused.fused_id == 1


def test_merge_circular_mean_of_courses():
    a = obs(1, course=350.0)
    b = obs(2, east=0.5, course=10.0)
    fused = merge_columns([a, b])
    assert fused.course == pytest.approx(0.0, abs=1e-9) or fused.course == pytest.approx(
        360.0, abs=1e-9
    )


def test_merge_classification_most_specific():
    a = obs(1, cls=ObjectClassification.UNKNOWN)
    b = obs(2, east=0.5, cls=ObjectClassification.PASSENGER_CAR)
    assert merge_columns([a, b]).classification is ObjectClassification.PASSENGER_CAR
    c = obs(3, east=1.0, cls=ObjectClassification.PEDESTRIAN)
    assert merge_columns([a, b, c]).classification is ObjectClassification.PEDESTRIAN


def test_merge_position_inside_convex_hull():
    rng = random.Random(7)
    for _ in range(50):
        members = [
            obs(k, east=rng.uniform(-2, 2), north=rng.uniform(-2, 2), course=rng.uniform(0, 359))
            for k in range(rng.randrange(2, 6))
        ]
        fused = merge_columns(members)
        pts = [to_local_enu(CENTER, m.position) for m in members]
        merged = to_local_enu(CENTER, fused.position)
        assert min(p.east for p in pts) - 1e-9 <= merged.east <= max(p.east for p in pts) + 1e-9
        assert min(p.north for p in pts) - 1e-9 <= merged.north <= max(p.north for p in pts) + 1e-9


# --- window query -----------------------------------------------------------------


def test_query_window_requires_vut_fix():
    store = SituationStore(":memory:")
    with pytest.raises(NoVutFix):
        query_window(100, T0, store)
    store.close()


def test_query_window_time_and_radius():
    store = SituationStore(":memory:")
    store.insert_raw(
        table_rows([
            RawVutSensor(100, make_vut_extract(T0, CENTER), 100, 1),
            _cam_raw(1, T0 + 400, east=100.0),
            _cam_raw(2, T0 + 600, east=0.0),
            _cam_raw(3, T0, east=400.0),
        ])
    )
    window = query_window(100, T0, store)
    assert window.cams.column("originator").tolist() == [1]
    store.close()


def _cam_raw(originator, t, east=0.0, north=0.0):
    return RawCam(
        cam=CamExtract(
            originator=originator,
            generation_time=t,
            position=from_local_enu(CENTER, LocalPoint(east, north)),
            speed=10.0,
            course=90.0,
            classification=ObjectClassification.PASSENGER_CAR,
        ),
        reporter=originator,
        receive_time=1,
    )


# --- topology ---------------------------------------------------------------------


def lane(lane_id, group, heading_east=True):
    end = LocalPoint(60.0, 0.0) if heading_east else LocalPoint(0.0, 60.0)
    return MapLane(
        lane_id, group, (CENTER, from_local_enu(CENTER, end)), ingress=True
    )


def spat_raw(group, t, phase):
    """A raw_spat row, as a window returns it."""
    (row,) = table_rows([RawSpat(
        spat=SpatExtract(intersection_id=1, signal_group=group, phase=phase, change_time=t + 5000),
        generation_time=t,
        position=CENTER,
        reporter=9,
        receive_time=1,
    )])[RecordKind.SPAT]
    return row


def test_join_topology_without_spat_is_unknown():
    topo = MapTopology(1, (lane(1, 3), lane(2, 4, heading_east=False)))
    joined = join_topology(topo, [])
    assert all(l.phase is SignalPhase.UNKNOWN for l in joined.lanes)


def test_join_topology_applies_group_phase():
    topo = MapTopology(1, (lane(1, 3), lane(2, 4, heading_east=False)))
    joined = join_topology(topo, [spat_raw(3, T0 - 100, SignalPhase.GREEN)])
    assert joined.lanes[0].phase is SignalPhase.GREEN
    assert joined.lanes[1].phase is SignalPhase.UNKNOWN


@pytest.mark.parametrize("seed", range(20))
def test_join_topology_changes_only_each_lanes_phase(seed):
    """Random lanes, some already phased, and a SPaT row for some signal
    groups: the lanes come back in order, each equal to its input lane but for
    the phase the typed join gives it."""
    rng = random.Random(seed)
    topo = MapTopology(rng.choice([1, 2]), tuple(
        replace(lane(rng.randrange(1, 50), rng.randrange(1, 6), rng.random() < 0.5),
                ingress=rng.random() < 0.5, phase=rng.choice(list(SignalPhase)))
        for _ in range(rng.randrange(0, 8))
    ))
    spats = [
        RawSpat(SpatExtract(topo.intersection_id, group, rng.choice(list(SignalPhase)), T0 + 9000),
                T0 + rng.randrange(-500, 500), CENTER, 9, 1)
        for group in rng.sample(range(1, 6), rng.randrange(0, 6))
    ]
    joined = join_topology(topo, table_rows(spats).get(RecordKind.SPAT, []))
    assert joined.intersection_id == topo.intersection_id
    assert [replace(l, phase=SignalPhase.UNKNOWN) for l in joined.lanes] == [
        replace(l, phase=SignalPhase.UNKNOWN) for l in topo.lanes
    ]
    assert joined == join_topology_typed(topo, spats)


# --- lane linking ------------------------------------------------------------------


def test_link_lane_on_centerline():
    topo = join_topology(MapTopology(1, (lane(1, 3),)), [])
    on_lane = [merge_columns([obs(1, east=30.0, north=0.0, course=90.0)])]
    linked = link_lanes(on_lane, topo)
    assert linked[0].lane_id == 1


def test_link_lane_far_object_unlinked():
    topo = join_topology(MapTopology(1, (lane(1, 3),)), [])
    away = [merge_columns([obs(1, east=30.0, north=50.0)])]
    assert link_lanes(away, topo)[0].lane_id is None


def test_link_lane_tie_breaks_to_lower_id():
    duplicate = MapTopology(1, (lane(2, 3), lane(1, 3)))
    topo = join_topology(duplicate, [])
    linked = link_lanes([merge_columns([obs(1, east=30.0, north=0.0)])], topo)
    assert linked[0].lane_id == 1


def test_lane_distance_perpendicular():
    """A point 7 m to the side of a lane's middle is 7 m from it, in that
    lane's row, whatever other lanes are measured with it."""
    polyline = (CENTER, from_local_enu(CENTER, LocalPoint(100.0, 0.0)))
    other = (from_local_enu(CENTER, LocalPoint(0.0, 20.0)), from_local_enu(CENTER, LocalPoint(0.0, 90.0)))
    p = from_local_enu(CENTER, LocalPoint(50.0, 7.0))
    lanes = [MapLane(1, 1, polyline, True), MapLane(2, 1, other, True)]
    assert _lane_distances([p.lat], [p.lon], lanes)[0, 0] == pytest.approx(7.0, abs=0.01)
    assert _lane_distances([p.lat], [p.lon], lanes[::-1])[1, 0] == pytest.approx(7.0, abs=0.01)


# --- situation assembly ------------------------------------------------------------


def test_fuse_situation_with_only_vut_fix():
    store = SituationStore(":memory:")
    store.insert_raw(
        table_rows([RawVutSensor(100, make_vut_extract(T0, CENTER, speed=7.0), 100, 1)])
    )
    record = fuse_situation(100, T0, store)
    assert record.situation_id == 1
    assert len(record.objects) == 1
    vut_obj = record.objects[0]
    assert vut_obj.provenance[0].source is ObservationSource.VUT_LOCAL_SENSOR
    assert vut_obj.speed == 7.0
    assert record.topology is None
    assert record.driver is None
    assert record.environment is None
    assert record.hazards == ()
    assert record.vut_sensor is not None
    store.close()


def test_fuse_situation_missing_vut():
    store = SituationStore(":memory:")
    with pytest.raises(NoVutFix):
        fuse_situation(100, T0, store)
    store.close()


def test_fuse_situation_at_the_ends_of_the_time_range():
    store = SituationStore(":memory:")
    with pytest.raises(NoVutFix):
        fuse_situation(100, 2**63 - 1000, store)
    for t in (-1, 2**63):
        with pytest.raises(ValueError):
            fuse_situation(100, t, store)
    store.insert_raw(
        table_rows([RawVutSensor(100, make_vut_extract(MAX_TIME_MS - 10, CENTER), 100, 1)])
    )
    record = fuse_situation(100, MAX_TIME_MS, store)
    assert record.timestamp == MAX_TIME_MS
    assert record.vut_sensor.timestamp == MAX_TIME_MS - 10
    assert len(record.objects) == 1  # the VUT itself
    assert store.load_situation(record.situation_id) == record
    store.close()


def test_fuse_situation_refuses_a_radius_eval_cannot_project():
    """A radius_m outside (0, MAX_LOCAL_RANGE_M / 2] is refused before anything
    is read or persisted: evaluation projects two objects of the area onto one
    local plane, valid to MAX_LOCAL_RANGE_M."""
    store = SituationStore(":memory:")
    store.insert_raw(table_rows([RawVutSensor(100, make_vut_extract(T0, CENTER), 100, 1)]))
    limit = MAX_LOCAL_RANGE_M / 2
    for radius in (0.0, -1.0, math.nextafter(limit, math.inf), 25_000.0, math.nan):
        with pytest.raises(ValueError, match="radius_m"):
            fuse_situation(100, T0, store, radius_m=radius)
    assert store.load_situation(1) is None
    assert fuse_situation(100, T0, store, radius_m=limit).radius_m == limit
    store.close()


def test_fuse_situation_rerun_identical_except_id(reference_rows):
    store = SituationStore(":memory:")
    store.insert_raw(reference_raw_rows(reference_rows))
    first = fuse_situation(REFERENCE_VUT, REFERENCE_T0, store)
    second = fuse_situation(REFERENCE_VUT, REFERENCE_T0, store)
    assert second.situation_id == first.situation_id + 1
    assert replace(first, situation_id=0) == replace(second, situation_id=0)
    store.close()


def test_fuse_situation_links_every_data_class():
    from situfuse.messages import (
        DriverStateSample,
        EnvironmentSample,
        HazardEvent,
        HazardKind,
    )
    from situfuse.store import RawDriverState, RawEnvironment, RawHazard

    store = SituationStore(":memory:")
    store.put_topology(MapTopology(1, (lane(1, 3), lane(2, 4, heading_east=False))))
    environment = EnvironmentSample(
        timestamp=T0 - 60_000, validity_duration_s=600, area_center=CENTER,
        area_radius_m=2000.0, temperature_c=4.0, precipitation_mm_h=0.2,
        wind_speed_ms=5.0, wind_direction=270.0, illuminance_lux=900.0,
        visibility_m=1500.0, pressure_hpa=1007.0, humidity_pct=85.0,
        cloudiness_pct=100.0,
    )
    store.insert_raw(
        table_rows([
            RawVutSensor(100, make_vut_extract(T0, CENTER, speed=8.0), 100, 1),
            _cam_raw(11, T0, east=30.0),  # on the eastbound lane
            RawSpat(
                spat=SpatExtract(1, 3, SignalPhase.GREEN, T0 + 2000),
                generation_time=T0, position=CENTER, reporter=9, receive_time=1,
            ),
            RawDriverState(
                100, DriverStateSample(timestamp=T0 + 100, valence=2, arousal=3),
                CENTER, 100, 1,
            ),
            RawEnvironment(environment, reporter=42, receive_time=1),
            RawHazard(
                HazardEvent(HazardKind.PANIC_BRAKING, T0 - 200, CENTER, source=11),
                reporter=11, receive_time=1,
            ),
        ])
    )
    record = fuse_situation(100, T0, store)
    assert len(record.objects) == 2  # the VUT and the reported car
    assert record.topology is not None
    phases = {l.lane_id: l.phase for l in record.topology.lanes}
    assert phases == {1: SignalPhase.GREEN, 2: SignalPhase.UNKNOWN}
    car = next(o for o in record.objects if o.fused_id == 11)
    assert car.lane_id == 1
    assert record.driver == DriverStateSample(timestamp=T0 + 100, valence=2, arousal=3)
    assert record.environment == environment
    assert len(record.hazards) == 1
    assert record.hazards[0].kind is HazardKind.PANIC_BRAKING
    assert record.vut_sensor is not None
    loaded = store.load_situation(record.situation_id)
    assert loaded == record
    store.close()


def test_fuse_situation_driver_tie_takes_the_earlier_vut_sample():
    """Of the VUT's two driver samples equally near t, the earlier is stored; never another station's."""
    from situfuse.messages import DriverStateSample
    from situfuse.store import RawDriverState

    def driver(station, dt, valence):
        return RawDriverState(station, DriverStateSample(T0 + dt, valence, 3), CENTER, station, 1)

    store = SituationStore(":memory:")
    store.insert_raw(table_rows([
        RawVutSensor(100, make_vut_extract(T0, CENTER), 100, 1),
        driver(100, -450, 1), driver(100, -300, 2), driver(100, 300, 3),
        driver(200, 0, 4), driver(200, 300, 5), driver(99, 10, 1),
    ]))
    record = fuse_situation(100, T0, store)
    assert record.driver == DriverStateSample(T0 - 300, 2, 3)
    assert store.load_situation(record.situation_id) == record
    store.close()


def test_fuse_situation_dead_reckons_each_report_to_t():
    """Each track's report nearest t moves to t at its speed and course, the
    VUT's own fix too; a report stamped t keeps its position bit for bit."""
    store = SituationStore(":memory:")
    vut = make_vut_extract(T0 - 50, CENTER, speed=8.0)
    store.insert_raw(table_rows([
        RawVutSensor(100, vut, 100, 1),
        _cam_raw(1, T0 - 400, east=40.0), _cam_raw(1, T0 + 450, east=60.0),  # 10 m/s east
        _cam_raw(2, T0, north=-40.0),
    ]))
    record = fuse_situation(100, T0, store)
    by_id = {o.fused_id: o.position for o in record.objects}
    assert by_id[1] == from_local_enu(from_local_enu(CENTER, LocalPoint(40.0, 0.0)), LocalPoint(4.0, 0.0))
    assert by_id[2] == from_local_enu(CENTER, LocalPoint(0.0, -40.0))
    assert by_id[100] == from_local_enu(CENTER, LocalPoint(0.0, 8.0 * 0.05))  # course 0: no earlier fix
    store.close()


@pytest.mark.parametrize("cam_hz, cpm_hz", [(1.0, 1.0), (10.0, 10.0), (10.0, 1.0), (1.0, 10.0)])
def test_fused_situation_holds_at_every_100_ms_of_a_scene(cam_hz, cpm_hz):
    """Fused every 100 ms from +1 s to +9 s of one scene, at the times where
    every truth object in the circle was observed (has a row in the window):
    P and R >= 0.95 pooled over those times, and at each of >= 90% of them.
    Not at every one: the similarity thresholds (2.5 m against 0.5 m of
    position noise per source) now and then keep one object's CAM and CPM
    apart, or join two objects side by side, and are not tuned here; at 1 Hz
    such a split lasts the ~5 fuse times that read the same two reports."""
    cfg, truth, store = simulated_scene(42, cam_hz, cpm_hz)
    stations = {o.station: o.object_id for o in truth.objects if o.cooperative}
    results = []
    for k in range(10, 91):
        t = cfg.start_time_ms + 100 * k
        record = fuse_situation(cfg.vut_station, t, store)
        window = store.query_raw(
            t, t - DEFAULT_WINDOW_MS, t + DEFAULT_WINDOW_MS, record.center, record.radius_m, cfg.vut_station, None
        )
        observed = {VUT_OBJECT_ID} | {stations[s] for s in window.cams.column("originator").tolist()}
        observed |= {d - CAMERA_TRACK_OFFSET for d in window.cpm_detections.column("object_id").tolist()}
        inside = {
            o.object_id for o in truth.objects
            if haversine_distance(record.center, o.state_at(t)[0]) <= record.radius_m
        }
        if inside <= observed:
            results.append(score(truth, record))
    store.close()
    assert len(results) >= 60
    matched = sum(r.matched for r in results)
    assert matched >= 0.95 * sum(r.fused_count for r in results)
    assert matched >= 0.95 * sum(r.truth_in_area for r in results)
    assert sum(min(r.precision, r.recall) >= 0.95 for r in results) >= 0.9 * len(results)


def test_fuse_reference_fixture_object_count(reference_store, reference_rows):
    record = fuse_situation(REFERENCE_VUT, REFERENCE_T0, reference_store)
    assert len(record.objects) == len(reference_rows) + 1  # the VUT itself joins
    classes = sorted(
        o.classification.display_name for o in record.objects
    )
    assert classes.count("PASSENGER CAR") == 8  # 7 reference cars + VUT
    assert classes.count("PEDESTRIAN") == 7
