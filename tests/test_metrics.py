import math
import random

import numpy as np
import pytest

from situfuse.geo import (
    GeoPosition,
    LocalPoint,
    RangeExceeded,
    from_local_enu,
    haversine_distance,
    to_local_enu,
)
from situfuse.messages import (
    DriverStateSample,
    HazardEvent,
    HazardKind,
    ObjectClassification,
    ObservationSource,
)
from situfuse.metrics import (
    CSV_HEADER,
    EvaluationRow,
    KinematicState,
    MissingVutState,
    RU_CLOSING_FLOOR_MS,
    TTI_SPEED_FLOOR_MS,
    compute_ru,
    compute_tti,
    evaluate_situation,
    handover_summary,
    rows_to_csv,
)
from situfuse.situation import FusedObject, ProvenanceEntry, SituationRecord

ORIGIN = GeoPosition(49.234, 6.98)
T0 = 1_700_000_000_000


def state(east, north, speed, course):
    return KinematicState(
        position=from_local_enu(ORIGIN, LocalPoint(east, north)), speed=speed, course=course
    )


def test_tti_crossing_paths_matches_closed_form():
    # Northbound observer 100 m south of the crossing point, eastbound object
    # 50 m west of it.
    vut = state(0.0, -100.0, 10.0, 0.0)
    obj = state(-50.0, 0.0, 5.0, 90.0)
    # crossing point at the observer's (0, 0): (50 m / 5 m/s, 100 m / 10 m/s)
    vut_origin = KinematicState(position=vut.position, speed=10.0, course=0.0)
    tti_obj, tti_vut = compute_tti(vut_origin, obj)
    assert abs(tti_obj - 10000) <= 1
    assert abs(tti_vut - 10000) <= 1


def test_tti_parallel_is_minus_one():
    vut = state(0.0, 0.0, 10.0, 45.0)
    obj = state(10.0, 0.0, 8.0, 45.0)
    assert compute_tti(vut, obj) == (-1, -1)
    anti = state(10.0, 0.0, 8.0, 225.0)
    assert compute_tti(vut, anti) == (-1, -1)


def test_tti_stationary_is_minus_one():
    vut = state(0.0, 0.0, 10.0, 0.0)
    obj = state(10.0, 10.0, 0.0, 90.0)
    assert compute_tti(vut, obj) == (-1, -1)
    assert compute_tti(obj, vut) == (-1, -1)


def test_tti_party_below_the_floor_is_minus_one():
    # an object 0.0005 deg north-east of a northbound VUT, on a crossing
    # course: below TTI_SPEED_FLOOR_MS, even at the smallest subnormal speed,
    # nothing divides by its speed
    vut = KinematicState(ORIGIN, 10.0, 0.0)
    position = GeoPosition(ORIGIN.lat + 0.0005, ORIGIN.lon + 0.0005)
    for speed in (0.0, 5e-324, math.nextafter(TTI_SPEED_FLOOR_MS, 0.0)):
        obj = KinematicState(position, speed, 270.0)
        assert compute_tti(vut, obj) == (-1, -1)
        assert compute_tti(obj, vut) == (-1, -1)
    assert -1 not in compute_tti(vut, KinematicState(position, TTI_SPEED_FLOOR_MS, 270.0))


def test_tti_of_a_standing_party_is_minus_one_at_any_distance():
    # 20 km lies beyond the projection's range: a standing party needs no
    # projection, while RU, which always projects, refuses the pair
    far = from_local_enu(ORIGIN, LocalPoint(0.0, 20_000.0))
    vut = KinematicState(ORIGIN, 10.0, 0.0)
    standing = KinematicState(far, 0.0, 180.0)
    assert compute_tti(vut, standing) == (-1, -1)
    assert compute_tti(KinematicState(far, 0.0, 0.0), KinematicState(ORIGIN, 10.0, 0.0)) == (-1, -1)
    with pytest.raises(RangeExceeded):
        compute_ru(vut, standing)
    with pytest.raises(RangeExceeded):
        compute_tti(vut, KinematicState(far, 5.0, 180.0))


def test_tti_crossing_behind_is_minus_one():
    # Paths cross 50 m behind the observer.
    vut = state(0.0, 50.0, 10.0, 0.0)
    obj = state(-50.0, 0.0, 5.0, 90.0)
    assert compute_tti(vut, obj) == (-1, -1)


def test_tti_minus_one_always_paired():
    rng = random.Random(1)
    for _ in range(500):
        vut = state(rng.uniform(-200, 200), rng.uniform(-200, 200), rng.uniform(0, 20), rng.uniform(0, 359.9))
        obj = state(rng.uniform(-200, 200), rng.uniform(-200, 200), rng.uniform(0, 20), rng.uniform(0, 359.9))
        tti_obj, tti_vut = compute_tti(vut, obj)
        assert (tti_obj == -1) == (tti_vut == -1)
        if tti_obj != -1:
            assert tti_obj >= 0 and tti_vut >= 0


def test_tti_translation_invariance():
    rng = random.Random(2)
    for _ in range(100):
        e, n = rng.uniform(-150, 150), rng.uniform(-150, 150)
        de, dn = rng.uniform(-100, 100), rng.uniform(-100, 100)
        vut_a = state(0.0, -80.0, 8.0, 10.0)
        obj_a = state(e, n, 6.0, 200.0)
        vut_b = state(0.0 + de, -80.0 + dn, 8.0, 10.0)
        obj_b = state(e + de, n + dn, 6.0, 200.0)
        a = compute_tti(vut_a, obj_a)
        b = compute_tti(vut_b, obj_b)
        for x, y in zip(a, b):
            if x == -1 or y == -1:
                assert x == y
            else:
                assert abs(x - y) <= 1


def test_tti_scaling_halves_with_double_speed():
    vut = state(0.0, -100.0, 5.0, 0.0)
    obj = state(-60.0, 0.0, 4.0, 90.0)
    base = compute_tti(vut, obj)
    double = compute_tti(
        KinematicState(vut.position, vut.speed * 2, vut.course),
        KinematicState(obj.position, obj.speed * 2, obj.course),
    )
    assert base != (-1, -1)
    assert abs(double[0] - base[0] / 2) <= 1
    assert abs(double[1] - base[1] / 2) <= 1


def test_ru_head_on_closing():
    # 50 m apart, closing at a combined 10 m/s
    vut = state(0.0, 0.0, 5.0, 0.0)
    obj = state(0.0, 50.0, 5.0, 180.0)
    assert compute_ru(vut, obj) == 5000


def test_ru_receding_is_max():
    vut = state(0.0, 0.0, 5.0, 180.0)
    obj = state(0.0, 50.0, 5.0, 0.0)
    assert compute_ru(vut, obj) is None


def test_ru_zero_relative_velocity_is_max():
    vut = state(0.0, 0.0, 7.0, 90.0)
    obj = state(0.0, 30.0, 7.0, 90.0)
    assert compute_ru(vut, obj) is None


def test_ru_closing_at_or_below_the_floor_is_max():
    # head-on towards a standing VUT, the closing rate is the object's speed
    vut = state(0.0, 0.0, 0.0, 0.0)
    for speed in (5e-324, 0.04):
        assert compute_ru(vut, state(0.0, 100.0, speed, 180.0)) is None
    assert compute_ru(vut, state(0.0, 100.0, 2 * RU_CLOSING_FLOOR_MS, 180.0)) is not None


def test_ru_monotone_in_closing_rate():
    vut = state(0.0, 0.0, 0.0, 0.0)
    previous = None
    for speed in (1.0, 2.0, 4.0, 8.0, 16.0):
        obj = state(0.0, 100.0, speed, 180.0)
        ru = compute_ru(KinematicState(vut.position, 0.0, 0.0), obj)
        assert ru is not None
        if previous is not None:
            assert ru < previous
        previous = ru


def fused(fid, east, north, speed, course, cls=ObjectClassification.PASSENGER_CAR, vut=False):
    source = ObservationSource.VUT_LOCAL_SENSOR if vut else ObservationSource.CPM_DETECTION
    return FusedObject(
        fused_id=fid,
        classification=cls,
        position=from_local_enu(ORIGIN, LocalPoint(east, north)),
        speed=speed,
        course=course,
        provenance=(ProvenanceEntry(source, 500, fid),),
    )


def situation(objects):
    return SituationRecord(
        situation_id=1,
        center=ORIGIN,
        radius_m=300.0,
        timestamp=T0,
        vut=100,
        objects=tuple(objects),
    )


def test_evaluate_requires_vut_object():
    with pytest.raises(MissingVutState):
        evaluate_situation(situation([fused(1, 10, 10, 5, 0)]))


def test_evaluate_empty_situation_no_rows():
    rows = evaluate_situation(situation([fused(0, 0, 0, 8, 0, vut=True)]))
    assert rows == []


def test_evaluate_rows_sorted_and_distances():
    objects = [
        fused(0, 0, 0, 8, 0, vut=True),
        fused(30, 30.0, 0.0, 5, 90),
        fused(4, 0.0, 40.0, 5, 180),
    ]
    rows = evaluate_situation(situation(objects))
    assert [r.object_id for r in rows] == [4, 30]
    assert rows[0].distance_m == pytest.approx(40.0, abs=0.01)
    assert rows[1].distance_m == pytest.approx(30.0, abs=0.01)


def test_evaluate_collision_course_only_on_crossing_object():
    objects = [
        fused(0, 0.0, -100.0, 10.0, 0.0, vut=True),
        fused(1, -50.0, 0.0, 5.0, 90.0),  # crossing
        fused(2, 20.0, -100.0, 10.0, 0.0),  # parallel
    ]
    rows = evaluate_situation(situation(objects))
    crossing = next(r for r in rows if r.object_id == 1)
    parallel = next(r for r in rows if r.object_id == 2)
    assert crossing.tti_obj_ms > 0 and crossing.tti_vut_ms > 0
    assert parallel.tti_obj_ms == -1 and parallel.tti_vut_ms == -1


def test_csv_layout_and_sentinel():
    rows = [
        EvaluationRow(
            object_id=10,
            classification=ObjectClassification.PASSENGER_CAR,
            lat=49.2339447,
            lon=6.983114,
            speed=14.22,
            course=90.0,
            distance_m=62.78,
            tti_obj_ms=-1,
            tti_vut_ms=-1,
            ru=None,
        )
    ]
    text = rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "10,PASSENGER CAR,49.2339447,6.983114,14.22,90.0,62.78,-1,-1,MAX"


def test_handover_no_objects_suitable():
    summary = handover_summary([])
    assert summary.suitable
    assert summary.min_tti_ms is None
    assert summary.stress_cell is None


def test_handover_low_tti_unsuitable():
    row = EvaluationRow(
        object_id=48, classification=ObjectClassification.PEDESTRIAN,
        lat=49.2339224, lon=6.9824532, speed=2.57, course=356.0,
        distance_m=15.59, tti_obj_ms=1639, tti_vut_ms=1315, ru=1295,
    )
    summary = handover_summary([row])
    assert summary.min_tti_ms == 1315
    assert not summary.suitable


def test_handover_panic_braking_unsuitable():
    hazard = HazardEvent(HazardKind.PANIC_BRAKING, T0, ORIGIN, source=7)
    summary = handover_summary([], hazards=(hazard,))
    assert not summary.suitable
    assert summary.hazard_count == 1


def test_handover_reports_stress_cell():
    driver = DriverStateSample(timestamp=T0, valence=2, arousal=3, self_reported=True)
    summary = handover_summary([], driver=driver)
    assert summary.stress_cell == (2, 3)


def trilaterate_vut(
    pairs: list[tuple[GeoPosition, float]], iterations: int = 50
) -> tuple[GeoPosition, list[float]]:
    """Back-derive an unknown observer position from (position, distance) pairs.

    Gauss-Newton least squares on the local plane; returns the estimate and
    the per-pair residuals (estimated minus reported distance, metres).
    Diagnostic only: with noisy published distances the residuals show how
    consistent the table is, not a ground truth.
    """
    if len(pairs) < 3:
        raise ValueError("trilateration needs at least 3 pairs")
    origin = pairs[0][0]
    pts = np.array([to_local_enu(origin, p) for p, _ in pairs])
    dists = np.array([d for _, d in pairs])
    x = pts.mean(axis=0)
    for _ in range(iterations):
        delta = pts - x
        current = np.hypot(delta[:, 0], delta[:, 1])
        current = np.maximum(current, 1e-9)
        residuals = current - dists
        jac = -delta / current[:, None]
        step, *_ = np.linalg.lstsq(jac, -residuals, rcond=None)
        x = x + step
        if np.hypot(*step) < 1e-10:
            break
    delta = pts - x
    final = np.hypot(delta[:, 0], delta[:, 1]) - dists
    return from_local_enu(origin, LocalPoint(float(x[0]), float(x[1]))), final.tolist()


def test_trilateration_recovers_observer():
    rng = random.Random(3)
    observer = from_local_enu(ORIGIN, LocalPoint(12.0, -8.0))
    pairs = []
    for _ in range(10):
        p = from_local_enu(ORIGIN, LocalPoint(rng.uniform(-80, 80), rng.uniform(-80, 80)))
        pairs.append((p, haversine_distance(observer, p)))
    estimate, residuals = trilaterate_vut(pairs)
    assert haversine_distance(estimate, observer) < 0.01
    assert max(abs(r) for r in residuals) < 0.01


def test_trilateration_needs_three_pairs():
    with pytest.raises(ValueError):
        trilaterate_vut([(ORIGIN, 1.0)])
