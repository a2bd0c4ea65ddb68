"""The array evaluation path against the scalar reference (tests/scalar_metrics.py).

``evaluate_situation`` computes every object's distance, TTI pair and RU in
one numpy pass; each row must equal the scalar path's float bit for float
bit, in the same order, and a situation the scalar path refuses must raise
the same error with the same message.
"""

import math
import random

import pytest

import scalar_metrics
from situfuse.geo import GeoPosition, LocalPoint, RangeExceeded, from_local_enu, to_local_enu
from situfuse.messages import ObjectClassification, ObservationSource
from situfuse.metrics import (
    RU_CLOSING_FLOOR_MS,
    TTI_SPEED_FLOOR_MS,
    KinematicState,
    compute_ru,
    compute_tti,
    evaluate_situation,
    rows_to_csv,
)
from situfuse.situation import FusedObject, ProvenanceEntry, SituationRecord

VUT = 100
ORIGINS = [GeoPosition(49.234, 6.98), GeoPosition(-33.9, 151.2), GeoPosition(10.0, 179.9995)]
SPEEDS = [0.0, 5e-324, math.nextafter(TTI_SPEED_FLOOR_MS, 0.0), TTI_SPEED_FLOOR_MS, RU_CLOSING_FLOOR_MS]
COURSES = [0.0, 359.9, 360.0]


def bits(values) -> tuple:
    """Each value with its type, floats by their exact bits."""
    return tuple((type(v), v.hex() if isinstance(v, float) else v) for v in values)


def outcome(evaluate, s):
    try:
        return [bits(row) for row in evaluate(s)]
    except (ValueError, LookupError) as err:
        return type(err), str(err)


def obj(fid, position, speed, course, source=ObservationSource.CPM_DETECTION):
    entry = ProvenanceEntry(source, 500, fid)
    return FusedObject(fid, ObjectClassification.PASSENGER_CAR, position, speed, course, (entry,))


def situation(objects) -> SituationRecord:
    return SituationRecord(1, objects[0].position, 300.0, 1, VUT, tuple(objects))


def random_speed(rng):
    return rng.choice(SPEEDS) if rng.random() < 0.25 else rng.uniform(0.0, 25.0)


def random_situation(rng) -> SituationRecord:
    """A VUT (by CAM, by its own sensors, or both, at random places in the
    object order) among objects with repeated ids, floor speeds, course
    edges, courses parallel and anti-parallel to the VUT's and positions on
    the VUT's."""
    origin = rng.choice(ORIGINS)
    vut_course = rng.choice(COURSES) if rng.random() < 0.3 else rng.uniform(0.0, 360.0)
    others = []
    for _ in range(rng.randrange(0, 40)):
        r = rng.random()
        if r < 0.1:
            position = origin
        else:
            position = from_local_enu(origin, LocalPoint(rng.uniform(-400, 400), rng.uniform(-400, 400)))
        r = rng.random()
        if r < 0.15:
            course = vut_course
        elif r < 0.3:
            course = (vut_course + 180.0) % 360.0
        elif r < 0.45:
            course = rng.choice(COURSES)
        else:
            course = rng.uniform(0.0, 360.0)
        others.append(obj(rng.randrange(0, 12), position, random_speed(rng), course))
    vuts = [obj(VUT, origin, random_speed(rng), vut_course, ObservationSource.CAM_SELF_REPORT)]
    if rng.random() < 0.5:
        position = from_local_enu(origin, LocalPoint(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        vuts.append(obj(VUT, position, random_speed(rng), vut_course, ObservationSource.VUT_LOCAL_SENSOR))
        rng.shuffle(vuts)
    for v in vuts:
        others.insert(rng.randrange(0, len(others) + 1), v)
    return situation(others)


def test_evaluate_situation_equals_scalar_path_bit_for_bit():
    rng = random.Random(11)
    rows = 0
    for _ in range(300):
        s = random_situation(rng)
        expected = scalar_metrics.evaluate_situation(s)
        got = evaluate_situation(s)
        assert [bits(r) for r in got] == [bits(r) for r in expected]
        assert rows_to_csv(got) == scalar_metrics.rows_to_csv(expected)
        rows += len(got)
    assert rows > 3000


def test_repeated_ids_keep_situation_order():
    origin = ORIGINS[0]
    objects = [obj(7, from_local_enu(origin, LocalPoint(10.0 * k, 5.0)), 3.0, 10.0 * k) for k in range(5)]
    objects.insert(2, obj(VUT, origin, 5.0, 0.0, ObservationSource.VUT_LOCAL_SENSOR))
    rows = evaluate_situation(situation(objects))
    assert [r.course for r in rows] == [0.0, 10.0, 20.0, 30.0, 40.0]
    assert [bits(r) for r in rows] == [bits(r) for r in scalar_metrics.evaluate_situation(situation(objects))]


def _exact_closing_position(origin) -> GeoPosition:
    """A point due north of origin where a party heading south at the floor
    speed towards a standing one closes at exactly RU_CLOSING_FLOOR_MS."""
    for k in range(1, 1000):
        p = GeoPosition(origin.lat + k * 1e-5, origin.lon)
        east, north = to_local_enu(origin, p)
        closing = -(east * 0.0 + north * (RU_CLOSING_FLOOR_MS * math.cos(math.pi))) / math.hypot(east, north)
        if closing == RU_CLOSING_FLOOR_MS:
            return p
    raise AssertionError("no point closes at exactly the floor")


@pytest.mark.parametrize("origin", ORIGINS)
def test_edge_geometries_equal_scalar_path(origin):
    """Co-located, exactly at the closing floor, standing and below-floor
    parties, parallel and anti-parallel courses, a crossing behind either
    party, and across the antimeridian (on the last origin)."""
    at = lambda east, north: from_local_enu(origin, LocalPoint(east, north))  # noqa: E731
    objects = [
        obj(1, origin, 5.0, 90.0),
        obj(2, _exact_closing_position(origin), RU_CLOSING_FLOOR_MS, 180.0),
        obj(3, at(0.0, 100.0), 2 * RU_CLOSING_FLOOR_MS, 180.0),
        obj(4, at(30.0, 30.0), 0.0, 270.0),
        obj(5, at(30.0, 30.0), math.nextafter(TTI_SPEED_FLOOR_MS, 0.0), 270.0),
        obj(6, at(-60.0, 10.0), 5.0, 90.0),
        obj(7, at(60.0, 10.0), 5.0, 90.0),
        obj(8, at(10.0, 0.0), 5.0, 0.0),
        obj(9, at(10.0, 0.0), 5.0, 180.0),
        obj(10, at(-20.0, 0.0), 7.0, 359.9),
        obj(11, at(-20.0, 0.0), 7.0, 360.0),
        obj(12, at(250.0, -250.0), 9.0, 315.0),
    ]
    rows = {}
    for vut_speed in (0.0, TTI_SPEED_FLOOR_MS, 10.0):
        for vut_course in (0.0, 359.9, 360.0, 45.0):
            vut = obj(VUT, origin, vut_speed, vut_course, ObservationSource.CAM_SELF_REPORT)
            s = situation([*objects[:5], vut, *objects[5:]])
            expected = scalar_metrics.evaluate_situation(s)
            assert outcome(evaluate_situation, s) == [bits(r) for r in expected]
            rows[vut_speed, vut_course] = {r.object_id: r for r in expected}
    standing = rows[0.0, 0.0]
    assert standing[1].ru is None and standing[2].ru is None and standing[3].ru is not None
    assert (standing[4].tti_obj_ms, standing[5].tti_obj_ms) == (-1, -1)
    moving = rows[10.0, 0.0]
    assert moving[6].tti_obj_ms > 0 and moving[7].tti_obj_ms == -1  # 7 crosses behind
    assert moving[8].tti_obj_ms == moving[9].tti_obj_ms == -1  # parallel, anti-parallel


def test_errors_equal_scalar_path():
    """The first far object in situation order raises RangeExceeded (a slow
    one too), a negative speed its ValueError, a VUT-less situation
    MissingVutState: each with the scalar path's message."""
    origin = ORIGINS[0]
    near = obj(1, from_local_enu(origin, LocalPoint(50.0, 0.0)), 5.0, 0.0)
    slow_far = obj(2, from_local_enu(origin, LocalPoint(0.0, 12_000.0)), 0.0, 0.0)
    fast_far = obj(3, from_local_enu(origin, LocalPoint(15_000.0, 0.0)), 5.0, 0.0)
    vut = obj(VUT, origin, 5.0, 90.0, ObservationSource.VUT_LOCAL_SENSOR)
    backwards = obj(4, from_local_enu(origin, LocalPoint(5.0, 0.0)), -1.0, 0.0)
    cases = [
        [near, vut, slow_far, fast_far],
        [fast_far, near, vut, slow_far],
        [vut, near, backwards],
        [near, slow_far],
    ]
    for objects in cases:
        s = situation(objects)
        expected = outcome(scalar_metrics.evaluate_situation, s)
        assert isinstance(expected, tuple)  # an error, not rows
        assert outcome(evaluate_situation, s) == expected
    with pytest.raises(RangeExceeded, match=r"lat=49\.341"):
        evaluate_situation(situation(cases[0]))


def test_compute_tti_and_ru_equal_scalar_path():
    rng = random.Random(12)
    for _ in range(2000):
        origin = rng.choice(ORIGINS)
        a = KinematicState(origin, random_speed(rng), rng.choice([*COURSES, rng.uniform(0, 360)]))
        p = from_local_enu(origin, LocalPoint(rng.uniform(-300, 300), rng.uniform(-300, 300)))
        course = rng.choice([a.course, (a.course + 180.0) % 360.0, rng.uniform(0, 360)])
        b = KinematicState(p if rng.random() < 0.9 else origin, random_speed(rng), course)
        assert bits(compute_tti(a, b)) == bits(scalar_metrics.compute_tti(a, b))
        assert bits([compute_ru(a, b)]) == bits([scalar_metrics.compute_ru(a, b)])
