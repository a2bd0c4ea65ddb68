import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from situfuse.geo import (
    GeoPosition,
    LocalPoint,
    RangeExceeded,
    course_to_unit_vector,
    from_local_enu,
    haversine_distance,
    initial_bearing,
    normalize_course,
    to_local_enu,
)
from typed_fuse import angular_difference

# Oracle values computed independently (plain-REPL haversine / arc length /
# trigonometry) before the implementation existed.
OBJ3 = GeoPosition(49.2340183, 6.9823835)
OBJ2 = GeoPosition(49.2339679, 6.9826028)
OBJ3_OBJ2_DISTANCE = 16.8802  # oracle: 16.88021614158634
EQUATOR_MILLIDEG_ARC = 111.19508023353292  # R * radians(0.001)
EAST_AT_49 = 7.295053636653314  # R * radians(0.0001) * cos(49 deg)
UNIT_267_2 = (-0.998806137341434, -0.04884976979561396)


def test_haversine_identity():
    p = GeoPosition(49.1, 6.9)
    assert haversine_distance(p, p) == 0.0


def test_haversine_reference_pair():
    assert abs(haversine_distance(OBJ3, OBJ2) - OBJ3_OBJ2_DISTANCE) < 0.01


def test_haversine_equator_arc():
    d = haversine_distance(GeoPosition(0, 0), GeoPosition(0, 0.001))
    assert d == pytest.approx(EQUATOR_MILLIDEG_ARC, rel=1e-12)


def test_haversine_symmetry_and_triangle():
    rng = random.Random(42)
    base = GeoPosition(49.0, 7.0)
    for _ in range(300):
        pts = [
            from_local_enu(base, LocalPoint(rng.uniform(-4000, 4000), rng.uniform(-4000, 4000)))
            for _ in range(3)
        ]
        a, b, c = pts
        assert haversine_distance(a, b) == haversine_distance(b, a)
        assert (
            haversine_distance(a, c)
            <= haversine_distance(a, b) + haversine_distance(b, c) + 1e-6
        )


def test_position_validation():
    with pytest.raises(ValueError):
        GeoPosition(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPosition(0.0, -180.5)


def test_to_local_enu_origin_is_zero():
    o = GeoPosition(49.0, 7.0)
    assert to_local_enu(o, o) == LocalPoint(0.0, 0.0)


def test_to_local_enu_east_arc():
    # rel 1e-9: the implementation subtracts longitudes before converting,
    # the oracle used the exact 0.0001-degree difference
    east, north = to_local_enu(GeoPosition(49.0, 7.0), GeoPosition(49.0, 7.0001))
    assert east == pytest.approx(EAST_AT_49, rel=1e-9)
    assert north == 0.0


def test_to_local_enu_range_limit():
    o = GeoPosition(49.0, 7.0)
    with pytest.raises(RangeExceeded):
        to_local_enu(o, GeoPosition(49.2, 7.0))  # ~22 km north


def test_from_local_enu_inverse_of_east_arc():
    o = GeoPosition(49.0, 7.0)
    p = from_local_enu(o, LocalPoint(EAST_AT_49, 0.0))
    assert p.lat == pytest.approx(49.0, abs=1e-12)
    assert p.lon == pytest.approx(7.0001, abs=1e-12)


def test_enu_round_trip_1000_points():
    rng = random.Random(7)
    o = GeoPosition(49.234, 6.98)
    for _ in range(1000):
        p = from_local_enu(o, LocalPoint(rng.uniform(-7000, 7000), rng.uniform(-7000, 7000)))
        rt = from_local_enu(o, to_local_enu(o, p))
        assert abs(rt.lat - p.lat) < 1e-9
        assert abs(rt.lon - p.lon) < 1e-9


def test_to_local_enu_wraps_across_antimeridian():
    arc = EQUATOR_MILLIDEG_ARC / 50  # 0.00002 degrees of longitude
    east, north = to_local_enu(GeoPosition(0.0, 179.99999), GeoPosition(0.0, -179.99999))
    assert east == pytest.approx(arc, rel=1e-6)
    assert north == 0.0
    east, _ = to_local_enu(GeoPosition(0.0, -179.99999), GeoPosition(0.0, 179.99999))
    assert east == pytest.approx(-arc, rel=1e-6)
    # near the pole the two points are 4 mm apart, not 7 km
    east, _ = to_local_enu(GeoPosition(89.99, 179.9999), GeoPosition(89.99, -179.9999))
    assert 0.0 < east < 0.005


@pytest.mark.parametrize("lon, east", [(179.99999, 5.0), (-179.99999, -5.0)])
def test_from_local_enu_wraps_across_antimeridian(lon, east):
    o = GeoPosition(0.0, lon)
    p = from_local_enu(o, LocalPoint(east, 0.0))
    assert -180.0 <= p.lon <= 180.0
    assert p.lon * lon < 0.0
    assert haversine_distance(o, p) == pytest.approx(5.0, rel=1e-6)
    assert to_local_enu(o, p) == pytest.approx((east, 0.0), rel=1e-6)


@settings(max_examples=200)
@given(
    east=st.floats(-7000, 7000),
    north=st.floats(-7000, 7000),
    lat=st.floats(-60, 60),
    lon=st.floats(-179, 179),
)
def test_enu_round_trip_property(east, north, lat, lon):
    o = GeoPosition(lat, lon)
    p = from_local_enu(o, LocalPoint(east, north))
    rt = from_local_enu(o, to_local_enu(o, p))
    assert abs(rt.lat - p.lat) < 1e-9
    assert abs(rt.lon - p.lon) < 1e-9


def test_course_unit_vectors():
    assert course_to_unit_vector(0.0) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert course_to_unit_vector(90.0) == pytest.approx((1.0, 0.0), abs=1e-12)
    east, north = course_to_unit_vector(267.2)
    assert east == pytest.approx(UNIT_267_2[0], abs=1e-12)
    assert north == pytest.approx(UNIT_267_2[1], abs=1e-12)


@given(course=st.floats(0, 360, exclude_max=True))
def test_course_unit_norm(course):
    east, north = course_to_unit_vector(course)
    assert math.hypot(east, north) == pytest.approx(1.0, abs=1e-12)


def test_angular_difference_examples():
    assert angular_difference(10, 10) == 0
    assert angular_difference(350, 10) == 20
    assert angular_difference(89.0, 267.2) == pytest.approx(178.2, abs=1e-9)


@given(a=st.floats(0, 360, exclude_max=True), b=st.floats(0, 360, exclude_max=True))
def test_angular_difference_properties(a, b):
    d = angular_difference(a, b)
    assert 0.0 <= d <= 180.0
    assert d == angular_difference(b, a)


def test_normalize_course():
    assert normalize_course(370.0) == pytest.approx(10.0)
    assert normalize_course(-10.0) == pytest.approx(350.0)
    assert normalize_course(360.0) == 0.0


def test_initial_bearing_cardinal():
    o = GeoPosition(49.0, 7.0)
    north = from_local_enu(o, LocalPoint(0.0, 100.0))
    east = from_local_enu(o, LocalPoint(100.0, 0.0))
    assert initial_bearing(o, north) == pytest.approx(0.0, abs=1e-9)
    assert initial_bearing(o, east) == pytest.approx(90.0, abs=1e-9)
