"""Geodesic and planar geometry, and the GeoJSON layout, shared by fusion, metrics and the maps.

Distances are great-circle (haversine) on a sphere with the IUGG mean Earth
radius.  Local planar work uses an equirectangular tangent-plane projection,
which is accurate to well below a centimetre for the sub-10-km extents this
toolkit deals with.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

EARTH_RADIUS_M = 6_371_008.8

# Projection validity limit for the local tangent plane.
MAX_LOCAL_RANGE_M = 10_000.0


class RangeExceeded(ValueError):
    """A point is too far from the projection origin for planar treatment."""


@dataclass(frozen=True)
class GeoPosition:
    """WGS84 position in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat}")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude out of range: {self.lon}")


class LocalPoint(NamedTuple):
    """Point on the local tangent plane, metres east/north of the origin."""

    east: float
    north: float


def haversine_distance(a: GeoPosition, b: GeoPosition) -> float:
    """Great-circle distance between two positions in metres.

    Symmetric, non-negative, zero only for identical positions.
    """
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def haversine_distances(lat1, lon1, lat2, lon2) -> np.ndarray:
    """:func:`haversine_distance` over arrays of degrees, broadcast elementwise."""
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = np.radians(lat2 - lat1)
    dlam = np.radians(lon2 - lon1)
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def to_local_enu(origin: GeoPosition, p: GeoPosition) -> LocalPoint:
    """Project ``p`` onto the tangent plane at ``origin``.

    Equirectangular: east = R*dlon*cos(lat0), north = R*dlat (radians), with
    dlon wrapped into [-180, 180) so points across the antimeridian stay near.
    Only valid within ``MAX_LOCAL_RANGE_M`` of the origin.
    """
    dlon = p.lon - origin.lon
    if dlon >= 180.0:
        dlon -= 360.0
    elif dlon < -180.0:
        dlon += 360.0
    north = EARTH_RADIUS_M * math.radians(p.lat - origin.lat)
    east = EARTH_RADIUS_M * math.radians(dlon) * math.cos(math.radians(origin.lat))
    if east * east + north * north >= MAX_LOCAL_RANGE_M * MAX_LOCAL_RANGE_M:
        raise RangeExceeded(f"point {p} is beyond {MAX_LOCAL_RANGE_M} m from origin {origin}")
    return LocalPoint(east, north)


def to_local_enu_arrays(origin_lat, origin_lon, lat, lon) -> tuple[np.ndarray, np.ndarray]:
    """:func:`to_local_enu` elementwise over broadcast arrays of degrees: the
    scalar arithmetic (``math.cos`` included, once per origin element), so the
    same floats and, for the first point out of range, the same RangeExceeded."""
    cos_lat = np.reshape(list(map(math.cos, np.radians(origin_lat).ravel().tolist())), np.shape(origin_lat))
    dlon = np.subtract(lon, origin_lon)
    dlon = np.where(dlon >= 180.0, dlon - 360.0, np.where(dlon < -180.0, dlon + 360.0, dlon))
    north = EARTH_RADIUS_M * np.radians(np.subtract(lat, origin_lat))
    east = EARTH_RADIUS_M * np.radians(dlon) * cos_lat
    far = east * east + north * north >= MAX_LOCAL_RANGE_M * MAX_LOCAL_RANGE_M
    if far.any():
        origin_lat, origin_lon, lat, lon = np.broadcast_arrays(origin_lat, origin_lon, lat, lon)
        k = np.unravel_index(far.argmax(), far.shape)
        o, p = (GeoPosition(float(a[k]), float(b[k])) for a, b in ((origin_lat, origin_lon), (lat, lon)))
        to_local_enu(o, p)  # raises RangeExceeded
    return east, north


def from_local_enu(origin: GeoPosition, lp: LocalPoint) -> GeoPosition:
    """Inverse of :func:`to_local_enu`; the longitude wraps across +-180."""
    lat = origin.lat + math.degrees(lp.north / EARTH_RADIUS_M)
    lon = origin.lon + math.degrees(lp.east / (EARTH_RADIUS_M * math.cos(math.radians(origin.lat))))
    if lon > 180.0:
        lon -= 360.0
    elif lon < -180.0:
        lon += 360.0
    return GeoPosition(lat, lon)


def course_to_unit_vector(course_deg: float) -> tuple[float, float]:
    """Unit (east, north) direction for a course in degrees clockwise from north."""
    c = math.radians(course_deg)
    return math.sin(c), math.cos(c)


def normalize_course(deg: float) -> float:
    """Wrap an angle into the course domain [0, 360)."""
    c = math.fmod(deg, 360.0)
    return c + 360.0 if c < 0.0 else c


def initial_bearing(a: GeoPosition, b: GeoPosition) -> float:
    """Course in [0, 360) from ``a`` towards ``b`` on the local plane."""
    east, north = to_local_enu(a, b)
    return normalize_course(math.degrees(math.atan2(east, north)))


def geojson_feature(geometry_type: str, coordinates, properties: dict) -> dict:
    """One GeoJSON Feature; coordinates are [lon, lat] pairs, as GeoJSON orders them."""
    geometry = {"type": geometry_type, "coordinates": coordinates}
    return {"type": "Feature", "geometry": geometry, "properties": properties}


def feature_collection(features) -> str:
    """The GeoJSON text of a FeatureCollection of the given features."""
    return json.dumps({"type": "FeatureCollection", "features": list(features)})
