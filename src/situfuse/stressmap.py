"""Quad-tree aggregation of georeferenced driver stress samples.

Valence and arousal are five-point self-assessment scales: arousal runs from
1 (excited, frenzied) to 5 (calm, sleepy), valence from 1 (happy, pleased)
to 5 (unhappy, melancholic); (3, 3) is the neutral point.  The samples
collected along a drive are partitioned spatially in a quad tree, built once
from the whole set; the partition does not depend on the order of the
samples, and every populated leaf becomes one colored map cell.

The 5x5 interpretation matrix that turns a cell's mean valence/arousal into
a color is deliberately data, not code: semantics of the scales are not
fixed here, so the matrix ships as a JSON config with a documented default
(green at the calm-pleasant corner, red at the frenzied-unpleasant corner,
gray at neutral).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, NamedTuple

from .geo import GeoPosition, feature_collection, geojson_feature

DEFAULT_CAPACITY = 16
DEFAULT_MAX_DEPTH = 12


class OutOfBounds(ValueError):
    pass


@dataclass(frozen=True)
class StressSample:
    position: GeoPosition
    timestamp: int
    valence: int
    arousal: int

    def __post_init__(self):
        if self.valence not in (1, 2, 3, 4, 5) or self.arousal not in (1, 2, 3, 4, 5):
            raise ValueError(f"scales are 1..5: ({self.valence}, {self.arousal})")


class Bounds(NamedTuple):
    """Latitude/longitude rectangle, min corner inclusive."""

    lat_min: float
    lon_min: float
    lat_max: float
    lon_max: float

    def contains(self, p: GeoPosition) -> bool:
        return self.lat_min <= p.lat <= self.lat_max and self.lon_min <= p.lon <= self.lon_max

    def mid(self) -> tuple[float, float]:
        return (self.lat_min + self.lat_max) / 2.0, (self.lon_min + self.lon_max) / 2.0


@dataclass(frozen=True)
class StressCell:
    bounds: Bounds
    mean_valence: float
    mean_arousal: float
    count: int
    cell: tuple[int, int]
    color: str


class StressQuadTree:
    """Populated leaves of a quad tree built once, top-down, from a sample set.

    A node with more than ``capacity`` samples above ``max_depth`` splits into
    SW, SE, NW and NE quarters.  That depends only on how many samples fall
    inside it, so no leaf and no cell depends on the order of the samples.
    """

    def __init__(
        self,
        bounds: Bounds,
        samples: Iterable[StressSample] = (),
        capacity: int = DEFAULT_CAPACITY,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ):
        if bounds.lat_min >= bounds.lat_max or bounds.lon_min >= bounds.lon_max:
            raise ValueError(f"degenerate bounds {bounds}")
        if capacity < 1 or max_depth < 0:
            raise ValueError("capacity must be >= 1 and max_depth >= 0")
        samples = list(samples)
        for s in samples:
            if not bounds.contains(s.position):
                raise OutOfBounds(f"{s.position} outside {bounds}")
        self.bounds = bounds
        self.count = len(samples)
        # (bounds, count, valence sum, arousal sum) per populated leaf, in
        # Z-order.  Scales are small integers, so the sums are exact.
        self._leaves: list[tuple[Bounds, int, int, int]] = []
        stack = [(bounds, 0, samples)]
        while stack:
            b, depth, members = stack.pop()
            if len(members) <= capacity or depth >= max_depth:
                if members:
                    sums = sum(s.valence for s in members), sum(s.arousal for s in members)
                    self._leaves.append((b, len(members), *sums))
                continue
            # Z-order of children: SW, SE, NW, NE; points on a split line go
            # to the upper or right half so assignment is unambiguous.
            mid_lat, mid_lon = b.mid()
            quarters: tuple[list[StressSample], ...] = ([], [], [], [])
            for s in members:
                p = s.position
                quarters[(2 if p.lat >= mid_lat else 0) + (1 if p.lon >= mid_lon else 0)].append(s)
            children = (
                Bounds(b.lat_min, b.lon_min, mid_lat, mid_lon),
                Bounds(b.lat_min, mid_lon, mid_lat, b.lon_max),
                Bounds(mid_lat, b.lon_min, b.lat_max, mid_lon),
                Bounds(mid_lat, mid_lon, b.lat_max, b.lon_max),
            )
            stack.extend((children[q], depth + 1, quarters[q]) for q in (3, 2, 1, 0))

    def cells(self, min_count: int = 1, matrix: "StressMatrix | None" = None) -> list[StressCell]:
        """One cell per populated leaf holding at least ``min_count`` samples, in Z-order."""
        matrix = matrix or StressMatrix.default()
        out: list[StressCell] = []
        for bounds, count, sum_valence, sum_arousal in self._leaves:
            if count < min_count:
                continue
            mean_v = sum_valence / count
            mean_a = sum_arousal / count
            v_round, a_round, color = color_for(mean_v, mean_a, matrix)
            out.append(
                StressCell(
                    bounds=bounds,
                    mean_valence=mean_v,
                    mean_arousal=mean_a,
                    count=count,
                    cell=(v_round, a_round),
                    color=color,
                )
            )
        return out


class StressMatrix:
    """5x5 cell-to-color mapping, loaded from JSON config."""

    _default: "StressMatrix | None" = None

    def __init__(self, cells: dict[tuple[int, int], str]):
        missing = {(v, a) for v in range(1, 6) for a in range(1, 6)} - set(cells)
        if missing:
            raise ValueError(f"matrix incomplete, missing cells: {sorted(missing)}")
        self._cells = dict(cells)

    def __getitem__(self, cell: tuple[int, int]) -> str:
        return self._cells[cell]

    @classmethod
    def from_json(cls, text: str) -> "StressMatrix":
        data = json.loads(text)
        return cls(
            {(c["valence"], c["arousal"]): c["color"] for c in data["cells"]}
        )

    @classmethod
    def from_file(cls, path) -> "StressMatrix":
        with open(path, "r", encoding="utf-8") as fp:
            return cls.from_json(fp.read())

    @classmethod
    def default(cls) -> "StressMatrix":
        if cls._default is None:
            text = resources.files("situfuse.data").joinpath("stress_matrix.json").read_text()
            cls._default = cls.from_json(text)
        return cls._default


def round_to_scale(value: float) -> int:
    """Round a mean to the 1..5 scale, halves rounding away from neutral 3."""
    if not (1.0 <= value <= 5.0):
        raise ValueError(f"mean out of scale range: {value}")
    if value >= 3.0:
        result = math.floor(value + 0.5)  # halves go up, away from 3
    else:
        result = math.ceil(value - 0.5)  # halves go down, away from 3
    return min(5, max(1, result))


def color_for(
    mean_valence: float, mean_arousal: float, matrix: StressMatrix | None = None
) -> tuple[int, int, str]:
    """Matrix cell (valence, arousal) and its color for a pair of means."""
    matrix = matrix or StressMatrix.default()
    v = round_to_scale(mean_valence)
    a = round_to_scale(mean_arousal)
    return v, a, matrix[(v, a)]


def tree_from_samples(
    samples: Iterable[StressSample],
    capacity: int = DEFAULT_CAPACITY,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> StressQuadTree:
    """A tree whose bounds snugly cover the given samples."""
    samples = list(samples)
    if not samples:
        raise ValueError("cannot bound an empty sample set")
    lats = [s.position.lat for s in samples]
    lons = [s.position.lon for s in samples]
    pad = 1e-4  # keep the bounds non-degenerate for co-located samples
    bounds = Bounds(min(lats) - pad, min(lons) - pad, max(lats) + pad, max(lons) + pad)
    return StressQuadTree(bounds, samples, capacity=capacity, max_depth=max_depth)


def export_geojson(cells: Iterable[StressCell]) -> str:
    """Stress cells as a FeatureCollection of rectangle polygons."""
    features = []
    for c in cells:
        b = c.bounds
        ring = [
            [b.lon_min, b.lat_min],
            [b.lon_max, b.lat_min],
            [b.lon_max, b.lat_max],
            [b.lon_min, b.lat_max],
            [b.lon_min, b.lat_min],
        ]
        features.append(geojson_feature("Polygon", [ring], {
            "count": c.count,
            "mean_valence": c.mean_valence,
            "mean_arousal": c.mean_arousal,
            "color": c.color,
        }))
    return feature_collection(features)
