import hashlib
import json
import random

import pytest

from situfuse.geo import GeoPosition
from situfuse.stressmap import (
    Bounds,
    OutOfBounds,
    StressMatrix,
    StressQuadTree,
    StressSample,
    color_for,
    export_geojson,
    round_to_scale,
    tree_from_samples,
)

BOUNDS = Bounds(49.0, 6.9, 49.3, 7.2)


def sample(lat, lon, valence=3, arousal=3, t=1):
    return StressSample(position=GeoPosition(lat, lon), timestamp=t, valence=valence, arousal=arousal)


def random_sample(rng, t=1):
    return sample(
        rng.uniform(49.0, 49.3),
        rng.uniform(6.9, 7.2),
        valence=rng.randrange(1, 6),
        arousal=rng.randrange(1, 6),
        t=t,
    )


def test_single_sample_root_leaf():
    tree = StressQuadTree(BOUNDS, [sample(49.1, 7.0)])
    assert tree.count == 1
    cells = tree.cells()
    assert len(cells) == 1
    assert cells[0].count == 1
    assert cells[0].bounds == BOUNDS


def test_out_of_bounds_rejected():
    with pytest.raises(OutOfBounds):
        StressQuadTree(BOUNDS, [sample(49.1, 7.0), sample(48.0, 7.0)])


def test_colocated_samples_stop_splitting_at_max_depth():
    samples = [sample(49.123456, 7.0123456, t=k) for k in range(10)]
    tree = StressQuadTree(BOUNDS, samples, capacity=2, max_depth=3)
    assert tree.count == 10
    cells = tree.cells()
    deepest = max(cells, key=lambda c: c.count)
    assert deepest.count == 10  # no further split below the depth cap


def test_structural_audit_random():
    rng = random.Random(1)
    samples = [random_sample(rng, t=k) for k in range(10_000)]
    tree = StressQuadTree(BOUNDS, samples, capacity=8, max_depth=10)
    assert tree.count == 10_000
    assert sum(c.count for c in tree.cells()) == 10_000


def test_uniform_samples_have_exact_means():
    rng = random.Random(2)
    samples = [
        sample(rng.uniform(49.0, 49.3), rng.uniform(6.9, 7.2), valence=2, arousal=3, t=k)
        for k in range(500)
    ]
    tree = StressQuadTree(BOUNDS, samples, capacity=4)
    for cell in tree.cells():
        assert cell.mean_valence == 2.0
        assert cell.mean_arousal == 3.0


def test_empty_tree_has_no_cells():
    assert StressQuadTree(BOUNDS).cells() == []


def flat_oracle(cells, samples, root: Bounds):
    """Recompute per-cell counts/means from the flat list and the published
    bounds; points on a split line belong to the upper/right cell."""
    out = []
    for cell in cells:
        b = cell.bounds
        members = [
            s
            for s in samples
            if (b.lat_min <= s.position.lat and (s.position.lat < b.lat_max or b.lat_max == root.lat_max and s.position.lat <= b.lat_max))
            and (b.lon_min <= s.position.lon and (s.position.lon < b.lon_max or b.lon_max == root.lon_max and s.position.lon <= b.lon_max))
        ]
        out.append(
            (
                len(members),
                sum(s.valence for s in members),
                sum(s.arousal for s in members),
            )
        )
    return out


def test_cells_match_flat_recomputation():
    rng = random.Random(3)
    samples = [random_sample(rng, t=k) for k in range(10_000)]
    tree = StressQuadTree(BOUNDS, samples, capacity=16, max_depth=12)
    cells = tree.cells()
    expected = flat_oracle(cells, samples, BOUNDS)
    got = [
        (c.count, round(c.mean_valence * c.count), round(c.mean_arousal * c.count))
        for c in cells
    ]
    assert got == expected


def test_insertion_order_invariance():
    rng = random.Random(4)
    samples = [random_sample(rng, t=k) for k in range(400)]
    reference = StressQuadTree(BOUNDS, samples, capacity=4, max_depth=10).cells()
    for shuffle in range(10):
        rng.shuffle(samples)
        other = StressQuadTree(BOUNDS, samples, capacity=4, max_depth=10)
        assert other.cells() == reference, f"shuffle {shuffle}"


def _cluster_samples(rng):
    """Spread samples, 40 at one point, which no split can separate, and 52
    on split lines of the first two levels and on the max corner."""
    spread = [random_sample(rng, t=k) for k in range(300)]
    cluster = [
        sample(49.123456, 7.0123456, rng.randrange(1, 6), rng.randrange(1, 6), t=300 + k)
        for k in range(40)
    ]
    mid_lat, mid_lon = BOUNDS.mid()
    q_lat, q_lon = Bounds(BOUNDS.lat_min, BOUNDS.lon_min, mid_lat, mid_lon).mid()
    points = (
        [(mid_lat, rng.uniform(6.9, 7.2)) for _ in range(20)]
        + [(rng.uniform(49.0, 49.3), mid_lon) for _ in range(20)]
        + [(q_lat, q_lon), (mid_lat, mid_lon), (49.3, 7.2), (q_lat, rng.uniform(6.9, mid_lon))] * 3
    )
    on_lines = [
        sample(lat, lon, rng.randrange(1, 6), rng.randrange(1, 6), t=340 + k)
        for k, (lat, lon) in enumerate(points)
    ]
    return spread + cluster + on_lines


def _hotspot_samples(rng):
    centres = [(49.05, 6.95), (49.2, 7.1), (49.27, 6.93)]
    out = []
    for k in range(3000):
        lat, lon = rng.choice(centres)
        lat, lon = lat + rng.uniform(-0.02, 0.02), lon + rng.uniform(-0.02, 0.02)
        out.append(sample(lat, lon, rng.randrange(1, 6), rng.randrange(1, 6), t=k))
    return out


# sha256 of the cells of three seeded sample sets, computed with the
# incremental (insert-built) tree this partition replaced.
PINNED_CELLS = [
    (
        lambda rng: [random_sample(rng, t=k) for k in range(10_000)],
        1201, 16, 12, 1, 1086,
        "b9b377633792d1a3cd03c82e70bdec1d1f136bd62865b0f3d647a02401eb9b76",
    ),
    (
        _cluster_samples,
        1202, 4, 6, 1, 164,
        "0443cc695450889515503f8690729badc1d48c26195666166e272a75b970a340",
    ),
    (
        _hotspot_samples,
        1203, 8, 10, 3, 576,
        "daee06587dffb38b6ce4ec3cf24951692b80716a5bad3c1f35bd44c32bcf3b23",
    ),
]


@pytest.mark.parametrize(
    "make, seed, capacity, max_depth, min_count, n_cells, digest",
    PINNED_CELLS,
    ids=["uniform_10k", "cluster_at_max_depth", "min_count_3"],
)
def test_cells_are_pinned(make, seed, capacity, max_depth, min_count, n_cells, digest):
    samples = make(random.Random(seed))
    tree = StressQuadTree(BOUNDS, samples, capacity=capacity, max_depth=max_depth)
    cells = tree.cells(min_count=min_count)
    rows = [(tuple(c.bounds), c.mean_valence, c.mean_arousal, c.count, c.cell, c.color) for c in cells]
    assert len(cells) == n_cells
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_round_to_scale_away_from_neutral():
    assert round_to_scale(3.0) == 3
    assert round_to_scale(3.5) == 4
    assert round_to_scale(2.5) == 2
    assert round_to_scale(4.5) == 5
    assert round_to_scale(1.5) == 1
    assert round_to_scale(1.0) == 1
    assert round_to_scale(5.0) == 5
    with pytest.raises(ValueError):
        round_to_scale(0.9)


def test_color_for_neutral_cell():
    v, a, color = color_for(3.0, 3.0)
    assert (v, a) == (3, 3)
    assert color == StressMatrix.default()[(3, 3)]


def test_color_for_reported_driver_rating():
    v, a, _ = color_for(2.0, 3.0)
    assert (v, a) == (2, 3)


def test_color_for_corner():
    v, a, _ = color_for(1.0, 1.0)
    assert (v, a) == (1, 1)


def test_color_for_total_on_domain():
    for v10 in range(10, 51):
        for a10 in range(10, 51):
            v, a, color = color_for(v10 / 10.0, a10 / 10.0)
            assert 1 <= v <= 5 and 1 <= a <= 5
            assert color.startswith("#") and len(color) == 7


def test_matrix_requires_all_cells():
    with pytest.raises(ValueError):
        StressMatrix({(1, 1): "#FFFFFF"})


def test_matrix_json_round_trip(tmp_path):
    default = StressMatrix.default()
    path = tmp_path / "matrix.json"
    path.write_text(
        json.dumps(
            {
                "cells": [
                    {"valence": v, "arousal": a, "color": default[(v, a)]}
                    for v in range(1, 6)
                    for a in range(1, 6)
                ]
            }
        )
    )
    loaded = StressMatrix.from_file(path)
    assert all(loaded[(v, a)] == default[(v, a)] for v in range(1, 6) for a in range(1, 6))


def validate_geojson(text):
    """Minimal independent GeoJSON structure check for polygon collections."""
    doc = json.loads(text)
    assert doc["type"] == "FeatureCollection"
    assert isinstance(doc["features"], list)
    for feature in doc["features"]:
        assert feature["type"] == "Feature"
        geometry = feature["geometry"]
        assert geometry["type"] == "Polygon"
        for ring in geometry["coordinates"]:
            assert len(ring) >= 4
            assert ring[0] == ring[-1]
            for position in ring:
                lon, lat = position
                assert -180 <= lon <= 180 and -90 <= lat <= 90
        assert isinstance(feature["properties"], dict)
    return doc


def test_export_geojson_empty():
    doc = validate_geojson(export_geojson([]))
    assert doc["features"] == []


def test_export_geojson_cells():
    rng = random.Random(5)
    tree = StressQuadTree(BOUNDS, [random_sample(rng, t=k) for k in range(200)], capacity=4)
    cells = tree.cells()
    doc = validate_geojson(export_geojson(cells))
    assert len(doc["features"]) == len(cells)
    first = doc["features"][0]
    assert len(first["geometry"]["coordinates"][0]) == 5
    assert set(first["properties"]) == {"count", "mean_valence", "mean_arousal", "color"}
    # deterministic output
    assert export_geojson(cells) == export_geojson(tree.cells())


def test_tree_from_samples_bounds_cover():
    rng = random.Random(6)
    samples = [random_sample(rng, t=k) for k in range(50)]
    tree = tree_from_samples(samples)
    assert tree.count == 50
