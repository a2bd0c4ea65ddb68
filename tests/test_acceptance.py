"""Acceptance gate: one test per criterion, each printing its pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail line of
every criterion.  Field-trial volumes are out of reach on a desk, so every
criterion is a property or oracle check at desk scale.
"""

import math
import random
import statistics
import time
from dataclasses import replace

import pytest

from situfuse.geo import GeoPosition, LocalPoint, from_local_enu
from situfuse.fusion import DedupStats, dedup, fuse_situation
from situfuse.metrics import evaluate_situation, rows_to_csv
from situfuse.simgen import NoiseSpec, ScenarioConfig, generate, score
from situfuse.store import SituationStore, StorageFailure
from situfuse.stressmap import Bounds, StressMatrix, StressQuadTree, color_for
from situfuse import wire

from conftest import (
    REFERENCE_T0,
    REFERENCE_VUT,
    oracle_components,
    reference_raw_rows,
    simulated_scene,
)
from test_metrics import State, trilaterate_vut, tti_ru
from test_fusion import four_heading_sample, grouping_from_components, grouping_from_fused, random_instance
from test_store import random_situation
from test_stressmap import flat_oracle, random_sample
from test_wire import naive_size, random_absolute_records, random_envelope, random_payload
from typed_fuse import of

ORIGIN = GeoPosition(49.234, 6.98)
T0 = 1_700_000_000_000


def report(number, text):
    print(f"ACCEPTANCE {number:2d} PASS: {text}")


def test_criterion_01_wire_round_trip_and_fuzz():
    start = time.perf_counter()
    rng = random.Random(1001)
    for _ in range(10_000):
        env = random_envelope(rng)
        assert wire.decode_batch(wire.encode_batch(env)) == env

    defined = 0
    for _ in range(100_000):
        blob = rng.randbytes(rng.randrange(0, 80))
        try:
            wire.decode_batch(blob)
        except wire.WireError:
            defined += 1
        # anything other than WireError propagates and fails the test
    # mutate valid envelopes too: every outcome must be clean decode or WireError
    for _ in range(2_000):
        data = bytearray(wire.encode_batch(random_envelope(rng)))
        if data:
            for _ in range(rng.randrange(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
        try:
            wire.decode_batch(bytes(data))
        except wire.WireError:
            pass
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"round-trip and fuzz took {elapsed:.1f} s"
    report(1, f"10k envelope round trips exact, 100k fuzz inputs only defined errors ({elapsed:.1f} s)")


def test_criterion_02_delta_compression():
    rng = random.Random(1002)

    def record(kind, k):
        return wire.AbsoluteRecord(
            kind,
            T0 + k * 100,
            GeoPosition(
                round((49.234 + rng.uniform(-0.002, 0.002)) * 1e7) / 1e7,
                round((6.98 + rng.uniform(-0.002, 0.002)) * 1e7) / 1e7,
            ),
            random_payload(rng, kind),
        )

    # awareness-dominated batch (the dominant traffic in practice)
    cam_only = [record(wire.RecordKind.CAM_EXTRACT, k) for k in range(50)]
    # realistic mix: mostly awareness reports and camera detections
    kinds = (
        [wire.RecordKind.CAM_EXTRACT] * 30
        + [wire.RecordKind.CPM_DETECTION] * 15
        + [wire.RecordKind.VUT_SENSOR] * 5
    )
    mixed = [record(kind, k) for k, kind in enumerate(kinds)]

    ratios = []
    for records in (cam_only, mixed):
        envelopes = wire.plan_batches(records, station=3)
        assert len(envelopes) == 1
        ratio = len(wire.encode_batch(envelopes[0])) / naive_size(envelopes[0])
        assert ratio < 0.7, f"ratio {ratio:.3f}"
        ratios.append(ratio)
    report(2, f"50-record envelopes at {ratios[0]:.2f}x / {ratios[1]:.2f}x of the naive encoding")


def test_criterion_03_dedup_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(1003)
    checked = 0
    for trial in range(200):
        n = rng.randrange(2, 1001)
        sample = random_instance(rng, n)
        fused = dedup(of(sample))
        expected = grouping_from_components(oracle_components(sample), sample)
        assert grouping_from_fused(fused) == expected, f"trial {trial}, n={n}"
        checked += n
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"dedup oracle comparison took {elapsed:.1f} s"
    report(3, f"200 instances ({checked} observations) grouped exactly like brute force ({elapsed:.1f} s)")


def test_criterion_04_clustering_advantage():
    sample = four_heading_sample(random.Random(1004), 5000)
    stats = DedupStats()
    dedup(of(sample), stats=stats)
    brute = stats.brute_force_comparisons
    assert stats.comparisons < 0.5 * brute, f"{stats.comparisons} vs brute {brute}"
    report(
        4,
        f"grid candidate search compared {stats.comparisons} pairs"
        f" = {stats.comparisons / brute:.5f}x of brute force on 4-heading traffic",
    )


def test_criterion_05_end_to_end_simulation():
    start = time.perf_counter()
    cfg = ScenarioConfig(
        seed=42,
        duration_s=10.0,
        vehicle_count=30,
        pedestrian_count=0,
        cooperative_fraction=2 / 3,
        camera_radius_m=300.0,
        cam_noise=NoiseSpec(position_m=0.5, course_deg=2.0, speed_ms=0.2),
        cpm_noise=NoiseSpec(position_m=0.5, course_deg=2.0, speed_ms=0.2),
    )
    truth, envelopes = generate(cfg)
    cooperative = sum(1 for o in truth.objects if o.cooperative and o.object_id != 0)
    assert cooperative == 20
    assert sum(1 for o in truth.objects if not o.cooperative) == 10

    store = SituationStore(":memory:")
    for k, env in enumerate(envelopes):
        store.insert_envelope(env, receive_time=k)
    record = fuse_situation(cfg.vut_station, cfg.start_time_ms + 5000, store)
    result = score(truth, record)
    store.close()
    elapsed = time.perf_counter() - start
    assert result.precision >= 0.95, result
    assert result.recall >= 0.95, result
    assert result.duplicate_rate <= 0.05, result
    assert elapsed < 60.0, f"simulation round took {elapsed:.1f} s"
    report(
        5,
        f"20+10 object scene fused at precision {result.precision:.3f},"
        f" recall {result.recall:.3f}, duplicates {result.duplicate_rate:.3f} ({elapsed:.1f} s)",
    )


def _behind(point: LocalPoint, course: float, dist: float) -> LocalPoint:
    east = point.east - dist * math.sin(math.radians(course))
    north = point.north - dist * math.cos(math.radians(course))
    return LocalPoint(east, north)


def test_criterion_06_tti_closed_form(reference_rows):
    rng = random.Random(1006)
    vut_position = from_local_enu(ORIGIN, LocalPoint(5.0, -7.0))
    for trial in range(50):
        # place the crossing point, then put both parties behind it on their rays
        crossing = LocalPoint(rng.uniform(-150, 150), rng.uniform(-150, 150))
        course_vut = rng.uniform(0, 359.9)
        course_obj = (course_vut + rng.uniform(20.0, 160.0)) % 360.0
        dist_vut = rng.uniform(5.0, 180.0)
        dist_obj = rng.uniform(5.0, 180.0)
        speed_vut = rng.uniform(1.0, 20.0)
        speed_obj = rng.uniform(1.0, 20.0)

        vut_local = _behind(crossing, course_vut, dist_vut)
        obj_local = _behind(crossing, course_obj, dist_obj)
        base = from_local_enu(ORIGIN, vut_local)
        vut = State(base, speed_vut, course_vut)
        obj = State(
            from_local_enu(
                base, LocalPoint(obj_local.east - vut_local.east, obj_local.north - vut_local.north)
            ),
            speed_obj,
            course_obj,
        )
        tti_obj, tti_vut = tti_ru(vut, obj)[:2]
        assert abs(tti_obj - 1000.0 * dist_obj / speed_obj) <= 1.0, f"trial {trial}"
        assert abs(tti_vut - 1000.0 * dist_vut / speed_vut) <= 1.0, f"trial {trial}"

    # degenerate geometries return the paired sentinel
    vut = State(vut_position, 10.0, 45.0)
    parallel = State(from_local_enu(vut_position, LocalPoint(10, 0)), 5.0, 45.0)
    anti = State(from_local_enu(vut_position, LocalPoint(10, 0)), 5.0, 225.0)
    stationary = State(from_local_enu(vut_position, LocalPoint(10, 0)), 0.0, 120.0)
    behind_cross = State(from_local_enu(vut_position, LocalPoint(-10, 10)), 5.0, 315.0)
    for other in (parallel, anti, stationary, behind_cross):
        assert tti_ru(vut, other)[:2] == (-1, -1)

    # the paired contract holds on every evaluated situation row
    store = SituationStore(":memory:")
    store.insert_raw(reference_raw_rows(reference_rows))
    record = fuse_situation(REFERENCE_VUT, REFERENCE_T0, store)
    for row in evaluate_situation(record):
        assert (row.tti_obj_ms == -1) == (row.tti_vut_ms == -1)
    store.close()
    report(6, "50 crossing geometries within 1 ms of closed form; sentinel always paired")


def test_criterion_07_ru_contract():
    rng = random.Random(1007)
    # receding objects always yield the MAX sentinel
    for _ in range(200):
        vut_pos = from_local_enu(ORIGIN, LocalPoint(rng.uniform(-50, 50), rng.uniform(-50, 50)))
        vut = State(vut_pos, rng.uniform(0, 10), rng.uniform(0, 359.9))
        # object moving exactly away from the VUT, faster than it
        away = rng.uniform(0, 359.9)
        obj_pos = from_local_enu(
            vut_pos,
            LocalPoint(
                rng.uniform(5, 80) * math.sin(math.radians(away)),
                rng.uniform(5, 80) * math.cos(math.radians(away)),
            ),
        )
        obj = State(obj_pos, vut.speed + rng.uniform(0.5, 10.0), away)
        assert tti_ru(vut, obj)[2] is None

    # for fixed geometry, a faster approach is strictly more urgent
    vut = State(ORIGIN, 0.0, 0.0)
    values = []
    for speed in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        obj = State(from_local_enu(ORIGIN, LocalPoint(0.0, 120.0)), speed, 180.0)
        values.append(tti_ru(vut, obj)[2])
    assert all(v is not None for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    report(7, "receding objects always MAX; urgency strictly increases with closing rate")


def test_criterion_08_reference_fixture(reference_rows, reference_store):
    record = fuse_situation(REFERENCE_VUT, REFERENCE_T0, reference_store)
    rows = evaluate_situation(record)
    assert len(rows) == len(reference_rows) == 14

    produced = {
        line.split(",")[0]: line.split(",")
        for line in rows_to_csv(rows).strip().splitlines()[1:]
    }
    for ref in reference_rows:
        got = produced[str(ref.object_id)]
        assert got[1] == ref.classification, ref.object_id
        assert got[2] == ref.lat, ref.object_id
        assert got[3] == ref.lon, ref.object_id
        assert got[4] == ref.speed, ref.object_id
        assert got[5] == ref.course, ref.object_id

    pairs = [
        (GeoPosition(float(r.lat), float(r.lon)), float(r.distance)) for r in reference_rows
    ]
    estimate, residuals = trilaterate_vut(pairs)
    spread = statistics.pstdev(residuals)
    report(
        8,
        "14 fixture rows reproduced byte-equal; trilaterated observer at"
        f" ({estimate.lat:.7f}, {estimate.lon:.7f}),"
        f" residuals mean {statistics.mean(residuals):+.2f} m, sd {spread:.2f} m (diagnostic)",
    )


def test_criterion_09_quad_tree_oracle():
    rng = random.Random(1009)
    bounds = Bounds(49.0, 6.9, 49.3, 7.2)
    samples = [random_sample(rng, t=k) for k in range(10_000)]
    tree = StressQuadTree(bounds, samples, capacity=16, max_depth=12)
    cells = tree.cells()
    expected = flat_oracle(cells, samples, bounds)
    got = [(c.count, round(c.mean_valence * c.count), round(c.mean_arousal * c.count)) for c in cells]
    assert got == expected

    base = [random_sample(rng, t=k) for k in range(600)]
    reference_cells = StressQuadTree(bounds, base, capacity=4, max_depth=10).cells()
    for shuffle in range(50):
        rng.shuffle(base)
        other = StressQuadTree(bounds, base, capacity=4, max_depth=10)
        assert other.cells() == reference_cells, f"shuffle {shuffle}"

    v, a, color = color_for(3.0, 3.0)
    assert (v, a) == (3, 3)
    assert color == StressMatrix.default()[(3, 3)]
    report(9, "quad tree cells equal flat recomputation; 50 shuffles invariant; (3,3) is neutral")


def test_criterion_10_store_guarantees():
    rng = random.Random(1010)
    store = SituationStore(":memory:")

    # re-ingestion idempotence
    records = random_absolute_records(rng, 60, spread_s=20, spread_deg=0.002)
    for env in wire.plan_batches(records, station=12):
        first = store.insert_envelope(env, receive_time=1)
        assert first == len(env.records)
        assert store.insert_envelope(env, receive_time=2) == 0

    # persist/load round-trip equality on 1000 random situations
    for k in range(1000):
        record = random_situation(rng)
        sid = store.persist_situation(record)
        loaded = store.load_situation(sid)
        assert replace(loaded, situation_id=0) == replace(record, situation_id=0), f"case {k}"

    # an injected failure mid-persist leaves nothing behind
    before = store.stats()["situation"]
    victim = random_situation(rng)
    while not victim.objects:
        victim = random_situation(rng)
    original = SituationStore._insert_situation_children

    def sabotaged(self, sid, s):
        original(self, sid, s)
        raise StorageFailure("injected")

    SituationStore._insert_situation_children = sabotaged
    try:
        with pytest.raises(StorageFailure):
            store.persist_situation(victim)
    finally:
        SituationStore._insert_situation_children = original
    assert store.stats()["situation"] == before
    orphans = store._conn.execute(
        "SELECT COUNT(*) FROM fused_object WHERE situation_id NOT IN"
        " (SELECT situation_id FROM situation)"
    ).fetchone()[0]
    assert orphans == 0
    store.close()
    report(10, "idempotent re-ingestion, 1000 situation round trips, no partial rows on failure")


def test_criterion_11_situation_at_any_offset_and_rate():
    """P and R >= 0.95 at +0, +100 and +500 ms from an emission instant, at 1
    and 10 Hz CAM/CPM, on two seeds: each track's report nearest t,
    dead-reckoned to t, stands where its object stands at t."""
    cells = []
    for seed in (42, 7):
        for hz in (1.0, 10.0):
            cfg, truth, store = simulated_scene(seed, hz, hz)
            for offset in (0, 100, 500):
                t = cfg.start_time_ms + 5000 + offset
                result = score(truth, fuse_situation(cfg.vut_station, t, store))
                assert min(result.precision, result.recall) >= 0.95, (seed, hz, offset, result)
                cells.append(min(result.precision, result.recall))
            store.close()
    report(11, f"P and R >= 0.95 in all {len(cells)} seed x rate x offset cells (lowest {min(cells):.2f})")
