"""The column fuse path against the typed reference path (tests/typed_fuse.py).

``fuse_situation`` takes the window's CAM and CPM rows as numpy columns to
dedup, merges groups from columns and links lanes in numpy; every record it
builds must equal the one the object-per-row path builds.  Rows that reach
the store without the decoder's checks must still fail or normalise as the
typed objects make them.
"""

import itertools
import math
import random
import sqlite3
from dataclasses import replace

import numpy as np
import pytest

from situfuse import wire
from situfuse.fusion import (
    SimilarityThresholds,
    _similar_pairs_mask,
    dedup,
    fuse_situation,
    join_topology,
    link_lanes,
)
from situfuse.geo import GeoPosition, LocalPoint, from_local_enu, to_local_enu
from situfuse.messages import (
    HazardEvent,
    HazardKind,
    MapLane,
    MapTopology,
    ObjectClassification,
    ObservationColumns,
    ObservationSource,
    SignalPhase,
    SpatExtract,
)
from situfuse.simgen import VUT_OBJECT_ID
from situfuse.store import RawHazard, RawSpat, RawVutSensor, SituationStore

from conftest import make_vut_extract, oracle_components, simulated_scene
from object_decode import one_row_insert, table_rows
from test_fusion import CENTER, T0, obs, random_instance
from typed_fuse import (
    fuse_situation_typed,
    is_similar,
    left_fold,
    link_lanes_scalar,
    merge_columns,
    merge_group_scalar,
    of,
)


def _assert_same_record(cfg, store, t):
    expected = fuse_situation_typed(cfg.vut_station, t, store)
    got = fuse_situation(cfg.vut_station, t, store)
    assert replace(got, situation_id=0) == expected
    assert store.load_situation(got.situation_id) == got
    return got


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("hz", [1.0, 10.0])
def test_fuse_situation_equals_typed_path(seed, hz):
    """Every offset {0, +100, +500} ms from an emission instant, and +50 ms,
    where no report is stamped, so each track's pick leans on the window
    bound and on the tie rule."""
    cfg, _, store = simulated_scene(seed, hz, hz)
    for offset in (0, 50, 100, 500):
        record = _assert_same_record(cfg, store, cfg.start_time_ms + 5000 + offset)
        sources = {e.source for o in record.objects for e in o.provenance}
        assert sources == set(ObservationSource)
    store.close()


def _lanes_along(truth, t) -> MapTopology:
    """A lane under each moving truth object, and a second lane with a
    higher id on the first one's polyline."""
    lanes = []
    for o in truth.objects:
        position, speed, course = o.state_at(t)
        if speed < 1.0 or len(lanes) == 6:
            continue
        back, ahead = (o.state_at(t + dt)[0] for dt in (-3000, 3000))
        middle = from_local_enu(position, LocalPoint(0.3, -0.2))  # a kink off the path
        lanes.append(MapLane(len(lanes) + 1, len(lanes) % 3, (back, middle, ahead), True))
    lanes.append(replace(lanes[0], lane_id=99))
    return MapTopology(intersection_id=3, lanes=tuple(lanes))


def test_fuse_situation_links_lanes_like_typed_path():
    cfg, truth, store = simulated_scene(42, 10.0, 10.0)
    t = cfg.start_time_ms + 5000
    store.put_topology(_lanes_along(truth, t))
    record = _assert_same_record(cfg, store, t + 40)
    linked = [o.lane_id for o in record.objects if o.lane_id is not None]
    assert len(linked) >= 4 and 99 not in linked
    store.close()


def test_fuse_situation_trusts_the_store_keys_for_spat_and_hazards():
    """SPaT and hazard rows, each heard by two receivers and the later copy
    stored first, and hazards that tie on (timestamp, source): the store's
    keys and window order give the record that backend_dedup and a sort give
    the typed path."""
    rng = random.Random(64)
    cfg, truth, store = simulated_scene(42, 1.0, 1.0)
    t = cfg.start_time_ms + 5000
    store.put_topology(_lanes_along(truth, t))
    here = truth.object_by_id(VUT_OBJECT_ID).state_at(t)[0]
    phases = [p for p in SignalPhase if p is not SignalPhase.UNKNOWN]
    rows = [
        RawSpat(SpatExtract(3, group, rng.choice(phases), t + 9000), t + dt, here, 0, 0)
        for group in range(3) for dt in (-300, -60, 60, 400)  # +-60 tie on |time - t|
    ]
    rows += [
        RawHazard(HazardEvent(kind, t + dt, here, source), 0, 0)
        for dt in (-200, 0, 300) for source in (7, 8) for kind in HazardKind
    ]
    rng.shuffle(rows)
    for row in rows:
        store.insert_raw(table_rows([replace(row, reporter=901, receive_time=20)]))
        store.insert_raw(table_rows([replace(row, reporter=902, receive_time=10)]))
    record = _assert_same_record(cfg, store, t)
    assert len(record.hazards) == 18
    assert [h.kind for h in record.hazards[:3]] == list(HazardKind)
    assert SignalPhase.UNKNOWN not in {lane.phase for lane in record.topology.lanes}
    store.close()


def test_similar_pairs_mask_equals_scalar_oracle():
    """The mask on every pair, under the default and random thresholds."""
    rng = random.Random(60)
    for trial in range(12):
        sample = random_instance(rng, rng.randrange(2, 100))
        th = SimilarityThresholds() if trial == 0 else SimilarityThresholds(
            rng.uniform(0.5, 20.0), rng.uniform(1.0, 90.0), rng.uniform(0.1, 5.0)
        )
        pairs = list(itertools.combinations(range(len(sample)), 2))
        idx_i, idx_j = (np.array(side, dtype=np.int64) for side in zip(*pairs))
        mask = _similar_pairs_mask(idx_i, idx_j, of(sample), th)
        assert mask.tolist() == [is_similar(sample[i], sample[j], th) for i, j in pairs]


def test_dedup_equals_scalar_merge_of_oracle_components():
    rng = random.Random(61)
    for _ in range(30):
        sample = random_instance(rng, rng.randrange(1, 300))
        for k, o in enumerate(sample):  # every source, clashing times, stations on themselves
            source, reporter = rng.choice(list(ObservationSource)), rng.randrange(3)
            own = source is not ObservationSource.CPM_DETECTION and rng.random() < 0.5
            sample[k] = replace(
                o, source=source, reporter=reporter, timestamp=T0 + rng.randrange(3),
                object_id=reporter if own else o.object_id,
            )
        components = oracle_components(sample)
        expected = [merge_group_scalar([sample[i] for i in sorted(c)]) for c in components]
        expected.sort(key=lambda f: (f.position.lat, f.position.lon, f.course))
        assert dedup(of(sample)) == expected


def test_merge_group_equals_scalar_merge():
    rng = random.Random(62)
    for _ in range(300):
        group = [
            obs(
                rng.randrange(4), east=rng.uniform(-3, 3), north=rng.uniform(-3, 3),
                speed=rng.uniform(0, 20), course=rng.uniform(0, 359.99),
                cls=rng.choice(list(ObjectClassification)),
                source=rng.choice(list(ObservationSource)), reporter=rng.randrange(3),
                t=T0 + rng.randrange(3),
            )
            for _ in range(rng.randrange(1, 41))
        ]
        assert bits(merge_columns(group)) == bits(merge_group_scalar(group))


def bits(fused) -> tuple:
    """A fused object with its floats by their exact bits."""
    return (fused.fused_id, fused.classification, fused.position.lat.hex(), fused.position.lon.hex(),
            fused.speed.hex(), fused.course.hex(), fused.provenance, fused.lane_id)


def test_dedup_averages_a_large_group_among_singletons_bit_for_bit():
    """One CPM-only group of 24 members, all pairwise similar, among 150
    singletons at least 10 m apart: the group averages as merge_group_scalar's
    left folds do, bit for bit, and every singleton stays itself."""
    rng = random.Random(64)
    group = [
        obs(k, east=rng.uniform(-0.5, 0.5), north=rng.uniform(-0.5, 0.5), speed=rng.uniform(9.5, 10.5),
            course=rng.choice([rng.uniform(0.0, 5.0), rng.uniform(355.0, 359.99)]), reporter=500 + k % 5,
            t=T0 + rng.randrange(3))
        for k in range(24)
    ]
    singles = [
        obs(100 + k, east=20.0 * (k % 15) - 150.0, north=20.0 * (k // 15) + 15.0, speed=rng.uniform(0, 20),
            course=rng.uniform(0, 359.99), source=rng.choice(list(ObservationSource)))
        for k in range(150)
    ]
    sample = singles[:70] + group + singles[70:]
    rng.shuffle(sample)
    expected = [merge_group_scalar(group), *map(merge_group_scalar, ([o] for o in singles))]
    expected.sort(key=lambda f: (f.position.lat, f.position.lon, f.course))
    fused = dedup(of(sample))
    assert [bits(f) for f in fused] == [bits(f) for f in expected]
    assert max(len(f.provenance) for f in fused) == 24


def test_averages_are_a_left_fold_not_a_compensated_sum():
    """Four CPM detections 0.7 m apart on the equator: their east offsets sum
    to 4.199999999999999 added one by one, 4.2 compensated (math.fsum, and
    Python 3.12's sum), and the fused longitude is the left fold's."""
    origin = GeoPosition(0.0, 0.0)
    group = [replace(obs(k, reporter=500 + k), position=from_local_enu(origin, LocalPoint(0.7 * k, 0.0)))
             for k in range(4)]
    east = [to_local_enu(origin, o.position).east for o in group]
    assert left_fold(east) != math.fsum(east)
    folded, compensated = (
        from_local_enu(origin, LocalPoint(total / 4, 0.0)) for total in (left_fold(east), math.fsum(east))
    )
    assert folded.lon != compensated.lon
    assert merge_columns(group).position == folded == merge_group_scalar(group).position
    speeds = [replace(group[k % 4], speed=0.1) for k in range(10)]
    assert merge_columns(speeds).speed == left_fold([0.1] * 10) / 10 == 0.09999999999999999


def test_link_lanes_equals_scalar_linking():
    """Random lanes of 2-6 points, some with a repeated point (a zero-length
    segment) or only one point twice, among them one polyline under two ids,
    and objects on its points: at distance 0 from both lanes, the lower id
    wins."""
    rng = random.Random(63)
    for _ in range(40):
        points = []
        for _ in range(rng.randrange(1, 6)):
            line = [LocalPoint(rng.uniform(-60, 60), rng.uniform(-60, 60))
                    for _ in range(rng.randrange(2, 7))]
            if rng.random() < 0.4:
                k = rng.randrange(len(line))
                line.insert(k, line[k])
            points.append(line[:1] * 2 if rng.random() < 0.1 else line)
        lanes = [
            MapLane(rng.randrange(1, 9), 1, tuple(from_local_enu(CENTER, p) for p in line), True)
            for line in points
        ]
        lanes.append(replace(lanes[0], lane_id=rng.randrange(1, 9)))
        topology = join_topology(MapTopology(1, tuple(lanes)), [])
        objects = [
            merge_columns([obs(k, east=rng.uniform(-60, 60), north=rng.uniform(-60, 60))])
            for k in range(rng.randrange(0, 40))
        ]
        objects += [
            merge_columns([obs(100 + k, east=p.east, north=p.north)]) for k, p in enumerate(points[0])
        ]
        assert link_lanes(objects, topology, 5.0) == link_lanes_scalar(objects, topology, 5.0)
        assert link_lanes(objects, None) == objects


# --- rows written around the decoder ------------------------------------------

TW = 100  # fuse time; the window reaches back to time 0


def _raw_store(tmp_path, rows) -> SituationStore:
    """A store with a VUT fix at TW and raw rows written by a plain sqlite
    connection, so that no decoder or typed object checks them."""
    path = str(tmp_path / "raw.db")
    store = SituationStore(path)
    store.insert_raw(table_rows([RawVutSensor(100, make_vut_extract(TW, CENTER), 100, 1)]))
    conn = sqlite3.connect(path)
    for kind, columns in rows:
        conn.execute(one_row_insert(kind), columns)
    conn.commit()
    conn.close()
    return store


def _cam(originator=1, t=TW, lat=None, lon=None, speed=5.0, course=90.0, code=5, east=20.0):
    p = from_local_enu(CENTER, LocalPoint(east, 0.0))
    columns = (originator, t, p.lat if lat is None else lat, p.lon if lon is None else lon,
               speed, course, code, originator, 1)
    return wire.RecordKind.CAM_EXTRACT, columns


def _cpm(object_id=7, t=TW, lat=None, lon=None, speed=5.0, course=90.0, code=1, east=-20.0):
    p = from_local_enu(CENTER, LocalPoint(east, 0.0))
    columns = (500, t, object_id, code, p.lat if lat is None else lat,
               p.lon if lon is None else lon, speed, course, 500, 1)
    return wire.RecordKind.CPM_DETECTION, columns


@pytest.mark.parametrize("row", [_cam, _cpm])
@pytest.mark.parametrize(
    "fault",
    [dict(speed=-1.0), dict(course=360.0), dict(lat=91.0), dict(t=0)],
    ids=["speed", "course", "lat", "time"],
)
def test_stored_row_faults_raise_value_error(tmp_path, row, fault):
    """A latitude of 91 lies outside every circle, and still raises."""
    store = _raw_store(tmp_path, [_cam(originator=2, east=40.0), row(**fault)])
    with pytest.raises(ValueError):
        fuse_situation(100, TW, store)
    store.close()


def _hazard(code, source=7, t=TW):
    return wire.RecordKind.HAZARD, (source, code, t, CENTER.lat, CENTER.lon, 900, 1)


def test_stored_unknown_hazard_code_is_kept_beside_kind_other(tmp_path):
    """Code 9 is no hazard kind and reads as OTHER, but it is another stored
    key than code 0 of the same source and time: both are kept, in stored
    code order.  backend_dedup, which the typed path still runs, folds them."""
    store = _raw_store(tmp_path, [_hazard(9), _hazard(1), _hazard(0), _hazard(9, source=6)])
    record = fuse_situation(100, TW, store)
    assert [(h.source, h.kind) for h in record.hazards] == [
        (6, HazardKind.OTHER), (7, HazardKind.OTHER), (7, HazardKind.PANIC_BRAKING),
        (7, HazardKind.OTHER),
    ]
    assert len(fuse_situation_typed(100, TW, store).hazards) == 3
    store.close()


def test_stored_unknown_class_code_reads_unknown(tmp_path):
    """Code 9 is no classification: alone it fuses as UNKNOWN, and it merges
    with a car's self-report like UNKNOWN does."""
    store = _raw_store(tmp_path, [_cpm(code=9), _cam(code=5), _cpm(object_id=8, code=9, east=20.0)])
    record = fuse_situation(100, TW, store)
    by_source = {frozenset((e.source, e.object_id) for e in o.provenance): o for o in record.objects}
    alone = by_source[frozenset({(ObservationSource.CPM_DETECTION, 7)})]
    assert alone.classification is ObjectClassification.UNKNOWN
    pair = {(ObservationSource.CPM_DETECTION, 8), (ObservationSource.CAM_SELF_REPORT, 1)}
    merged = by_source[frozenset(pair)]
    assert merged.classification is ObjectClassification.PASSENGER_CAR
    store.close()


def test_stored_class_codes_read_as_the_enum_reads_them(tmp_path):
    """Every classification code reads as itself; -1, 2**40 and the gaps of
    the table read UNKNOWN, as ObjectClassification(code) does: in the
    checked columns and in the fused record."""
    codes = [-1, 2**40, 9, 10, 12, *map(int, ObjectClassification)]
    n = len(codes)
    zeros = [0] * n
    checked = ObservationColumns.checked(zeros, zeros, zeros, zeros, codes, [1] * n, 0, zeros, zeros)
    assert checked.classification.tolist() == [int(ObjectClassification(code)) for code in codes]
    rows = [_cpm(object_id=k, code=code, east=-100.0 + 10.0 * k) for k, code in enumerate(codes)]
    store = _raw_store(tmp_path, rows)
    record = fuse_situation(100, TW, store)
    store.close()
    got = {o.fused_id: o.classification for o in record.objects if o.fused_id != 100}
    assert got == {k: ObjectClassification(code) for k, code in enumerate(codes)}
