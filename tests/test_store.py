import random
import sqlite3
import struct
import time
from dataclasses import replace

import pytest

from situfuse.geo import GeoPosition, from_local_enu, haversine_distance
from situfuse.geo import LocalPoint
from situfuse.messages import (
    CamExtract,
    CpmDetection,
    DriverStateSample,
    EnvironmentSample,
    HazardEvent,
    HazardKind,
    MapLane,
    MapTopology,
    ObjectClassification,
    SignalPhase,
    SpatExtract,
)
from situfuse.situation import FusedObject, ProvenanceEntry, SituationRecord
from situfuse.messages import ObservationSource
from situfuse.store import (
    RAW_TABLES,
    RawCam,
    RawCpmDetection,
    RawDriverState,
    RawEnvironment,
    RawHazard,
    RawSpat,
    RawVutSensor,
    SituationStore,
    StorageFailure,
)
from situfuse import store as store_module
from situfuse import wire
from conftest import make_vut_extract
from object_decode import rows_from_envelope, table_rows
from test_wire import CAM_PAYLOAD, random_envelope, random_payload, raw_frame

T0 = 1_700_000_000_000
CENTER = GeoPosition(49.234, 6.98)


@pytest.fixture
def store():
    s = SituationStore(":memory:")
    yield s
    s.close()


def cam_row(originator, t, east_m=0.0, north_m=0.0, receive_time=1, speed=10.0, course=90.0):
    return RawCam(
        cam=CamExtract(
            originator=originator,
            generation_time=t,
            position=from_local_enu(CENTER, LocalPoint(east_m, north_m)),
            speed=speed,
            course=course,
            classification=ObjectClassification.PASSENGER_CAR,
        ),
        reporter=originator,
        receive_time=receive_time,
    )


def cpm_row(originator, object_id, t, east_m=0.0, north_m=0.0):
    position = from_local_enu(CENTER, LocalPoint(east_m, north_m))
    detection = CpmDetection(object_id, ObjectClassification.PEDESTRIAN, position, 1.5, 180.0)
    return RawCpmDetection(originator, t, detection, reporter=originator, receive_time=1)


def spat_row(intersection, group, t, receive_time=1):
    return RawSpat(
        spat=SpatExtract(intersection, group, SignalPhase.GREEN, t + 5000),
        generation_time=t,
        position=CENTER,
        reporter=9,
        receive_time=receive_time,
    )


def test_insert_raw_counts_and_idempotence(store):
    rows = [cam_row(1, T0), cam_row(2, T0), cam_row(3, T0), spat_row(1, 1, T0), spat_row(1, 2, T0)]
    assert store.insert_raw(table_rows(rows)) == 5
    assert store.insert_raw(table_rows(rows)) == 0
    stats = store.stats()
    assert stats["raw_cam"] == 3
    assert stats["raw_spat"] == 2


def test_insert_envelope_idempotence(store):
    records = [
        wire.AbsoluteRecord(
            wire.RecordKind.CAM_EXTRACT,
            T0 + k * 100,
            CENTER,
            wire.pack_cam(cam_row(5, T0).cam),
        )
        for k in range(4)
    ]
    env = wire.plan_batches(records, station=5)[0]
    assert store.insert_envelope(env, receive_time=1) == 4
    assert store.insert_envelope(env, receive_time=2) == 0


def test_interleaved_duplicates_match_key_set(store):
    rng = random.Random(2)
    inserted_keys = set()
    for _ in range(50):
        rows = [
            cam_row(rng.randrange(1, 8), T0 + 100 * rng.randrange(0, 10), receive_time=k)
            for k in range(rng.randrange(1, 6))
        ]
        store.insert_raw(table_rows(rows))
        inserted_keys |= {(r.cam.originator, r.cam.generation_time) for r in rows}
    assert store.stats()["raw_cam"] == len(inserted_keys)


def test_query_raw_reads_only_the_fused_kinds(store):
    """A window holds the five kinds a situation fuses; VUT-sensor and
    environment rows at the same time and place are left to their own queries."""
    sample = EnvironmentSample(
        timestamp=T0, validity_duration_s=60, area_center=CENTER, area_radius_m=500.0,
        temperature_c=5.0, precipitation_mm_h=0.1, wind_speed_ms=2.0, wind_direction=10.0,
        illuminance_lux=500.0, visibility_m=2000.0, pressure_hpa=1009.0,
        humidity_pct=80.0, cloudiness_pct=90.0,
    )
    store.insert_raw(table_rows([
        cam_row(1, T0), RawVutSensor(100, make_vut_extract(T0, CENTER), 100, 1),
        RawEnvironment(sample, reporter=42, receive_time=1),
    ]))
    window = store.query_raw(T0, T0 - 10, T0 + 10, CENTER, 1000.0)
    assert set(vars(window)) == {"cams", "cpm_detections", "spats", "driver_rows", "hazard_rows"}
    assert len(window) == len(window.cams) == 1


def test_query_raw_time_boundaries_inclusive(store):
    store.insert_raw(table_rows([cam_row(1, T0), cam_row(2, T0 + 100)]))
    out = store.query_raw(T0, T0, T0 + 100, CENTER, 1000.0)
    assert out.cams.column("originator").tolist() == [1, 2]
    out = store.query_raw(T0, T0 + 1, T0 + 99, CENTER, 1000.0)
    assert out.cams.rows == []


def test_query_raw_rejects_inverted_interval(store):
    with pytest.raises(ValueError):
        store.query_raw(T0, T0, T0 - 1, CENTER, 10.0)


def test_query_raw_matches_full_scan_oracle(store):
    rng = random.Random(3)
    rows = []
    for k in range(200):
        rows.append(
            cam_row(
                originator=k + 1,
                t=T0 + rng.randrange(0, 10_000),
                east_m=rng.uniform(-500, 500),
                north_m=rng.uniform(-500, 500),
            )
        )
    store.insert_raw(table_rows(rows))
    for _ in range(20):
        t_min = T0 + rng.randrange(0, 8000)
        t_max = t_min + rng.randrange(0, 3000)
        radius = rng.uniform(50, 600)
        got = store.query_raw(t_min, t_min, t_max, CENTER, radius)
        expected = {
            r.cam.originator
            for r in rows
            if t_min <= r.cam.generation_time <= t_max
            and haversine_distance(CENTER, r.cam.position) <= radius
        }
        assert set(got.cams.column("originator").tolist()) == expected


def test_query_raw_orders_hazards_by_their_whole_key(store):
    """Hazards that tie on (timestamp, source) come back by kind, whatever
    order they were stored in: a window is in its table's UNIQUE key order."""
    rng = random.Random(45)
    rows = [
        RawHazard(HazardEvent(kind, T0 + dt, CENTER, source), 9, 1)
        for dt in (0, 10) for source in (3, 4) for kind in HazardKind
    ]
    rng.shuffle(rows)
    for row in rows:  # one insert each, so the rowids follow the shuffle
        store.insert_raw(table_rows([row]))
    got = store.query_raw(T0, T0, T0 + 10, CENTER, 10.0)
    expected = sorted(rows, key=lambda r: (r.event.timestamp, r.event.source, int(r.event.kind)))
    assert rows != expected and got.hazard_rows.rows == table_rows(expected)[wire.RecordKind.HAZARD]


def _window_facts(row) -> tuple[wire.RecordKind, int, GeoPosition, tuple]:
    """(record kind, time, position, documented window order) of a typed raw row."""
    K = wire.RecordKind
    if isinstance(row, RawCam):
        c = row.cam
        return K.CAM_EXTRACT, c.generation_time, c.position, (c.generation_time, c.originator)
    if isinstance(row, RawCpmDetection):
        key = (row.generation_time, row.originator, row.detection.object_id)
        return K.CPM_DETECTION, row.generation_time, row.detection.position, key
    if isinstance(row, RawSpat):
        key = (row.generation_time, row.spat.intersection_id, row.spat.signal_group)
        return K.SPAT, row.generation_time, row.position, key
    if isinstance(row, RawVutSensor):
        t = row.extract.timestamp
        return K.VUT_SENSOR, t, row.extract.gnss, (t, row.station)
    if isinstance(row, RawDriverState):
        t = row.sample.timestamp
        return K.DRIVER_STATE, t, row.position, (t, row.station)
    if isinstance(row, RawEnvironment):
        t = row.sample.timestamp  # the station column holds the reporter
        return K.ENVIRONMENT, t, row.sample.area_center, (t, row.reporter)
    h = row.event
    return K.HAZARD, h.timestamp, h.position, (h.timestamp, h.source, int(h.kind))


def _track(row):
    """The track a CAM or CPM row reports on; None for the kinds whose windows keep every row."""
    if isinstance(row, RawCam):
        return row.cam.originator
    if isinstance(row, RawCpmDetection):
        return row.originator, row.detection.object_id
    return None


def _window_oracle(facts, t, t_min, t_max, radius) -> dict[wire.RecordKind, list]:
    """The full-scan window: per kind a window reads (a RawSlice list), the
    typed rows with time in [t_min, t_max]; of CAM and CPM rows only each
    track's row nearest t (of two equally near the earlier, and none 2**63 ms
    or more from t); then the rows haversine within the radius, in the
    documented order."""
    picked = {kind: {} for kind, raw in store_module.RAW_TABLE.items() if raw.slice_list}
    for r in facts:
        kind, time, position, order = _window_facts(r)
        track, rank = _track(r), (abs(time - t), time)
        if kind not in picked or not t_min <= time <= t_max:
            continue
        if track is None:
            picked[kind][order] = (rank, order, position, r)
        elif rank[0] < 2**63 and (track not in picked[kind] or rank < picked[kind][track][0]):
            picked[kind][track] = (rank, order, position, r)
    return {
        kind: [r for _, _, position, r in sorted(hits.values(), key=lambda h: h[1])
               if haversine_distance(CENTER, position) <= radius]
        for kind, hits in picked.items()
    }


def _assert_window(store, facts, t_min, t_max, radius, t=None) -> dict[wire.RecordKind, list]:
    """The window's rows of each kind equal the table rows of the full scan's
    typed rows; t is the window's middle unless given."""
    t = (t_min + t_max) // 2 if t is None else t
    got = store.query_raw(t, t_min, t_max, CENTER, radius)
    expected = _window_oracle(facts, t, t_min, t_max, radius)
    for kind, rows in expected.items():
        got_rows = getattr(got, store_module.RAW_TABLE[kind].slice_list).rows
        assert got_rows == table_rows(rows).get(kind, []), (t, t_min, t_max, radius, kind)
    assert len(got) == sum(map(len, expected.values()))
    return expected


EPOCH_MS = 20_000  # an epoch's rows lie in its first 8 s


def test_query_raw_every_kind_matches_full_scan_oracle(tmp_path):
    """Every RawSlice list equals a full scan: time inclusive, haversine within
    the radius, in the kind's documented order.
    Each kind spans three 1024-rowid blocks: epochs go in out of time order
    with windows between the inserts, then the store is reopened."""
    rng = random.Random(41)
    path = str(tmp_path / "window.db")
    store = SituationStore(path)
    epochs = [1, 0, 2, 5, 3, 4, 7, 6]  # mostly in time order, as arrivals are
    facts, station = [], 0
    seen = dict.fromkeys(store_module.RawSlice.__dataclass_fields__, 0)

    def check_random_window(w):
        t_min = T0 - 5000 + rng.randrange(9 * EPOCH_MS)
        t_max = t_min + rng.randrange(30_000)
        radius = rng.uniform(50.0, 800.0)
        t = rng.randrange(t_min - 1000, t_max + 1001)
        for kind, rows in _assert_window(store, facts, t_min, t_max, radius, t).items():
            seen[store_module.RAW_TABLE[kind].slice_list] += len(rows)

    for epoch in epochs:
        for kind in wire.RecordKind:
            records = tuple(
                wire.DeltaRecord(
                    kind, rel, rng.randrange(-6000, 6001), rng.randrange(-9000, 9001),
                    random_payload(rng, kind),
                )
                for rel in rng.sample(range(800), 300)
            )
            station += 1
            env = wire.BatchEnvelope(
                wire.MetaBlock(station, T0 + EPOCH_MS * epoch, CENTER), records
            )
            assert store.insert_envelope(env, receive_time=station) == len(records)
            facts += rows_from_envelope(env, receive_time=station)
        for w in range(4):
            check_random_window(w)
    assert {store.stats()[table] for table in RAW_TABLES} == {2400}  # 3 blocks per kind

    last = max(_window_facts(r)[1] for r in facts)
    for t_min, t_max in [(T0 - 10_000, T0 - 1), (last + 1, last + 60_000)]:  # meet no block
        assert not any(_assert_window(store, facts, t_min, t_max, 1e6).values())
    for r in rng.sample(facts, 20):  # single instants
        t = _window_facts(r)[1]
        _assert_window(store, facts, t, t, 1e6)
    _assert_window(store, facts, T0 + 8000, T0 + EPOCH_MS - 1, 1e6)  # between two epochs
    _assert_window(store, facts, T0, last, 300.0)

    store.close()
    store = SituationStore(path)  # the summary starts again from no block
    _assert_window(store, facts, T0 + 3 * EPOCH_MS, T0 + 3 * EPOCH_MS + 5000, 600.0)
    for w in range(12):
        check_random_window(w)
    _assert_window(store, facts, T0, last, 1e6)
    store.close()
    assert min(seen.values()) > 20


def test_query_raw_windows_on_block_edges(tmp_path):
    """Rows in time order, so each rowid block holds its own time span: a
    window on the first or last row of a block, or on a row added after the
    last summary, meets that block at its edge."""
    store = SituationStore(str(tmp_path / "edges.db"))
    rows = [cam_row(n, T0 + 10 * n) for n in range(1, 3001)]  # the n-th row has rowid n
    store.insert_raw(table_rows(rows[:2047]))
    _assert_window(store, rows[:2047], T0, T0 + 10 * 2047, 10.0)
    store.insert_raw(table_rows(rows[2047:2048]))  # alone past the summary, first of its block
    _assert_window(store, rows[:2048], T0 + 10 * 2048, T0 + 10 * 2048, 10.0)
    store.insert_raw(table_rows(rows[2048:]))
    for n in (1, 1023, 1024, 2047, 2048, 2500, 3000):
        _assert_window(store, rows, T0 + 10 * n, T0 + 10 * n, 10.0)
    _assert_window(store, rows, T0 + 10 * 1023, T0 + 10 * 1024, 10.0)
    store.close()


def _cam_epoch(rng, epoch, n, first_originator):
    return [
        cam_row(
            first_originator + i, T0 + EPOCH_MS * epoch + rng.randrange(8000),
            rng.uniform(-400, 400), rng.uniform(-400, 400),
        )
        for i in range(n)
    ]


def test_query_raw_includes_rows_another_store_appends(tmp_path):
    rng = random.Random(43)
    path = str(tmp_path / "shared.db")
    first, second = SituationStore(path), SituationStore(path)
    rows = _cam_epoch(rng, 0, 1500, 1)
    first.insert_raw(table_rows(rows))
    _assert_window(first, rows, T0, T0 + 4 * EPOCH_MS, 300.0)
    more = _cam_epoch(rng, 1, 1500, 5000)  # into the partly summarised block and past it
    second.insert_raw(table_rows(more))
    for epoch in (0, 1):
        _assert_window(first, rows + more, T0 + EPOCH_MS * epoch, T0 + EPOCH_MS * epoch + 3000, 300.0)
    _assert_window(first, rows + more, T0, T0 + 4 * EPOCH_MS, 300.0)
    first.close()
    second.close()


def test_query_raw_exact_after_foreign_delete_vacuum_insert(tmp_path):
    """A raw connection deletes rows, vacuums and appends rows that reuse the
    freed rowids at new times; the next window still equals the full scan."""
    rng = random.Random(44)
    path = str(tmp_path / "foreign.db")
    store = SituationStore(path)
    rows = [r for epoch in range(3) for r in _cam_epoch(rng, epoch, 1000, 1000 * epoch + 1)]
    store.insert_raw(table_rows(rows))
    for epoch in range(4):
        _assert_window(store, rows, T0 + EPOCH_MS * epoch, T0 + EPOCH_MS * epoch + 8000, 500.0)

    conn = sqlite3.connect(path)
    conn.execute("DELETE FROM raw_cam WHERE rowid > 2000 OR rowid % 5 = 0")
    conn.commit()
    conn.execute("VACUUM")
    new = _cam_epoch(rng, 3, 800, 10_000)
    (cam_rows,) = table_rows(new).values()
    conn.executemany(store_module._INSERT_RAW[wire.RecordKind.CAM_EXTRACT], cam_rows)
    conn.commit()
    conn.close()

    kept = [r for rowid, r in enumerate(rows, 1) if rowid <= 2000 and rowid % 5] + new
    assert store.stats()["raw_cam"] == len(kept)
    for epoch in range(4):
        _assert_window(store, kept, T0 + EPOCH_MS * epoch, T0 + EPOCH_MS * epoch + 8000, 500.0)
    _assert_window(store, kept, T0, T0 + 4 * EPOCH_MS, 500.0)
    store.close()


def test_a_reader_does_not_block_ingest(tmp_path):
    """A raw connection holding a read transaction neither holds insert_raw
    off nor sees its row before it ends that transaction; a second store that
    summarised the file before the insert then sees the row in its window."""
    path = str(tmp_path / "shared.db")
    store, second = SituationStore(path), SituationStore(path)
    first = [cam_row(1, T0)]
    store.insert_raw(table_rows(first))
    _assert_window(second, first, T0 - 1000, T0 + 1000, 100.0)
    reader = sqlite3.connect(path, isolation_level=None)
    reader.execute("BEGIN")
    assert reader.execute("SELECT count(*) FROM raw_cam").fetchone() == (1,)

    start = time.perf_counter()
    assert store.insert_raw(table_rows([cam_row(2, T0)])) == 1
    assert time.perf_counter() - start < 1.0  # not the 5 s busy timeout
    assert reader.execute("SELECT count(*) FROM raw_cam").fetchone() == (1,)
    reader.execute("COMMIT")
    assert reader.execute("SELECT count(*) FROM raw_cam").fetchone() == (2,)
    reader.close()
    _assert_window(second, first + [cam_row(2, T0)], T0 - 1000, T0 + 1000, 100.0)
    store.close()
    second.close()


def _journal_mode(path) -> str:
    conn = sqlite3.connect(path)
    try:
        return conn.execute("PRAGMA journal_mode").fetchone()[0]
    finally:
        conn.close()


def test_file_store_is_wal_with_full_sync_and_leaves_no_siblings(tmp_path):
    path = tmp_path / "wal.db"
    store = SituationStore(str(path))
    assert store._conn.execute("PRAGMA synchronous").fetchone() == (2,)  # FULL: each commit is on disk
    store.insert_raw(table_rows([cam_row(1, T0)]))
    store.close()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wal.db"]  # no -wal or -shm left
    assert _journal_mode(path) == "wal"
    memory = SituationStore(":memory:")
    assert memory._conn.execute("PRAGMA journal_mode").fetchone() == ("memory",)
    memory.close()


def test_rollback_journal_store_converts_to_wal_keeping_its_rows(tmp_path):
    path = str(tmp_path / "old.db")
    rows = [cam_row(i, T0 + 10 * i, east_m=i) for i in range(1, 50)]
    conn = sqlite3.connect(path)
    conn.executescript(store_module._SCHEMA)
    conn.executemany(store_module._INSERT_RAW[wire.RecordKind.CAM_EXTRACT], *table_rows(rows).values())
    conn.commit()
    conn.close()
    assert _journal_mode(path) == "delete"

    store = SituationStore(path)
    assert store.stats()["raw_cam"] == len(rows)
    _assert_window(store, rows, T0, T0 + 1000, 300.0)
    store.close()
    assert _journal_mode(path) == "wal"


def test_time_bounds_beyond_sqlite_integers_are_clamped(store):
    """Bounds past the signed 64-bit range are cut to it: nothing overflows,
    and a window wholly outside the stored times stays empty."""
    top = 2**63 - 1
    store.insert_raw(table_rows([
        cam_row(1, top - 5), RawVutSensor(100, make_vut_extract(top - 10, CENTER), 100, 1),
    ]))
    for t, cams in ((top - 5, [top - 5]), (top + 10**6, [top - 5]), (2**64, [])):  # 2**63 + 6 from t
        window = store.query_raw(t, top - 5, top + 10**6, CENTER, 10.0)
        assert window.cams.column("generation_time").tolist() == cams
    assert len(store.query_raw(top + 1, top + 1, 2**64, CENTER, 10.0)) == 0
    assert len(store.query_raw(-(2**63), -(2**64), -(2**63) - 1, CENTER, 10.0)) == 0
    assert store.vut_fix_near(100, top + 5, tolerance_ms=20).extract.timestamp == top - 10
    assert store.vut_fix_near(100, top + 5, tolerance_ms=10) is None
    assert store.vut_fixes(100, top - 10, 2**64).extract.timestamp == top - 10
    assert store.vut_fixes(100, 2**63, 2**64) is None
    assert store.environment_candidates(2**64) == []
    assert store.environment_candidates(-(2**64)) == []


def test_frame_whose_last_time_is_the_largest_sqlite_integer_stores(store):
    last = 2**63 - 1
    spat = struct.pack("<IHBQ", 4, 2, 3, last)
    frame = raw_frame(
        last - 50, [(wire.RecordKind.CAM_EXTRACT, 0, CAM_PAYLOAD), (wire.RecordKind.SPAT, 5, spat)]
    )
    env = wire.decode_batch(frame)
    assert wire.encode_batch(env) == frame
    assert store.insert_envelope(env, receive_time=1) == 2
    window = store.query_raw(last, last - 50, last, CENTER, 1.0)
    assert window.cams.column("generation_time").tolist() == [last - 50]
    assert [(r[4], r[3]) for r in window.spats.rows] == [(last, last)]  # generation, change time


def test_query_raw_reads_each_tracks_report_nearest_t(tmp_path):
    """Few tracks with many reports each, stored over several rowid blocks
    and out of time order: every window equals the nearest-per-track oracle,
    for t inside, on the edges of and outside [t_min, t_max], and for radii
    that leave a track's nearest report outside the circle.  So do windows
    over an empty CAM table (which still names its columns), over the
    originators -2**63, 0 and 2**63 - 1, and beside many originators with no
    row in the window."""
    rng = random.Random(46)
    store = SituationStore(str(tmp_path / "tracks.db"))
    facts, keys = [], set()
    for _ in range(8):
        start, batch = T0 + rng.randrange(20_000), []
        for _ in range(400):
            t, east, north = start + rng.randrange(5000), rng.uniform(-300, 300), rng.uniform(-300, 300)
            if rng.random() < 0.5:
                row = cam_row(rng.randrange(1, 6), t, east, north)
                key = ("cam", row.cam.originator, t)
            else:
                row = cpm_row(rng.randrange(1, 3), rng.randrange(1, 5), t, east, north)
                key = ("cpm", row.originator, row.detection.object_id, t)
            if key not in keys:
                keys.add(key)
                batch.append(row)
        store.insert_raw(table_rows(batch))
        facts += batch
    assert store.stats()["raw_cam"] > 1024 and store.stats()["raw_cpm_detection"] > 1024
    for _ in range(60):
        t_min = T0 + rng.randrange(-2000, 26_000)
        t_max = t_min + rng.choice((0, 1, 50, 1000, 8000))
        t = rng.choice((t_min, t_max, (t_min + t_max) // 2, rng.randrange(t_min - 3000, t_max + 3000)))
        _assert_window(store, facts, t_min, t_max, rng.choice((150.0, 1000.0)), t)
    store.close()

    # the loose scan over originators: one table empty, then the extreme keys
    # sqlite holds, then many originators without a row in the window
    store = SituationStore(str(tmp_path / "originators.db"))
    facts = [cpm_row(o, 1, T0 + dt) for o in (0, 5) for dt in (-200, 300)]
    store.insert_raw(table_rows(facts))
    window = store.query_raw(T0, T0 - 500, T0 + 500, CENTER, 10.0)
    assert window.cams.names == CAM_COLUMNS and window.cams.column("originator").tolist() == []
    assert len(_assert_window(store, facts, T0 - 500, T0 + 500, 10.0, T0)[wire.RecordKind.CPM_DETECTION]) == 2
    extremes = (-(2**63), 0, 2**63 - 1)
    rows = [row(o, T0 + dt) for o in extremes for dt in (-100, 40, 700) for row in (cam_row, cpm_row_7)]
    rows += [row(o, T0 - 90_000) for o in range(1, 400) for row in (cam_row, cpm_row_7)]
    store.insert_raw(table_rows(rows))
    facts += rows
    for t in (T0 - 100, T0, T0 + 40, T0 + 600):
        picked = _assert_window(store, facts, t - 500, t + 500, 10.0, t)
        assert [r.cam.originator for r in picked[wire.RecordKind.CAM_EXTRACT]] == list(extremes)
    assert _assert_window(store, facts, T0 - 91_000, T0 - 89_000, 10.0, T0 - 90_000)[
        wire.RecordKind.CAM_EXTRACT
    ] == [cam_row(o, T0 - 90_000) for o in range(1, 400)]
    store.close()


@pytest.mark.parametrize("kind", [wire.RecordKind.CAM_EXTRACT, wire.RecordKind.CPM_DETECTION])
def test_track_window_seeks_the_key_index_per_originator(store, kind):
    """A CAM or CPM window reads its table through the UNIQUE key index, one
    (originator, time range) seek per originator, and never scans the table."""
    table = store_module.RAW_TABLE[kind].table
    sql = store_module._SELECT_WINDOW[kind]
    plan = [row[3] for row in store._conn.execute("EXPLAIN QUERY PLAN " + sql, (0,) * sql.count("?"))]
    seek = f"INDEX sqlite_autoindex_{table}_1 (originator=? AND generation_time>? AND generation_time<?)"
    assert any(step.startswith(f"SEARCH {table} USING ") and step.endswith(seek) for step in plan), plan
    assert not any(step.startswith(f"SCAN {table}") for step in plan), plan


CAM_COLUMNS = [
    "originator", "generation_time", "lat", "lon", "speed", "course", "classification",
    "reporter", "receive_time",
]


def cpm_row_7(originator, t):
    return cpm_row(originator, 7, t)


MAX = wire.MAX_TIME_MS


@pytest.mark.parametrize(
    "t, offsets, window_ms, picked",
    [
        (T0, (300, 100, -100), 500, -100),
        (T0, (-499, 500, 501), 500, -499),
        (MAX, (-7, -3), 500, -3),
        (0, (2**62 + 1, -(2**62) - 1, 2**62 + 2), MAX, -(2**62) - 1),
        (0, (2**62 + 3, 2**62 + 2), MAX, 2**62 + 2),
        (MAX, (-MAX - 1,), 2**64, None),
        (MAX, (-MAX - 1, -MAX), 2**64, -MAX),
    ],
    ids=["tie", "window_edge", "max_time", "tie_past_64_bits", "nearer_past_64_bits",
         "2**63_from_t", "2**63_less_1_from_t"],
)
def test_query_raw_pick_is_exact(store, t, offsets, window_ms, picked):
    """Each track's report nearest t: of two equally near, the earlier; at
    2*|time - t| beyond 64 bits still to the millisecond; a report 2**63 ms or
    more from t is not read."""
    rows = [cam_row(1, t + d) for d in offsets] + [cpm_row(9, 4, t + d) for d in offsets]
    store.insert_raw(table_rows(rows))
    window = store.query_raw(t, t - window_ms, t + window_ms, CENTER, 10.0)
    expected = [] if picked is None else [t + picked]
    for kind_rows in (window.cams, window.cpm_detections):
        assert kind_rows.column("generation_time").tolist() == expected
    _assert_window(store, rows, t - window_ms, t + window_ms, 10.0, t)


def test_vut_fix_near(store):
    fixes = [
        RawVutSensor(100, make_vut_extract(T0 + dt, CENTER), 100, 1)
        for dt in (-1500, -300, 700)
    ]
    store.insert_raw(table_rows(fixes))
    hit = store.vut_fix_near(100, T0, tolerance_ms=2000)
    assert hit.extract.timestamp == T0 - 300
    assert store.vut_fix_near(100, T0 + 10_000, tolerance_ms=2000) is None
    assert store.vut_fix_near(999, T0, tolerance_ms=2000) is None


def test_vut_fix_near_tie_takes_the_earlier_fix(store):
    """Of two fixes equally near t, vut_fix_near returns the earlier one."""
    store.insert_raw(table_rows([
        RawVutSensor(100, make_vut_extract(T0 + dt, CENTER), 100, 1) for dt in (400, -400, 900)
    ]))
    assert store.vut_fix_near(100, T0, tolerance_ms=2000).extract.timestamp == T0 - 400
    assert store.vut_fix_near(100, T0 + 1, tolerance_ms=2000).extract.timestamp == T0 + 400


def test_environment_candidates(store):
    sample = EnvironmentSample(
        timestamp=T0, validity_duration_s=60, area_center=CENTER, area_radius_m=500.0,
        temperature_c=5.0, precipitation_mm_h=0.1, wind_speed_ms=2.0, wind_direction=10.0,
        illuminance_lux=500.0, visibility_m=2000.0, pressure_hpa=1009.0,
        humidity_pct=80.0, cloudiness_pct=90.0,
    )
    store.insert_raw(table_rows([RawEnvironment(sample, reporter=42, receive_time=1)]))
    assert store.environment_candidates(T0 + 30_000) == [sample]
    assert store.environment_candidates(T0 + 61_000) == []


def test_topology_round_trip(store):
    topo = MapTopology(
        intersection_id=4,
        lanes=(
            MapLane(1, 2, (CENTER, from_local_enu(CENTER, LocalPoint(0, 50))), True),
            MapLane(2, 3, (CENTER, from_local_enu(CENTER, LocalPoint(50, 0))), False),
        ),
    )
    store.put_topology(topo)
    assert store.topologies() == [topo]


def test_put_topology_replaces_the_intersections_lanes(store):
    """A revised MAP that drops a lane drops it from the store; another
    intersection keeps its lanes."""
    line = (CENTER, from_local_enu(CENTER, LocalPoint(0, 50)))
    other = MapTopology(4, (MapLane(7, 1, line, True),))
    store.put_topology(other)
    store.put_topology(MapTopology(3, (MapLane(1, 1, line, True), MapLane(2, 2, line, False))))
    revised = MapTopology(3, (MapLane(1, 1, line, True),))
    store.put_topology(revised)
    assert store.topologies() == [revised, other]


def test_put_topology_stores_no_phase(store):
    line = (CENTER, from_local_enu(CENTER, LocalPoint(50, 0)))
    lanes = tuple(MapLane(k + 1, k, line, k % 2 == 0, phase) for k, phase in enumerate(SignalPhase))
    store.put_topology(MapTopology(4, lanes))
    assert store.topologies() == [
        MapTopology(4, tuple(replace(lane, phase=SignalPhase.UNKNOWN) for lane in lanes))
    ]


def random_situation(rng, situation_id=0) -> SituationRecord:
    center = from_local_enu(CENTER, LocalPoint(rng.uniform(-100, 100), rng.uniform(-100, 100)))
    objects = tuple(
        FusedObject(
            fused_id=k,
            classification=rng.choice(list(ObjectClassification)),
            position=from_local_enu(center, LocalPoint(rng.uniform(-50, 50), rng.uniform(-50, 50))),
            speed=rng.uniform(0, 20),
            course=rng.uniform(0, 359.9),
            provenance=tuple(
                sorted(
                    ProvenanceEntry(
                        rng.choice(list(ObservationSource)),
                        rng.randrange(1, 100),
                        rng.randrange(1, 100),
                    )
                    for _ in range(rng.randrange(1, 4))
                )
            ),
            lane_id=rng.choice([None, 1, 2]),
        )
        for k in range(rng.randrange(0, 5))
    )
    topology = None
    if rng.random() < 0.5:
        topology = MapTopology(
            intersection_id=rng.randrange(1, 9),
            lanes=tuple(
                MapLane(
                    lane_id=k + 1,
                    signal_group=rng.randrange(1, 5),
                    polyline=(
                        center,
                        from_local_enu(center, LocalPoint(rng.uniform(-80, 80), rng.uniform(-80, 80))),
                    ),
                    ingress=rng.random() < 0.5,
                    phase=rng.choice(list(SignalPhase)),
                )
                for k in range(rng.randrange(1, 3))
            ),
        )
    driver = None
    if rng.random() < 0.5:
        driver = DriverStateSample(
            timestamp=T0,
            valence=rng.randrange(1, 6),
            arousal=rng.randrange(1, 6),
            heart_rate_bpm=rng.choice([None, rng.randrange(50, 150)]),
            self_reported=rng.random() < 0.5,
        )
    hazards = tuple(
        HazardEvent(rng.choice(list(HazardKind)), T0 + k, center, rng.randrange(1, 50))
        for k in range(rng.randrange(0, 3))
    )
    environment = None
    if rng.random() < 0.3:
        environment = EnvironmentSample(
            timestamp=T0, validity_duration_s=600, area_center=center, area_radius_m=900.0,
            temperature_c=rng.uniform(-10, 35), precipitation_mm_h=rng.uniform(0, 10),
            wind_speed_ms=rng.uniform(0, 20), wind_direction=rng.uniform(0, 359.9),
            illuminance_lux=rng.uniform(0, 100_000), visibility_m=rng.uniform(10, 9999),
            pressure_hpa=rng.uniform(950, 1050), humidity_pct=rng.uniform(0, 100),
            cloudiness_pct=rng.uniform(0, 100),
        )
    vut_sensor = make_vut_extract(T0, center) if rng.random() < 0.7 else None
    return SituationRecord(
        situation_id=situation_id,
        center=center,
        radius_m=rng.uniform(100, 500),
        timestamp=T0 + rng.randrange(0, 10_000),
        vut=rng.randrange(1, 200),
        objects=objects,
        topology=topology,
        vut_sensor=vut_sensor,
        driver=driver,
        hazards=hazards,
        environment=environment,
    )


def test_persist_load_round_trip(store):
    rng = random.Random(4)
    for _ in range(40):
        record = random_situation(rng)
        sid = store.persist_situation(record)
        loaded = store.load_situation(sid)
        assert loaded is not None
        assert loaded.situation_id == sid
        from dataclasses import replace

        assert replace(loaded, situation_id=0) == replace(record, situation_id=0)


def test_stored_codes_outside_the_enums_load_as_the_enum_call_reads_them(store):
    """Rows written with raw SQL around persist_situation: a provenance
    source code outside ObservationSource raises its ValueError, a class
    code outside ObjectClassification reads UNKNOWN, as the enum calls do."""
    rng = random.Random(7)
    record = random_situation(rng)
    while len(record.objects) < 2:
        record = random_situation(rng)
    sid = store.persist_situation(record)
    store._conn.execute(
        "UPDATE fused_object SET classification = 99 WHERE situation_id = ? AND seq = 1", (sid,)
    )
    loaded = store.load_situation(sid)
    assert ObjectClassification(99) is ObjectClassification.UNKNOWN
    assert loaded.objects[1].classification is ObjectClassification.UNKNOWN
    assert replace(loaded.objects[1], classification=record.objects[1].classification) == record.objects[1]
    store._conn.execute(
        "UPDATE provenance SET source = 99 WHERE situation_id = ? AND seq = 1 AND entry_seq = 0",
        (sid,),
    )
    with pytest.raises(ValueError, match="99 is not a valid ObservationSource"):
        store.load_situation(sid)


def test_persist_assigns_ascending_ids(store):
    rng = random.Random(5)
    first = store.persist_situation(random_situation(rng))
    second = store.persist_situation(random_situation(rng))
    assert second > first


def test_failed_persist_leaves_no_partial_rows(store, monkeypatch):
    rng = random.Random(6)
    record = random_situation(rng)
    while not record.objects:
        record = random_situation(rng)

    original = SituationStore._insert_situation_children

    def sabotaged(self, sid, s):
        original(self, sid, s)
        raise StorageFailure("injected fault after child inserts")

    monkeypatch.setattr(SituationStore, "_insert_situation_children", sabotaged)
    with pytest.raises(StorageFailure):
        store.persist_situation(record)
    monkeypatch.undo()

    assert store.stats()["situation"] == 0
    for table in ("fused_object", "provenance", "hazard", "topology_lane", "vut_sensor"):
        (count,) = store._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
        assert count == 0, table
    # the store is still usable afterwards
    sid = store.persist_situation(record)
    assert store.load_situation(sid) is not None


def list_situations(store, vut=None, t_min=None, t_max=None) -> list[tuple[int, int, int]]:
    """(situation_id, vut, timestamp) of the stored situations that match, by timestamp."""
    rows = store._conn.execute(
        "SELECT situation_id, vut_station, timestamp_ms FROM situation"
        " ORDER BY timestamp_ms, situation_id"
    ).fetchall()
    return [
        row for row in rows
        if (vut is None or row[1] == vut)
        and (t_min is None or row[2] >= t_min)
        and (t_max is None or row[2] <= t_max)
    ]


def test_list_situations_filters(store):
    rng = random.Random(7)
    from dataclasses import replace

    a = replace(random_situation(rng), vut=1, timestamp=T0)
    b = replace(random_situation(rng), vut=2, timestamp=T0 + 1000)
    store.persist_situation(a)
    store.persist_situation(b)
    assert len(list_situations(store)) == 2
    only_vut1 = list_situations(store, vut=1)
    assert len(only_vut1) == 1 and only_vut1[0][1] == 1
    assert len(list_situations(store, t_min=T0, t_max=T0)) == 1  # boundary inclusive
    assert len(list_situations(store, t_min=T0 + 1001)) == 0


def test_load_missing_situation(store):
    assert store.load_situation(12345) is None


def test_keys_beyond_sqlite_integers_find_nothing(store):
    """A station or situation id past the signed 64-bit range binds to no
    row: each read by that key returns nothing instead of overflowing."""
    store.insert_raw(table_rows([RawVutSensor(100, make_vut_extract(T0, CENTER), 100, 1)]))
    for key in (2**63, -(2**63) - 1, 10**20):
        assert store.vut_fix_near(key, T0, tolerance_ms=2000) is None
        assert store.vut_fixes(key, T0 - 1000, T0 + 1000) is None
        assert store.driver_samples(key) == []
        assert store.load_situation(key) is None
    assert store.vut_fix_near(100, T0, tolerance_ms=2000).extract.timestamp == T0


def test_rows_from_envelope_covers_all_kinds(store):
    extract = make_vut_extract(T0, CENTER)
    driver = DriverStateSample(timestamp=T0, valence=2, arousal=3)
    hazard = HazardEvent(HazardKind.PANIC_BRAKING, T0, CENTER, source=77)
    environment = EnvironmentSample(
        timestamp=T0, validity_duration_s=60, area_center=CENTER, area_radius_m=400.0,
        temperature_c=5.0, precipitation_mm_h=0.0, wind_speed_ms=1.0, wind_direction=0.0,
        illuminance_lux=100.0, visibility_m=500.0, pressure_hpa=1000.0,
        humidity_pct=50.0, cloudiness_pct=50.0,
    )
    cam = cam_row(3, T0).cam
    detection = CpmDetection(8, ObjectClassification.PEDESTRIAN, CENTER, 1.2, 45.0)
    spat = SpatExtract(1, 2, SignalPhase.RED, T0 + 3000)
    records = [
        wire.AbsoluteRecord(wire.RecordKind.CAM_EXTRACT, T0, cam.position, wire.pack_cam(cam)),
        wire.AbsoluteRecord(
            wire.RecordKind.CPM_DETECTION, T0, CENTER, wire.pack_cpm_detection(500, detection)
        ),
        wire.AbsoluteRecord(wire.RecordKind.SPAT, T0, CENTER, wire.pack_spat(spat)),
        wire.AbsoluteRecord(wire.RecordKind.VUT_SENSOR, T0, CENTER, wire.pack_vut_sensor(extract)),
        wire.AbsoluteRecord(
            wire.RecordKind.DRIVER_STATE, T0, CENTER, wire.pack_driver_state(driver)
        ),
        wire.AbsoluteRecord(
            wire.RecordKind.ENVIRONMENT, T0, CENTER, wire.pack_environment(environment)
        ),
        wire.AbsoluteRecord(wire.RecordKind.HAZARD, T0, CENTER, wire.pack_hazard(hazard)),
    ]
    env = wire.plan_batches(records, station=100)[0]
    rows = rows_from_envelope(env, receive_time=5)
    types = {type(r).__name__ for r in rows}
    assert types == {
        "RawCam", "RawCpmDetection", "RawSpat", "RawVutSensor",
        "RawDriverState", "RawEnvironment", "RawHazard",
    }
    assert all(r.receive_time == 5 for r in rows)
    assert store.insert_raw(table_rows(rows)) == 7
    stats = store.stats()
    assert sum(stats[t] for t in stats if t.startswith("raw_")) == 7


def test_raw_table_entries_match_created_schema(store):
    """Each RAW_TABLE entry names a created table of its width; each entry
    of a window kind fills one RawSlice list, its table's UNIQUE key is the
    window's order columns (time first, so the order is total), and it names
    its lat/lon column pair."""
    window_lists = [raw.slice_list for raw in store_module.RAW_TABLE.values() if raw.slice_list]
    assert window_lists == list(store_module.RawSlice.__dataclass_fields__)
    for raw in store_module.RAW_TABLE.values():
        info = store._conn.execute(f"PRAGMA table_info({raw.table})").fetchall()
        types = {name: kind for _, name, kind, *_ in info}
        columns = list(types)
        assert len(columns) == raw.width, raw.table
        if not raw.slice_list:
            continue
        indexes = store._conn.execute(f"PRAGMA index_list({raw.table})").fetchall()
        (unique,) = [name for _, name, is_unique, *_ in indexes if is_unique]
        key = {name for *_, name in store._conn.execute(f"PRAGMA index_info({unique})")}
        assert set(raw.order) == key and len(raw.order) == len(key), raw.table
        assert types[raw.order[0]] == "INTEGER", raw.table
        lat, lon = columns[raw.lat_column : raw.lat_column + 2]
        assert (lat, lon) in {("lat", "lon"), ("center_lat", "center_lon")}, raw.table


def _with_odd_codes(rng, env: wire.BatchEnvelope) -> wire.BatchEnvelope:
    """Overwrite payload bytes that the decoder must normalise, not reject:
    enum codes outside their enum, flag and light bits above the defined ones,
    self-report flags other than 0/1."""
    K = wire.RecordKind
    records = []
    for r in env.records:
        p = bytearray(r.payload)
        if rng.random() < 0.5:
            if r.kind in (K.CAM_EXTRACT, K.CPM_DETECTION):
                p[-1] = rng.choice([9, 10, 12, 99, 255])  # classification
            elif r.kind is K.SPAT:
                p[6] = rng.randrange(5, 256)  # phase
            elif r.kind is K.HAZARD:
                p[0] = rng.randrange(3, 256)  # hazard kind
            elif r.kind is K.VUT_SENSOR:
                p[0] |= rng.randrange(1, 8) << 5  # undefined flag bits
                p[3] |= rng.randrange(1, 4) << 6  # undefined light bits
            elif r.kind is K.DRIVER_STATE:
                p[4] = rng.randrange(2, 256)  # self-reported
        records.append(replace(r, payload=bytes(p)))
    return replace(env, records=tuple(records))


def _table_contents(s: SituationStore) -> dict[str, list]:
    return {
        table: s._conn.execute(f"SELECT * FROM {table} ORDER BY rowid").fetchall()
        for table in RAW_TABLES
    }


def test_insert_envelope_writes_once_through_insert_raw(monkeypatch):
    """insert_envelope makes one insert_raw call per frame, with the typed
    reference's table rows, and returns that call's count unchanged."""
    rng = random.Random(98)
    calls, insert_raw = [], SituationStore.insert_raw

    def counted(self, rows_by_kind):
        rows = {kind: list(kind_rows) for kind, kind_rows in rows_by_kind.items()}
        calls.append((rows, insert_raw(self, rows)))
        return calls[-1][1]

    monkeypatch.setattr(SituationStore, "insert_raw", counted)
    store, new_rows = SituationStore(":memory:"), 0
    for k in range(60):
        env = wire.decode_batch(wire.encode_batch(random_envelope(rng, max_records=10)))
        for t in (k, k + 1):  # the second pass re-sends the frame
            before = len(calls)
            n = store.insert_envelope(env, receive_time=t)
            assert len(calls) == before + 1
            rows, inserted = calls[-1]
            assert rows == table_rows(rows_from_envelope(env, t)) and n == inserted
            new_rows += n
    assert new_rows == sum(store.stats()[table] for table in RAW_TABLES) > 100
    store.close()


def test_insert_envelope_stores_what_the_typed_rows_store():
    """Columnar ingest against the object-per-record reference, frame by frame."""
    rng = random.Random(97)
    columnar, typed = SituationStore(":memory:"), SituationStore(":memory:")
    kinds, odd_codes = set(), 0
    for k in range(240):
        original = random_envelope(rng, max_records=10)
        env = wire.decode_batch(wire.encode_batch(_with_odd_codes(rng, original)))
        kinds |= {r.kind for r in env.records}
        odd_codes += sum(a.payload != b.payload for a, b in zip(env.records, original.records))
        n = columnar.insert_envelope(env, receive_time=k)
        assert n == typed.insert_raw(table_rows(rows_from_envelope(env, k))), f"frame {k}"
        assert columnar.insert_envelope(env, receive_time=k + 1) == 0
        assert typed.insert_raw(table_rows(rows_from_envelope(env, k + 1))) == 0
    got, expected = _table_contents(columnar), _table_contents(typed)
    assert got == expected
    assert kinds == set(wire.RecordKind)
    assert odd_codes > 100
    assert sum(len(rows) for rows in got.values()) > 1000
    assert {row[6] for row in got["raw_cam"]} >= {0, 5}  # unknown classes stored as 0
    assert {row[2] for row in got["raw_spat"]} >= {0, 3}
    assert {row[1] for row in got["raw_hazard"]} == {0, 1, 2}
    assert {row[4] is None for row in got["raw_driver"]} == {True, False}  # heart rate 0 -> NULL
    assert {row[5] for row in got["raw_driver"]} == {0, 1}
    assert {row[2] for row in got["raw_vut_sensor"]} == {0, 1}  # brake flag as 0/1
    assert {row[18] for row in got["raw_vut_sensor"]} == {0, 1}  # wiper flag as 0/1
    assert max(row[11] for row in got["raw_vut_sensor"]) <= 0x3F  # lights
    columnar.close()
    typed.close()
