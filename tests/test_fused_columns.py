"""FusedColumns: a situation's objects as columns, and a sequence of FusedObjects.

A record keeps its objects as FusedColumns from dedup to the CSV.  As a
sequence they must behave as the tuple of FusedObjects they stand for, and
load_situation must refuse a stored situation at load, with the error the
objects would raise, not when an item is first read.
"""

import random
from dataclasses import replace

import pytest

from situfuse.fusion import fuse_situation
from situfuse.geo import LocalPoint, from_local_enu
from situfuse.messages import ObjectClassification, ObservationSource
from situfuse.metrics import MissingVutState, evaluate_situation, rows_to_csv
from situfuse.situation import FusedColumns, FusedObject, ProvenanceEntry, SituationRecord
from situfuse.store import SituationStore

from conftest import simulated_scene
from test_store import CENTER, random_situation


def objects(n=4, seed=3) -> tuple[FusedObject, ...]:
    rng = random.Random(seed)
    return tuple(
        FusedObject(
            k + 10, rng.choice(list(ObjectClassification)),
            from_local_enu(CENTER, LocalPoint(rng.uniform(-50, 50), rng.uniform(-50, 50))),
            rng.uniform(0, 20), rng.uniform(0, 359.9),
            tuple(ProvenanceEntry(rng.choice(list(ObservationSource)), rng.randrange(1, 99), k)
                  for _ in range(rng.randrange(1, 4))),
            rng.choice([None, 1, 2]),
        )
        for k in range(n)
    )


@pytest.fixture
def store():
    s = SituationStore(":memory:")
    yield s
    s.close()


def test_columns_equal_tuples_and_lists_both_ways():
    objs = objects()
    columns = FusedColumns.of(objs)
    for other in (objs, list(objs)):
        assert columns == other and other == columns
        assert not columns != other and not other != columns
    changed = objs[:-1] + (replace(objs[-1], speed=objs[-1].speed + 1.0),)
    for other in (changed, list(changed), objs[:-1], list(objs[:-1])):
        assert columns != other and other != columns
    assert columns != 5 and columns != "abc"


def test_two_columns_compare_by_columns_without_building_objects():
    objs = objects()
    a, b = FusedColumns.of(objs), replace(FusedColumns.of(list(objs)))
    assert "typed" not in b.__dict__
    assert a == b and b == a
    assert "typed" not in b.__dict__
    assert a != replace(b, lane_id=(3,) * len(b))
    assert a != replace(b, object_id=b.object_id + 1)


def test_hash_is_the_tuples():
    objs = objects()
    assert hash(FusedColumns.of(objs)) == hash(objs)
    assert hash(replace(FusedColumns.of(objs))) == hash(objs)


def test_indexing_negative_indexing_and_slicing():
    objs = objects(6)
    columns = replace(FusedColumns.of(objs))  # items built from the columns
    assert len(columns) == 6
    assert columns[0] == objs[0] and columns[-1] == objs[-1] and columns[-6] == objs[0]
    assert columns[1:4] == objs[1:4] and columns[::-2] == objs[::-2]
    assert list(columns) == list(objs)
    assert objs[2] in columns and columns.index(objs[3]) == 3
    with pytest.raises(IndexError):
        columns[6]
    assert columns[2].classification is objs[2].classification
    assert all(type(e.source) is ObservationSource for o in columns for e in o.provenance)


def test_record_from_a_tuple_converts_it_and_replace_keeps_the_columns():
    objs = objects()
    record = SituationRecord(1, CENTER, 100.0, 5, 100, objs)
    assert isinstance(record.objects, FusedColumns)
    assert record.objects == objs
    assert replace(record, situation_id=7).objects is record.objects
    assert record == SituationRecord(1, CENTER, 100.0, 5, 100, list(objs))
    assert hash(record) == hash(SituationRecord(1, CENTER, 100.0, 5, 100, objs))
    assert FusedColumns.of(record.objects) is record.objects


def test_the_empty_situation(store):
    record = SituationRecord(0, CENTER, 100.0, 5, 100, ())
    assert len(record.objects) == 0 and record.objects == () and record.objects == []
    assert list(record.objects) == [] and hash(record.objects) == hash(())
    sid = store.persist_situation(record)
    loaded = store.load_situation(sid)
    assert loaded == replace(record, situation_id=sid) and len(loaded.objects) == 0
    with pytest.raises(MissingVutState):
        evaluate_situation(loaded)


def _stored(store, size=3):
    rng = random.Random(11)
    record = random_situation(rng, size=size)
    return store.persist_situation(record), record


@pytest.mark.parametrize(
    "update, message",
    [
        ("UPDATE fused_object SET lat = 90.5 WHERE situation_id = :sid AND seq = 1", "latitude out of range: 90.5"),
        ("UPDATE fused_object SET lon = -180.5 WHERE situation_id = :sid AND seq = 1",
         "longitude out of range: -180.5"),
        ("DELETE FROM provenance WHERE situation_id = :sid AND seq = 1", "fused object without provenance"),
        ("UPDATE provenance SET source = 0 WHERE situation_id = :sid AND seq = 2 AND entry_seq = 0",
         "0 is not a valid ObservationSource"),
    ],
    ids=["lat", "lon", "no_provenance", "source"],
)
def test_load_raises_each_stored_fault_itself(store, update, message):
    sid, _ = _stored(store)
    store._conn.execute(update, {"sid": sid})
    with pytest.raises(ValueError, match=message):
        store.load_situation(sid)


def test_load_names_the_first_object_at_fault_and_checks_sources_first(store):
    """Object 1 has no provenance and object 2 a latitude of 91: the first
    object at fault is named.  An unknown source of an entry that belongs to
    no object is still refused, before any object."""
    sid, _ = _stored(store)
    store._conn.execute("DELETE FROM provenance WHERE situation_id = ? AND seq = 1", (sid,))
    store._conn.execute("UPDATE fused_object SET lat = 91.0 WHERE situation_id = ? AND seq = 2", (sid,))
    with pytest.raises(ValueError, match="fused object without provenance"):
        store.load_situation(sid)
    store._conn.execute("UPDATE fused_object SET lat = 91.0 WHERE situation_id = ? AND seq = 0", (sid,))
    with pytest.raises(ValueError, match="latitude out of range: 91.0"):
        store.load_situation(sid)
    store._conn.execute("INSERT INTO provenance VALUES (?, 9, 0, 7, 1, 1)", (sid,))
    with pytest.raises(ValueError, match="7 is not a valid ObservationSource"):
        store.load_situation(sid)


def test_load_ignores_provenance_of_no_object(store):
    sid, record = _stored(store)
    store._conn.execute("INSERT INTO provenance VALUES (?, 9, 0, 1, 1, 1)", (sid,))
    store._conn.execute("INSERT INTO provenance VALUES (?, -1, 0, 2, 1, 1)", (sid,))
    assert store.load_situation(sid) == replace(record, situation_id=sid)


def test_columns_raise_what_the_objects_raise():
    columns = FusedColumns.of(objects(3))
    with pytest.raises(ValueError, match="latitude out of range: 95.0"):
        replace(columns, lat=[0.0, 95.0, 0.0])
    with pytest.raises(ValueError, match="fused object without provenance"):
        replace(columns, counts=[1, 0, len(columns.source) - 1])


def test_fuse_and_eval_build_no_fused_object():
    """A fuse and its reload compare by columns, and neither the fuse nor
    load -> evaluate -> CSV builds an item until one is read."""
    cfg, _, store = simulated_scene(42, 10.0, 10.0)
    record = fuse_situation(cfg.vut_station, cfg.start_time_ms + 5000, store)
    loaded = store.load_situation(record.situation_id)
    assert rows_to_csv(evaluate_situation(loaded)).count("\n") == len(record.objects)  # header, all but the VUT
    assert loaded == record
    assert "typed" not in record.objects.__dict__ and "typed" not in loaded.objects.__dict__
    assert list(loaded.objects) == list(record.objects)
    store.close()
