import random

import pytest

from situfuse.aggregators import (
    FlushOutcome,
    LocalStore,
    TransportError,
    backend_dedup,
    dda_ingest,
    environment_for,
    environment_ingest,
    flush,
    message_key,
    tdac_ingest,
    tdac_ingest_spat,
    vda_ingest,
)
from situfuse.geo import GeoPosition
from situfuse.messages import (
    CamExtract,
    CpmDetection,
    CpmExtract,
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
from situfuse import wire
from situfuse.store import RawCam
from conftest import make_vut_extract
from object_decode import rows_from_envelope

T0 = 1_700_000_000_000
HERE = GeoPosition(49.234, 6.98)


def make_cam(originator=11, t=T0, speed=10.0, course=90.0):
    return CamExtract(
        originator=originator,
        generation_time=t,
        position=HERE,
        speed=speed,
        course=course,
        classification=ObjectClassification.PASSENGER_CAR,
    )


def test_tdac_ingest_cam_queued():
    local = LocalStore(station=7)
    tdac_ingest(make_cam(), received_by=7, local=local)
    assert len(local.pending) == 1
    assert local.pending[0].kind is wire.RecordKind.CAM_EXTRACT
    assert local.pending[0].time_ms == T0


def test_tdac_ingest_rejects_foreign_receiver():
    local = LocalStore(station=7)
    with pytest.raises(ValueError):
        tdac_ingest(make_cam(), received_by=8, local=local)


def test_tdac_ingest_map_not_queued():
    local = LocalStore(station=7)
    topo = MapTopology(
        intersection_id=1,
        lanes=(MapLane(1, 1, (HERE, GeoPosition(49.2341, 6.98)), True),),
    )
    tdac_ingest(topo, received_by=7, local=local)
    assert local.pending == []


def test_same_cam_received_by_two_stations_queued_twice():
    local_a, local_b = LocalStore(station=1), LocalStore(station=2)
    cam = make_cam()
    tdac_ingest(cam, received_by=1, local=local_a)
    tdac_ingest(cam, received_by=2, local=local_b)
    assert len(local_a.pending) == len(local_b.pending) == 1


def test_tdac_ingest_cpm_one_record_per_detection():
    local = LocalStore(station=7)
    cpm = CpmExtract(
        originator=500,
        generation_time=T0,
        detections=(
            CpmDetection(1, ObjectClassification.PEDESTRIAN, HERE, 1.0, 0.0),
            CpmDetection(2, ObjectClassification.PEDESTRIAN, HERE, 1.1, 10.0),
        ),
    )
    tdac_ingest(cpm, received_by=7, local=local)
    assert len(local.pending) == 2
    assert all(r.kind is wire.RecordKind.CPM_DETECTION for r in local.pending)


def test_tdac_ingest_spat_needs_station_position():
    spat = SpatExtract(1, 3, SignalPhase.GREEN, T0 + 4000)
    with pytest.raises(ValueError):
        tdac_ingest_spat(spat, T0, LocalStore(station=7))
    local = LocalStore(station=7, station_position=HERE)
    tdac_ingest_spat(spat, T0, local)
    assert local.pending[0].kind is wire.RecordKind.SPAT
    assert local.pending[0].time_ms == T0


def test_tdac_ingest_refuses_spat():
    local = LocalStore(station=7, station_position=HERE)
    with pytest.raises(TypeError):
        tdac_ingest(SpatExtract(1, 3, SignalPhase.GREEN, T0 + 4000), received_by=7, local=local)
    assert local.pending == []


def test_local_store_keeps_pending_in_time_order():
    local = LocalStore(station=7, station_position=HERE)
    times = [T0 + 200, T0 + 100, T0 + 200, T0 + 300, T0 + 100, T0]
    spats = [SpatExtract(1, k, SignalPhase.GREEN, t + 4000) for k, t in enumerate(times)]
    for spat, t in zip(spats, times):
        tdac_ingest_spat(spat, t, local)
    # stable by time: a late record goes after the pending records of equal time
    order = sorted(range(len(times)), key=times.__getitem__)
    assert [r.payload for r in local.pending] == [wire.pack_spat(spats[k]) for k in order]


def test_vda_ingest_queues_one_snapshot():
    local = LocalStore(station=100)
    for k, t in enumerate((T0, T0 + 50, T0 + 50)):
        sensors = make_vut_extract(t, HERE, speed=5.0 + k)
        vda_ingest(sensors, local)
        assert len(local.pending) == k + 1
        record = local.pending[-1]
        assert record.kind is wire.RecordKind.VUT_SENSOR
        assert record.time_ms == t
        assert record.position == sensors.gnss
        assert record.payload == wire.pack_vut_sensor(sensors)


class ScriptedTransport:
    """Delivers frames; acknowledgment follows a scripted pattern."""

    def __init__(self, acks, deliver_on_nack=True):
        self.acks = list(acks)
        self.deliver_on_nack = deliver_on_nack
        self.delivered = []

    def send(self, frame: bytes) -> bool:
        ack = self.acks.pop(0) if self.acks else True
        if ack or self.deliver_on_nack:
            self.delivered.append(frame)
        if not ack:
            raise TransportError("link lost")
        return True


def test_flush_empty_store():
    outcome = flush(LocalStore(station=1), ScriptedTransport([]))
    assert outcome == FlushOutcome(delivered_batches=0, delivered_records=0, failed=False)


def test_flush_failure_keeps_records():
    local = LocalStore(station=1)
    tdac_ingest(make_cam(), received_by=1, local=local)
    before = list(local.pending)
    outcome = flush(local, ScriptedTransport([False], deliver_on_nack=False))
    assert outcome.failed
    assert local.pending == before


def test_flush_success_clears_records():
    local = LocalStore(station=1)
    tdac_ingest(make_cam(), received_by=1, local=local)
    outcome = flush(local, ScriptedTransport([True]))
    assert not outcome.failed
    assert outcome.delivered_records == 1
    assert local.pending == []


def test_flaky_transport_delivers_exactly_once():
    # Lost acknowledgments force retransmission; the backend key filter must
    # still end up with every record exactly once.
    rng = random.Random(99)
    local = LocalStore(station=1)
    for k in range(40):
        tdac_ingest(make_cam(originator=100 + k % 7, t=T0 + k * 77), received_by=1, local=local)
    expected_keys = {message_key(r) for r in rows_from_envelope(
        wire.plan_batches(list(local.pending), 1)[0], receive_time=0
    )}

    transport = ScriptedTransport([rng.random() < 0.5 for _ in range(30)])
    for _ in range(40):
        if not local.pending:
            break
        flush(local, transport)
    assert local.pending == []

    rows = []
    for seq, frame in enumerate(transport.delivered):
        rows.extend(rows_from_envelope(wire.decode_batch(frame), receive_time=seq))
    assert len(rows) >= len(expected_keys)  # retransmissions happened or not
    unique = backend_dedup(rows)
    assert {message_key(r) for r in unique} == expected_keys
    assert len(unique) == len(expected_keys)


def make_raw_cam(originator, t, receive_time, reporter=1):
    return RawCam(cam=make_cam(originator, t), reporter=reporter, receive_time=receive_time)


def test_backend_dedup_multi_reception():
    rows = [make_raw_cam(11, T0, receive_time=k, reporter=k) for k in range(3)]
    unique = backend_dedup(rows)
    assert len(unique) == 1
    assert unique[0].receive_time == 0


def test_backend_dedup_keeps_distinct_times():
    rows = [make_raw_cam(11, T0, 1), make_raw_cam(11, T0 + 100, 2)]
    assert len(backend_dedup(rows)) == 2


def test_backend_dedup_matches_key_set_oracle():
    rng = random.Random(5)
    rows = []
    for _ in range(300):
        originator = rng.randrange(1, 6)
        t = T0 + rng.randrange(0, 5) * 100
        rows.append(make_raw_cam(originator, t, receive_time=rng.randrange(100)))
    unique = backend_dedup(rows)
    assert {message_key(r) for r in unique} == {message_key(r) for r in rows}
    assert len(unique) == len({message_key(r) for r in rows})
    # idempotent and deterministically ordered
    assert backend_dedup(unique) == unique
    order = [(r.cam.generation_time, r.cam.originator) for r in unique]
    assert order == sorted(order)


def make_environment(t, center=HERE, radius=1000.0, validity=600):
    return EnvironmentSample(
        timestamp=t,
        validity_duration_s=validity,
        area_center=center,
        area_radius_m=radius,
        temperature_c=12.0,
        precipitation_mm_h=0.0,
        wind_speed_ms=3.0,
        wind_direction=180.0,
        illuminance_lux=20_000.0,
        visibility_m=9_999.0,
        pressure_hpa=1013.0,
        humidity_pct=70.0,
        cloudiness_pct=40.0,
    )


def test_environment_for_no_match():
    sample = make_environment(T0)
    assert environment_for(T0 - 1, HERE, [sample]) is None
    assert environment_for(T0 + 600_001, HERE, [sample]) is None
    far = GeoPosition(49.3, 6.98)  # ~7 km away
    assert environment_for(T0 + 10, far, [sample]) is None


def test_environment_for_single_match():
    sample = make_environment(T0)
    assert environment_for(T0 + 10, HERE, [sample]) is sample


def test_environment_for_overlap_prefers_newer():
    older = make_environment(T0)
    newer = make_environment(T0 + 60_000)
    assert environment_for(T0 + 120_000, HERE, [older, newer]) is newer
    assert environment_for(T0 + 120_000, HERE, [newer, older]) is newer


def test_dda_and_environment_ingest_kinds():
    local = LocalStore(station=100)
    dda_ingest(DriverStateSample(timestamp=T0, valence=2, arousal=3), HERE, local)
    environment_ingest(make_environment(T0), local)
    kinds = [r.kind for r in local.pending]
    assert wire.RecordKind.DRIVER_STATE in kinds
    assert wire.RecordKind.ENVIRONMENT in kinds


def test_hazard_ingest():
    local = LocalStore(station=3)
    tdac_ingest(
        HazardEvent(HazardKind.PANIC_BRAKING, T0, HERE, source=22), received_by=3, local=local
    )
    assert local.pending[0].kind is wire.RecordKind.HAZARD
