import dataclasses
import io
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from situfuse.geo import GeoPosition
from situfuse.messages import (
    CamExtract,
    CpmDetection,
    DoorState,
    DriverStateSample,
    EnvironmentSample,
    ExteriorLight,
    HazardEvent,
    HazardKind,
    ObjectClassification,
    SignalPhase,
    SpatExtract,
    VutSensorExtract,
)
from situfuse import wire
from situfuse.store import SituationStore
from situfuse.wire import (
    AbsoluteRecord,
    BadMagic,
    BadPayload,
    BatchEnvelope,
    DeltaRecord,
    MetaBlock,
    RecordKind,
    TrailingData,
    Truncated,
    UnknownKind,
    WireError,
    decode_batch,
    encode_batch,
    plan_batches,
)
import object_decode

HEADER_SIZE = 26
RECORD_HEAD_SIZE = 9


def grid_position(rng, lat_center=49.234, lon_center=6.98, spread=0.02):
    lat = round((lat_center + rng.uniform(-spread, spread)) * 1e7) / 1e7
    lon = round((lon_center + rng.uniform(-spread, spread)) * 1e7) / 1e7
    return GeoPosition(lat, lon)


def random_payload(rng, kind: RecordKind) -> bytes:
    speed = rng.randrange(0, 4000) / 100.0
    course = rng.randrange(0, 3600) / 10.0
    cls = rng.choice(list(ObjectClassification))
    if kind is RecordKind.CAM_EXTRACT:
        return wire.pack_cam(
            CamExtract(rng.randrange(1, 2**32), 1, GeoPosition(0, 0), speed, course, cls)
        )
    if kind is RecordKind.CPM_DETECTION:
        det = CpmDetection(rng.randrange(0, 2**32), cls, GeoPosition(0, 0), speed, course)
        return wire.pack_cpm_detection(rng.randrange(1, 2**32), det)
    if kind is RecordKind.SPAT:
        return wire.pack_spat(
            SpatExtract(
                intersection_id=rng.randrange(0, 2**32),
                signal_group=rng.randrange(0, 2**16),
                phase=rng.choice(list(SignalPhase)),
                change_time=rng.randrange(0, 2**48),
            )
        )
    if kind is RecordKind.VUT_SENSOR:
        return wire.pack_vut_sensor(
            VutSensorExtract(
                timestamp=1,
                brake_actuated=rng.random() < 0.5,
                abs_active=rng.random() < 0.5,
                panic_braking=rng.random() < 0.5,
                clutch_pressed=rng.random() < 0.5,
                gear=rng.randrange(-1, 8),
                door_positions=tuple(rng.choice(list(DoorState)) for _ in range(4)),
                exterior_lights=ExteriorLight(rng.randrange(0, 64)),
                gnss=GeoPosition(0, 0),
                speed=speed,
                accel_longitudinal=rng.randrange(-1500, 1500) / 100.0,
                accel_lateral=rng.randrange(-1500, 1500) / 100.0,
                rain_intensity=rng.randrange(0, 8),
                wiper_active=rng.random() < 0.5,
                yaw_rate=rng.randrange(-3000, 3000) / 10.0,
                steering_wheel_angle=rng.randrange(-7800, 7800) / 10.0,
                steering_wheel_velocity=rng.randrange(-9000, 9000) / 10.0,
            )
        )
    if kind is RecordKind.DRIVER_STATE:
        return wire.pack_driver_state(
            DriverStateSample(
                timestamp=1,
                valence=rng.randrange(1, 6),
                arousal=rng.randrange(1, 6),
                heart_rate_bpm=rng.choice([None, rng.randrange(40, 200)]),
                self_reported=rng.random() < 0.5,
            )
        )
    if kind is RecordKind.ENVIRONMENT:
        return wire.pack_environment(
            EnvironmentSample(
                timestamp=1,
                validity_duration_s=rng.randrange(0, 2**16),
                area_center=GeoPosition(0, 0),
                area_radius_m=float(rng.randrange(0, 2**16)),
                temperature_c=rng.randrange(-400, 500) / 10.0,
                precipitation_mm_h=rng.randrange(0, 1000) / 10.0,
                wind_speed_ms=rng.randrange(0, 500) / 10.0,
                wind_direction=rng.randrange(0, 3600) / 10.0,
                illuminance_lux=float(rng.randrange(0, 130_000)),
                visibility_m=float(rng.randrange(0, 2**16)),
                pressure_hpa=rng.randrange(8000, 11000) / 10.0,
                humidity_pct=float(rng.randrange(0, 101)),
                cloudiness_pct=float(rng.randrange(0, 101)),
            )
        )
    return wire.pack_hazard(
        HazardEvent(
            kind=rng.choice(list(HazardKind)),
            timestamp=1,
            position=GeoPosition(0, 0),
            source=rng.randrange(1, 2**32),
        )
    )


def random_envelope(rng, max_records=8) -> BatchEnvelope:
    records = tuple(
        DeltaRecord(
            kind=(kind := rng.choice(list(RecordKind))),
            rel_time=rng.randrange(0, 2**16),
            rel_lat=rng.randrange(-32767, 32768),
            rel_lon=rng.randrange(-32767, 32768),
            payload=random_payload(rng, kind),
        )
        for _ in range(rng.randrange(0, max_records + 1))
    )
    meta = MetaBlock(
        station=rng.randrange(0, 2**32),
        ref_time=rng.randrange(0, 2**48),
        ref_position=grid_position(rng),
    )
    return BatchEnvelope(meta=meta, records=records)


def naive_size(envelope: BatchEnvelope) -> int:
    """Baseline that stores absolute u64 time + two i32 coordinates per record."""
    per_record = sum(1 + 8 + 4 + 4 + 2 + len(r.payload) for r in envelope.records)
    return 4 + 4 + 2 + per_record  # magic + station + count


def test_empty_envelope_is_header_only():
    env = BatchEnvelope(
        meta=MetaBlock(7, 1000, GeoPosition(49.234, 6.98)), records=()
    )
    assert len(encode_batch(env)) == HEADER_SIZE


def test_single_cam_record_size():
    payload = random_payload(random.Random(1), RecordKind.CAM_EXTRACT)
    env = BatchEnvelope(
        meta=MetaBlock(7, 1000, GeoPosition(49.234, 6.98)),
        records=(DeltaRecord(RecordKind.CAM_EXTRACT, 0, 0, 0, payload),),
    )
    assert len(encode_batch(env)) == HEADER_SIZE + RECORD_HEAD_SIZE + len(payload)
    assert len(payload) == 9


def test_encode_deterministic():
    rng = random.Random(3)
    env = random_envelope(rng)
    assert encode_batch(env) == encode_batch(env)


def test_round_trip_seeded_sample():
    rng = random.Random(11)
    for _ in range(500):
        env = random_envelope(rng)
        assert decode_batch(encode_batch(env)) == env


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**48), max_records=st.integers(0, 12))
def test_round_trip_property(seed, max_records):
    env = random_envelope(random.Random(seed), max_records=max_records)
    assert decode_batch(encode_batch(env)) == env


def test_meta_block_rejects_off_grid_reference():
    with pytest.raises(ValueError):
        MetaBlock(1, 0, GeoPosition(49.23400005, 6.98))  # between 1e-7 steps


def test_delta_record_range_checks():
    with pytest.raises(ValueError):
        DeltaRecord(RecordKind.CAM_EXTRACT, -1, 0, 0, b"")
    with pytest.raises(ValueError):
        DeltaRecord(RecordKind.CAM_EXTRACT, 0, 32768, 0, b"")
    with pytest.raises(ValueError):
        DeltaRecord(RecordKind.CAM_EXTRACT, 0, 0, -32768, b"")


def test_decode_bad_magic():
    env = random_envelope(random.Random(5))
    data = bytearray(encode_batch(env))
    data[0:4] = b"XXXX"
    with pytest.raises(BadMagic):
        decode_batch(bytes(data))


def test_decode_truncations():
    env = random_envelope(random.Random(6), max_records=3)
    data = encode_batch(env)
    with pytest.raises(Truncated):
        decode_batch(data[:10])
    if len(env.records) > 0:
        with pytest.raises(Truncated):
            decode_batch(data[: HEADER_SIZE + 3])


def test_decode_unknown_kind():
    payload = random_payload(random.Random(7), RecordKind.CAM_EXTRACT)
    env = BatchEnvelope(
        meta=MetaBlock(7, 1000, GeoPosition(49.234, 6.98)),
        records=(DeltaRecord(RecordKind.CAM_EXTRACT, 0, 0, 0, payload),),
    )
    data = bytearray(encode_batch(env))
    data[HEADER_SIZE] = 99  # kind byte
    with pytest.raises(UnknownKind):
        decode_batch(bytes(data))


def test_decode_rejects_trailing_bytes():
    env = random_envelope(random.Random(8))
    with pytest.raises(TrailingData):
        decode_batch(encode_batch(env) + b"\x00")


def test_decode_rejects_wrong_payload_length():
    env = BatchEnvelope(
        meta=MetaBlock(7, 1000, GeoPosition(49.234, 6.98)),
        records=(DeltaRecord(RecordKind.HAZARD, 0, 0, 0, b"\x01\x01\x00\x00\x00"),),
    )
    data = bytearray(encode_batch(env))
    # rewrite payload_len of the first record
    struct.pack_into("<H", data, HEADER_SIZE + 7, 99)
    with pytest.raises(WireError):
        decode_batch(bytes(data))


def test_decode_rejects_bad_course_in_payload():
    bad = struct.pack("<IHHB", 1, 0, 3600, 5)  # course code out of range
    env_bytes = encode_batch(
        BatchEnvelope(
            meta=MetaBlock(7, 1000, GeoPosition(49.234, 6.98)), records=()
        )
    )
    data = bytearray(env_bytes)
    struct.pack_into("<H", data, 24, 1)  # record_count = 1
    data += struct.pack("<BHhhH", 1, 0, 0, 0, len(bad)) + bad
    with pytest.raises(BadPayload):
        decode_batch(bytes(data))


def test_payload_codecs_round_trip():
    rng = random.Random(13)
    t, pos = 123_456, GeoPosition(49.234, 6.98)
    for _ in range(200):
        cam = object_decode.unpack_cam(random_payload(rng, RecordKind.CAM_EXTRACT), t, pos)
        assert object_decode.unpack_cam(wire.pack_cam(cam), t, pos) == cam

        originator, det = object_decode.unpack_cpm_detection(
            random_payload(rng, RecordKind.CPM_DETECTION), pos
        )
        packed = wire.pack_cpm_detection(originator, det)
        assert object_decode.unpack_cpm_detection(packed, pos) == (originator, det)

        spat = object_decode.unpack_spat(random_payload(rng, RecordKind.SPAT))
        assert object_decode.unpack_spat(wire.pack_spat(spat)) == spat

        vut = object_decode.unpack_vut_sensor(random_payload(rng, RecordKind.VUT_SENSOR), t, pos)
        assert object_decode.unpack_vut_sensor(wire.pack_vut_sensor(vut), t, pos) == vut

        drv = object_decode.unpack_driver_state(random_payload(rng, RecordKind.DRIVER_STATE), t)
        assert object_decode.unpack_driver_state(wire.pack_driver_state(drv), t) == drv

        env = object_decode.unpack_environment(random_payload(rng, RecordKind.ENVIRONMENT), t, pos)
        assert object_decode.unpack_environment(wire.pack_environment(env), t, pos) == env

        hz = object_decode.unpack_hazard(random_payload(rng, RecordKind.HAZARD), t, pos)
        assert object_decode.unpack_hazard(wire.pack_hazard(hz), t, pos) == hz


def random_absolute_records(rng, n, t0=1_700_000_000_000, spread_s=60, spread_deg=0.06):
    records = []
    t = t0
    for _ in range(n):
        t += rng.randrange(0, spread_s * 1000 // max(1, n))
        kind = rng.choice(list(RecordKind))
        records.append(
            AbsoluteRecord(
                kind=kind,
                time_ms=t,
                position=GeoPosition(
                    49.234 + rng.uniform(-spread_deg, spread_deg),
                    6.98 + rng.uniform(-spread_deg, spread_deg),
                ),
                payload=random_payload(rng, kind),
            )
        )
    return records


def test_plan_batches_single_area():
    rng = random.Random(17)
    records = random_absolute_records(rng, 40, spread_s=10, spread_deg=0.002)
    envelopes = plan_batches(records, station=42)
    assert len(envelopes) == 1
    assert envelopes[0].meta.station == 42
    assert envelopes[0].meta.ref_time == records[0].time_ms


def test_plan_batches_splits_on_position_overflow():
    t0 = 1_700_000_000_000
    a = AbsoluteRecord(
        RecordKind.CAM_EXTRACT, t0, GeoPosition(49.0, 7.0),
        random_payload(random.Random(1), RecordKind.CAM_EXTRACT),
    )
    b = AbsoluteRecord(
        RecordKind.CAM_EXTRACT, t0 + 10, GeoPosition(49.045, 7.0),  # ~5 km north
        random_payload(random.Random(2), RecordKind.CAM_EXTRACT),
    )
    assert len(plan_batches([a, b], station=1)) == 2


def test_plan_batches_splits_on_time_overflow():
    rng = random.Random(23)
    t0 = 1_700_000_000_000
    records = [
        AbsoluteRecord(
            RecordKind.HAZARD, t0 + k * 400_000, GeoPosition(49.0, 7.0),
            random_payload(rng, RecordKind.HAZARD),
        )
        for k in range(3)
    ]
    assert len(plan_batches(records, station=1)) == 2


def test_plan_batches_splits_on_record_count_overflow():
    rng = random.Random(53)
    payload = random_payload(rng, RecordKind.HAZARD)
    t0 = 1_700_000_000_000
    records = [
        AbsoluteRecord(RecordKind.HAZARD, t0 + k, GeoPosition(49.0, 7.0), payload)
        for k in range(65_536)
    ]
    envelopes = plan_batches(records, station=1)
    assert [len(e.records) for e in envelopes] == [65_535, 1]


def test_plan_batches_requires_sorted_input():
    rng = random.Random(29)
    records = random_absolute_records(rng, 5)
    with pytest.raises(ValueError):
        plan_batches(list(reversed(records)), station=1)


def test_plan_batches_reconstruction_resolution():
    rng = random.Random(31)
    for _ in range(30):
        records = random_absolute_records(rng, rng.randrange(1, 60))
        envelopes = plan_batches(records, station=9)
        rebuilt = [r for env in envelopes for r in wire.absolute_records(env)]
        assert len(rebuilt) == len(records)
        for original, back in zip(records, rebuilt):
            assert back.kind is original.kind
            assert back.payload == original.payload
            assert abs(back.time_ms - original.time_ms) <= 5
            assert abs(back.position.lat - original.position.lat) <= 1e-6
            assert abs(back.position.lon - original.position.lon) <= 1e-6


def test_compression_beats_naive_for_cam_batch():
    rng = random.Random(37)
    t0 = 1_700_000_000_000
    records = [
        AbsoluteRecord(
            RecordKind.CAM_EXTRACT,
            t0 + k * 100,
            GeoPosition(49.234 + rng.uniform(-0.002, 0.002), 6.98 + rng.uniform(-0.002, 0.002)),
            random_payload(rng, RecordKind.CAM_EXTRACT),
        )
        for k in range(50)
    ]
    envelopes = plan_batches(records, station=5)
    assert len(envelopes) == 1
    assert len(encode_batch(envelopes[0])) < 0.7 * naive_size(envelopes[0])


def test_fuzz_random_bytes_raise_only_wire_errors():
    rng = random.Random(41)
    for _ in range(5000):
        blob = rng.randbytes(rng.randrange(0, 120))
        try:
            decode_batch(blob)
        except WireError:
            pass


def test_ksb_file_round_trip(tmp_path):
    rng = random.Random(43)
    envelopes = [random_envelope(rng) for _ in range(10)]
    path = tmp_path / "batch.ksb"
    assert wire.write_ksb(path, envelopes) == 10
    assert wire.read_ksb(path) == envelopes


def test_frame_stream_truncation():
    rng = random.Random(47)
    env = random_envelope(rng)
    buffer = io.BytesIO()
    wire.write_frames(buffer, [env])
    data = buffer.getvalue()
    with pytest.raises(Truncated):
        list(wire.read_frames(io.BytesIO(data[:-3])))


def test_frame_length_prefix_bound_is_derived_from_the_format():
    assert wire.MAX_FRAME == 26 + 65_535 * (9 + 22) == 2_031_611


class _ReadGuard(io.BytesIO):
    """A stream that fails the test if asked for more than one frame's bytes."""

    def read(self, size=-1):
        assert 0 <= size <= wire.MAX_FRAME, f"read({size}) would buffer past the frame bound"
        return super().read(size)


@pytest.mark.parametrize("length", [wire.MAX_FRAME + 1, 0xFFFFFFFF])
def test_read_frames_rejects_oversized_prefix_before_reading(length):
    good = encode_batch(random_envelope(random.Random(59)))
    data = struct.pack("<I", len(good)) + good + struct.pack("<I", length) + b"\x00" * 64
    with pytest.raises(wire.FrameTooLarge):
        list(wire.read_frames(_ReadGuard(data)))


def test_read_ksb_rejects_oversized_prefix(tmp_path):
    path = tmp_path / "hostile.ksb"
    wire.write_ksb(path, [random_envelope(random.Random(61))])
    with open(path, "ab") as fp:
        fp.write(b"\xff\xff\xff\xff" + b"KSB1")
    with pytest.raises(wire.FrameTooLarge):
        wire.read_ksb(path)


def test_frame_of_exactly_the_maximum_size_decodes():
    payload = random_payload(random.Random(67), RecordKind.ENVIRONMENT)
    assert len(payload) == max(wire.PAYLOAD_SIZE.values())
    env = BatchEnvelope(
        meta=MetaBlock(7, 1000, GeoPosition(49.234, 6.98)),
        records=(DeltaRecord(RecordKind.ENVIRONMENT, 0, 0, 0, payload),) * wire.MAX_RECORDS,
    )
    buffer = io.BytesIO()
    wire.write_frames(buffer, [env])
    assert len(buffer.getvalue()) == 4 + wire.MAX_FRAME
    assert list(map(wire.decode_batch, wire.read_frames(_ReadGuard(buffer.getvalue())))) == [env]


def _vut_payload(doors=0, rain=0, gear=1):
    return struct.pack("<BbBBHhhBhhh", 0b10101, gear, doors, 3, 1200, -50, 20, rain, 15, -300, 40)


def _driver_payload(valence=3, arousal=3):
    return struct.pack("<BBHB", valence, arousal, 72, 1)


def _environment_payload(wind_dir=2700, humidity=60, cloudiness=40):
    return struct.pack(
        "<HHhHHHIHHBB", 600, 500, 85, 0, 34, wind_dir, 20_000, 9000, 10_132, humidity, cloudiness
    )


# one case per payload rule: (kind, payload that breaks it)
BAD_PAYLOADS = {
    "cam course 3600": (RecordKind.CAM_EXTRACT, struct.pack("<IHHB", 1, 0, 3600, 5)),
    "cpm course 3600": (RecordKind.CPM_DETECTION, struct.pack("<IIHHB", 1, 2, 0, 3600, 5)),
    "wind direction 3600": (RecordKind.ENVIRONMENT, _environment_payload(wind_dir=3600)),
    "front-left door 3": (RecordKind.VUT_SENSOR, _vut_payload(doors=0b00_00_00_11)),
    "rear-right door 3": (RecordKind.VUT_SENSOR, _vut_payload(doors=0b11_00_00_00)),
    "rain 8": (RecordKind.VUT_SENSOR, _vut_payload(rain=8)),
    "gear -2": (RecordKind.VUT_SENSOR, _vut_payload(gear=-2)),
    "valence 0": (RecordKind.DRIVER_STATE, _driver_payload(valence=0)),
    "valence 6": (RecordKind.DRIVER_STATE, _driver_payload(valence=6)),
    "arousal 0": (RecordKind.DRIVER_STATE, _driver_payload(arousal=0)),
    "arousal 6": (RecordKind.DRIVER_STATE, _driver_payload(arousal=6)),
    "humidity 101": (RecordKind.ENVIRONMENT, _environment_payload(humidity=101)),
    "cloudiness 101": (RecordKind.ENVIRONMENT, _environment_payload(cloudiness=101)),
    "spat change time 2**63": (RecordKind.SPAT, struct.pack("<IHBQ", 4, 2, 3, 2**63)),
}


def _frame_ending_with(kind, payload, ref=GeoPosition(49.234, 6.98), rel_lat=0) -> bytes:
    """A valid frame of every kind (door states 0..2 included) plus one last record."""
    rng = random.Random(71)
    good = [DeltaRecord(k, 5 * i, i, -i, random_payload(rng, k)) for i, k in enumerate(RecordKind)]
    good += [
        DeltaRecord(
            RecordKind.VUT_SENSOR, 40, 0, 0, _vut_payload(doors=0b10_01_00_10, rain=7, gear=-1)
        ),
        DeltaRecord(RecordKind.DRIVER_STATE, 40, 0, 0, _driver_payload(valence=1, arousal=5)),
        DeltaRecord(RecordKind.DRIVER_STATE, 45, 0, 0, _driver_payload(valence=5, arousal=1)),
        DeltaRecord(RecordKind.ENVIRONMENT, 40, 0, 0, _environment_payload(3599, 100, 100)),
        DeltaRecord(RecordKind.CAM_EXTRACT, 40, 0, 0, struct.pack("<IHHB", 9, 0, 3599, 5)),
    ]
    records = tuple(good) + (DeltaRecord(kind, 50, rel_lat, 0, payload),)
    return encode_batch(BatchEnvelope(MetaBlock(7, 1000, ref), records))


def test_decode_accepts_payload_rule_boundaries():
    """Doors 0..2, rain 7, gear -1, valence/arousal 1 and 5, course 3599, 100 %."""
    env = decode_batch(_frame_ending_with(RecordKind.VUT_SENSOR, _vut_payload()))
    assert len(env.records) == 13


@pytest.mark.parametrize("case", sorted(BAD_PAYLOADS))
def test_decode_rejects_each_payload_rule_in_the_last_record(case):
    kind, payload = BAD_PAYLOADS[case]
    with pytest.raises(BadPayload):
        decode_batch(_frame_ending_with(kind, payload))


def raw_frame(ref_time: int, records) -> bytes:
    """A frame at (49.234, 6.98) packed byte by byte, past the checks of
    MetaBlock and BatchEnvelope; records are (kind, rel_time, payload)."""
    out = wire.HEADER.pack(wire.MAGIC, 7, ref_time, 492_340_000, 69_800_000, len(records))
    for kind, rel_time, payload in records:
        out += wire.RECORD_HEAD.pack(int(kind), rel_time, 0, 0, len(payload)) + payload
    return out


CAM_PAYLOAD = struct.pack("<IHHB", 1, 0, 0, 5)


@pytest.mark.parametrize(
    "ref_time, rel_times",
    [(2**63, [0]), (2**63 - 6, [0, 1])],
    ids=["ref_time 2**63", "record after ref_time 2**63-6"],
)
def test_decode_rejects_record_times_above_the_signed_64_bit_range(ref_time, rel_times):
    frame = raw_frame(ref_time, [(RecordKind.CAM_EXTRACT, t, CAM_PAYLOAD) for t in rel_times])
    with pytest.raises(BadPayload):
        decode_batch(frame)


def test_encoders_refuse_times_above_the_signed_64_bit_range():
    pos = GeoPosition(49.234, 6.98)
    with pytest.raises(ValueError):
        MetaBlock(7, 2**63, pos)
    late = DeltaRecord(RecordKind.CAM_EXTRACT, 1, 0, 0, CAM_PAYLOAD)
    with pytest.raises(ValueError):
        BatchEnvelope(MetaBlock(7, 2**63 - 6, pos), (late,))
    with pytest.raises(BadPayload):
        wire.pack_spat(SpatExtract(4, 2, SignalPhase.GREEN, 2**63))


_AT = GeoPosition(49.234, 6.98)


@pytest.mark.parametrize(
    "pack, extract",
    [
        (wire.pack_cam, CamExtract(2**32, 1, _AT, 10.0, 90.0, ObjectClassification.PASSENGER_CAR)),
        (wire.pack_spat, SpatExtract(4, 70000, SignalPhase.GREEN, 1000)),
        (wire.pack_vut_sensor, dataclasses.replace(object_decode.unpack_vut_sensor(_vut_payload(), 1, _AT), gear=200)),
        (wire.pack_hazard, HazardEvent(HazardKind.PANIC_BRAKING, 1, _AT, -1)),
    ],
    ids=["cam_originator_past_u32", "spat_signal_group_past_u16", "vut_gear_past_i8", "hazard_negative_source"],
)
def test_packers_refuse_a_field_that_does_not_fit_with_bad_payload(pack, extract):
    with pytest.raises(BadPayload):
        pack(extract)


def test_envelope_refuses_more_records_than_the_count_field_holds():
    record = DeltaRecord(RecordKind.CAM_EXTRACT, 0, 0, 0, CAM_PAYLOAD)
    meta = MetaBlock(7, 1000, GeoPosition(49.234, 6.98))
    assert len(BatchEnvelope(meta, (record,) * wire.MAX_RECORDS).records) == wire.MAX_RECORDS
    with pytest.raises(ValueError):
        BatchEnvelope(meta, (record,) * (wire.MAX_RECORDS + 1))


def test_decode_rejects_last_record_past_the_pole():
    ref = GeoPosition(89.999, 6.98)  # 1000 offsets of 1e-6 deg below the pole
    cam = random_payload(random.Random(73), RecordKind.CAM_EXTRACT)
    at_pole = decode_batch(_frame_ending_with(RecordKind.CAM_EXTRACT, cam, ref, rel_lat=1000))
    assert wire.absolute_records(at_pole)[-1].position.lat == 90.0
    with pytest.raises(BadPayload):
        decode_batch(_frame_ending_with(RecordKind.CAM_EXTRACT, cam, ref, rel_lat=1001))


def test_decode_rejects_last_record_past_the_antimeridian():
    ref = GeoPosition(49.234, -179.99)
    cam = random_payload(random.Random(79), RecordKind.CAM_EXTRACT)
    decode_batch(_frame_ending_with(RecordKind.CAM_EXTRACT, cam, ref, rel_lat=0))
    data = bytearray(_frame_ending_with(RecordKind.CAM_EXTRACT, cam, ref))
    struct.pack_into("<h", data, len(data) - len(cam) - 4, -10_001)  # rel_lon of the last record
    with pytest.raises(BadPayload):
        decode_batch(bytes(data))


def test_decode_accepts_exactly_what_the_object_decoder_accepts():
    """Valid payloads with one byte overwritten, and random bytes: the table's
    rules reject a payload iff the typed decode does."""
    rng = random.Random(83)
    pos = GeoPosition(49.234, 6.98)
    outcomes = set()
    for _ in range(3000):
        kind = rng.choice(list(RecordKind))
        if rng.random() < 0.75:
            payload = bytearray(random_payload(rng, kind))
            payload[rng.randrange(len(payload))] = rng.randrange(256)
            payload = bytes(payload)
        else:
            payload = rng.randbytes(wire.PAYLOAD_SIZE[kind])
        try:
            object_decode.rows_from_envelope(
                BatchEnvelope(MetaBlock(7, 1000, pos), (DeltaRecord(kind, 0, 0, 0, payload),)), 0
            )
            expected = "ok"
        except (BadPayload, ValueError):
            expected = "bad"
        frame = _frame_ending_with(kind, payload)
        try:
            decode_batch(frame)
            got = "ok"
        except BadPayload:
            got = "bad"
        assert got == expected, (kind.name, payload.hex())
        outcomes.add((kind, got))
    assert {kind for kind, got in outcomes if got == "bad"} == {
        RecordKind.CAM_EXTRACT,
        RecordKind.CPM_DETECTION,
        RecordKind.SPAT,
        RecordKind.VUT_SENSOR,
        RecordKind.DRIVER_STATE,
        RecordKind.ENVIRONMENT,
    }
    assert {kind for kind, got in outcomes if got == "ok"} == set(RecordKind)


def seven_kind_frame(rng) -> tuple[bytes, list[int]]:
    """A valid frame that holds every record kind, in random order, and the
    offset of each record in it."""
    kinds = list(RecordKind) + [rng.choice(list(RecordKind)) for _ in range(rng.randrange(6))]
    rng.shuffle(kinds)
    records = tuple(
        DeltaRecord(
            k, rng.randrange(2**16), rng.randrange(-300, 300), rng.randrange(-300, 300),
            random_payload(rng, k),
        )
        for k in kinds
    )
    meta = MetaBlock(rng.randrange(2**32), rng.randrange(2**48), grid_position(rng))
    offsets = [HEADER_SIZE]
    for r in records[:-1]:
        offsets.append(offsets[-1] + RECORD_HEAD_SIZE + len(r.payload))
    return encode_batch(BatchEnvelope(meta, records)), offsets


def _stored_type(value) -> type:
    """The Python type sqlite stores a row value as: bools and enums are ints."""
    if value is None or isinstance(value, float):
        return type(value)
    return int if isinstance(value, int) else type(value)


def typed_rows(rows_by_kind) -> dict:
    """Every field of every row with the type it is stored as."""
    return {
        kind: [[(_stored_type(v), v) for v in row] for row in rows]
        for kind, rows in rows_by_kind.items()
    }


def row_types(rows_by_kind) -> set[type]:
    return {type(v) for rows in rows_by_kind.values() for row in rows for v in row}


def reference_rows(env: BatchEnvelope) -> dict:
    return object_decode.table_rows(object_decode.rows_from_envelope(env, receive_time=5))


@settings(max_examples=600, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    fault=st.sampled_from(["flip", "cut", "kind"]),
    at=st.integers(0, 2**16),
    value=st.integers(1, 255),
)
def test_column_decoder_matches_the_record_decoder(seed, fault, at, value):
    """A seven-kind frame with one byte flipped, cut at any length, or with one
    record's kind byte set to any kind (so its length field may lie and the
    records after it are misread): the column decoder raises the record
    decoder's error class, or returns its records and rows, field for field
    and type for type."""
    frame, heads = seven_kind_frame(random.Random(seed))
    frame = bytearray(frame)
    if fault == "cut":
        frame = frame[: at % len(frame)]
    elif fault == "flip":
        frame[at % len(frame)] ^= value
    else:
        frame[heads[at % len(heads)]] = value % len(RecordKind) + 1
    try:
        expected = object_decode.decode_batch(frame)
    except WireError as err:
        with pytest.raises(WireError) as got:
            decode_batch(frame)
        assert type(got.value) is type(err), (str(got.value), str(err))
        return
    env = decode_batch(frame)
    assert env == expected
    rows = {kind: list(kind_rows) for kind, kind_rows in wire.raw_rows(env, 5).items()}
    assert typed_rows(rows) == typed_rows(reference_rows(expected))
    assert row_types(rows) <= {int, float, type(None)}


def test_each_kind_dtype_reads_its_struct_layout():
    rng = random.Random(89)
    for kind, codec in wire.CODECS.items():
        assert codec.dtype.itemsize == codec.layout.size == wire.PAYLOAD_SIZE[kind]
        for _ in range(50):
            payload = rng.randbytes(codec.layout.size)
            assert np.frombuffer(payload, codec.dtype)[0].tolist() == codec.layout.unpack(payload)
    # a decoded kind's columns are the record heads and payloads, field for field
    env = decode_batch(seven_kind_frame(rng)[0])
    for kind, columns in env.records.by_kind.items():
        layout = wire.CODECS[kind].layout
        assert columns.tolist() == [
            (int(r.kind), r.rel_time, r.rel_lat, r.rel_lon, len(r.payload), *layout.unpack(r.payload))
            for r in env.records
            if r.kind is kind
        ]


def test_decoded_records_are_a_lazy_sequence_equal_to_the_built_tuple():
    env = random_envelope(random.Random(97), max_records=12)
    decoded = decode_batch(encode_batch(env))
    assert isinstance(decoded.records, wire.RecordColumns)
    assert decoded.records == env.records and env.records == decoded.records
    assert len(decoded.records) == len(env.records)
    assert list(decoded.records) == list(env.records)
    assert decoded.records[-1] == env.records[-1] and decoded.records[1:3] == env.records[1:3]
    assert hash(decoded) == hash(env)


def test_read_ksb_then_insert_envelope_builds_no_delta_record(tmp_path, monkeypatch):
    rng = random.Random(101)
    envelopes = [random_envelope(rng, max_records=40) for _ in range(20)]
    path = tmp_path / "stream.ksb"
    wire.write_ksb(path, envelopes)
    built = []
    check = DeltaRecord.__post_init__

    def counted(record):
        built.append(record)
        check(record)

    monkeypatch.setattr(DeltaRecord, "__post_init__", counted)
    store = SituationStore(":memory:")
    inserted = sum(store.insert_envelope(env, k) for k, env in enumerate(wire.read_ksb(path)))
    assert inserted > 0
    assert built == []
    # reading a decoded envelope's records builds them
    assert wire.read_ksb(path)[0].records == envelopes[0].records
    assert len(built) == len(envelopes[0].records) > 0
    store.close()


def test_raw_rows_of_a_built_envelope_are_those_of_its_frame():
    env = random_envelope(random.Random(103), max_records=30)
    decoded = decode_batch(encode_batch(env))
    built_rows = {kind: list(rows) for kind, rows in wire.raw_rows(env, 5).items()}
    assert built_rows == {kind: list(rows) for kind, rows in wire.raw_rows(decoded, 5).items()}
    assert typed_rows(built_rows) == typed_rows(reference_rows(env))
