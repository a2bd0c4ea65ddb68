"""Reference decoder: one object per wire record.

This is the object-per-record path that ``wire.decode_batch`` and
``SituationStore.insert_envelope`` replaced with per-kind numpy columns: a
frame walked head by head into ``DeltaRecord``s, and typed extracts per
record.  The tests keep it as the oracle the columnar path must match error
for error and row for row, and as the inverse of the ``wire.pack_*`` payload
codecs.  ``table_rows`` turns typed rows into the raw-table rows that
``SituationStore.insert_raw`` takes, independently of ``wire.raw_rows``, and
``typed_rows`` turns a window's table rows back into typed rows.
``one_row_insert`` is the one-row statement that tests writing raw rows on
their own connection run, and the oracle of the store's multi-row writes.
"""

from __future__ import annotations

import struct

from situfuse import wire
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
    StationId,
    VutSensorExtract,
)
from situfuse.store import (
    RAW_TABLE,
    RawCam,
    RawCpmDetection,
    RawDriverState,
    RawEnvironment,
    RawHazard,
    RawRow,
    RawSpat,
    RawVutSensor,
    _driver_columns,
    _environment_columns,
    _vut_columns,
)
from situfuse.wire import (
    HEADER,
    MAGIC,
    MAX_REL_POS,
    RECORD_HEAD,
    BadMagic,
    BadPayload,
    BatchEnvelope,
    DeltaRecord,
    MetaBlock,
    RecordKind,
    TrailingData,
    Truncated,
    UnknownKind,
)

# payload layouts, restated from the format description in ``wire``
_CAM = struct.Struct("<IHHB")
_CPM = struct.Struct("<IIHHB")
_SPAT = struct.Struct("<IHBQ")
_VUT = struct.Struct("<BbBBHhhBhhh")
_DRIVER = struct.Struct("<BBHB")
_ENV = struct.Struct("<HHhHHHIHHBB")
_HAZARD = struct.Struct("<BI")

# each kind's payload layout and the rules its unpacked payloads must keep:
# a rule function is true for a payload that breaks it
RULES = {
    RecordKind.CAM_EXTRACT: (_CAM, (lambda f: f[2] >= 3600,)),
    RecordKind.CPM_DETECTION: (_CPM, (lambda f: f[3] >= 3600,)),
    RecordKind.SPAT: (_SPAT, (lambda f: f[3] > wire.MAX_TIME_MS,)),
    RecordKind.VUT_SENSOR: (
        _VUT,
        (lambda f: f[2] & (f[2] >> 1) & 0b01010101, lambda f: f[7] > 7, lambda f: f[1] < -1),
    ),
    RecordKind.DRIVER_STATE: (_DRIVER, (lambda f: not 1 <= f[0] <= 5, lambda f: not 1 <= f[1] <= 5)),
    RecordKind.ENVIRONMENT: (
        _ENV,
        (lambda f: f[5] >= 3600, lambda f: f[9] > 100, lambda f: f[10] > 100),
    ),
    RecordKind.HAZARD: (_HAZARD, ()),
}


def _offset_bounds(ref_units: int, limit_units: int) -> tuple[int, int]:
    """The relative offsets that keep ``ref_units + 10 * offset`` within ±limit_units."""
    low = -((limit_units + ref_units) // 10)
    high = (limit_units - ref_units) // 10
    return max(-MAX_REL_POS, low), min(MAX_REL_POS, high)


def decode_batch(data: bytes) -> BatchEnvelope:
    """Parse and validate an envelope record by record: each head is checked in
    turn and becomes a ``DeltaRecord``, then each kind's payloads are checked
    against its rules, then the frame must end with the last record."""
    data = bytes(data)
    size = len(data)
    if size < HEADER.size:
        if size >= 4 and data[:4] != MAGIC:
            raise BadMagic(f"bad magic {data[:4]!r}")
        raise Truncated(f"{size} bytes is shorter than the {HEADER.size}-byte header")
    magic, station, ref_time, lat_u, lon_u, count = HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    try:
        ref_pos = GeoPosition(lat_u / 1e7, lon_u / 1e7)
    except ValueError as err:
        raise BadPayload(str(err)) from None
    lat_min, lat_max = _offset_bounds(lat_u, 900_000_000)
    lon_min, lon_max = _offset_bounds(lon_u, 1_800_000_000)

    records = []
    payloads: dict[RecordKind, list[bytes]] = {kind: [] for kind in RULES}
    offset = HEADER.size
    for _ in range(count):
        if size - offset < RECORD_HEAD.size:
            raise Truncated(f"record head missing at offset {offset}")
        kind_code, rel_time, rel_lat, rel_lon, payload_len = RECORD_HEAD.unpack_from(data, offset)
        offset += RECORD_HEAD.size
        try:
            kind = RecordKind(kind_code)
        except ValueError:
            raise UnknownKind(f"unknown record kind {kind_code}") from None
        if payload_len != RULES[kind][0].size:
            raise BadPayload(f"kind {kind.name} expects {RULES[kind][0].size} bytes, got {payload_len}")
        if size - offset < payload_len:
            raise Truncated(f"payload missing at offset {offset}")
        if not (lat_min <= rel_lat <= lat_max and lon_min <= rel_lon <= lon_max):
            raise BadPayload(f"record offset ({rel_lat}, {rel_lon}) out of range or off the globe")
        payload = data[offset : offset + payload_len]
        offset += payload_len
        payloads[kind].append(payload)
        records.append(DeltaRecord(kind, rel_time, rel_lat, rel_lon, payload))
    for kind, (layout, rules) in RULES.items():
        fields = list(layout.iter_unpack(b"".join(payloads[kind])))
        for breaks in rules:
            if any(map(breaks, fields)):
                raise BadPayload(f"a {kind.name} payload breaks a rule")
    if offset != size:
        raise TrailingData(f"{size - offset} bytes after the last record")
    try:
        meta = MetaBlock(station=station, ref_time=ref_time, ref_position=ref_pos)
        return BatchEnvelope(meta=meta, records=tuple(records))
    except ValueError as err:
        raise BadPayload(str(err)) from None


def _unpack_course(raw: int) -> float:
    if raw >= 3600:
        raise BadPayload(f"course code out of range: {raw}")
    return raw * 0.1


def unpack_cam(payload: bytes, generation_time: int, position: GeoPosition) -> CamExtract:
    originator, speed, course, cls = _CAM.unpack(payload)
    return CamExtract(
        originator=originator,
        generation_time=generation_time,
        position=position,
        speed=speed * 0.01,
        course=_unpack_course(course),
        classification=ObjectClassification(cls),
    )


def unpack_cpm_detection(payload: bytes, position: GeoPosition) -> tuple[StationId, CpmDetection]:
    originator, object_id, speed, course, cls = _CPM.unpack(payload)
    detection = CpmDetection(
        object_id=object_id,
        classification=ObjectClassification(cls),
        position=position,
        speed=speed * 0.01,
        course=_unpack_course(course),
    )
    return originator, detection


def unpack_spat(payload: bytes) -> SpatExtract:
    intersection, group, phase, change = _SPAT.unpack(payload)
    if change >= 2**63:
        raise BadPayload(f"change time above the signed 64-bit range: {change}")
    return SpatExtract(
        intersection_id=intersection,
        signal_group=group,
        phase=SignalPhase(phase),
        change_time=change,
    )


def unpack_vut_sensor(payload: bytes, timestamp: int, gnss: GeoPosition) -> VutSensorExtract:
    (flags, gear, doors, lights, speed, alon, alat, rain, yaw, sangle, svel) = _VUT.unpack(payload)
    try:
        door_states = tuple(DoorState((doors >> (2 * i)) & 0x3) for i in range(4))
    except ValueError as e:
        raise BadPayload(str(e)) from None
    return VutSensorExtract(
        timestamp=timestamp,
        brake_actuated=bool(flags & 1),
        abs_active=bool(flags & 2),
        panic_braking=bool(flags & 4),
        clutch_pressed=bool(flags & 8),
        gear=gear,
        door_positions=door_states,
        exterior_lights=ExteriorLight(lights & 0x3F),
        gnss=gnss,
        speed=speed * 0.01,
        accel_longitudinal=alon * 0.01,
        accel_lateral=alat * 0.01,
        rain_intensity=rain,
        wiper_active=bool(flags & 16),
        yaw_rate=yaw * 0.1,
        steering_wheel_angle=sangle * 0.1,
        steering_wheel_velocity=svel * 0.1,
    )


def unpack_driver_state(payload: bytes, timestamp: int) -> DriverStateSample:
    valence, arousal, hr, self_rep = _DRIVER.unpack(payload)
    return DriverStateSample(
        timestamp=timestamp,
        valence=valence,
        arousal=arousal,
        heart_rate_bpm=hr if hr > 0 else None,
        self_reported=bool(self_rep),
    )


def unpack_environment(payload: bytes, timestamp: int, area_center: GeoPosition) -> EnvironmentSample:
    (validity, radius, temp, precip, wind, wdir, lux, vis, pres, hum, cloud) = _ENV.unpack(payload)
    return EnvironmentSample(
        timestamp=timestamp,
        validity_duration_s=validity,
        area_center=area_center,
        area_radius_m=float(radius),
        temperature_c=temp * 0.1,
        precipitation_mm_h=precip * 0.1,
        wind_speed_ms=wind * 0.1,
        wind_direction=_unpack_course(wdir),
        illuminance_lux=float(lux),
        visibility_m=float(vis),
        pressure_hpa=pres * 0.1,
        humidity_pct=float(hum),
        cloudiness_pct=float(cloud),
    )


def unpack_hazard(payload: bytes, timestamp: int, position: GeoPosition) -> HazardEvent:
    kind, source = _HAZARD.unpack(payload)
    return HazardEvent(kind=HazardKind(kind), timestamp=timestamp, position=position, source=source)


def rows_from_envelope(env: wire.BatchEnvelope, receive_time: int) -> list[RawRow]:
    """Materialize a decoded envelope into absolute, typed raw rows."""
    rows: list[RawRow] = []
    station = env.meta.station
    for rec in wire.absolute_records(env):
        t, pos = rec.time_ms, rec.position
        if rec.kind is RecordKind.CAM_EXTRACT:
            rows.append(RawCam(unpack_cam(rec.payload, t, pos), station, receive_time))
        elif rec.kind is RecordKind.CPM_DETECTION:
            originator, det = unpack_cpm_detection(rec.payload, pos)
            rows.append(RawCpmDetection(originator, t, det, station, receive_time))
        elif rec.kind is RecordKind.SPAT:
            rows.append(RawSpat(unpack_spat(rec.payload), t, pos, station, receive_time))
        elif rec.kind is RecordKind.VUT_SENSOR:
            rows.append(
                RawVutSensor(station, unpack_vut_sensor(rec.payload, t, pos), station, receive_time)
            )
        elif rec.kind is RecordKind.DRIVER_STATE:
            rows.append(
                RawDriverState(station, unpack_driver_state(rec.payload, t), pos, station, receive_time)
            )
        elif rec.kind is RecordKind.ENVIRONMENT:
            rows.append(RawEnvironment(unpack_environment(rec.payload, t, pos), station, receive_time))
        elif rec.kind is RecordKind.HAZARD:
            rows.append(RawHazard(unpack_hazard(rec.payload, t, pos), station, receive_time))
    return rows


def _table_row(row: RawRow) -> tuple[RecordKind, tuple]:
    """A typed row's record kind and its row in that kind's raw table, in column order."""
    if isinstance(row, RawCam):
        m = row.cam
        return RecordKind.CAM_EXTRACT, (
            m.originator, m.generation_time, m.position.lat, m.position.lon, m.speed, m.course,
            int(m.classification), row.reporter, row.receive_time,
        )
    if isinstance(row, RawCpmDetection):
        d = row.detection
        return RecordKind.CPM_DETECTION, (
            row.originator, row.generation_time, d.object_id, int(d.classification),
            d.position.lat, d.position.lon, d.speed, d.course, row.reporter, row.receive_time,
        )
    if isinstance(row, RawSpat):
        s = row.spat
        return RecordKind.SPAT, (
            s.intersection_id, s.signal_group, int(s.phase), s.change_time, row.generation_time,
            row.position.lat, row.position.lon, row.reporter, row.receive_time,
        )
    if isinstance(row, RawVutSensor):
        return RecordKind.VUT_SENSOR, (
            row.station, *_vut_columns(row.extract), row.reporter, row.receive_time,
        )
    if isinstance(row, RawDriverState):
        return RecordKind.DRIVER_STATE, (
            row.station, *_driver_columns(row.sample), row.position.lat, row.position.lon,
            row.reporter, row.receive_time,
        )
    if isinstance(row, RawEnvironment):  # the station column holds the reporter
        return RecordKind.ENVIRONMENT, (
            row.reporter, *_environment_columns(row.sample), row.reporter, row.receive_time,
        )
    if isinstance(row, RawHazard):
        h = row.event
        return RecordKind.HAZARD, (
            h.source, int(h.kind), h.timestamp, h.position.lat, h.position.lon,
            row.reporter, row.receive_time,
        )
    raise TypeError(f"not a raw row: {type(row).__name__}")


# read kind -> a table row in column order as its typed row
_TYPED_ROW = {
    RecordKind.CAM_EXTRACT: lambda r: RawCam(
        CamExtract(r[0], r[1], GeoPosition(r[2], r[3]), r[4], r[5], ObjectClassification(r[6])),
        r[7], r[8],
    ),
    RecordKind.CPM_DETECTION: lambda r: RawCpmDetection(
        r[0], r[1], CpmDetection(r[2], ObjectClassification(r[3]), GeoPosition(r[4], r[5]), r[6], r[7]),
        r[8], r[9],
    ),
    RecordKind.SPAT: lambda r: RawSpat(
        SpatExtract(r[0], r[1], SignalPhase(r[2]), r[3]), r[4], GeoPosition(r[5], r[6]), r[7], r[8]
    ),
    RecordKind.VUT_SENSOR: lambda r: RawVutSensor(r[0], VutSensorExtract(
        timestamp=r[1], brake_actuated=bool(r[2]), abs_active=bool(r[3]), panic_braking=bool(r[4]),
        clutch_pressed=bool(r[5]), gear=r[6], door_positions=tuple(map(DoorState, r[7:11])),
        exterior_lights=ExteriorLight(r[11]), gnss=GeoPosition(r[12], r[13]), speed=r[14],
        accel_longitudinal=r[15], accel_lateral=r[16], rain_intensity=r[17], wiper_active=bool(r[18]),
        yaw_rate=r[19], steering_wheel_angle=r[20], steering_wheel_velocity=r[21],
    ), r[22], r[23]),
    RecordKind.DRIVER_STATE: lambda r: RawDriverState(
        r[0], DriverStateSample(*r[1:5], bool(r[5])), GeoPosition(r[6], r[7]), r[8], r[9]
    ),
    RecordKind.HAZARD: lambda r: RawHazard(
        HazardEvent(HazardKind(r[1]), r[2], GeoPosition(r[3], r[4]), r[0]), r[5], r[6]
    ),
}


def typed_rows(kind: RecordKind, rows) -> list[RawRow]:
    """Table rows of one kind (as ``RawColumns.rows`` holds them) as typed
    rows: the inverse of ``table_rows`` for the kinds the store reads by time."""
    return [_TYPED_ROW[kind](r) for r in rows]


def table_rows(rows) -> dict[RecordKind, list[tuple]]:
    """Typed raw rows as the table rows ``SituationStore.insert_raw`` takes:
    keyed by record kind, in row order within each kind."""
    out: dict[RecordKind, list[tuple]] = {}
    for row in rows:
        kind, columns = _table_row(row)
        out.setdefault(kind, []).append(columns)
    return out


def one_row_insert(kind: RecordKind) -> str:
    """The kind's raw-table insert of one row, skipping a present message key."""
    t = RAW_TABLE[kind]
    return f"INSERT OR IGNORE INTO {t.table} VALUES ({', '.join('?' * t.width)})"
