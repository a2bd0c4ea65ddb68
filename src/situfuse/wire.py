"""Delta-compressed batch format between aggregator clients and the backend.

A batch carries one absolute meta block and many records that store only
small offsets from it, so a transmission stays compact even on poor links.

Envelope layout (all little-endian):

    magic    "KSB1"            4 bytes
    station  u32               aggregator client identity
    ref_time u64               ms since epoch, at most MAX_TIME_MS
    ref_lat  i32               1e-7 degrees
    ref_lon  i32               1e-7 degrees
    count    u16               number of records
    records  count * record

Record layout:

    kind        u8             see RecordKind
    rel_time    u16            10 ms units after ref_time; the record time is
                               at most MAX_TIME_MS
    rel_lat     i16            1e-6 degree offset from ref_lat
    rel_lon     i16            1e-6 degree offset from ref_lon
    payload_len u16
    payload     payload_len bytes, fixed layout per kind

Payload layouts (field: encoding):

    CAM_EXTRACT    originator u32 | speed u16 (0.01 m/s) | course u16 (0.1 deg)
                   | classification u8
    CPM_DETECTION  originator u32 | object_id u32 | speed u16 | course u16
                   | classification u8
    SPAT           intersection u32 | signal_group u16 | phase u8
                   | change_time u64 (ms, at most MAX_TIME_MS)
    VUT_SENSOR     flags u8 (bit0 brake, 1 abs, 2 panic, 3 clutch, 4 wiper)
                   | gear i8 | doors u8 (2 bits each: FL FR RL RR)
                   | lights u8 | speed u16 | accel_lon i16 (0.01 m/s^2)
                   | accel_lat i16 | rain u8 | yaw_rate i16 (0.1 deg/s)
                   | steer_angle i16 (0.1 deg) | steer_velocity i16 (0.1 deg/s)
    DRIVER_STATE   valence u8 | arousal u8 | heart_rate u16 (0 = absent)
                   | self_reported u8
    ENVIRONMENT    validity u16 (s) | radius u16 (m) | temperature i16 (0.1 C)
                   | precipitation u16 (0.1 mm/h) | wind_speed u16 (0.1 m/s)
                   | wind_dir u16 (0.1 deg) | illuminance u32 (lux)
                   | visibility u16 (m) | pressure u16 (0.1 hPa)
                   | humidity u8 (%) | cloudiness u8 (%)
    HAZARD         hazard_kind u8 | source u32

The record's absolute time/position and its payload together reconstruct the
original extract: per-kind ``pack_*`` helpers build payloads, and the codec
table ``CODECS`` checks them and maps them to raw-table rows.  A batch with an
unknown kind, a bad payload, a bad magic or missing bytes is rejected as a
whole; silently skipping records would corrupt fusion statistics.

`.ksb` files and the ingest socket carry a sequence of frames, each
``u32 frame length | frame`` where the frame is one encoded envelope of at
most ``MAX_FRAME`` bytes.
"""

from __future__ import annotations

import enum
import struct
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import BinaryIO, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geo import GeoPosition
from .messages import (
    CamExtract,
    CpmDetection,
    DriverStateSample,
    EnvironmentSample,
    HazardEvent,
    HazardKind,
    ObjectClassification,
    SignalPhase,
    SpatExtract,
    StationId,
    VutSensorExtract,
)

MAGIC = b"KSB1"
HEADER = struct.Struct("<4sIQiiH")
RECORD_HEAD = struct.Struct("<BHhhH")

REL_TIME_UNIT_MS = 10
# positions: absolute 1e-7 deg, offsets 1e-6 deg (canonical float is
# round(deg * 1e7) / 1e7)
MAX_REL_TIME = 0xFFFF
MAX_REL_POS = 0x7FFF
MAX_RECORDS = 0xFFFF
# times are stored as sqlite INTEGER, which is signed 64-bit
MAX_TIME_MS = 2**63 - 1


class WireError(Exception):
    """Base class for all batch codec failures."""


class BadMagic(WireError):
    pass


class Truncated(WireError):
    pass


class TrailingData(WireError):
    pass


class UnknownKind(WireError):
    pass


class BadPayload(WireError):
    pass


class DeltaOverflow(WireError):
    """A record does not fit the relative time/position ranges."""


class FrameTooLarge(WireError):
    """A frame length prefix exceeds the largest envelope the format allows."""


class RecordKind(enum.IntEnum):
    CAM_EXTRACT = 1
    CPM_DETECTION = 2
    SPAT = 3
    VUT_SENSOR = 4
    DRIVER_STATE = 5
    ENVIRONMENT = 6
    HAZARD = 7


_CAM = struct.Struct("<IHHB")
_CPM = struct.Struct("<IIHHB")
_SPAT = struct.Struct("<IHBQ")
_VUT = struct.Struct("<BbBBHhhBhhh")
_DRIVER = struct.Struct("<BBHB")
_ENV = struct.Struct("<HHhHHHIHHBB")
_HAZARD = struct.Struct("<BI")


@dataclass(frozen=True)
class MetaBlock:
    """Absolute reference time, position and identity of a batch."""

    station: StationId
    ref_time: int
    ref_position: GeoPosition

    def __post_init__(self):
        if not (0 <= self.station <= 0xFFFFFFFF):
            raise ValueError(f"station id out of u32 range: {self.station}")
        if not (0 <= self.ref_time <= MAX_TIME_MS):
            raise ValueError(f"ref_time out of range 0..MAX_TIME_MS: {self.ref_time}")
        # The reference position is the wire boundary: it must sit exactly on
        # the 1e-7 degree grid so encoding is lossless.
        for name, value in (("lat", self.ref_position.lat), ("lon", self.ref_position.lon)):
            if round(value * 1e7) / 1e7 != value:
                raise ValueError(f"ref {name} not on the 1e-7 degree grid: {value!r}")


@dataclass(frozen=True)
class DeltaRecord:
    """One record relative to its envelope's meta block."""

    kind: RecordKind
    rel_time: int
    rel_lat: int
    rel_lon: int
    payload: bytes

    def __post_init__(self):
        if not (0 <= self.rel_time <= MAX_REL_TIME):
            raise ValueError(f"rel_time out of range: {self.rel_time}")
        for name, value in (("rel_lat", self.rel_lat), ("rel_lon", self.rel_lon)):
            if abs(value) > MAX_REL_POS:
                raise ValueError(f"{name} out of range: {value}")


@dataclass(frozen=True)
class BatchEnvelope:
    meta: MetaBlock
    records: Sequence[DeltaRecord]  # a tuple, or the RecordColumns of a decoded frame

    def __post_init__(self):
        if len(self.records) > MAX_RECORDS:
            raise ValueError(f"{len(self.records)} records exceed MAX_RECORDS {MAX_RECORDS}")
        # only a reference this close to MAX_TIME_MS lets a record time pass it
        if self.meta.ref_time > MAX_TIME_MS - REL_TIME_UNIT_MS * MAX_REL_TIME:
            last_rel_time = max((r.rel_time for r in self.records), default=0)
            last_time = self.meta.ref_time + REL_TIME_UNIT_MS * last_rel_time
            if last_time > MAX_TIME_MS:
                raise ValueError(f"record time {last_time} above MAX_TIME_MS")


@dataclass(frozen=True)
class AbsoluteRecord:
    """A record with its absolute time and position, before/after delta packing."""

    kind: RecordKind
    time_ms: int
    position: GeoPosition
    payload: bytes


# --- quantization helpers ------------------------------------------------


def _q(value: float, unit: float) -> int:
    return round(value / unit)


def _check_u16(value: int, what: str) -> int:
    if not (0 <= value <= 0xFFFF):
        raise BadPayload(f"{what} does not fit u16: {value}")
    return value


def _check_i16(value: int, what: str) -> int:
    if not (-0x8000 <= value <= 0x7FFF):
        raise BadPayload(f"{what} does not fit i16: {value}")
    return value


def _speed_u16(speed: float) -> int:
    return _check_u16(_q(speed, 0.01), "speed")


def _course_u16(course: float) -> int:
    c = _q(course, 0.1)
    if c == 3600:  # 359.96..360 rounds up; wrap to 0
        c = 0
    return _check_u16(c, "course")


# --- per-kind payload codecs ----------------------------------------------


def _pack(layout: struct.Struct, *values) -> bytes:
    """A value that does not fit its field is a BadPayload, not a ``struct.error``."""
    try:
        return layout.pack(*values)
    except struct.error as err:
        raise BadPayload(f"{err}: {values}") from None


def pack_cam(c: CamExtract) -> bytes:
    return _pack(_CAM, c.originator, _speed_u16(c.speed), _course_u16(c.course), int(c.classification))


def pack_cpm_detection(originator: StationId, d: CpmDetection) -> bytes:
    return _pack(_CPM,
        originator, d.object_id, _speed_u16(d.speed), _course_u16(d.course), int(d.classification)
    )


def pack_spat(s: SpatExtract) -> bytes:
    if not (0 <= s.change_time <= MAX_TIME_MS):
        raise BadPayload(f"change_time out of range 0..MAX_TIME_MS: {s.change_time}")
    return _pack(_SPAT, s.intersection_id, s.signal_group, int(s.phase), s.change_time)


def pack_vut_sensor(v: VutSensorExtract) -> bytes:
    flags = (
        (1 if v.brake_actuated else 0)
        | (2 if v.abs_active else 0)
        | (4 if v.panic_braking else 0)
        | (8 if v.clutch_pressed else 0)
        | (16 if v.wiper_active else 0)
    )
    doors = 0
    for i, d in enumerate(v.door_positions):
        doors |= (int(d) & 0x3) << (2 * i)
    return _pack(_VUT,
        flags,
        v.gear,
        doors,
        int(v.exterior_lights) & 0x3F,
        _speed_u16(v.speed),
        _check_i16(_q(v.accel_longitudinal, 0.01), "accel_longitudinal"),
        _check_i16(_q(v.accel_lateral, 0.01), "accel_lateral"),
        v.rain_intensity,
        _check_i16(_q(v.yaw_rate, 0.1), "yaw_rate"),
        _check_i16(_q(v.steering_wheel_angle, 0.1), "steering_wheel_angle"),
        _check_i16(_q(v.steering_wheel_velocity, 0.1), "steering_wheel_velocity"),
    )


def pack_driver_state(d: DriverStateSample) -> bytes:
    hr = d.heart_rate_bpm if d.heart_rate_bpm is not None else 0
    return _pack(_DRIVER, d.valence, d.arousal, _check_u16(hr, "heart_rate"), 1 if d.self_reported else 0)


def pack_environment(e: EnvironmentSample) -> bytes:
    return _pack(_ENV,
        _check_u16(e.validity_duration_s, "validity"),
        _check_u16(_q(e.area_radius_m, 1.0), "area_radius"),
        _check_i16(_q(e.temperature_c, 0.1), "temperature"),
        _check_u16(_q(e.precipitation_mm_h, 0.1), "precipitation"),
        _check_u16(_q(e.wind_speed_ms, 0.1), "wind_speed"),
        _course_u16(e.wind_direction),
        _q(e.illuminance_lux, 1.0),
        _check_u16(_q(e.visibility_m, 1.0), "visibility"),
        _check_u16(_q(e.pressure_hpa, 0.1), "pressure"),
        _q(e.humidity_pct, 1.0),
        _q(e.cloudiness_pct, 1.0),
    )


def pack_hazard(h: HazardEvent) -> bytes:
    return _pack(_HAZARD, int(h.kind), h.source)


# --- per-kind codec table ---------------------------------------------------
#
# ``decode_batch`` checks every payload of a kind against that kind's rules,
# and ``raw_rows`` builds its raw-table rows; both work on the kind's records
# as one numpy record array (head and payload fields by name).  A row carries
# exactly the values the typed extracts hold: codes outside an enum become its
# 0 member, flags become 0/1, heart rate 0 becomes NULL, positions the 1e-7
# degree float.


def _dtype(layout: struct.Struct, names: str) -> np.dtype:
    """``layout`` as a numpy record type: one named field per ``struct`` code."""
    codes = layout.format.lstrip("<")
    return np.dtype([(name, "<" + code) for name, code in zip(names.split(), codes, strict=True)])


def _known(members: type[enum.IntEnum]) -> np.ndarray:
    """A lookup table over the u8 codes: a member's code maps to itself, any other code to 0."""
    return np.array([code if code in set(members) else 0 for code in range(256)], np.uint8)


_CLASSIFICATION, _PHASE, _HAZARD_KIND = map(_known, (ObjectClassification, SignalPhase, HazardKind))


# A kind's columns: (record columns, time ms, lat, lon, station) -> the
# raw-table columns before reporter and receive time, as arrays or constants.


def _cam_columns(c, t, lat, lon, station):
    return (c["originator"], t, lat, lon, c["speed"] * 0.01, c["course"] * 0.1,
            _CLASSIFICATION[c["classification"]])


def _cpm_columns(c, t, lat, lon, station):
    return (c["originator"], t, c["object_id"], _CLASSIFICATION[c["classification"]], lat, lon,
            c["speed"] * 0.01, c["course"] * 0.1)


def _spat_columns(c, t, lat, lon, station):
    return (c["intersection"], c["signal_group"], _PHASE[c["phase"]], c["change_time"],
            t, lat, lon)


def _vut_columns(c, t, lat, lon, station):
    flags, doors = c["flags"], c["doors"]
    return (station, t, flags & 1, flags >> 1 & 1, flags >> 2 & 1, flags >> 3 & 1, c["gear"],
            doors & 3, doors >> 2 & 3, doors >> 4 & 3, doors >> 6, c["lights"] & 0x3F,
            lat, lon, c["speed"] * 0.01, c["accel_lon"] * 0.01, c["accel_lat"] * 0.01, c["rain"],
            flags >> 4 & 1, c["yaw_rate"] * 0.1, c["steer_angle"] * 0.1,
            c["steer_velocity"] * 0.1)


def _driver_columns(c, t, lat, lon, station):
    heart_rate = c["heart_rate"]
    return (station, t, c["valence"], c["arousal"], np.where(heart_rate > 0, heart_rate, None),
            np.minimum(c["self_reported"], 1), lat, lon)


def _environment_columns(c, t, lat, lon, station):
    return (station, t, c["validity"], lat, lon, c["radius"].astype(float),
            c["temperature"] * 0.1, c["precipitation"] * 0.1, c["wind_speed"] * 0.1,
            c["wind_dir"] * 0.1, c["illuminance"].astype(float), c["visibility"].astype(float),
            c["pressure"] * 0.1, c["humidity"].astype(float), c["cloudiness"].astype(float))


def _hazard_columns(c, t, lat, lon, station):
    return (c["source"], _HAZARD_KIND[c["hazard_kind"]], t, lat, lon)


class KindCodec(NamedTuple):
    """Payload layout, payload rules and raw-table columns of one record kind."""

    layout: struct.Struct  # packs payloads (the ``pack_*`` helpers)
    dtype: np.dtype  # the same layout with named fields; reads payloads as columns
    # (rule, breaks): ``breaks`` maps the kind's record columns to the mask of
    # the records that break the rule
    rules: tuple[tuple[str, Callable[[np.ndarray], np.ndarray]], ...]
    columns: Callable[..., tuple]


_COURSE_RULE = "course code below 3600"

CODECS: dict[RecordKind, KindCodec] = {
    RecordKind.CAM_EXTRACT: KindCodec(
        _CAM, _dtype(_CAM, "originator speed course classification"),
        ((_COURSE_RULE, lambda c: c["course"] >= 3600),), _cam_columns,
    ),
    RecordKind.CPM_DETECTION: KindCodec(
        _CPM, _dtype(_CPM, "originator object_id speed course classification"),
        ((_COURSE_RULE, lambda c: c["course"] >= 3600),), _cpm_columns,
    ),
    RecordKind.SPAT: KindCodec(
        _SPAT, _dtype(_SPAT, "intersection signal_group phase change_time"),
        (("change time at most MAX_TIME_MS", lambda c: c["change_time"] > MAX_TIME_MS),),
        _spat_columns,
    ),
    RecordKind.VUT_SENSOR: KindCodec(
        _VUT,
        _dtype(_VUT, "flags gear doors lights speed accel_lon accel_lat rain yaw_rate"
                     " steer_angle steer_velocity"),
        (
            ("no door in state 3", lambda c: c["doors"] & (c["doors"] >> 1) & 0b01010101 != 0),
            ("rain intensity 0..7", lambda c: c["rain"] > 7),
            ("gear -1 or above", lambda c: c["gear"] < -1),
        ),
        _vut_columns,
    ),
    RecordKind.DRIVER_STATE: KindCodec(
        _DRIVER,
        _dtype(_DRIVER, "valence arousal heart_rate self_reported"),
        (
            ("valence 1..5", lambda c: (c["valence"] < 1) | (c["valence"] > 5)),
            ("arousal 1..5", lambda c: (c["arousal"] < 1) | (c["arousal"] > 5)),
        ),
        _driver_columns,
    ),
    RecordKind.ENVIRONMENT: KindCodec(
        _ENV,
        _dtype(_ENV, "validity radius temperature precipitation wind_speed wind_dir"
                     " illuminance visibility pressure humidity cloudiness"),
        (
            ("wind direction code below 3600", lambda c: c["wind_dir"] >= 3600),
            ("humidity 0..100", lambda c: c["humidity"] > 100),
            ("cloudiness 0..100", lambda c: c["cloudiness"] > 100),
        ),
        _environment_columns,
    ),
    RecordKind.HAZARD: KindCodec(_HAZARD, _dtype(_HAZARD, "hazard_kind source"), (), _hazard_columns),
}

PAYLOAD_SIZE = {kind: codec.layout.size for kind, codec in CODECS.items()}
_KIND_BY_CODE = {int(kind): kind for kind in RecordKind}
# a whole record (head and payload) of each kind as one numpy record type
_HEAD = _dtype(RECORD_HEAD, "kind rel_time rel_lat rel_lon payload_len")
_RECORD = {kind: np.dtype(_HEAD.descr + codec.dtype.descr) for kind, codec in CODECS.items()}
# payload size by kind code, and the size of a whole record; 0 for a code that is no kind
_PAYLOAD_BY_CODE = np.array([PAYLOAD_SIZE.get(code, 0) for code in range(256)])
_STRIDE = tuple(RECORD_HEAD.size + n if n else 0 for n in _PAYLOAD_BY_CODE.tolist())


# --- envelope codec --------------------------------------------------------


def _gather(buf: np.ndarray, starts: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The ``dtype`` records that start at ``starts`` in ``buf``, copied into one array."""
    return sliding_window_view(buf, dtype.itemsize)[starts].view(dtype).ravel()


class RecordColumns(Sequence):
    """The records of one frame, gathered into numpy record arrays.

    ``heads`` holds every record head in record order, and ``by_kind`` each
    kind's records (head and payload fields) as one numpy record array.  As
    a sequence it is the envelope's ``DeltaRecord``s, built on first use and
    equal to any sequence of the same records.
    """

    def __init__(self, frame: bytes, offsets: list[int]):
        self.frame, self.offsets = frame, np.array(offsets, dtype=np.intp)
        buf = np.frombuffer(frame, np.uint8)
        codes = buf[self.offsets]
        self.by_kind: dict[RecordKind, np.ndarray] = {}
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            kind = _KIND_BY_CODE[code]
            self.by_kind[kind] = _gather(buf, self.offsets[codes == code], _RECORD[kind])
        self.heads = _gather(buf, self.offsets, _HEAD)

    @cached_property
    def typed(self) -> tuple[DeltaRecord, ...]:
        frame, head, out = self.frame, RECORD_HEAD.unpack_from, []
        for offset in self.offsets.tolist():
            code, rel_time, rel_lat, rel_lon, length = head(frame, offset)
            offset += RECORD_HEAD.size
            payload = frame[offset : offset + length]
            out.append(DeltaRecord(_KIND_BY_CODE[code], rel_time, rel_lat, rel_lon, payload))
        return tuple(out)

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, index):
        return self.typed[index]

    def __eq__(self, other):
        return self.typed == tuple(other) if isinstance(other, Sequence) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.typed)

    def __repr__(self) -> str:
        return repr(self.typed)


def _abs_units(meta: MetaBlock) -> tuple[int, int]:
    return (round(meta.ref_position.lat * 1e7), round(meta.ref_position.lon * 1e7))


def encode_batch(e: BatchEnvelope) -> bytes:
    """Serialize an envelope; deterministic for equal envelopes."""
    lat_u, lon_u = _abs_units(e.meta)
    out = bytearray(
        HEADER.pack(MAGIC, e.meta.station, e.meta.ref_time, lat_u, lon_u, len(e.records))
    )
    for r in e.records:
        # DeltaRecord's own invariants already bound the offsets; length is
        # re-checked so a hand-built record cannot lie about its payload.
        if len(r.payload) > 0xFFFF:
            raise DeltaOverflow(f"payload too large: {len(r.payload)}")
        out += RECORD_HEAD.pack(int(r.kind), r.rel_time, r.rel_lat, r.rel_lon, len(r.payload))
        out += r.payload
    return bytes(out)


def _offset_bounds(ref_units: int, limit_units: int) -> tuple[int, int]:
    """The relative offsets that keep ``ref_units + 10 * offset`` within ±limit_units."""
    low = -((limit_units + ref_units) // 10)  # ceil((-limit_units - ref_units) / 10)
    high = (limit_units - ref_units) // 10
    return max(-MAX_REL_POS, low), min(MAX_REL_POS, high)


def _length_error(data: bytes, offset: int) -> BadPayload | None:
    """The error of the record head at ``offset`` if its payload length is not its kind's."""
    code, *_, length = RECORD_HEAD.unpack_from(data, offset)
    kind = _KIND_BY_CODE[code]
    if length == PAYLOAD_SIZE[kind]:
        return None
    return BadPayload(f"kind {kind.name} expects {PAYLOAD_SIZE[kind]} payload bytes, got {length}")


def _walk(data: bytes, count: int) -> tuple[list[int], int, WireError | None]:
    """The offsets of the frame's records and the end of the last one.

    Each record starts where the one before ends, a head plus its kind's
    payload size later; only kind bytes are read.  The walk stops at the
    first record whose kind is unknown or whose head or payload is missing,
    and returns that record's error (a cut-short record whose length field
    also lies gets the length error, as the field is checked first).
    """
    offsets: list[int] = []
    append, stride = offsets.append, _STRIDE
    size = len(data)
    offset, last_head = HEADER.size, size - RECORD_HEAD.size
    for _ in range(count):
        if offset > last_head:
            break
        step = stride[data[offset]]
        if not step:
            break
        append(offset)
        offset += step
    if offset > size:  # the last record's payload is cut short
        offset = offsets.pop()
        missing = Truncated(f"payload missing at offset {offset + RECORD_HEAD.size}")
        return offsets, offset, _length_error(data, offset) or missing
    if len(offsets) == count:
        return offsets, offset, None
    if offset > last_head:
        return offsets, offset, Truncated(f"record head missing at offset {offset}")
    return offsets, offset, UnknownKind(f"unknown record kind {data[offset]}")


def decode_batch(data: bytes) -> BatchEnvelope:
    """Parse and fully validate an envelope; inverse of :func:`encode_batch`.

    One walk finds the records by their kinds' fixed sizes; each kind's
    records are then checked as numpy columns (payload length, offsets,
    ``CODECS`` rules), so a bad record anywhere rejects the frame, with the
    error of the first bad record.  The envelope's ``records`` keep the
    columns and build ``DeltaRecord``s only when read.
    """
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
    # offsets in 1e-6 deg that keep a record on the globe (±90 / ±180 deg in 1e-7 deg)
    lat_min, lat_max = _offset_bounds(lat_u, 900_000_000)
    lon_min, lon_max = _offset_bounds(lon_u, 1_800_000_000)

    offsets, end, error = _walk(data, count)
    records = RecordColumns(data, offsets)
    # the heads the walk passed, in record order: a bad one there is reported
    # before the walk's own error, as a record-by-record reader would
    heads = records.heads
    bad = (
        (heads["payload_len"] != _PAYLOAD_BY_CODE[heads["kind"]])
        | (heads["rel_lat"] < lat_min) | (heads["rel_lat"] > lat_max)
        | (heads["rel_lon"] < lon_min) | (heads["rel_lon"] > lon_max)
    )
    if bad.any():
        first = int(bad.argmax())
        off_globe = BadPayload(f"record {first}: offset out of range or off the globe")
        raise _length_error(data, offsets[first]) or off_globe
    if error is not None:
        raise error
    for kind, c in records.by_kind.items():
        for rule, breaks in CODECS[kind].rules:
            if breaks(c).any():
                raise BadPayload(f"a {kind.name} payload breaks the rule: {rule}")
    if end != size:
        raise TrailingData(f"{size - end} bytes after the last record")
    try:  # MetaBlock and BatchEnvelope refuse times above MAX_TIME_MS
        return BatchEnvelope(MetaBlock(station, ref_time, ref_pos), records)
    except ValueError as err:
        raise BadPayload(str(err)) from None


def raw_rows(env: BatchEnvelope, receive_time: int) -> dict[RecordKind, Iterator[tuple]]:
    """The envelope's records as raw-table rows, by kind and in record order.

    Every row ends with the envelope's station as reporter and the receive
    time.  The rows are built from the record columns of a decoded
    envelope; a built one is encoded and decoded first, so it must pass
    ``decode_batch``.
    """
    records = env.records
    if not isinstance(records, RecordColumns):
        records = decode_batch(encode_batch(env)).records
    meta = env.meta
    lat_u, lon_u = _abs_units(meta)
    out = {}
    for kind, c in records.by_kind.items():
        t = meta.ref_time + REL_TIME_UNIT_MS * c["rel_time"].astype(np.int64)
        lat = (lat_u + 10 * c["rel_lat"].astype(np.int64)) / 1e7
        lon = (lon_u + 10 * c["rel_lon"].astype(np.int64)) / 1e7
        columns = (*CODECS[kind].columns(c, t, lat, lon, meta.station), meta.station, receive_time)
        out[kind] = zip(*(
            col.tolist() if isinstance(col, np.ndarray) else repeat(col) for col in columns
        ))
    return out


def absolute_records(e: BatchEnvelope) -> list[AbsoluteRecord]:
    """Reconstruct every record with absolute time and position."""
    lat_u, lon_u = _abs_units(e.meta)
    return [
        AbsoluteRecord(
            r.kind,
            e.meta.ref_time + REL_TIME_UNIT_MS * r.rel_time,
            GeoPosition((lat_u + 10 * r.rel_lat) / 1e7, (lon_u + 10 * r.rel_lon) / 1e7),
            r.payload,
        )
        for r in e.records
    ]


def plan_batches(records: Sequence[AbsoluteRecord], station: StationId) -> list[BatchEnvelope]:
    """Greedily pack time-sorted absolute records into envelopes.

    A new envelope starts whenever a record's time or position offset would
    overflow the relative ranges or the record count would exceed the u16
    counter.  The reference is always the first record of the envelope, so
    packing can never fail.
    """
    envelopes: list[BatchEnvelope] = []
    pending: list[DeltaRecord] = []
    ref_time = 0
    ref_lat_u = ref_lon_u = 0

    def close():
        nonlocal pending
        if pending:
            meta = MetaBlock(station, ref_time, GeoPosition(ref_lat_u / 1e7, ref_lon_u / 1e7))
            envelopes.append(BatchEnvelope(meta=meta, records=tuple(pending)))
            pending = []

    last_time = None
    for rec in records:
        if last_time is not None and rec.time_ms < last_time:
            raise ValueError("records must be time-sorted")
        last_time = rec.time_ms
        lat_u = round(rec.position.lat * 1e7)
        lon_u = round(rec.position.lon * 1e7)
        if not pending:
            ref_time, ref_lat_u, ref_lon_u = rec.time_ms, lat_u, lon_u
        rel_time = round((rec.time_ms - ref_time) / REL_TIME_UNIT_MS)
        rel_lat = round((lat_u - ref_lat_u) / 10)
        rel_lon = round((lon_u - ref_lon_u) / 10)
        fits = (
            len(pending) < MAX_RECORDS
            and 0 <= rel_time <= MAX_REL_TIME
            and abs(rel_lat) <= MAX_REL_POS
            and abs(rel_lon) <= MAX_REL_POS
        )
        if not fits:
            close()
            ref_time, ref_lat_u, ref_lon_u = rec.time_ms, lat_u, lon_u
            rel_time = rel_lat = rel_lon = 0
        pending.append(DeltaRecord(rec.kind, rel_time, rel_lat, rel_lon, rec.payload))
    close()
    return envelopes


# --- file and stream framing -----------------------------------------------

FRAME_LEN = struct.Struct("<I")
# the largest envelope: a full record count of the largest payload kind
MAX_FRAME = HEADER.size + MAX_RECORDS * (RECORD_HEAD.size + max(PAYLOAD_SIZE.values()))


def write_frames(fp: BinaryIO, envelopes: Iterable[BatchEnvelope]) -> int:
    """Append length-prefixed envelope frames to a binary stream."""
    n = 0
    for env in envelopes:
        frame = encode_batch(env)
        fp.write(FRAME_LEN.pack(len(frame)))
        fp.write(frame)
        n += 1
    return n


def read_frames(fp: BinaryIO) -> Iterator[bytes]:
    """Length-prefixed frames, undecoded, one at a time until end of stream."""
    while True:
        head = fp.read(FRAME_LEN.size)
        if not head:
            return
        if len(head) < FRAME_LEN.size:
            raise Truncated("frame length prefix cut short")
        (length,) = FRAME_LEN.unpack(head)
        if length > MAX_FRAME:
            raise FrameTooLarge(f"frame length {length} exceeds the format maximum {MAX_FRAME}")
        frame = fp.read(length)
        if len(frame) < length:
            raise Truncated(f"frame of {length} bytes cut short at {len(frame)}")
        yield frame


def write_ksb(path, envelopes: Iterable[BatchEnvelope]) -> int:
    with open(path, "wb") as fp:
        return write_frames(fp, envelopes)


def read_ksb(path) -> list[BatchEnvelope]:
    """Every frame of a .ksb file; all or nothing."""
    with open(path, "rb") as fp:
        return list(map(decode_batch, read_frames(fp)))
