"""Reference decoder: one typed object per wire record.

This is the object-per-record path that ``wire.decode_batch`` and
``SituationStore.insert_envelope`` replaced with per-kind column tuples.  The
tests keep it as the oracle the columnar path must match row for row, and as
the inverse of the ``wire.pack_*`` payload codecs.
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
    RawCam,
    RawCpmDetection,
    RawDriverState,
    RawEnvironment,
    RawHazard,
    RawRow,
    RawSpat,
    RawVutSensor,
)
from situfuse.wire import BadPayload, RecordKind

# payload layouts, restated from the format description in ``wire``
_CAM = struct.Struct("<IHHB")
_CPM = struct.Struct("<IIHHB")
_SPAT = struct.Struct("<IHBQ")
_VUT = struct.Struct("<BbBBHhhBhhh")
_DRIVER = struct.Struct("<BBHB")
_ENV = struct.Struct("<HHhHHHIHHBB")
_HAZARD = struct.Struct("<BI")


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
        classification=ObjectClassification.from_code(cls),
    )


def unpack_cpm_detection(payload: bytes, position: GeoPosition) -> tuple[StationId, CpmDetection]:
    originator, object_id, speed, course, cls = _CPM.unpack(payload)
    detection = CpmDetection(
        object_id=object_id,
        classification=ObjectClassification.from_code(cls),
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
