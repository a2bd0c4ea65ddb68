"""Client-side data aggregators and the reference duplicate filter.

Every remote station runs some of these collectors: the traffic data
aggregator client queues received V2X extracts, the vehicle data aggregator
queues each sensor snapshot, the driver and environment collectors queue
their samples.  Everything lands in a local store that is flushed in delta
batches over an acknowledged transport; the local store only forgets what the
far side has acknowledged, so delivery is at-least-once, and the backend
store's UNIQUE message keys make storage exactly-once.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

from .geo import GeoPosition, haversine_distance
from .messages import (
    CamExtract,
    CpmExtract,
    DriverStateSample,
    EnvironmentSample,
    HazardEvent,
    MapTopology,
    SpatExtract,
    StationId,
    VutSensorExtract,
)
from . import wire
from .store import (
    RawCam,
    RawCpmDetection,
    RawDriverState,
    RawEnvironment,
    RawHazard,
    RawRow,
    RawSpat,
    RawVutSensor,
)


class TransportError(Exception):
    pass


class Transport(Protocol):
    def send(self, frame: bytes) -> bool:
        """Deliver one encoded envelope; True means acknowledged."""


@dataclass
class FlushOutcome:
    delivered_batches: int
    delivered_records: int
    failed: bool


@dataclass
class LocalStore:
    """Pending records of one station, cleared only on acknowledged delivery."""

    station: StationId
    station_position: GeoPosition | None = None
    pending: list[wire.AbsoluteRecord] = field(default_factory=list)

    def append(self, record: wire.AbsoluteRecord) -> None:
        # Stations queue in time order almost always; equal times keep arrival order.
        if not self.pending or self.pending[-1].time_ms <= record.time_ms:
            self.pending.append(record)
        else:
            bisect.insort(self.pending, record, key=lambda r: r.time_ms)


def tdac_ingest(extract, received_by: StationId, local: LocalStore) -> LocalStore:
    """Queue a received V2X extract; topologies are static and never queued.

    The receiver identity travels as the envelope station, so the queue must
    belong to the station that heard the message.  A SPAT carries no
    generation time of its own and goes through ``tdac_ingest_spat``.
    """
    if received_by != local.station:
        raise ValueError(f"store of station {local.station} cannot queue for {received_by}")
    if isinstance(extract, MapTopology):
        return local
    if isinstance(extract, CamExtract):
        local.append(
            wire.AbsoluteRecord(
                wire.RecordKind.CAM_EXTRACT,
                extract.generation_time,
                extract.position,
                wire.pack_cam(extract),
            )
        )
    elif isinstance(extract, CpmExtract):
        for det in extract.detections:
            local.append(
                wire.AbsoluteRecord(
                    wire.RecordKind.CPM_DETECTION,
                    extract.generation_time,
                    det.position,
                    wire.pack_cpm_detection(extract.originator, det),
                )
            )
    elif isinstance(extract, HazardEvent):
        local.append(
            wire.AbsoluteRecord(
                wire.RecordKind.HAZARD,
                extract.timestamp,
                extract.position,
                wire.pack_hazard(extract),
            )
        )
    else:
        raise TypeError(f"unsupported extract type {type(extract).__name__}")
    return local


def tdac_ingest_spat(extract: SpatExtract, generation_time: int, local: LocalStore) -> LocalStore:
    """Queue a SPAT with an explicit generation time."""
    if local.station_position is None:
        raise ValueError("queuing SPAT requires the station position")
    local.append(
        wire.AbsoluteRecord(
            wire.RecordKind.SPAT, generation_time, local.station_position, wire.pack_spat(extract)
        )
    )
    return local


def vda_ingest(sensors: VutSensorExtract, local: LocalStore) -> LocalStore:
    """Queue one vehicle sensor snapshot, georeferenced at its own GNSS fix."""
    local.append(
        wire.AbsoluteRecord(
            wire.RecordKind.VUT_SENSOR, sensors.timestamp, sensors.gnss, wire.pack_vut_sensor(sensors)
        )
    )
    return local


def dda_ingest(sample: DriverStateSample, position: GeoPosition, local: LocalStore) -> LocalStore:
    """Queue a driver state sample, georeferenced at the vehicle position."""
    local.append(
        wire.AbsoluteRecord(
            wire.RecordKind.DRIVER_STATE, sample.timestamp, position, wire.pack_driver_state(sample)
        )
    )
    return local


def environment_ingest(sample: EnvironmentSample, local: LocalStore) -> LocalStore:
    local.append(
        wire.AbsoluteRecord(
            wire.RecordKind.ENVIRONMENT,
            sample.timestamp,
            sample.area_center,
            wire.pack_environment(sample),
        )
    )
    return local


def flush(local: LocalStore, transport: Transport) -> FlushOutcome:
    """Batch and send everything pending; forget only acknowledged envelopes.

    A transport failure stops the flush: the unacknowledged envelope and
    everything after it stay pending for the next attempt.
    """
    if not local.pending:
        return FlushOutcome(delivered_batches=0, delivered_records=0, failed=False)
    envelopes = wire.plan_batches(local.pending, local.station)
    delivered_batches = delivered_records = 0
    for env in envelopes:
        try:
            acked = transport.send(wire.encode_batch(env))
        except TransportError:
            acked = False
        if not acked:
            del local.pending[:delivered_records]
            return FlushOutcome(delivered_batches, delivered_records, failed=True)
        delivered_batches += 1
        delivered_records += len(env.records)
    del local.pending[:delivered_records]
    return FlushOutcome(delivered_batches, delivered_records, failed=False)


def message_key(row: RawRow) -> tuple[int, int, int, int]:
    """(kind, originator, generation_time, object_id): one key per logical message."""
    if isinstance(row, RawCam):
        return (int(wire.RecordKind.CAM_EXTRACT), row.cam.originator, row.cam.generation_time, 0)
    if isinstance(row, RawCpmDetection):
        return (
            int(wire.RecordKind.CPM_DETECTION),
            row.originator,
            row.generation_time,
            row.detection.object_id,
        )
    if isinstance(row, RawSpat):
        return (
            int(wire.RecordKind.SPAT),
            row.spat.intersection_id,
            row.generation_time,
            row.spat.signal_group,
        )
    if isinstance(row, RawVutSensor):
        return (int(wire.RecordKind.VUT_SENSOR), row.station, row.extract.timestamp, 0)
    if isinstance(row, RawDriverState):
        return (int(wire.RecordKind.DRIVER_STATE), row.station, row.sample.timestamp, 0)
    if isinstance(row, RawEnvironment):
        return (int(wire.RecordKind.ENVIRONMENT), row.reporter, row.sample.timestamp, 0)
    if isinstance(row, RawHazard):
        return (int(wire.RecordKind.HAZARD), row.event.source, row.event.timestamp, int(row.event.kind))
    raise TypeError(f"unsupported row type {type(row).__name__}")


def backend_dedup(rows: Iterable[RawRow]) -> list[RawRow]:
    """Keep one row per message key (the earliest-received copy).

    Multi-reception is normal: a broadcast V2X message reaches several
    stations, each of which forwards its copy.  Output is ordered by
    (generation_time, originator).
    """
    best: dict[tuple, RawRow] = {}
    for row in rows:
        key = message_key(row)
        kept = best.get(key)
        if kept is None or row.receive_time < kept.receive_time:
            best[key] = row

    def order(item):
        kind, originator, generation_time, object_id = item[0]
        return (generation_time, originator, kind, object_id)

    return [row for _, row in sorted(best.items(), key=order)]


def environment_for(
    time_ms: int, position: GeoPosition, samples: Sequence[EnvironmentSample]
) -> EnvironmentSample | None:
    """The sample whose validity window and area contain the query; newest wins."""
    chosen = None
    for sample in samples:
        if not (sample.timestamp <= time_ms <= sample.timestamp + sample.validity_duration_s * 1000):
            continue
        if haversine_distance(sample.area_center, position) > sample.area_radius_m:
            continue
        if chosen is None or sample.timestamp > chosen.timestamp:
            chosen = sample
    return chosen
