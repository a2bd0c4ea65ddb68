"""Situation storage on an embedded relational engine (sqlite).

Raw aggregated data and fused situations live in separate table families.
Raw tables are append-only: nothing here deletes or updates a raw row, and
re-ingesting a message that is already present (same message key) is silently
skipped, so ingestion is idempotent.  A CAM or CPM window seeks the table's
message-key index, originator first: one seek per distinct originator in the
table plus the window's entries, so it gains as the reports per track in the
window grow.  The SPaT, driver and hazard windows depend on append-only: a new
row gets a rowid above every existing one, so the store summarises those
tables' times per block of rowids once and a window reads only the blocks its
time range meets.  A situation is written in a single transaction: either all
of its child rows land or none do.

A file store runs in sqlite's write-ahead-log mode with ``synchronous`` at its
WAL default, FULL: each frame, situation or topology is one transaction whose
commit appends to the log and fsyncs it once (a checkpoint every ~1000 log
pages also syncs the main file), so it is on disk when its call returns, and
readers on other connections neither block the writer nor see its rows before
it commits.  While open, the file needs its ``-wal`` and ``-shm`` siblings
beside it (so not on a network filesystem); sqlite checkpoints and removes both
when the last connection closes.  The journal mode is stored in the file, so
opening a store made in rollback-journal mode converts it.  ``:memory:`` stores
keep journal mode ``memory``.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass
from itertools import compress, groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .geo import GeoPosition, haversine_distances
from .messages import (
    CLASSIFICATION_BY_CODE,
    SOURCE_BY_CODE,
    CamExtract,
    CpmDetection,
    DoorState,
    DriverStateSample,
    EnvironmentSample,
    ExteriorLight,
    HazardEvent,
    HazardKind,
    MapLane,
    MapTopology,
    SignalPhase,
    SpatExtract,
    StationId,
    VutSensorExtract,
)
from .situation import FusedObject, ProvenanceEntry, SituationRecord
from . import wire


class StorageFailure(Exception):
    pass


# --- raw row types ----------------------------------------------------------
#
# ``wire.raw_rows`` builds the table rows from payloads.  A window returns
# them as rows (RawColumns); the typed rows below are what the VUT-fix and
# driver-sample reads and ``aggregators.backend_dedup`` take.


# The column lists a raw table shares with its situation copy, each declared
# once; _vut_columns, _driver_columns and _environment_columns fill them.
_VUT_SQL = """timestamp_ms INTEGER NOT NULL,
    brake_actuated INTEGER, abs_active INTEGER, panic_braking INTEGER,
    clutch_pressed INTEGER, gear INTEGER,
    door_fl INTEGER, door_fr INTEGER, door_rl INTEGER, door_rr INTEGER,
    exterior_lights INTEGER,
    lat REAL NOT NULL, lon REAL NOT NULL,
    speed REAL NOT NULL,
    accel_longitudinal REAL, accel_lateral REAL,
    rain_intensity INTEGER, wiper_active INTEGER,
    yaw_rate REAL, steering_wheel_angle REAL, steering_wheel_velocity REAL"""
_DRIVER_SQL = """timestamp_ms INTEGER NOT NULL,
    valence INTEGER NOT NULL, arousal INTEGER NOT NULL,
    heart_rate INTEGER, self_reported INTEGER NOT NULL"""
_ENVIRONMENT_SQL = """timestamp_ms INTEGER NOT NULL,
    validity_s INTEGER NOT NULL,
    center_lat REAL NOT NULL, center_lon REAL NOT NULL, radius_m REAL NOT NULL,
    temperature_c REAL, precipitation_mm_h REAL, wind_speed_ms REAL,
    wind_direction REAL, illuminance_lux REAL, visibility_m REAL,
    pressure_hpa REAL, humidity_pct REAL, cloudiness_pct REAL"""


def _vut_columns(v: VutSensorExtract) -> tuple:
    """A VUT extract as the _VUT_SQL columns."""
    return (
        v.timestamp, v.brake_actuated, v.abs_active, v.panic_braking, v.clutch_pressed, v.gear,
        *(int(d) for d in v.door_positions), int(v.exterior_lights),
        v.gnss.lat, v.gnss.lon, v.speed, v.accel_longitudinal, v.accel_lateral,
        v.rain_intensity, v.wiper_active,
        v.yaw_rate, v.steering_wheel_angle, v.steering_wheel_velocity,
    )


def _driver_columns(d: DriverStateSample) -> tuple:
    """A driver sample as the _DRIVER_SQL columns."""
    return (d.timestamp, d.valence, d.arousal, d.heart_rate_bpm, d.self_reported)


def _environment_columns(e: EnvironmentSample) -> tuple:
    """An environment sample as the _ENVIRONMENT_SQL columns."""
    return (
        e.timestamp, e.validity_duration_s, e.area_center.lat, e.area_center.lon,
        e.area_radius_m, e.temperature_c, e.precipitation_mm_h, e.wind_speed_ms,
        e.wind_direction, e.illuminance_lux, e.visibility_m, e.pressure_hpa,
        e.humidity_pct, e.cloudiness_pct,
    )


@dataclass(frozen=True)
class RawCam:
    cam: CamExtract
    reporter: StationId
    receive_time: int


@dataclass(frozen=True)
class RawCpmDetection:
    originator: StationId
    generation_time: int
    detection: CpmDetection
    reporter: StationId
    receive_time: int


@dataclass(frozen=True)
class RawSpat:
    spat: SpatExtract
    generation_time: int
    position: GeoPosition
    reporter: StationId
    receive_time: int


@dataclass(frozen=True)
class RawVutSensor:
    station: StationId
    extract: VutSensorExtract
    reporter: StationId
    receive_time: int


@dataclass(frozen=True)
class RawDriverState:
    station: StationId
    sample: DriverStateSample
    position: GeoPosition
    reporter: StationId
    receive_time: int


@dataclass(frozen=True)
class RawEnvironment:
    sample: EnvironmentSample
    reporter: StationId
    receive_time: int


@dataclass(frozen=True)
class RawHazard:
    event: HazardEvent
    reporter: StationId
    receive_time: int


RawRow = (
    RawCam | RawCpmDetection | RawSpat | RawVutSensor | RawDriverState | RawEnvironment | RawHazard
)


@dataclass
class RawColumns:
    """One raw kind's window rows in window order, with numpy columns by name."""

    names: list[str]
    rows: list[tuple]

    def column(self, name: str) -> np.ndarray:
        k = self.names.index(name)
        return np.array([r[k] for r in self.rows])

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class RawSlice:
    """Everything the store returned for one time window and area: the rows
    of each kind a situation fuses."""

    cams: RawColumns
    cpm_detections: RawColumns
    spats: RawColumns
    driver_rows: RawColumns
    hazard_rows: RawColumns

    def __len__(self) -> int:
        return sum(map(len, vars(self).values()))


_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS raw_cam (
    originator INTEGER NOT NULL,
    generation_time INTEGER NOT NULL,
    lat REAL NOT NULL, lon REAL NOT NULL,
    speed REAL NOT NULL, course REAL NOT NULL,
    classification INTEGER NOT NULL,
    reporter INTEGER NOT NULL, receive_time INTEGER NOT NULL,
    UNIQUE (originator, generation_time)
);
CREATE TABLE IF NOT EXISTS raw_cpm_detection (
    originator INTEGER NOT NULL,
    generation_time INTEGER NOT NULL,
    object_id INTEGER NOT NULL,
    classification INTEGER NOT NULL,
    lat REAL NOT NULL, lon REAL NOT NULL,
    speed REAL NOT NULL, course REAL NOT NULL,
    reporter INTEGER NOT NULL, receive_time INTEGER NOT NULL,
    UNIQUE (originator, generation_time, object_id)
);
CREATE TABLE IF NOT EXISTS raw_spat (
    intersection_id INTEGER NOT NULL,
    signal_group INTEGER NOT NULL,
    phase INTEGER NOT NULL,
    change_time INTEGER NOT NULL,
    generation_time INTEGER NOT NULL,
    lat REAL NOT NULL, lon REAL NOT NULL,
    reporter INTEGER NOT NULL, receive_time INTEGER NOT NULL,
    UNIQUE (intersection_id, signal_group, generation_time)
);
CREATE TABLE IF NOT EXISTS raw_vut_sensor (
    station INTEGER NOT NULL,
    {_VUT_SQL},
    reporter INTEGER NOT NULL, receive_time INTEGER NOT NULL,
    UNIQUE (station, timestamp_ms)
);
CREATE TABLE IF NOT EXISTS raw_driver (
    station INTEGER NOT NULL,
    {_DRIVER_SQL},
    lat REAL NOT NULL, lon REAL NOT NULL,
    reporter INTEGER NOT NULL, receive_time INTEGER NOT NULL,
    UNIQUE (station, timestamp_ms)
);
CREATE TABLE IF NOT EXISTS raw_environment (
    station INTEGER NOT NULL,
    {_ENVIRONMENT_SQL},
    reporter INTEGER NOT NULL, receive_time INTEGER NOT NULL,
    UNIQUE (station, timestamp_ms)
);
CREATE TABLE IF NOT EXISTS raw_hazard (
    source INTEGER NOT NULL,
    kind INTEGER NOT NULL,
    timestamp_ms INTEGER NOT NULL,
    lat REAL NOT NULL, lon REAL NOT NULL,
    reporter INTEGER NOT NULL, receive_time INTEGER NOT NULL,
    UNIQUE (source, kind, timestamp_ms)
);
CREATE TABLE IF NOT EXISTS map_topology (
    intersection_id INTEGER NOT NULL,
    lane_id INTEGER NOT NULL,
    signal_group INTEGER NOT NULL,
    ingress INTEGER NOT NULL,
    polyline TEXT NOT NULL,
    UNIQUE (intersection_id, lane_id)
);
CREATE TABLE IF NOT EXISTS situation (
    situation_id INTEGER PRIMARY KEY AUTOINCREMENT,
    vut_station INTEGER NOT NULL,
    timestamp_ms INTEGER NOT NULL,
    center_lat REAL NOT NULL, center_lon REAL NOT NULL,
    radius_m REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS fused_object (
    situation_id INTEGER NOT NULL REFERENCES situation(situation_id),
    seq INTEGER NOT NULL,
    fused_id INTEGER NOT NULL,
    classification INTEGER NOT NULL,
    lat REAL NOT NULL, lon REAL NOT NULL,
    speed REAL NOT NULL, course REAL NOT NULL,
    lane_id INTEGER,
    PRIMARY KEY (situation_id, seq)
);
CREATE TABLE IF NOT EXISTS provenance (
    situation_id INTEGER NOT NULL REFERENCES situation(situation_id),
    seq INTEGER NOT NULL,
    entry_seq INTEGER NOT NULL,
    source INTEGER NOT NULL,
    reporter INTEGER NOT NULL,
    source_object_id INTEGER NOT NULL,
    PRIMARY KEY (situation_id, seq, entry_seq)
);
CREATE TABLE IF NOT EXISTS topology_lane (
    situation_id INTEGER NOT NULL REFERENCES situation(situation_id),
    intersection_id INTEGER NOT NULL,
    lane_id INTEGER NOT NULL,
    signal_group INTEGER NOT NULL,
    ingress INTEGER NOT NULL,
    phase INTEGER NOT NULL,
    polyline TEXT NOT NULL,
    PRIMARY KEY (situation_id, lane_id)
);
CREATE TABLE IF NOT EXISTS vut_sensor (
    situation_id INTEGER PRIMARY KEY REFERENCES situation(situation_id),
    {_VUT_SQL}
);
CREATE TABLE IF NOT EXISTS driver_state (
    situation_id INTEGER PRIMARY KEY REFERENCES situation(situation_id),
    {_DRIVER_SQL}
);
CREATE TABLE IF NOT EXISTS hazard (
    situation_id INTEGER NOT NULL REFERENCES situation(situation_id),
    entry_seq INTEGER NOT NULL,
    kind INTEGER NOT NULL,
    timestamp_ms INTEGER NOT NULL,
    lat REAL NOT NULL, lon REAL NOT NULL,
    source INTEGER NOT NULL,
    PRIMARY KEY (situation_id, entry_seq)
);
CREATE TABLE IF NOT EXISTS environment (
    situation_id INTEGER PRIMARY KEY REFERENCES situation(situation_id),
    {_ENVIRONMENT_SQL}
);
"""

def _polyline_json(polyline: tuple[GeoPosition, ...]) -> str:
    return json.dumps([[p.lat, p.lon] for p in polyline])


def _topologies(rows) -> list[MapTopology]:
    """Lane rows ``(intersection_id, lane_id, signal_group, ingress, phase, polyline)``,
    grouped in order into one topology per intersection."""
    by_intersection: dict[int, list[MapLane]] = {}
    for intersection_id, lane_id, group, ingress, phase, polyline in rows:
        by_intersection.setdefault(intersection_id, []).append(MapLane(
            lane_id, group, tuple(GeoPosition(lat, lon) for lat, lon in json.loads(polyline)),
            bool(ingress), SignalPhase(phase),
        ))
    return [MapTopology(i, tuple(lanes)) for i, lanes in by_intersection.items()]


# sqlite binds signed 64-bit integers only
_SQL_INT_MIN, _SQL_INT_MAX = -(2**63), 2**63 - 1


def _sql_range(t_min: int, t_max: int) -> tuple[int, int] | None:
    """[t_min, t_max] cut to the integers sqlite can bind; None if nothing is left."""
    lo, hi = max(t_min, _SQL_INT_MIN), min(t_max, _SQL_INT_MAX)
    return (lo, hi) if lo <= hi else None


def _sql_int(t: int) -> int:
    return min(max(t, _SQL_INT_MIN), _SQL_INT_MAX)


class SituationStore:
    """Single-writer storage; all access is serialized through one lock.
    A file store is opened in WAL mode (see the module docstring)."""

    def __init__(self, path: str = ":memory:"):
        self._lock = threading.RLock()
        # per window kind without a track: rowid block -> (min, max) of its window
        # time, and the highest rowid summarised; valid while data_version is unchanged
        self._blocks: dict[wire.RecordKind, dict[int, tuple[int, int]]] = {}
        self._summarised: dict[wire.RecordKind, int] = {}
        self._data_version: int | None = None
        try:
            self._conn = sqlite3.connect(path, check_same_thread=False)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
        except sqlite3.Error as e:
            raise StorageFailure(f"cannot open store at {path}: {e}") from e

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "SituationStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- raw ingestion -----------------------------------------------------

    def insert_raw(self, rows_by_kind) -> int:
        """Append table rows, keyed by record kind as ``wire.raw_rows`` builds
        them, skipping already-present message keys: one transaction with one
        executemany per raw table.  Returns the number of net-new rows.
        """
        with self._lock:
            before = self._conn.total_changes
            try:
                with self._conn:
                    for kind, rows in rows_by_kind.items():
                        self._conn.executemany(_INSERT_RAW[kind], rows)
            except sqlite3.Error as e:
                raise StorageFailure(str(e)) from e
            return self._conn.total_changes - before

    def insert_envelope(self, env: wire.BatchEnvelope, receive_time: int) -> int:
        """Append every record of a decoded envelope; returns the net-new rows."""
        return self.insert_raw(wire.raw_rows(env, receive_time))

    # -- raw queries ---------------------------------------------------------

    def query_raw(self, t: int, t_min: int, t_max: int, center: GeoPosition, radius_m: float) -> RawSlice:
        """The raw rows of the kinds a situation fuses (CAM, CPM, SPaT, driver,
        hazard) inside [t_min, t_max] (inclusive) and the given circle.  Of a
        CAM or CPM track (``RawTable.track``) only the row nearest t is read,
        of two equally near the earlier, and none 2**63 ms or more from t; the
        circle is then tested at that row's stored position.  A fetched row's
        position out of range raises GeoPosition's ValueError."""
        if t_min > t_max:
            raise ValueError(f"t_min {t_min} > t_max {t_max}")
        bounds = _sql_range(t_min, t_max)
        near = _sql_range(max(t_min, t - _SQL_INT_MAX), min(t_max, t + _SQL_INT_MAX))
        lists = {}
        # one read transaction: the summary and the windows see one snapshot
        with self._lock, self._conn:
            self._conn.execute("BEGIN")
            (version,) = self._conn.execute("PRAGMA data_version").fetchone()
            if version != self._data_version:  # another connection committed
                self._blocks.clear()
                self._summarised.clear()
                self._data_version = version
            for kind, raw in _WINDOW_TABLE.items():
                if raw.track:  # a t past sqlite's integers lies past every row, as its clamp does
                    args = (*(near or (1, 0)), *(_sql_int(t),) * 2)
                else:
                    rowids = bounds and self._window_rowids(kind, *bounds)
                    args = (*rowids, *bounds) if rowids else (1, 0, 1, 0)  # no row, but the column names
                cur = self._conn.execute(_SELECT_WINDOW[kind], args)
                rows = _in_area(cur.fetchall(), raw.lat_column, center, radius_m)
                lists[raw.slice_list] = RawColumns([d[0] for d in cur.description], rows)
        return RawSlice(**lists)

    def _window_rowids(self, kind: wire.RecordKind, t_min: int, t_max: int) -> tuple[int, int] | None:
        """The rowids from the first to the last block whose times meet
        [t_min, t_max], after summarising the rows added since the last call;
        None if no block meets it."""
        blocks = self._blocks.setdefault(kind, {})
        done = self._summarised.get(kind, 0)
        while True:
            lo, hi, top = self._conn.execute(_SUMMARISE[kind], (done,)).fetchone()
            if top is None:
                break
            block = top >> _BLOCK_BITS
            if block in blocks:  # the block was partly summarised before
                old_lo, old_hi = blocks[block]
                lo, hi = min(lo, old_lo), max(hi, old_hi)
            blocks[block] = (lo, hi)
            done = top
        self._summarised[kind] = done
        hits = [block for block, (lo, hi) in blocks.items() if lo <= t_max and hi >= t_min]
        if not hits:
            return None
        return min(hits) << _BLOCK_BITS, ((max(hits) + 1) << _BLOCK_BITS) - 1

    def vut_fix_near(self, vut: StationId, t: int, tolerance_ms: int) -> RawVutSensor | None:
        """The VUT sensor row closest to t within the tolerance, or None; of
        two equally near, the earlier."""
        if _sql_range(vut, vut) is None:  # no row holds a key sqlite cannot bind
            return None
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM raw_vut_sensor WHERE station = ?"
                " AND timestamp_ms BETWEEN ? AND ?"
                " ORDER BY ABS(timestamp_ms - ?), timestamp_ms LIMIT 1",
                (vut, _sql_int(t - tolerance_ms), _sql_int(t + tolerance_ms), _sql_int(t)),
            ).fetchone()
        return _row_to_vut(row) if row else None

    def vut_fixes(self, vut: StationId, t_min: int, t_max: int) -> RawVutSensor | None:
        """The VUT's latest sensor row in [t_min, t_max], or None."""
        bounds = _sql_range(t_min, t_max)
        if bounds is None or _sql_range(vut, vut) is None:
            return None
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM raw_vut_sensor WHERE station = ?"
                " AND timestamp_ms BETWEEN ? AND ? ORDER BY timestamp_ms DESC LIMIT 1",
                (vut, *bounds),
            ).fetchone()
        return _row_to_vut(row) if row else None

    def environment_candidates(self, t: int) -> list[EnvironmentSample]:
        """Samples whose validity window contains t, regardless of area."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM raw_environment WHERE timestamp_ms <= ?"
                " AND timestamp_ms + validity_s * 1000 >= ? ORDER BY timestamp_ms, station",
                (_sql_int(t), _sql_int(t)),
            ).fetchall()
        return [_environment_from_columns(r[1:15]) for r in rows]

    def driver_samples(self, station: StationId) -> list[RawDriverState]:
        if _sql_range(station, station) is None:
            return []
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM raw_driver WHERE station = ? ORDER BY timestamp_ms",
                (station,),
            ).fetchall()
        return [_row_to_driver(r) for r in rows]

    # -- static topology -----------------------------------------------------

    def put_topology(self, topo: MapTopology) -> None:
        """Replace the intersection's lanes by ``topo``'s; a lane's phase is not stored."""
        with self._lock, self._conn:
            self._conn.execute("DELETE FROM map_topology WHERE intersection_id = ?",
                               (topo.intersection_id,))
            self._conn.executemany("INSERT INTO map_topology VALUES (?,?,?,?,?)", [
                (topo.intersection_id, lane.lane_id, lane.signal_group, lane.ingress,
                 _polyline_json(lane.polyline))
                for lane in topo.lanes
            ])

    def topologies(self) -> list[MapTopology]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT intersection_id, lane_id, signal_group, ingress, 0, polyline"
                " FROM map_topology ORDER BY intersection_id, lane_id"
            ).fetchall()
        return _topologies(rows)

    # -- situations ------------------------------------------------------------

    def persist_situation(self, s: SituationRecord) -> int:
        """Atomically write a situation; returns its fresh identifier."""
        with self._lock:
            try:
                with self._conn:
                    cur = self._conn.execute(
                        "INSERT INTO situation (vut_station, timestamp_ms, center_lat,"
                        " center_lon, radius_m) VALUES (?,?,?,?,?)",
                        (s.vut, s.timestamp, s.center.lat, s.center.lon, s.radius_m),
                    )
                    sid = cur.lastrowid
                    self._insert_situation_children(sid, s)
            except sqlite3.Error as e:
                raise StorageFailure(str(e)) from e
            return sid

    def _insert_situation_children(self, sid: int, s: SituationRecord) -> None:
        """One executemany per child table."""
        lanes = s.topology.lanes if s.topology is not None else ()
        for table, rows in (
            ("fused_object", [
                (sid, seq, o.fused_id, int(o.classification), o.position.lat, o.position.lon,
                 o.speed, o.course, o.lane_id)
                for seq, o in enumerate(s.objects)
            ]),
            ("provenance", [
                (sid, seq, eseq, int(e.source), e.reporter, e.object_id)
                for seq, o in enumerate(s.objects) for eseq, e in enumerate(o.provenance)
            ]),
            ("topology_lane", [
                (sid, s.topology.intersection_id, lane.lane_id, lane.signal_group, lane.ingress,
                 int(lane.phase), _polyline_json(lane.polyline))
                for lane in lanes
            ]),
            ("vut_sensor", [(sid, *_vut_columns(s.vut_sensor))] if s.vut_sensor is not None else []),
            ("driver_state", [(sid, *_driver_columns(s.driver))] if s.driver is not None else []),
            ("hazard", [
                (sid, eseq, int(h.kind), h.timestamp, h.position.lat, h.position.lon, h.source)
                for eseq, h in enumerate(s.hazards)
            ]),
            ("environment",
             [(sid, *_environment_columns(s.environment))] if s.environment is not None else []),
        ):
            if rows:
                self._conn.executemany(
                    f"INSERT INTO {table} VALUES ({', '.join('?' * len(rows[0]))})", rows
                )

    def load_situation(self, situation_id: int) -> SituationRecord | None:
        if _sql_range(situation_id, situation_id) is None:
            return None
        with self._lock:
            c = self._conn
            head = c.execute(
                "SELECT * FROM situation WHERE situation_id = ?", (situation_id,)
            ).fetchone()
            if head is None:
                return None
            sid, vut, timestamp, clat, clon, radius = head
            provenance = {
                seq: tuple([ProvenanceEntry(SOURCE_BY_CODE[src], rep, oid) for _, src, rep, oid in entries])
                for seq, entries in groupby(c.execute(
                    "SELECT seq, source, reporter, source_object_id FROM provenance"
                    " WHERE situation_id = ? ORDER BY seq, entry_seq",
                    (sid,),
                ), key=itemgetter(0))
            }
            objects = tuple(
                FusedObject(
                    fused_id, CLASSIFICATION_BY_CODE[cls], GeoPosition(lat, lon), speed,
                    course, provenance.get(seq, ()), lane_id,
                )
                for seq, fused_id, cls, lat, lon, speed, course, lane_id in c.execute(
                    "SELECT seq, fused_id, classification, lat, lon, speed, course, lane_id"
                    " FROM fused_object WHERE situation_id = ? ORDER BY seq",
                    (sid,),
                ).fetchall()
            )
            topology = next(iter(_topologies(c.execute(
                "SELECT intersection_id, lane_id, signal_group, ingress, phase, polyline"
                " FROM topology_lane WHERE situation_id = ? ORDER BY lane_id",
                (sid,),
            ))), None)
            vrow = c.execute(
                "SELECT * FROM vut_sensor WHERE situation_id = ?", (sid,)
            ).fetchone()
            drow = c.execute(
                "SELECT timestamp_ms, valence, arousal, heart_rate, self_reported"
                " FROM driver_state WHERE situation_id = ?",
                (sid,),
            ).fetchone()
            hazards = tuple(map(hazard_from_columns, c.execute(
                "SELECT source, kind, timestamp_ms, lat, lon FROM hazard"
                " WHERE situation_id = ? ORDER BY entry_seq",
                (sid,),
            )))
            erow = c.execute(
                "SELECT * FROM environment WHERE situation_id = ?", (sid,)
            ).fetchone()
        return SituationRecord(
            situation_id=sid,
            center=GeoPosition(clat, clon),
            radius_m=radius,
            timestamp=timestamp,
            vut=vut,
            objects=objects,
            topology=topology,
            vut_sensor=_row_to_vut_extract(vrow[1:]) if vrow else None,
            driver=driver_from_columns(drow) if drow else None,
            hazards=hazards,
            environment=_environment_from_columns(erow[1:]) if erow else None,
        )

    def stats(self) -> dict[str, int]:
        """Row counts per raw table plus the situation total."""
        out = {}
        with self._lock:
            for table in RAW_TABLES + ("situation",):
                (n,) = self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
                out[table] = n
        return out


def _in_area(rows: list[tuple], lat: int, center: GeoPosition, radius_m: float) -> list[tuple]:
    """The rows whose position (columns lat, lat + 1) lies within radius_m of
    center; every row's position is range-checked first."""
    lats = np.array([r[lat] for r in rows], dtype=float)
    lons = np.array([r[lat + 1] for r in rows], dtype=float)
    bad = ~((lats >= -90.0) & (lats <= 90.0) & (lons >= -180.0) & (lons <= 180.0))
    if bad.any():  # GeoPosition raises its ValueError
        GeoPosition(*rows[bad.argmax()][lat : lat + 2])
    keep = haversine_distances(center.lat, center.lon, lats, lons) <= radius_m
    return list(compress(rows, keep.tolist()))


# -- row mappers ------------------------------------------------------------


# Each mapper reads one table row positionally, in column order.


def _row_to_vut_extract(cols) -> VutSensorExtract:
    return VutSensorExtract(
        cols[0], *map(bool, cols[1:5]), cols[5], tuple(map(DoorState, cols[6:10])),
        ExteriorLight(cols[10]), GeoPosition(cols[11], cols[12]), *cols[13:17], bool(cols[17]),
        *cols[18:21],
    )


def _row_to_vut(r) -> RawVutSensor:
    return RawVutSensor(r[0], _row_to_vut_extract(r[1:22]), r[22], r[23])


def driver_from_columns(cols) -> DriverStateSample:
    """A driver sample from the _DRIVER_SQL columns."""
    return DriverStateSample(*cols[:4], bool(cols[4]))


def _row_to_driver(r) -> RawDriverState:
    return RawDriverState(r[0], driver_from_columns(r[1:6]), GeoPosition(r[6], r[7]), r[8], r[9])


def _environment_from_columns(cols) -> EnvironmentSample:
    return EnvironmentSample(cols[0], cols[1], GeoPosition(cols[2], cols[3]), *cols[4:14])


def hazard_from_columns(cols) -> HazardEvent:
    """A hazard from its columns in raw_hazard order: source, kind, timestamp_ms, lat, lon."""
    return HazardEvent(HazardKind(cols[1]), cols[2], GeoPosition(cols[3], cols[4]), cols[0])


# -- raw tables ---------------------------------------------------------------


class RawTable(NamedTuple):
    """One raw record kind's table; its insert statement derives from it, and
    so do the window statements of the kinds a window reads."""

    table: str
    width: int  # column count
    # window kinds only: the window's ORDER BY, the time the window bounds and
    # then the rest of the table's UNIQUE key, so windows are in one total order
    order: tuple[str, ...] = ()
    lat_column: int = 0  # index of the lat column; lon is the next one
    slice_list: str = ""  # the RawSlice list a window fills
    track: tuple[str, ...] = ()  # if set, a window reads each track's row nearest t; track[0] leads the key


RAW_TABLE: dict[wire.RecordKind, RawTable] = {
    wire.RecordKind.CAM_EXTRACT: RawTable(
        "raw_cam", 9, ("generation_time", "originator"), 2, "cams", ("originator",)
    ),
    wire.RecordKind.CPM_DETECTION: RawTable(
        "raw_cpm_detection", 10, ("generation_time", "originator", "object_id"), 4, "cpm_detections",
        ("originator", "object_id"),
    ),
    wire.RecordKind.SPAT: RawTable(
        "raw_spat", 9, ("generation_time", "intersection_id", "signal_group"), 5, "spats"
    ),
    wire.RecordKind.VUT_SENSOR: RawTable("raw_vut_sensor", 24),  # vut_fix_near, vut_fixes
    wire.RecordKind.DRIVER_STATE: RawTable(
        "raw_driver", 10, ("timestamp_ms", "station"), 6, "driver_rows"
    ),
    wire.RecordKind.ENVIRONMENT: RawTable("raw_environment", 17),  # environment_candidates
    wire.RecordKind.HAZARD: RawTable(
        "raw_hazard", 7, ("timestamp_ms", "source", "kind"), 3, "hazard_rows"
    ),
}
_WINDOW_TABLE = {kind: t for kind, t in RAW_TABLE.items() if t.slice_list}
RAW_TABLES = tuple(t.table for t in RAW_TABLE.values())
_INSERT_RAW = {
    kind: f"INSERT OR IGNORE INTO {t.table} VALUES ({', '.join('?' * t.width)})"
    for kind, t in RAW_TABLE.items()
}
# The windows of kinds without a track rely on the raw tables being append-only (module docstring): such
# a window reads the rowid range of the blocks of 2**_BLOCK_BITS rowids whose window times meet it.
# _SUMMARISE gives the time range and the last rowid of the rows from the first rowid above ? to the end of
# its block; one statement per block needs no sort, where a GROUP BY over the table would.
_BLOCK_BITS = 10
_SUMMARISE = {
    kind: f"WITH f(r) AS (SELECT min(rowid) FROM {t.table} WHERE rowid > ?)"
    f" SELECT min({t.order[0]}), max({t.order[0]}), max(rowid) FROM f, {t.table}"
    f" WHERE {t.table}.rowid BETWEEN f.r AND f.r | {2**_BLOCK_BITS - 1}"
    for kind, t in _WINDOW_TABLE.items() if not t.track
}

# A track kind's window walks its UNIQUE (originator, time, ...) index: a recursive loose scan lists the
# originators, one seek each; each one's window is an index range, of which each track keeps the rowid of
# its row nearest t, the least (|time - t|, time > t), as the bare column of the query's one min(), in
# HAVING.  The key is one integer, and the -2**62 keeps it inside 64 bits for |time - t| < 2**63, where
# sqlite would turn it into an inexact REAL.  Only the kept rows are then read, by rowid.
_TRACK_WINDOW = (
    "WITH RECURSIVE k(x) AS (SELECT min({o}) FROM {t} UNION ALL"
    " SELECT (SELECT min({o}) FROM {t} WHERE {o} > x) FROM k WHERE x NOT NULL),"
    " p(r) AS (SELECT {t}.rowid FROM k CROSS JOIN {t} WHERE {o} = x AND {time} BETWEEN ? AND ?"
    " GROUP BY {track} HAVING min((abs({time} - ?) - %d) * 2 + ({time} > ?)) NOT NULL)"
    " SELECT {t}.* FROM p CROSS JOIN {t} ON {t}.rowid = r" % 2**62
)
_SELECT_WINDOW = {
    kind: (_TRACK_WINDOW.format(t=t.table, o=t.track[0], time=t.order[0], track=", ".join(t.track))
           if t.track else
           f"SELECT * FROM {t.table} WHERE rowid BETWEEN ? AND ? AND {t.order[0]} BETWEEN ? AND ?")
    + f" ORDER BY {', '.join(t.order)}"
    for kind, t in _WINDOW_TABLE.items()
}
