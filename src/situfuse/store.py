"""Situation storage on an embedded relational engine (sqlite).

Raw aggregated data and fused situations live in separate table families.
Raw tables are append-only: nothing here deletes or updates a raw row, and
re-ingesting a message that is already present (same message key) is silently
skipped, so ingestion is idempotent.  Every read of "the row at t" (of a CAM
or CPM track, a signal group of one intersection, the VUT's fixes and driver
samples) seeks the table's message-key index once per track, inside the key if
any, and each track keeps its row nearest t.  A hazard window and the
environment read take their table's time index.  A situation is written in a
single transaction: either all of its child rows land or none do.

Every write binds its rows, in order, into multi-row ``INSERT ... VALUES
(...), (...)`` statements (``_insert``), so sqlite enters its program and opens
a table's cursors once per chunk of rows, not once per row.

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
from functools import cache
from itertools import chain, compress, islice, repeat
from typing import NamedTuple

import numpy as np

from .geo import GeoPosition, haversine_distances
from .messages import (
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
from .situation import FusedColumns, SituationRecord
from . import wire


class StorageFailure(Exception):
    pass


# --- raw row types ----------------------------------------------------------
#
# ``wire.raw_rows`` builds the table rows from payloads.  A window returns them as rows (RawColumns);
# the VUT-fix reads and ``driver_samples`` return the typed rows below, and ``backend_dedup`` takes them.


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
    spats: RawColumns  # the chosen intersection's only
    driver_rows: RawColumns  # the VUT's only: none or one
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


# A statement binds a power of two of rows, at most 64 and at most 999 values (SQLITE_MAX_VARIABLE_NUMBER
# before sqlite 3.32): at most 7 shapes a table, 85 over every table written here, which with this module's
# 29 other statements stay within the sqlite3 module's 128-entry statement cache.
@cache
def _insert_sql(head: str, width: int, rows: int) -> str:
    return f"{head} VALUES " + ", ".join(["(" + ", ".join("?" * width) + ")"] * rows)


def _insert(conn: sqlite3.Connection, head: str, rows) -> None:
    """Run ``head`` ("INSERT ... INTO table") on ``rows``, equal-width tuples,
    in order, reading at most 64 rows of the iterable at a time."""
    rows = iter(rows)
    while chunk := list(islice(rows, 64)):
        done, width = 0, len(chunk[0])
        while done < len(chunk):
            size = 1 << min(len(chunk) - done, 999 // width).bit_length() - 1
            conn.execute(_insert_sql(head, width, size), [*chain.from_iterable(chunk[done : done + size])])
            done += size


class SituationStore:
    """Single-writer storage; all access is serialized through one lock.
    A file store is opened in WAL mode (see the module docstring)."""

    def __init__(self, path: str = ":memory:"):
        self._lock = threading.RLock()
        try:
            self._conn = sqlite3.connect(path, check_same_thread=False)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.executescript(_SCHEMA + _WINDOW_INDEX)
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
        them, skipping already-present message keys: one transaction, in which
        each kind's rows stream through ``_insert`` in order, so of two rows
        with one key the first is kept.  Returns the number of net-new rows.
        """
        with self._lock:
            before = self._conn.total_changes
            try:
                with self._conn:
                    for kind, rows in rows_by_kind.items():
                        _insert(self._conn, f"INSERT OR IGNORE INTO {RAW_TABLE[kind].table}", rows)
            except sqlite3.Error as e:
                raise StorageFailure(str(e)) from e
            return self._conn.total_changes - before

    def insert_envelope(self, env: wire.BatchEnvelope, receive_time: int) -> int:
        """Append every record of a decoded envelope; returns the net-new rows."""
        return self.insert_raw(wire.raw_rows(env, receive_time))

    # -- raw queries ---------------------------------------------------------

    def query_raw(self, t: int, t_min: int, t_max: int, center: GeoPosition, radius_m: float,
                  vut: StationId, intersection: int | None) -> RawSlice:
        """The raw rows of the kinds a situation fuses inside [t_min, t_max]
        (inclusive): each CAM or CPM track's, each signal group's of the
        intersection (none if it is None) and the VUT's driver row nearest t
        (``_read``), and every hazard, of which those in the given circle at
        their stored position are kept.  A fetched row's position out of range
        raises GeoPosition's ValueError."""
        if t_min > t_max:
            raise ValueError(f"t_min {t_min} > t_max {t_max}")
        keys = {wire.RecordKind.SPAT: intersection, wire.RecordKind.DRIVER_STATE: vut}
        lists = {}
        # one read transaction: the five windows see one snapshot
        with self._lock, self._conn:
            self._conn.execute("BEGIN")
            for kind, raw in _WINDOW_TABLE.items():
                read = self._read(kind, t, t_min, t_max, keys.get(kind))
                rows = _in_area(read.rows, raw.lat_column, center, radius_m)
                lists[raw.slice_list] = RawColumns(read.names, rows)
        return RawSlice(**lists)

    def _read(self, kind: wire.RecordKind, t: int, t_min: int, t_max: int, key=None) -> RawColumns:
        """The kind's rows in [t_min, t_max] (inclusive), in its order: of a
        kind with a key only that key's (none if it is None); of a kind with a
        track each track's row nearest t, of two equally near the earlier, and
        none 2**63 ms or more from t."""
        raw = RAW_TABLE[kind]
        if raw.track:  # a t past sqlite's integers lies past every row, as its clamp does
            t_min, t_max = max(t_min, t - _SQL_INT_MAX), min(t_max, t + _SQL_INT_MAX)
        if raw.key and (key is None or _sql_range(key, key) is None):  # no row holds it
            t_min, t_max, key = 1, 0, 0
        lo, hi = _sql_range(t_min, t_max) or (1, 0)  # no row, but the column names
        with self._lock:
            cur = self._conn.execute(_SELECT_WINDOW[kind], {"lo": lo, "hi": hi, "t": _sql_int(t), "key": key})
            return RawColumns([d[0] for d in cur.description], cur.fetchall())

    def _vut_fix(self, vut: StationId, t: int, t_min: int, t_max: int) -> RawVutSensor | None:
        return next(map(_row_to_vut, self._read(wire.RecordKind.VUT_SENSOR, t, t_min, t_max, vut).rows), None)

    def vut_fix_near(self, vut: StationId, t: int, tolerance_ms: int) -> RawVutSensor | None:
        """The VUT sensor row nearest t within the tolerance, or None; of two
        equally near, the earlier."""
        return self._vut_fix(vut, t, t - tolerance_ms, t + tolerance_ms)

    def vut_fixes(self, vut: StationId, t_min: int, t_max: int) -> RawVutSensor | None:
        """The VUT's latest sensor row in [t_min, t_max], or None: the row
        nearest t_max cut to sqlite's integers, so none 2**63 ms or more below."""
        return self._vut_fix(vut, _sql_int(t_max), t_min, t_max)

    def environment_candidates(self, t: int) -> list[EnvironmentSample]:
        """Samples whose validity window contains t, regardless of area, in (timestamp, station)
        order: the wire carries a validity of at most 0xFFFF s, so the read is [t - 0xFFFF s, t]."""
        t = _sql_int(t)
        rows = self._read(wire.RecordKind.ENVIRONMENT, t, t - 0xFFFF * 1000, t).rows
        return [_environment_from_columns(r[1:15]) for r in rows if r[1] + r[2] * 1000 >= t]

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
            _insert(self._conn, "INSERT INTO map_topology", (
                (topo.intersection_id, lane.lane_id, lane.signal_group, lane.ingress,
                 _polyline_json(lane.polyline))
                for lane in topo.lanes
            ))

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
        """Each child table's rows, in order, through ``_insert``."""
        lanes = s.topology.lanes if s.topology is not None else ()
        o = s.objects
        seq = np.repeat(np.arange(len(o)), o.counts)
        entry_seq = np.arange(len(seq)) - np.repeat(np.cumsum(o.counts) - o.counts, o.counts)
        for table, rows in (
            ("fused_object", zip(repeat(sid), range(len(o)), *(a.tolist() for a in (
                o.fused_id, o.classification, o.lat, o.lon, o.speed, o.course)), o.lane_id)),
            ("provenance", zip(repeat(sid), *(a.tolist() for a in (
                seq, entry_seq, o.source, o.reporter, o.object_id)))),
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
            _insert(self._conn, f"INSERT INTO {table}", rows)

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
            objects = _fused_columns(c.execute(
                "SELECT seq, fused_id, classification, lat, lon, speed, course, lane_id"
                " FROM fused_object WHERE situation_id = ? ORDER BY seq", (sid,),
            ).fetchall(), c.execute(
                "SELECT seq, source, reporter, source_object_id FROM provenance"
                " WHERE situation_id = ? ORDER BY seq, entry_seq", (sid,),
            ).fetchall())
            topology = next(iter(_topologies(c.execute(
                "SELECT intersection_id, lane_id, signal_group, ingress, phase, polyline"
                " FROM topology_lane WHERE situation_id = ? ORDER BY lane_id",
                (sid,),
            ))), None)
            vrow, drow, erow = (c.execute(f"SELECT * FROM {table} WHERE situation_id = ?", (sid,)).fetchone()
                                for table in ("vut_sensor", "driver_state", "environment"))
            hazards = tuple(map(hazard_from_columns, c.execute(
                "SELECT source, kind, timestamp_ms, lat, lon FROM hazard"
                " WHERE situation_id = ? ORDER BY entry_seq",
                (sid,),
            )))
        return SituationRecord(
            situation_id=sid, center=GeoPosition(clat, clon), radius_m=radius, timestamp=timestamp, vut=vut,
            objects=objects, topology=topology, vut_sensor=_row_to_vut_extract(vrow[1:]) if vrow else None,
            driver=driver_from_columns(drow[1:]) if drow else None, hazards=hazards,
            environment=_environment_from_columns(erow[1:]) if erow else None,
        )

    def stats(self) -> dict[str, int]:
        """Row counts per raw table plus the situation total."""
        with self._lock:
            return {table: self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                    for table in RAW_TABLES + ("situation",)}


def _fused_columns(objects: list[tuple], entries: list[tuple]) -> FusedColumns:
    """fused_object rows (seq, then FusedColumns' order) and provenance rows
    (seq, source, reporter, object id), in seq order, as columns: every entry's
    source is checked (ObservationSource's ValueError), then those of no object dropped."""
    seq, *head, lane_id = list(zip(*objects)) or [()] * 8
    entry_seq, *provenance = list(zip(*entries)) or [()] * 4
    for code in dict.fromkeys(provenance[0]):
        SOURCE_BY_CODE[code]
    entry_seq = np.array(entry_seq, dtype=np.int64)
    lo = np.searchsorted(entry_seq, seq)
    counts = np.searchsorted(entry_seq, seq, side="right") - lo
    kept = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    return FusedColumns(*head, lane_id, *(np.array(a, dtype=np.int64)[kept] for a in provenance), counts)


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
    so do the read statements and time index of the kinds read by time."""

    table: str
    width: int  # column count
    # kinds read by time only: a read's ORDER BY, the time it bounds and then
    # the rest of the table's UNIQUE key, so reads are in one total order; for
    # a kind without a track also the columns of its time index
    order: tuple[str, ...] = ()
    lat_column: int = 0  # index of the lat column; lon is the next one
    slice_list: str = ""  # the RawSlice list a window fills
    track: tuple[str, ...] = ()  # if set, a read keeps each track's row nearest t; track[0] leads the key
    key: str = ""  # if set, a read is bound to one value of this column, which leads the key before track[0]


RAW_TABLE: dict[wire.RecordKind, RawTable] = {
    wire.RecordKind.CAM_EXTRACT: RawTable(
        "raw_cam", 9, ("generation_time", "originator"), 2, "cams", ("originator",)
    ),
    wire.RecordKind.CPM_DETECTION: RawTable(
        "raw_cpm_detection", 10, ("generation_time", "originator", "object_id"), 4, "cpm_detections",
        ("originator", "object_id"),
    ),
    wire.RecordKind.SPAT: RawTable(
        "raw_spat", 9, ("generation_time", "intersection_id", "signal_group"), 5, "spats",
        ("signal_group",), "intersection_id",
    ),
    wire.RecordKind.VUT_SENSOR: RawTable(  # vut_fix_near, vut_fixes
        "raw_vut_sensor", 24, ("timestamp_ms", "station"), track=("station",), key="station"
    ),
    wire.RecordKind.DRIVER_STATE: RawTable(
        "raw_driver", 10, ("timestamp_ms", "station"), 6, "driver_rows", ("station",), "station"
    ),
    wire.RecordKind.ENVIRONMENT: RawTable("raw_environment", 17, ("timestamp_ms", "station")),
    wire.RecordKind.HAZARD: RawTable(
        "raw_hazard", 7, ("timestamp_ms", "source", "kind"), 3, "hazard_rows"
    ),
}
_WINDOW_TABLE = {kind: t for kind, t in RAW_TABLE.items() if t.slice_list}
RAW_TABLES = tuple(t.table for t in RAW_TABLE.values())
# A hazard window and the environment read take the time range of their table's time index, whose columns
# are the read order, so the rows come back in order with no sort.  Stores from before SPaT and driver
# reads were keyed lose theirs.
_WINDOW_INDEX = "DROP INDEX IF EXISTS raw_spat_window; DROP INDEX IF EXISTS raw_driver_window;" + "".join(
    f"CREATE INDEX IF NOT EXISTS {t.table}_window ON {t.table} ({', '.join(t.order)});"
    for t in RAW_TABLE.values() if t.order and not t.track
)

# A track kind's read walks its UNIQUE ([key,] track[0], time, ...) index: a recursive loose scan lists the
# track[0] values inside the key, one seek each; each one's time range is an index range, of which each track
# keeps the rowid of its row nearest t, the least (|time - t|, time > t), as the bare column of the query's
# one min(), in HAVING.  The rank is one integer, and the -2**62 keeps it inside 64 bits for |time - t| <
# 2**63, where sqlite would turn it into an inexact REAL.  Only the kept rows are then read, by rowid.
_TRACK_WINDOW = (
    "WITH RECURSIVE k(x) AS (SELECT min({o}) FROM {t} WHERE {key} UNION ALL"
    " SELECT (SELECT min({o}) FROM {t} WHERE {key} AND {o} > x) FROM k WHERE x NOT NULL),"
    " p(r) AS (SELECT {t}.rowid FROM k CROSS JOIN {t} WHERE {key} AND {o} = x AND {time} BETWEEN :lo AND :hi"
    " GROUP BY {track} HAVING min((abs({time} - :t) - %d) * 2 + ({time} > :t)) NOT NULL)"
    " SELECT {t}.* FROM p CROSS JOIN {t} ON {t}.rowid = r" % 2**62
)
_SELECT_WINDOW = {
    kind: (_TRACK_WINDOW.format(t=t.table, o=t.track[0], time=t.order[0], track=", ".join(t.track),
                                key=f"{t.key} = :key" if t.key else "1")
           if t.track else
           f"SELECT * FROM {t.table} WHERE {t.order[0]} BETWEEN :lo AND :hi")
    + f" ORDER BY {', '.join(t.order)}"
    for kind, t in RAW_TABLE.items() if t.order
}
