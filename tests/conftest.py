"""Shared fixtures: the reference object table and independent oracles.

The reference table (tests/data/reference_objects.csv) is a recorded
intersection snapshot used as a regression fixture: cars are self-reports,
pedestrians are camera detections.  The distance/TTI/RU columns in it came
from an unknown observer state, so only classification, position, speed and
course are reproduction targets; the rest is diagnostic.
"""

import csv
import math
import socket
from dataclasses import dataclass
from pathlib import Path

import pytest

from situfuse.geo import GeoPosition
from situfuse.messages import (
    CamExtract,
    CpmDetection,
    DoorState,
    ExteriorLight,
    ObjectClassification,
    ObservationSource,
    VutSensorExtract,
)
from situfuse.simgen import MessageRates, ScenarioConfig, generate
from situfuse.store import RawCam, RawCpmDetection, RawVutSensor, SituationStore
from situfuse import wire
from object_decode import table_rows

DATA_DIR = Path(__file__).parent / "data"

REFERENCE_T0 = 1_700_000_000_000
REFERENCE_VUT = 999
REFERENCE_CAMERA = 500
REFERENCE_VUT_POSITION = GeoPosition(49.2340500, 6.9826500)


@dataclass(frozen=True)
class ReferenceRow:
    object_id: int
    classification: str
    lat: str
    lon: str
    speed: str
    course: str
    distance: str
    tti_obj: str
    tti_vut: str
    ru: str


@pytest.fixture(scope="session")
def reference_rows() -> list[ReferenceRow]:
    with open(DATA_DIR / "reference_objects.csv", newline="") as fp:
        return [
            ReferenceRow(
                object_id=int(r["ID"]),
                classification=r["Classification"],
                lat=r["Lat"],
                lon=r["Lon"],
                speed=r["Speed"],
                course=r["Course"],
                distance=r["Distance"],
                tti_obj=r["TTI_OBJ"],
                tti_vut=r["TTI_VUT"],
                ru=r["RU"],
            )
            for r in csv.DictReader(fp)
        ]


def reference_raw_rows(rows: list[ReferenceRow]):
    """The table as raw-table rows by kind: cars as self-reports, pedestrians
    as detections of one camera station, plus a VUT fix to anchor the window."""
    raw = []
    for row in rows:
        position = GeoPosition(float(row.lat), float(row.lon))
        speed = float(row.speed)
        course = float(row.course)
        if row.classification == "PASSENGER CAR":
            raw.append(
                RawCam(
                    cam=CamExtract(
                        originator=row.object_id,
                        generation_time=REFERENCE_T0,
                        position=position,
                        speed=speed,
                        course=course,
                        classification=ObjectClassification.PASSENGER_CAR,
                    ),
                    reporter=row.object_id,
                    receive_time=1,
                )
            )
        else:
            raw.append(
                RawCpmDetection(
                    originator=REFERENCE_CAMERA,
                    generation_time=REFERENCE_T0,
                    detection=CpmDetection(
                        object_id=row.object_id,
                        classification=ObjectClassification.PEDESTRIAN,
                        position=position,
                        speed=speed,
                        course=course,
                    ),
                    reporter=REFERENCE_CAMERA,
                    receive_time=1,
                )
            )
    raw.append(
        RawVutSensor(
            station=REFERENCE_VUT,
            extract=make_vut_extract(REFERENCE_T0, REFERENCE_VUT_POSITION, speed=5.0),
            reporter=REFERENCE_VUT,
            receive_time=1,
        )
    )
    return table_rows(raw)


def simulated_scene(seed: int, cam_hz: float, cpm_hz: float):
    """A simgen scene of 12 vehicles and 4 pedestrians at the given CAM and
    CPM rates, the VUT's fixes at 10 Hz, ingested into an in-memory store:
    (config, ground truth, store)."""
    cfg = ScenarioConfig(
        seed=seed, vehicle_count=12, pedestrian_count=4,
        rates=MessageRates(cam_hz=cam_hz, cpm_hz=cpm_hz, vut_hz=10.0, driver_hz=1.0),
    )
    truth, envelopes = generate(cfg)
    store = SituationStore(":memory:")
    for k, env in enumerate(envelopes):
        store.insert_envelope(env, receive_time=k)
    return cfg, truth, store


def make_vut_extract(timestamp: int, gnss: GeoPosition, speed: float = 5.0) -> VutSensorExtract:
    return VutSensorExtract(
        timestamp=timestamp,
        brake_actuated=False,
        abs_active=False,
        panic_braking=False,
        clutch_pressed=False,
        gear=3,
        door_positions=(DoorState.CLOSED,) * 4,
        exterior_lights=ExteriorLight.NONE,
        gnss=gnss,
        speed=speed,
        accel_longitudinal=0.0,
        accel_lateral=0.0,
        rain_intensity=0,
        wiper_active=False,
        yaw_rate=0.0,
        steering_wheel_angle=0.0,
        steering_wheel_velocity=0.0,
    )


@pytest.fixture
def reference_store(reference_rows):
    store = SituationStore(":memory:")
    store.insert_raw(reference_raw_rows(reference_rows))
    yield store
    store.close()


def send_frames(host: str, port: int, envelopes) -> int:
    """Client side of the ingest listener: push envelopes over one connection."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.connect((host, port))
        with sock.makefile("wb") as stream:
            return wire.write_frames(stream, envelopes)


# --- independent similarity/grouping oracle ---------------------------------


def oracle_haversine(lat1, lon1, lat2, lon2):
    """Textbook haversine, written independently of the package."""
    r = 6_371_008.8
    p1, p2 = math.radians(lat1), math.radians(lat2)
    a = (
        math.sin(math.radians(lat2 - lat1) / 2) ** 2
        + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2
    )
    return 2 * r * math.asin(min(1.0, math.sqrt(a)))


def oracle_similar(a, b, max_pos=2.5, max_course=15.0, max_speed=1.5):
    if abs(a.speed - b.speed) > max_speed:
        return False
    d = abs(a.course - b.course) % 360.0
    if min(d, 360.0 - d) > max_course:
        return False
    if a.classification != b.classification and 0 not in (
        int(a.classification),
        int(b.classification),
    ):
        return False
    return (
        oracle_haversine(a.position.lat, a.position.lon, b.position.lat, b.position.lon)
        <= max_pos
    )


def oracle_components(observations, max_pos=2.5, max_course=15.0, max_speed=1.5):
    """Brute-force all-pairs connected components of the similarity relation.

    Builds the full n x n similarity matrix (no bucketing, no pruning) and
    floods it; deliberately a different construction than the tested path.
    """
    import numpy as np

    n = len(observations)
    if n == 0:
        return frozenset()
    lat = np.array([o.position.lat for o in observations])
    lon = np.array([o.position.lon for o in observations])
    course = np.array([o.course for o in observations])
    speed = np.array([o.speed for o in observations])
    cls = np.array([int(o.classification) for o in observations])

    similar = np.abs(speed[:, None] - speed[None, :]) <= max_speed
    d = np.abs(course[:, None] - course[None, :]) % 360.0
    similar &= np.minimum(d, 360.0 - d) <= max_course
    similar &= (cls[:, None] == cls[None, :]) | (cls[:, None] == 0) | (cls[None, :] == 0)
    p1 = np.radians(lat)[:, None]
    p2 = np.radians(lat)[None, :]
    h = (
        np.sin(np.radians(lat[:, None] - lat[None, :]) / 2) ** 2
        + np.cos(p1) * np.cos(p2) * np.sin(np.radians(lon[:, None] - lon[None, :]) / 2) ** 2
    )
    dist = 2 * 6_371_008.8 * np.arcsin(np.minimum(1.0, np.sqrt(h)))
    similar &= dist <= max_pos
    # a station's self-report and its own sensor row are one object by identity
    own = [(o.source, o.reporter, o.object_id) for o in observations]
    for k, (source, reporter, object_id) in enumerate(own):
        if source is ObservationSource.CAM_SELF_REPORT:
            for m, other in enumerate(own):
                if other == (ObservationSource.VUT_LOCAL_SENSOR, reporter, object_id):
                    similar[k, m] = similar[m, k] = True

    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        stack, group = [start], []
        seen[start] = True
        while stack:
            k = stack.pop()
            group.append(k)
            for m in np.nonzero(similar[k])[0]:
                if not seen[m]:
                    seen[m] = True
                    stack.append(int(m))
        components.append(frozenset(group))
    return frozenset(components)
