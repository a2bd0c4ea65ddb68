import pytest
from hypothesis import given
from hypothesis import strategies as st

from situfuse.geo import GeoPosition
from situfuse.messages import (
    CamExtract,
    CpmDetection,
    CpmExtract,
    DriverStateSample,
    EmptyDetectionList,
    EnvironmentSample,
    ObjectClassification,
    ObservationSource,
    TrafficObjectObservation,
    observation_from_cam,
    observations_from_cpm,
)

POSITIONS = st.builds(
    GeoPosition,
    st.floats(-85, 85, allow_nan=False),
    st.floats(-179, 179, allow_nan=False),
)

CAMS = st.builds(
    CamExtract,
    originator=st.integers(1, 2**32 - 1),
    generation_time=st.integers(1, 2**48),
    position=POSITIONS,
    speed=st.floats(0, 80, allow_nan=False),
    course=st.floats(0, 360, exclude_max=True, allow_nan=False),
    classification=st.sampled_from(list(ObjectClassification)),
)


def test_observation_from_cam_reference_row():
    cam = CamExtract(
        originator=201,
        generation_time=1_700_000_000_000,
        position=GeoPosition(49.2339473, 6.9828387),
        speed=10.33,
        course=90.0,
        classification=ObjectClassification.PASSENGER_CAR,
    )
    obs = observation_from_cam(cam)
    assert obs.object_id == 201
    assert obs.reporter == 201
    assert obs.source is ObservationSource.CAM_SELF_REPORT
    assert obs.position == GeoPosition(49.2339473, 6.9828387)
    assert obs.speed == 10.33
    assert obs.course == 90.0
    assert obs.classification is ObjectClassification.PASSENGER_CAR


def test_observation_from_standing_cam():
    cam = CamExtract(
        originator=9,
        generation_time=5,
        position=GeoPosition(0, 0),
        speed=0.0,
        course=0.0,
        classification=ObjectClassification.UNKNOWN,
    )
    assert observation_from_cam(cam).speed == 0.0


@given(cam=CAMS)
def test_observation_from_cam_preserves_fields(cam):
    obs = observation_from_cam(cam)
    assert obs.position == cam.position
    assert obs.speed == cam.speed
    assert obs.course == cam.course
    assert obs.classification is cam.classification
    assert obs.timestamp == cam.generation_time


def test_observations_from_cpm():
    detections = (
        CpmDetection(47, ObjectClassification.PEDESTRIAN, GeoPosition(49.2339251, 6.9826933), 1.48, 270.8),
        CpmDetection(48, ObjectClassification.PEDESTRIAN, GeoPosition(49.2339224, 6.9824532), 2.57, 356.0),
    )
    cpm = CpmExtract(originator=500, generation_time=1_700_000_000_000, detections=detections)
    obs = observations_from_cpm(cpm)
    assert len(obs) == 2
    first = obs[0]
    assert first.object_id == 47
    assert first.source is ObservationSource.CPM_DETECTION
    assert first.reporter == 500
    assert first.position == GeoPosition(49.2339251, 6.9826933)
    assert first.speed == 1.48
    assert first.course == 270.8


def test_cpm_without_detections_rejected():
    with pytest.raises(EmptyDetectionList):
        CpmExtract(originator=500, generation_time=1, detections=())


def test_classification_codes():
    assert ObjectClassification(5) is ObjectClassification.PASSENGER_CAR
    assert ObjectClassification(1) is ObjectClassification.PEDESTRIAN
    assert ObjectClassification(99) is ObjectClassification.UNKNOWN


def test_classification_round_trips_every_member():
    for member in ObjectClassification:
        assert ObjectClassification(int(member)) is member


def test_classification_display_name():
    assert ObjectClassification.PASSENGER_CAR.display_name == "PASSENGER CAR"
    assert ObjectClassification.PEDESTRIAN.display_name == "PEDESTRIAN"


def test_observation_validation():
    position = GeoPosition(49.0, 7.0)
    with pytest.raises(ValueError):
        TrafficObjectObservation(
            1, ObjectClassification.UNKNOWN, position, -1.0, 0.0, 1,
            ObservationSource.CAM_SELF_REPORT, 1,
        )
    with pytest.raises(ValueError):
        TrafficObjectObservation(
            1, ObjectClassification.UNKNOWN, position, 1.0, 360.0, 1,
            ObservationSource.CAM_SELF_REPORT, 1,
        )
    with pytest.raises(ValueError):
        TrafficObjectObservation(
            1, ObjectClassification.UNKNOWN, position, 1.0, 0.0, 0,
            ObservationSource.CAM_SELF_REPORT, 1,
        )


def test_driver_sample_scale_bounds():
    DriverStateSample(timestamp=1, valence=1, arousal=5)
    with pytest.raises(ValueError):
        DriverStateSample(timestamp=1, valence=0, arousal=3)
    with pytest.raises(ValueError):
        DriverStateSample(timestamp=1, valence=3, arousal=6)
    with pytest.raises(ValueError):
        DriverStateSample(timestamp=1, valence=3, arousal=3, heart_rate_bpm=0)


def test_environment_sample_bounds():
    with pytest.raises(ValueError):
        EnvironmentSample(
            timestamp=1, validity_duration_s=60, area_center=GeoPosition(49, 7),
            area_radius_m=500, temperature_c=10, precipitation_mm_h=0, wind_speed_ms=1,
            wind_direction=0.0, illuminance_lux=100, visibility_m=1000, pressure_hpa=1013,
            humidity_pct=101.0, cloudiness_pct=0,
        )
