import dataclasses
import hashlib
import json
import statistics

import pytest

from situfuse.geo import GeoPosition, haversine_distance, to_local_enu
from situfuse.fusion import fuse_situation
from situfuse.messages import ObjectClassification
from situfuse.simgen import (
    CAMERA_STATION,
    MessageRates,
    NoiseSpec,
    GroundTruth,
    ScenarioConfig,
    TruthObject,
    generate,
    score,
)
from situfuse.store import SituationStore
from situfuse import simgen, wire
from object_decode import rows_from_envelope


def quiet(cfg=None, **overrides):
    base = dict(
        seed=11,
        duration_s=6.0,
        vehicle_count=6,
        pedestrian_count=2,
        cooperative_fraction=0.5,
        camera_radius_m=300.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def ingest(envelopes):
    store = SituationStore(":memory:")
    for k, env in enumerate(envelopes):
        store.insert_envelope(env, receive_time=k)
    return store


def test_zero_objects_yields_only_vut_records():
    cfg = quiet(vehicle_count=0, pedestrian_count=0)
    truth, envelopes = generate(cfg)
    assert len(truth.objects) == 1  # just the VUT
    stations = {env.meta.station for env in envelopes}
    assert stations == {cfg.vut_station, CAMERA_STATION}
    # the camera only ever saw the VUT
    for env in envelopes:
        if env.meta.station == CAMERA_STATION:
            for raw in rows_from_envelope(env, 0):
                assert raw.detection.object_id == 1000  # camera track of object 0


def test_same_seed_is_byte_identical():
    cfg = quiet()
    _, first = generate(cfg)
    _, second = generate(cfg)
    assert [wire.encode_batch(e) for e in first] == [wire.encode_batch(e) for e in second]


def test_different_seed_differs():
    _, first = generate(quiet(seed=1))
    _, second = generate(quiet(seed=2))
    assert [wire.encode_batch(e) for e in first] != [wire.encode_batch(e) for e in second]


@pytest.mark.parametrize(
    "cfg, digest",
    [
        (
            ScenarioConfig(seed=3, duration_s=4.0, vehicle_count=4, pedestrian_count=2),
            "4549a20fc8fd1a828d7c180749a43ef1ad5bc00968b3d61976d21c291cda0f7c",
        ),
        (
            ScenarioConfig(
                seed=5, duration_s=3.0, vehicle_count=6, pedestrian_count=3,
                rates=MessageRates(cam_hz=10.0, cpm_hz=10.0, vut_hz=10.0, driver_hz=2.0),
            ),
            "bbabf02bb59576f515fb6034aa154257cac638712e9561888fdc8b0fe92617b1",
        ),
        (  # a small camera radius: some camera instants see no object
            ScenarioConfig(
                seed=8, duration_s=5.0, vehicle_count=3, pedestrian_count=1,
                cooperative_fraction=1.0, camera_radius_m=40.0,
                rates=MessageRates(cam_hz=2.0, cpm_hz=5.0, vut_hz=3.0, driver_hz=0.5),
            ),
            "411caf63f96301114bdb26d2888fddc88055011b18e88349b612ab789b844bc9",
        ),
    ],
    ids=["default-rates", "10hz", "sparse-camera"],
)
def test_generated_bytes_are_pinned(cfg, digest):
    """The benchmark's inputs come from simgen: any change to a simulated
    stream's bytes must show here.  Each digest is the sha256 over the
    encoded envelopes in generate()'s order."""
    h = hashlib.sha256()
    for env in generate(cfg)[1]:
        h.update(wire.encode_batch(env))
    assert h.hexdigest() == digest


def test_record_counts_match_emission_clocks():
    cfg = quiet(duration_s=8.0, vehicle_count=9, pedestrian_count=3, cooperative_fraction=1 / 3)
    truth, envelopes = generate(cfg)
    counts = {kind: 0 for kind in wire.RecordKind}
    for env in envelopes:
        for record in env.records:
            counts[record.kind] += 1

    def instants(rate_hz):
        period = max(1, round(1000 / rate_hz))
        return round(cfg.duration_s * 1000) // period + 1

    cooperative = sum(1 for o in truth.objects if o.cooperative)
    assert cooperative == 3 + 1  # a third of 9 vehicles, plus the VUT
    assert counts[wire.RecordKind.CAM_EXTRACT] == cooperative * instants(cfg.rates.cam_hz)
    # every object stays inside the camera radius in this configuration
    assert counts[wire.RecordKind.CPM_DETECTION] == len(truth.objects) * instants(cfg.rates.cpm_hz)
    assert counts[wire.RecordKind.VUT_SENSOR] == instants(cfg.rates.vut_hz)
    assert counts[wire.RecordKind.DRIVER_STATE] == instants(cfg.rates.driver_hz)


def test_scenario_bound_covers_what_generate_queues(monkeypatch):
    """The bound counts a CAM and a CPM detection of every object at every
    instant plus the VUT and driver samples: a scene exactly at the limit
    builds, and one record over it is refused."""
    cfg = quiet(vehicle_count=9, pedestrian_count=3, cooperative_fraction=1.0)
    instants = round(cfg.duration_s * 1000) // 1000 + 1  # 1 Hz CAM, CPM and driver clocks
    bound = 13 * 2 * instants + round(cfg.duration_s * 1000) // 200 + 1 + instants
    monkeypatch.setattr(simgen, "MAX_SCENARIO_RECORDS", bound)
    _, envelopes = generate(dataclasses.replace(cfg))
    # every object in range, every vehicle cooperative; pedestrians send no CAM
    assert sum(len(env.records) for env in envelopes) == bound - 3 * instants
    monkeypatch.setattr(simgen, "MAX_SCENARIO_RECORDS", bound - 1)
    with pytest.raises(ValueError, match=f"may queue {bound} records"):
        dataclasses.replace(cfg)


def test_rate_below_one_per_time_range_emits_once():
    cfg = quiet(rates=MessageRates(cam_hz=5e-324))
    counts = [r.kind for env in generate(cfg)[1] for r in env.records].count(wire.RecordKind.CAM_EXTRACT)
    assert counts == 1 + 3  # the VUT and half of 6 vehicles, at the start only


def test_truth_kinematics_advance_along_course():
    cfg = quiet()
    truth, _ = generate(cfg)
    obj = truth.objects[0]
    p0, speed, course = obj.state_at(cfg.start_time_ms)
    p1, _, _ = obj.state_at(cfg.start_time_ms + 2000)
    assert haversine_distance(p0, p1) == pytest.approx(2.0 * speed, rel=1e-3)


def test_noise_realism_bound():
    # >=10k observation errors; the empirical spread must track the
    # configured one within 15 percent.
    cfg = quiet(
        seed=3,
        duration_s=50.0,
        vehicle_count=10,
        pedestrian_count=0,
        cooperative_fraction=1.0,
        rates=MessageRates(cam_hz=20.0, cpm_hz=0.001, vut_hz=0.001, driver_hz=0.001),
        cam_noise=NoiseSpec(position_m=0.5, course_deg=2.0, speed_ms=0.2),
    )
    truth, envelopes = generate(cfg)
    by_station = {o.station: o for o in truth.objects if o.cooperative}
    east_errors, north_errors, speed_errors = [], [], []
    for env in envelopes:
        for raw in rows_from_envelope(env, 0):
            if not hasattr(raw, "cam"):
                continue
            obj = by_station[raw.cam.originator]
            true_pos, true_speed, _ = obj.state_at(raw.cam.generation_time)
            offset = to_local_enu(true_pos, raw.cam.position)
            east_errors.append(offset.east)
            north_errors.append(offset.north)
            speed_errors.append(raw.cam.speed - true_speed)
    assert len(east_errors) >= 10_000
    for errors, sigma in ((east_errors, 0.5), (north_errors, 0.5), (speed_errors, 0.2)):
        assert abs(statistics.mean(errors)) < sigma / 10
        assert abs(statistics.stdev(errors) - sigma) / sigma < 0.15


def test_score_perfect_on_noiseless_scene():
    zero = NoiseSpec(position_m=0.0, course_deg=0.0, speed_ms=0.0)
    cfg = quiet(seed=5, cam_noise=zero, cpm_noise=zero, vut_noise=zero)
    truth, envelopes = generate(cfg)
    store = ingest(envelopes)
    record = fuse_situation(cfg.vut_station, cfg.start_time_ms + 3000, store)
    result = score(truth, record)
    assert result.precision == 1.0
    assert result.recall == 1.0
    assert result.duplicate_rate == 0.0
    store.close()


def test_recall_holds_across_seeds():
    for seed in range(20):
        cfg = quiet(
            seed=seed,
            duration_s=4.0,
            vehicle_count=8,
            pedestrian_count=2,
            cooperative_fraction=0.5,
            cam_noise=NoiseSpec(position_m=0.5, course_deg=2.0, speed_ms=0.2),
            cpm_noise=NoiseSpec(position_m=0.5, course_deg=2.0, speed_ms=0.2),
        )
        truth, envelopes = generate(cfg)
        store = ingest(envelopes)
        record = fuse_situation(cfg.vut_station, cfg.start_time_ms + 2000, store)
        result = score(truth, record)
        assert result.recall >= 0.95, f"seed {seed}: {result}"
        store.close()


def test_config_round_trip_and_validation():
    default = ScenarioConfig()
    changed = ScenarioConfig(
        seed=7, duration_s=3.5, center=GeoPosition(48.1, 11.6), vehicle_count=3,
        pedestrian_count=1, cooperative_fraction=0.25, camera_radius_m=150.0, vut_station=101,
        cam_noise=NoiseSpec(0.4, 1.5, 0.1), cpm_noise=NoiseSpec(0.6, 2.5, 0.3),
        vut_noise=NoiseSpec(0.2, 0.5, 0.05), rates=MessageRates(2.0, 5.0, 10.0, 0.5),
        spawn_radius_m=80.0, start_time_ms=1_600_000_000_000,
    )
    assert all(getattr(changed, f.name) != getattr(default, f.name) for f in dataclasses.fields(default))
    for cfg in (default, changed, quiet()):  # asdict is the scenario file's layout
        assert ScenarioConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg
    with pytest.raises(ValueError):
        ScenarioConfig(cooperative_fraction=1.5)
    with pytest.raises(ValueError):
        MessageRates(cam_hz=0)


def ground_truth_from_dict(data: dict) -> GroundTruth:
    """The inverse of dataclasses.asdict(GroundTruth), the layout of ground_truth.json."""
    return GroundTruth(
        start_time_ms=data["start_time_ms"],
        duration_ms=data["duration_ms"],
        vut_station=data["vut_station"],
        objects=tuple(
            TruthObject(
                object_id=o["object_id"],
                classification=ObjectClassification(o["classification"]),
                station=o["station"],
                t0_ms=o["t0_ms"],
                position=GeoPosition(**o["position"]),
                speed=o["speed"],
                course=o["course"],
            )
            for o in data["objects"]
        ),
    )


def test_ground_truth_serialization_round_trip():
    truth, _ = generate(quiet())
    assert ground_truth_from_dict(json.loads(json.dumps(dataclasses.asdict(truth)))) == truth
