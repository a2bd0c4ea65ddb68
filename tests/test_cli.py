import json
import socket
import threading

import pytest

from situfuse.cli import (
    EXIT_OK,
    EXIT_USER,
    main,
    send_frames,
    serve_ingest,
    situation_geojson,
)
from situfuse.fusion import fuse_situation
from situfuse.simgen import ScenarioConfig, generate
from situfuse.store import SituationStore
from situfuse import wire
from conftest import REFERENCE_T0, REFERENCE_VUT, reference_raw_rows

from test_stressmap import validate_geojson


@pytest.fixture
def workdir(tmp_path):
    config = {"store_path": str(tmp_path / "store.db")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    scenario = ScenarioConfig(seed=21, duration_s=5.0, vehicle_count=5, pedestrian_count=2)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario.to_dict()))
    return tmp_path, str(config_path), str(scenario_path), scenario


def run(*argv):
    return main(list(argv))


def test_pipeline_simulate_ingest_fuse_eval(workdir, capsys):
    tmp_path, config, scenario_path, scenario = workdir
    out_dir = tmp_path / "batches"

    assert run("--config", config, "simulate", "--scenario", scenario_path, "--out", str(out_dir)) == EXIT_OK
    ksb_files = sorted(out_dir.glob("*.ksb"))
    assert ksb_files
    assert (out_dir / "ground_truth.json").exists()

    assert run("--config", config, "ingest", *map(str, ksb_files)) == EXIT_OK
    first_report = capsys.readouterr().out.splitlines()[-1]
    assert "0 duplicates skipped" in first_report

    # re-ingestion is idempotent
    assert run("--config", config, "ingest", *map(str, ksb_files)) == EXIT_OK
    second_report = capsys.readouterr().out.splitlines()[-1]
    assert "0 duplicates skipped" not in second_report

    at = scenario.start_time_ms + 2000
    assert run("--config", config, "fuse", "--vut", str(scenario.vut_station), "--at", str(at)) == EXIT_OK
    fuse_line = capsys.readouterr().out
    assert "situation 1:" in fuse_line

    csv_path = tmp_path / "rows.csv"
    assert run("--config", config, "eval", "--situation", "1", "--csv", str(csv_path)) == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "ID,Classification,Lat,Lon,Speed,Course,Distance,TTI_OBJ,TTI_VUT,RU"
    assert len(lines) > 1

    # eval twice produces identical bytes
    csv_path2 = tmp_path / "rows2.csv"
    assert run("--config", config, "eval", "--situation", "1", "--csv", str(csv_path2)) == EXIT_OK
    assert csv_path.read_bytes() == csv_path2.read_bytes()

    geojson_path = tmp_path / "situation.geojson"
    assert run("--config", config, "export", "--situation", "1", "--geojson", str(geojson_path)) == EXIT_OK
    doc = json.loads(geojson_path.read_text())
    assert doc["type"] == "FeatureCollection"
    assert any(f["properties"].get("vut") for f in doc["features"])

    stress_path = tmp_path / "stress.geojson"
    assert run(
        "--config", config, "stressmap", "--vut", str(scenario.vut_station),
        "--geojson", str(stress_path),
    ) == EXIT_OK
    validate_geojson(stress_path.read_text())

    assert run("--config", config, "stats") == EXIT_OK
    stats_out = capsys.readouterr().out
    assert "raw_cam" in stats_out and "situation" in stats_out


def test_fuse_unknown_vut_is_user_error(workdir, capsys):
    _, config, _, _ = workdir
    code = run("--config", config, "fuse", "--vut", "12345", "--at", "1700000000000")
    assert code == EXIT_USER
    assert "NoVutFix" in capsys.readouterr().err


def test_eval_unknown_situation_is_user_error(workdir, capsys):
    _, config, _, _ = workdir
    assert run("--config", config, "eval", "--situation", "99") == EXIT_USER


def test_bad_config_is_user_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_key": 1}))
    assert run("--config", str(bad), "stats") == EXIT_USER


def test_deprecated_speed_floor_key_still_fuses(workdir, capsys):
    tmp_path, _, scenario_path, scenario = workdir
    config = tmp_path / "old_config.json"
    config.write_text(json.dumps({"store_path": str(tmp_path / "old.db"), "speed_floor_ms": 0.5}))
    out_dir = tmp_path / "batches"
    assert run("--config", str(config), "simulate", "--scenario", scenario_path, "--out", str(out_dir)) == EXIT_OK
    assert run("--config", str(config), "ingest", *map(str, sorted(out_dir.glob("*.ksb")))) == EXIT_OK
    at = scenario.start_time_ms + 2000
    assert run("--config", str(config), "fuse", "--vut", str(scenario.vut_station), "--at", str(at)) == EXIT_OK
    assert "situation 1:" in capsys.readouterr().out


def test_stats_totals_reflect_deduplicated_ingest(workdir, capsys):
    tmp_path, config, scenario_path, scenario = workdir
    out_dir = tmp_path / "batches"
    run("--config", config, "simulate", "--scenario", scenario_path, "--out", str(out_dir))
    envelopes = []
    for path in sorted(out_dir.glob("*.ksb")):
        envelopes.extend(wire.read_ksb(path))
    total_records = sum(len(e.records) for e in envelopes)

    run("--config", config, "ingest", *map(str, sorted(out_dir.glob("*.ksb"))))
    capsys.readouterr()
    run("--config", config, "stats")
    stats_out = capsys.readouterr().out
    raw_total = sum(
        int(line.split()[1])
        for line in stats_out.strip().splitlines()
        if line.startswith("raw_")
    )
    # identical VUT snapshots sampled by several schedule groups collapse
    assert raw_total <= total_records
    assert raw_total > 0


def test_socket_listener_ingests_frames(workdir):
    tmp_path, config, _, scenario = workdir
    store = SituationStore(str(tmp_path / "store.db"))
    _, envelopes = generate(scenario)

    ready = threading.Event()
    address = {}

    def on_ready(sockname):
        address["port"] = sockname[1]
        ready.set()

    result = {}

    def server():
        result["report"] = serve_ingest(store, "127.0.0.1", 0, connections=1, ready_callback=on_ready)

    thread = threading.Thread(target=server)
    thread.start()
    assert ready.wait(5.0)
    sent = send_frames("127.0.0.1", address["port"], envelopes)
    thread.join(5.0)
    assert not thread.is_alive()
    report = result["report"]
    assert report.batches == sent == len(envelopes)
    assert report.inserted > 0

    record = fuse_situation(scenario.vut_station, scenario.start_time_ms + 2000, store)
    assert record.objects
    store.close()


def test_situation_geojson_structure(reference_rows):
    store = SituationStore(":memory:")
    store.insert_raw(reference_raw_rows(reference_rows))
    record = fuse_situation(REFERENCE_VUT, REFERENCE_T0, store)
    doc = json.loads(situation_geojson(record))
    points = [f for f in doc["features"] if f["geometry"]["type"] == "Point"]
    assert len(points) == len(record.objects)
    assert sum(1 for f in points if f["properties"].get("vut")) == 1
    store.close()
