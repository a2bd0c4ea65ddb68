import dataclasses
import inspect
import json
import os
import re
import signal
import socket
import sqlite3
import struct
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from situfuse.cli import (
    EXIT_OK,
    EXIT_USER,
    main,
    serve_ingest,
    situation_geojson,
)
from situfuse.config import AppConfig
from situfuse.fusion import SimilarityThresholds, fuse_situation
from situfuse.simgen import ScenarioConfig, generate
from situfuse.store import RAW_TABLES, SituationStore
from situfuse import cli, fusion, metrics, stressmap, wire
from conftest import REFERENCE_T0, REFERENCE_VUT, reference_raw_rows, send_frames

from test_stressmap import validate_geojson


@pytest.fixture
def workdir(tmp_path):
    config = {"store_path": str(tmp_path / "store.db")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    scenario = ScenarioConfig(seed=21, duration_s=5.0, vehicle_count=5, pedestrian_count=2)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(dataclasses.asdict(scenario)))
    return tmp_path, str(config_path), str(scenario_path), scenario


def run(*argv):
    return main(list(argv))


def test_pipeline_simulate_ingest_fuse_eval(workdir, capsys):
    tmp_path, config, scenario_path, scenario = workdir
    out_dir = tmp_path / "batches"

    assert run("--config", config, "simulate", "--scenario", scenario_path, "--out", str(out_dir)) == EXIT_OK
    ksb_files = sorted(out_dir.glob("*.ksb"))
    assert ksb_files
    truth = json.loads((out_dir / "ground_truth.json").read_text())
    assert truth == json.loads(json.dumps(dataclasses.asdict(generate(scenario)[0])))

    assert run("--config", config, "ingest", *map(str, ksb_files)) == EXIT_OK
    first_report = capsys.readouterr().out.splitlines()[-1]
    assert "0 duplicates skipped" in first_report

    # re-ingestion is idempotent: every record is a skipped duplicate and no table changes
    with SituationStore(json.loads(Path(config).read_text())["store_path"]) as store:
        stats = store.stats()
    assert run("--config", config, "ingest", *map(str, ksb_files)) == EXIT_OK
    second_report = capsys.readouterr().out.splitlines()[-1]
    records, skipped = map(int, re.search(r"(\d+) records, (\d+) duplicates skipped", second_report).groups())
    assert skipped == records > 0
    with SituationStore(json.loads(Path(config).read_text())["store_path"]) as store:
        assert store.stats() == stats

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


INGEST_LINE = re.compile(
    r"ingested (\d+) batches, (\d+) records, (\d+) duplicates skipped, (\d+) frames rejected,"
    r" (\d+) bytes read, decode (\d+\.\d) ms, insert (\d+\.\d) ms"
)


def test_ingest_report_shows_bytes_and_times(workdir, capsys):
    """The report line keeps its counts and adds the bytes read (frame length
    prefixes included, so the files' total size) and the decode and insert ms."""
    tmp_path, config, scenario_path, _ = workdir
    out_dir = tmp_path / "batches"
    assert run("--config", config, "simulate", "--scenario", scenario_path, "--out", str(out_dir)) == EXIT_OK
    ksb_files = sorted(out_dir.glob("*.ksb"))
    capsys.readouterr()
    assert run("--config", config, "ingest", *map(str, ksb_files)) == EXIT_OK
    line = capsys.readouterr().out.splitlines()[-1]
    batches, records, skipped, rejected, size, decode_ms, insert_ms = INGEST_LINE.fullmatch(line).groups()
    assert int(batches) == sum(len(wire.read_ksb(p)) for p in ksb_files)
    assert (int(skipped), int(rejected)) == (0, 0) and int(records) > 0
    assert int(size) == sum(p.stat().st_size for p in ksb_files)
    assert float(decode_ms) >= 0.0 and float(insert_ms) >= 0.0


def test_fuse_unknown_vut_is_user_error(workdir, capsys):
    _, config, _, _ = workdir
    code = run("--config", config, "fuse", "--vut", "12345", "--at", "1700000000000")
    assert code == EXIT_USER
    assert "NoVutFix" in capsys.readouterr().err


@pytest.mark.parametrize("at, error", [(9223372036854775000, "NoVutFix"), (2**63, "ValueError")])
def test_fuse_at_the_end_of_the_time_range_is_user_error(workdir, capsys, at, error):
    _, config, _, _ = workdir
    assert run("--config", config, "fuse", "--vut", "12345", "--at", str(at)) == EXIT_USER
    assert error in capsys.readouterr().err


def test_store_closes_when_the_with_body_raises(workdir, monkeypatch):
    """A store used as a context manager is closed on the way out of a body
    that raises, also in a command that fails inside it."""
    tmp_path, config, _, _ = workdir
    with pytest.raises(RuntimeError):
        with SituationStore(str(tmp_path / "direct.db")) as store:
            raise RuntimeError("inside the body")
    with pytest.raises(sqlite3.ProgrammingError):
        store.stats()

    opened = []

    class RecordingStore(SituationStore):
        def __init__(self, path):
            super().__init__(path)
            opened.append(self)

    monkeypatch.setattr(cli, "SituationStore", RecordingStore)
    assert run("--config", config, "fuse", "--vut", "12345", "--at", "1700000000000") == EXIT_USER
    (store,) = opened
    with pytest.raises(sqlite3.ProgrammingError):
        store.stats()


def test_eval_unknown_situation_is_user_error(workdir, capsys):
    _, config, _, _ = workdir
    assert run("--config", config, "eval", "--situation", "99") == EXIT_USER


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_eval_into_a_closed_pipe_exits_quietly(workdir, reference_rows, unbuffered):
    """`situfuse eval --situation 1 | head -1`: a stdout whose reader has
    gone ends the command with exit 0 and nothing on stderr, whether the
    write that finds it closed comes while the command prints or when the
    output is flushed at the end."""
    tmp_path, config, _, _ = workdir
    with SituationStore(json.loads(Path(config).read_text())["store_path"]) as store:
        store.insert_raw(reference_raw_rows(reference_rows))
        fuse_situation(REFERENCE_VUT, REFERENCE_T0, store)
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    try:
        done = subprocess.run(
            [sys.executable, "-m", "situfuse.cli", "--config", config, "eval", "--situation", "1"],
            stdout=write, stderr=subprocess.PIPE, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")


BEYOND_SQL_INT = "99999999999999999999"


@pytest.mark.parametrize(
    "command, error",
    [
        (["fuse", "--vut", BEYOND_SQL_INT, "--at", "1700000005000"], "error: NoVutFix: "),
        (["eval", "--situation", BEYOND_SQL_INT], "error: LookupError: no situation "),
        (["export", "--situation", BEYOND_SQL_INT, "--geojson", "x.json"], "error: LookupError: no situation "),
        (["stressmap", "--vut", BEYOND_SQL_INT, "--geojson", "s.json"], "error: LookupError: no driver samples "),
    ],
    ids=["fuse", "eval", "export", "stressmap"],
)
def test_id_beyond_sqlite_integers_is_user_error(workdir, capsys, monkeypatch, command, error):
    """An id no sqlite row can hold finds nothing; it does not overflow the bind."""
    tmp_path, config, scenario_path, _ = workdir
    monkeypatch.chdir(tmp_path)
    assert run("--config", config, "simulate", "--scenario", scenario_path, "--out", "batches") == EXIT_OK
    assert run("--config", config, "ingest", *map(str, sorted(tmp_path.glob("batches/*.ksb")))) == EXIT_OK
    capsys.readouterr()
    assert run("--config", config, *command) == EXIT_USER
    err = capsys.readouterr().err
    assert err.startswith(error) and "Traceback" not in err
    assert not (tmp_path / "x.json").exists() and not (tmp_path / "s.json").exists()


def test_bad_config_is_user_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_key": 1}))
    assert run("--config", str(bad), "stats") == EXIT_USER


@pytest.mark.parametrize(
    "config, message",
    [
        (5, "config must be a JSON object"),
        ({"store_path": 5}, "config 'store_path' must be str"),
        ({"stress_matrix_path": 5}, "config 'stress_matrix_path' must be str | None"),
        ({"window_ms": "500"}, "config 'window_ms' must be int"),
        ({"stress_capacity": True}, "config 'stress_capacity' must be int"),
        ({"radius_m": float("inf")}, "config 'radius_m' must be finite"),
        ({"max_speed_ms": float("nan")}, "config 'max_speed_ms' must be finite"),
        ({"window_ms": -1}, "config 'window_ms' must be >= 0, not -1"),
        ({"radius_m": -5.0}, "config 'radius_m' must be > 0, not -5.0"),
        ({"radius_m": 0.0}, "config 'radius_m' must be > 0, not 0.0"),
        ({"radius_m": 20000.0}, "config 'radius_m' must be <= 5000.0, not 20000.0"),
        ({"max_lateral_m": -1.0}, "config 'max_lateral_m' must be >= 0, not -1.0"),
        ({"tti_speed_floor_ms": 0.1}, "bad config: unknown config keys: ['tti_speed_floor_ms']"),
        ({"tti_speed_floor_ms": -1.0}, "bad config: unknown config keys: ['tti_speed_floor_ms']"),
        ({"tti_speed_floor_ms": 0.0}, "bad config: unknown config keys: ['tti_speed_floor_ms']"),
        ({"ru_closing_floor_ms": -0.5}, "bad config: unknown config keys: ['ru_closing_floor_ms']"),
        ({"handover_min_tti_ms": -1}, "config 'handover_min_tti_ms' must be >= 0, not -1"),
        ({"handover_near_distance_m": -1.0},
         "bad config: unknown config keys: ['handover_near_distance_m']"),
        ({"stress_capacity": 0}, "config 'stress_capacity' must be > 0, not 0"),
        ({"stress_max_depth": -1}, "config 'stress_max_depth' must be >= 0, not -1"),
        ({"max_speed_ms": 0.0}, "thresholds must be positive"),
        ({"max_position_m": -2.5}, "thresholds must be positive"),
    ],
    ids=["top_level_number", "str", "optional_str", "int", "bool", "infinity", "nan",
         "negative_window", "negative_radius", "zero_radius", "radius_past_local_plane",
         "negative_lateral", "metric_floor_key",
         "negative_speed_floor", "zero_speed_floor", "negative_closing_floor",
         "negative_handover_tti", "negative_handover_distance", "zero_capacity",
         "negative_depth", "zero_speed_threshold", "negative_position_threshold"],
)
def test_malformed_config_is_user_error(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run("--config", str(path), "stats") == EXIT_USER
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and not (tmp_path / "situfuse.db").exists()


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"seed": 1, "bogus": 1}, "unknown scenario keys: ['bogus']"),
        ({"center": {"lat": 1}}, "bad scenario 'center'"),
        ({"rates": [1, 2]}, "bad scenario 'rates'"),
        ({"seed": "x"}, "scenario 'seed' must be int"),
        ({"duration_s": "10"}, "scenario 'duration_s' must be float"),
        ({"pedestrian_count": 2.5}, "scenario 'pedestrian_count' must be int"),
        (5, "scenario must be a JSON object"),
        ({"vehicle_count": -1}, "counts must not be negative"),
        ({"duration_s": float("inf")}, "scenario 'duration_s' must be finite"),
        ({"spawn_radius_m": float("nan")}, "scenario 'spawn_radius_m' must be finite"),
        ({"cam_noise": {"position_m": float("inf")}}, "noise 'position_m' must be finite"),
        ({"cpm_noise": {"speed_ms": "0.2"}}, "noise 'speed_ms' must be float"),
        ({"rates": {"cam_hz": float("inf")}}, "rates 'cam_hz' must be finite"),
        ({"duration_s": 1e300}, "scenario ends after the last time a record can carry"),
        ({"start_time_ms": 2**63 - 5000}, "scenario ends after the last time a record can carry"),
        ({"duration_s": 1e9}, "scenario may queue 36000000032 records, more than 1000000"),
        ({"vehicle_count": 10**9, "duration_s": 1.0}, "scenario may queue 4000000028 records"),
        ({"vut_station": 4294967296, "duration_s": 2.0}, "vut_station does not fit u32: 4294967296"),
        ({"vut_station": -5, "duration_s": 2.0}, "vut_station does not fit u32: -5"),
        ({"vut_station": 201, "duration_s": 5.0, "cooperative_fraction": 1.0}, "stations clash: VUT 201"),
        ({"vut_station": 500, "duration_s": 2.0}, "stations clash: VUT 500, camera 500"),
        ({"vehicle_count": 300, "cooperative_fraction": 1.0, "duration_s": 2.0}, "range(201, 501)"),
        ({"center": {"lat": True, "lon": 7.0}}, "center 'lat' must be float, not True"),
        ({"spawn_radius_m": -50.0, "duration_s": 1.0}, "spawn radius and start time must not be negative"),
        ({"start_time_ms": -5000}, "spawn radius and start time must not be negative"),
    ],
    ids=[
        "unknown_key", "center_block", "rates_block", "seed_type", "duration_type",
        "count_type", "top_level_number", "negative_count", "duration_infinity",
        "radius_nan", "noise_infinity", "noise_type", "rate_infinity", "duration_past_time_range",
        "start_past_time_range", "duration_too_long_to_build", "too_many_objects_to_build",
        "vut_station_past_u32", "vut_station_negative", "vut_station_is_a_vehicle_station",
        "vut_station_is_the_camera_station", "vehicle_station_is_the_camera_station", "center_bool",
        "spawn_radius_negative", "start_time_negative",
    ],
)
def test_malformed_scenario_is_user_error(workdir, capsys, scenario, message):
    """Each is refused within a second, before any record is built."""
    tmp_path, config, _, _ = workdir
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "batches"

    def too_slow(*_):
        raise AssertionError("simulate ran for over a second")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        status = run("--config", config, "simulate", "--scenario", str(path), "--out", str(out_dir))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert status == EXIT_USER
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ") and message in err
    assert "Traceback" not in err and not out_dir.exists()


def _default(function, parameter):
    return inspect.signature(function).parameters[parameter].default


def test_app_config_defaults_are_the_library_defaults():
    config = AppConfig()
    assert config.thresholds() == SimilarityThresholds()
    assert (config.window_ms, config.radius_m, config.max_lateral_m) == (
        fusion.DEFAULT_WINDOW_MS, fusion.DEFAULT_RADIUS_M, fusion.DEFAULT_MAX_LATERAL_M
    )
    assert config.handover_min_tti_ms == metrics.HANDOVER_MIN_TTI_MS
    assert (config.stress_capacity, config.stress_max_depth) == (
        stressmap.DEFAULT_CAPACITY, stressmap.DEFAULT_MAX_DEPTH
    )
    # the calls the commands make with a default config equal the bare library calls
    for name in ("window_ms", "radius_m", "max_lateral_m"):
        assert _default(fuse_situation, name) == getattr(config, name), name
    assert _default(fusion.link_lanes, "max_lateral_m") == config.max_lateral_m
    assert _default(metrics.handover_summary, "min_tti_threshold_ms") == config.handover_min_tti_ms
    assert _default(stressmap.tree_from_samples, "capacity") == config.stress_capacity
    assert _default(stressmap.tree_from_samples, "max_depth") == config.stress_max_depth


def test_deprecated_speed_floor_key_still_fuses(workdir, capsys):
    """A config file that sets the deleted options speed_floor_ms and
    vda_schedule_ms still loads, and their values are dropped."""
    tmp_path, _, scenario_path, scenario = workdir
    assert not {"speed_floor_ms", "vda_schedule_ms"} & {f.name for f in dataclasses.fields(AppConfig())}
    config = tmp_path / "old_config.json"
    store_path = str(tmp_path / "old.db")
    config.write_text(json.dumps(
        {"store_path": store_path, "speed_floor_ms": 0.5, "vda_schedule_ms": {"gnss": 200}}
    ))
    assert AppConfig.load(config) == AppConfig(store_path=store_path)
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


@pytest.mark.parametrize(
    "listen, config_listen",
    [("127.0.0.1:99999", None), ("", "127.0.0.1:99999"), ("127.0.0.1:-1", None)],
    ids=["option", "config", "negative"],
)
def test_listen_port_out_of_range_is_user_error(tmp_path, capsys, monkeypatch, listen, config_listen):
    """A port outside 0..65535 is refused before any socket or store is opened."""
    def no_socket(*_, **__):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(cli.socket, "socket", no_socket)
    config = {"store_path": str(tmp_path / "store.db")}
    if config_listen is not None:
        config["listen"] = config_listen
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run("--config", str(path), "ingest", "--listen", listen) == EXIT_USER
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: listen port out of range 0..65535: ")
    assert "Traceback" not in err and not (tmp_path / "store.db").exists()


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


def _framed(env) -> bytes:
    frame = wire.encode_batch(env)
    return struct.pack("<I", len(frame)) + frame


# a good length-prefixed frame made bad, by the error it must be rejected with
FRAME_FAULTS = {
    "BadMagic": lambda framed: framed[:4] + b"XXXX" + framed[8:],
    "Truncated": lambda framed: framed[:-3],  # the client closes mid-frame
    "FrameTooLarge": lambda framed: struct.pack("<I", wire.MAX_FRAME + 1) + framed[4:],
}


def _serve_two_connections(store, first_client, second):
    """A two-connection listener: ``first_client(port)`` opens the first
    connection, then send_frames sends ``second`` on the other."""
    ready = threading.Event()
    address, result = {}, {}

    def on_ready(sockname):
        address["port"] = sockname[1]
        ready.set()

    def server():
        result["report"] = serve_ingest(store, "127.0.0.1", 0, connections=2, ready_callback=on_ready)

    thread = threading.Thread(target=server)
    thread.start()
    assert ready.wait(5.0)
    first_client(address["port"])
    send_frames("127.0.0.1", address["port"], second)
    thread.join(10.0)
    assert not thread.is_alive()
    return result["report"]


def _assert_every_frame_stored(store, report, envelopes):
    assert report.batches == len(envelopes)
    expected = SituationStore(":memory:")
    assert report.inserted == sum(expected.insert_envelope(env, 0) for env in envelopes) > 0
    assert store.stats() == expected.stats()
    expected.close()


def test_listener_stamps_each_frame_with_its_own_receive_time(workdir, monkeypatch):
    """Two frames on one connection: each frame's rows carry the clock read
    when that frame arrived, not when the connection was accepted."""
    _, _, _, scenario = workdir
    _, envelopes = generate(scenario)
    frames = envelopes[:2]
    seconds = iter(range(1, 100))
    monkeypatch.setattr(cli, "time", SimpleNamespace(time_ns=lambda: next(seconds) * 10**9))
    store, expected = SituationStore(":memory:"), SituationStore(":memory:")

    def first_client(port):
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(b"".join(map(_framed, frames)))

    assert _serve_two_connections(store, first_client, []).batches == 2
    for k, env in enumerate(frames, start=1):
        expected.insert_envelope(env, receive_time=k * 1000)

    def rows(s):
        return {t: s._conn.execute(f"SELECT * FROM {t} ORDER BY rowid").fetchall() for t in RAW_TABLES}

    assert rows(store) == rows(expected)
    assert {r[-1] for table in rows(store).values() for r in table} == {1000, 2000}
    store.close()
    expected.close()


def test_listener_reports_the_bytes_of_each_frame(workdir):
    """Frames on two connections: the bytes read are every frame with its
    length prefix, and the decode and insert times are counted."""
    _, _, _, scenario = workdir
    _, envelopes = generate(scenario)
    first, second = envelopes[:2], envelopes[2:]
    store = SituationStore(":memory:")

    def first_client(port):
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(b"".join(map(_framed, first)))

    report = _serve_two_connections(store, first_client, second)
    assert report.batches == len(envelopes) and not report.rejected
    assert report.bytes_read == sum(map(len, map(_framed, envelopes)))
    assert report.decode_ms > 0.0 and report.insert_ms > 0.0
    store.close()


@pytest.mark.parametrize("fault", sorted(FRAME_FAULTS))
def test_bad_frame_ends_only_its_connection(workdir, fault):
    """Good frames, then a bad one, then a second connection: the good frames
    of both connections are stored and the bad frame is counted."""
    _, _, _, scenario = workdir
    _, envelopes = generate(scenario)
    first, bad, second = envelopes[:2], envelopes[2], envelopes[2:]  # the bad frame is re-sent
    store = SituationStore(":memory:")

    def first_client(port):
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(b"".join(map(_framed, first)) + FRAME_FAULTS[fault](_framed(bad)))

    report = _serve_two_connections(store, first_client, second)
    assert report.rejected == {fault: 1}
    _assert_every_frame_stored(store, report, envelopes)
    store.close()


def test_reset_client_ends_only_its_connection(workdir):
    """Good frames and part of one more, then a reset (an RST, not a FIN):
    the listener serves the next connection and counts the reset."""
    _, _, _, scenario = workdir
    _, envelopes = generate(scenario)
    first, second = envelopes[:2], envelopes[2:]
    store = SituationStore(":memory:")

    def first_client(port):
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(b"".join(map(_framed, first)) + _framed(second[0])[:-3])
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

    report = _serve_two_connections(store, first_client, second)
    assert report.rejected == {"ConnectionResetError": 1}
    _assert_every_frame_stored(store, report, envelopes)
    store.close()


def test_silent_client_ends_only_its_connection(workdir, monkeypatch):
    """Good frames, then silence with the connection held open: after the
    read timeout the listener serves the next connection."""
    monkeypatch.setattr(cli, "READ_TIMEOUT_S", 0.2)
    _, _, _, scenario = workdir
    _, envelopes = generate(scenario)
    first, second = envelopes[:2], envelopes[2:]
    store = SituationStore(":memory:")
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as silent:

        def first_client(port):
            silent.connect(("127.0.0.1", port))
            silent.sendall(b"".join(map(_framed, first)))

        report = _serve_two_connections(store, first_client, second)
    assert report.rejected == {"TimeoutError": 1}
    _assert_every_frame_stored(store, report, envelopes)
    store.close()


def test_file_ingest_with_a_bad_frame_stores_nothing(workdir, capsys):
    tmp_path, config, _, scenario = workdir
    _, envelopes = generate(scenario)
    path = tmp_path / "bad.ksb"
    bad = FRAME_FAULTS["BadMagic"](_framed(envelopes[-1]))
    path.write_bytes(b"".join(map(_framed, envelopes[:-1])) + bad)
    assert run("--config", config, "ingest", str(path)) == EXIT_USER
    assert "BadMagic" in capsys.readouterr().err
    with SituationStore(AppConfig.load(config).store_path) as store:
        assert sum(n for table, n in store.stats().items() if table.startswith("raw_")) == 0


def test_situation_geojson_structure(reference_rows):
    store = SituationStore(":memory:")
    store.insert_raw(reference_raw_rows(reference_rows))
    record = fuse_situation(REFERENCE_VUT, REFERENCE_T0, store)
    doc = json.loads(situation_geojson(record))
    points = [f for f in doc["features"] if f["geometry"]["type"] == "Point"]
    assert len(points) == len(record.objects)
    assert sum(1 for f in points if f["properties"].get("vut")) == 1
    store.close()
