"""Operator command surface for the whole pipeline.

    situfuse simulate  --scenario s.json --out dir/
    situfuse ingest    [files.ksb ...] [--listen [HOST:PORT]] [--connections N]
    situfuse fuse      --vut ID --at TIMESTAMP_MS
    situfuse eval      --situation ID [--csv out.csv]
    situfuse export    --situation ID --geojson out.geojson
    situfuse stressmap --vut ID --geojson out.geojson [--min-count N]
    situfuse stats

All commands take --config pointing to a JSON file (defaults apply without
one).  Machine-readable results go to files, a human summary to stdout.
Exit codes: 0 success, 1 user error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

from .config import AppConfig
from .fusion import NoVutFix, fuse_situation
from .geo import feature_collection, geojson_feature
from .metrics import evaluate_situation, handover_summary, is_vut_object, rows_to_csv
from .simgen import ScenarioConfig, generate
from .situation import SituationRecord
from .store import SituationStore, StorageFailure
from .stressmap import StressMatrix, StressSample, export_geojson, tree_from_samples
from . import wire

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2
# A listener connection that sends nothing for this long is closed.
READ_TIMEOUT_S = 30.0


@dataclass
class IngestReport:
    batches: int = 0
    records: int = 0
    inserted: int = 0
    bytes_read: int = 0  # frames with their length prefixes
    decode_ms: float = 0.0  # read_ksb per file, decode_batch per listener frame
    insert_ms: float = 0.0  # insert_envelope
    rejected: Counter = field(default_factory=Counter)  # WireError/OSError class name -> count

    @property
    def duplicates_skipped(self) -> int:
        return self.records - self.inserted


def _ingest(store: SituationStore, report: IngestReport, size: int, decode) -> None:
    """Count ``size`` bytes read, decode them (``decode()``, all or nothing) and store each envelope."""
    report.bytes_read += size
    start = perf_counter()
    envelopes = decode()
    report.decode_ms += (perf_counter() - start) * 1000
    for env in envelopes:
        report.batches += 1
        report.records += len(env.records)
        start = perf_counter()
        report.inserted += store.insert_envelope(env, time.time_ns() // 1_000_000)
        report.insert_ms += (perf_counter() - start) * 1000


def serve_ingest(
    store: SituationStore,
    host: str,
    port: int,
    connections: int = 1,
    ready_callback=None,
    report: IngestReport | None = None,
) -> IngestReport:
    """Accept framed envelopes over TCP; one client per connection.

    Each frame is stored as soon as it is decoded.  A frame that fails to
    decode, a reset, or READ_TIMEOUT_S of silence ends only its connection:
    the frames before it stay stored, the reject is counted by error class,
    and the next connection is served.
    """
    report = IngestReport() if report is None else report
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((host, port))
        server.listen()
        if ready_callback is not None:
            ready_callback(server.getsockname())
        for _ in range(connections):
            conn, _addr = server.accept()
            conn.settimeout(READ_TIMEOUT_S)
            with conn, conn.makefile("rb") as stream:
                try:
                    for frame in wire.read_frames(stream):
                        _ingest(store, report, wire.FRAME_LEN.size + len(frame), lambda: [wire.decode_batch(frame)])
                except (wire.WireError, OSError) as err:
                    report.rejected[type(err).__name__] += 1
    return report


def situation_geojson(record: SituationRecord) -> str:
    """A situation as point/line features: objects, VUT, lanes, hazards."""
    lanes = record.topology.lanes if record.topology is not None else ()
    return feature_collection([
        *(geojson_feature("Point", [obj.position.lon, obj.position.lat], {
            "id": obj.fused_id,
            "classification": obj.classification.display_name,
            "speed": obj.speed,
            "course": obj.course,
            "lane_id": obj.lane_id,
            "sources": len(obj.provenance),
            "vut": is_vut_object(obj, record.vut),
        }) for obj in record.objects),
        *(geojson_feature("LineString", [[p.lon, p.lat] for p in lane.polyline], {
            "lane_id": lane.lane_id,
            "signal_group": lane.signal_group,
            "phase": lane.phase.name,
            "ingress": lane.ingress,
        }) for lane in lanes),
        *(geojson_feature("Point", [hazard.position.lon, hazard.position.lat],
                          {"hazard": hazard.kind.name, "timestamp": hazard.timestamp})
          for hazard in record.hazards),
    ])


# --- commands -----------------------------------------------------------------


def cmd_simulate(config: AppConfig, args) -> int:
    with open(args.scenario, "r", encoding="utf-8") as fp:
        scenario = ScenarioConfig.from_dict(json.load(fp))
    truth, envelopes = generate(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    by_station: dict[int, list] = {}
    for env in envelopes:
        by_station.setdefault(env.meta.station, []).append(env)
    for station, envs in sorted(by_station.items()):
        wire.write_ksb(out / f"station_{station}.ksb", envs)
    with open(out / "ground_truth.json", "w", encoding="utf-8") as fp:
        json.dump(asdict(truth), fp)
    print(
        f"simulated {len(truth.objects)} objects -> {len(envelopes)} batches"
        f" across {len(by_station)} stations in {out}"
    )
    return EXIT_OK


def cmd_ingest(config: AppConfig, args) -> int:
    if args.listen is not None:
        host, _, text = (args.listen or config.listen).rpartition(":")
        port = int(text)
        if not 0 <= port <= 0xFFFF:
            raise ValueError(f"listen port out of range 0..65535: {port}")
    report = IngestReport()
    with SituationStore(config.store_path) as store:
        for path in args.files:
            _ingest(store, report, os.path.getsize(path), lambda: wire.read_ksb(path))
        if args.listen is not None:
            serve_ingest(store, host, port, connections=args.connections, report=report)
    rejected = sum(report.rejected.values())
    by_class = ", ".join(f"{name} {n}" for name, n in sorted(report.rejected.items()))
    print(
        f"ingested {report.batches} batches, {report.records} records,"
        f" {report.duplicates_skipped} duplicates skipped,"
        f" {rejected} frames rejected" + (f" ({by_class})" if rejected else "")
        + f", {report.bytes_read} bytes read, decode {report.decode_ms:.1f} ms, insert {report.insert_ms:.1f} ms"
    )
    return EXIT_OK


def cmd_fuse(config: AppConfig, args) -> int:
    with SituationStore(config.store_path) as store:
        record = fuse_situation(
            args.vut,
            args.at,
            store,
            th=config.thresholds(),
            window_ms=config.window_ms,
            radius_m=config.radius_m,
            max_lateral_m=config.max_lateral_m,
        )
    linked = [
        name
        for name, present in (
            ("topology", record.topology is not None),
            ("vut-sensor", record.vut_sensor is not None),
            ("driver", record.driver is not None),
            ("environment", record.environment is not None),
            (f"{len(record.hazards)} hazards", bool(record.hazards)),
        )
        if present
    ]
    print(
        f"situation {record.situation_id}: {len(record.objects)} objects"
        f" at {record.timestamp} ({', '.join(linked) if linked else 'no links'})"
    )
    return EXIT_OK


def _load_situation(config: AppConfig, situation_id: int) -> SituationRecord:
    with SituationStore(config.store_path) as store:
        record = store.load_situation(situation_id)
    if record is None:
        raise LookupError(f"no situation {situation_id}")
    return record


def cmd_eval(config: AppConfig, args) -> int:
    record = _load_situation(config, args.situation)
    rows = evaluate_situation(record)
    csv_text = rows_to_csv(rows)
    if args.csv:
        Path(args.csv).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
    summary = handover_summary(
        rows,
        driver=record.driver,
        hazards=record.hazards,
        min_tti_threshold_ms=config.handover_min_tti_ms,
    )
    verdict = "SUITABLE" if summary.suitable else "UNSUITABLE"
    print(
        f"situation {args.situation}: {len(rows)} objects, min TTI"
        f" {summary.min_tti_ms if summary.min_tti_ms is not None else '-'} ms,"
        f" {summary.near_object_count} near, {summary.hazard_count} hazards"
        f" -> handover {verdict}"
    )
    return EXIT_OK


def cmd_export(config: AppConfig, args) -> int:
    record = _load_situation(config, args.situation)
    Path(args.geojson).write_text(situation_geojson(record), encoding="utf-8")
    print(f"wrote situation {args.situation} to {args.geojson}")
    return EXIT_OK


def cmd_stressmap(config: AppConfig, args) -> int:
    with SituationStore(config.store_path) as store:
        rows = store.driver_samples(args.vut)
    if not rows:
        raise LookupError(f"no driver samples of station {args.vut}")
    samples = [
        StressSample(
            position=r.position,
            timestamp=r.sample.timestamp,
            valence=r.sample.valence,
            arousal=r.sample.arousal,
        )
        for r in rows
    ]
    tree = tree_from_samples(
        samples, capacity=config.stress_capacity, max_depth=config.stress_max_depth
    )
    matrix = (
        StressMatrix.from_file(config.stress_matrix_path)
        if config.stress_matrix_path
        else StressMatrix.default()
    )
    cells = tree.cells(min_count=args.min_count, matrix=matrix)
    Path(args.geojson).write_text(export_geojson(cells), encoding="utf-8")
    print(f"stress map of {len(samples)} samples -> {len(cells)} cells in {args.geojson}")
    return EXIT_OK


def cmd_stats(config: AppConfig, args) -> int:
    with SituationStore(config.store_path) as store:
        stats = store.stats()
    for table, count in stats.items():
        print(f"{table:20s} {count}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="situfuse", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON config file (defaults used if omitted)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a scenario into batch files")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("ingest", help="ingest .ksb files and/or listen on a socket")
    p.add_argument("files", nargs="*", help=".ksb batch files")
    p.add_argument(
        "--listen",
        nargs="?",
        const="",
        default=None,
        metavar="HOST:PORT",
        help="accept framed envelopes over TCP (default address from config)",
    )
    p.add_argument("--connections", type=int, default=1, help="connections to serve before exit")
    p.set_defaults(run=cmd_ingest)

    p = sub.add_parser("fuse", help="fuse one situation for a VUT and timestamp")
    p.add_argument("--vut", type=int, required=True)
    p.add_argument("--at", type=int, required=True, help="timestamp in ms since epoch")
    p.set_defaults(run=cmd_fuse)

    p = sub.add_parser("eval", help="evaluate a stored situation into table rows")
    p.add_argument("--situation", type=int, required=True)
    p.add_argument("--csv", help="write rows to this file instead of stdout")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("export", help="export a stored situation as GeoJSON")
    p.add_argument("--situation", type=int, required=True)
    p.add_argument("--geojson", required=True)
    p.set_defaults(run=cmd_export)

    p = sub.add_parser("stressmap", help="aggregate driver stress into a cell map")
    p.add_argument("--vut", type=int, required=True)
    p.add_argument("--geojson", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.set_defaults(run=cmd_stressmap)

    p = sub.add_parser("stats", help="row counts per raw table and situations")
    p.set_defaults(run=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = AppConfig.load(args.config) if args.config else AppConfig()
    except (OSError, ValueError, TypeError) as e:
        print(f"error: bad config: {e}", file=sys.stderr)
        return EXIT_USER
    try:
        status = args.run(config, args)
        sys.stdout.flush()  # a reader that closed stdout fails here, not at exit
        return status
    except BrokenPipeError:  # stdout's reader left early, as ``| head`` does: stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (NoVutFix, LookupError, FileNotFoundError, wire.WireError, ValueError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_USER
    except (StorageFailure, OSError) as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
