"""The whole pipeline in one script: simulate, ingest, fuse, evaluate, score.

A synthetic intersection scene produces the same message streams a real
deployment would: awareness self-reports from cooperative vehicles, camera
detections of everything in range, sensor and driver records from the test
vehicle.  Everything is ingested from delta batches, fused into one
situation, evaluated into the metrics table, and scored against the known
ground truth.
"""

from situfuse import ScenarioConfig, SituationStore, fuse_situation, generate, rows_to_csv, score
from situfuse.metrics import HANDOVER_NEAR_DISTANCE_M, evaluate_situation, handover_summary
from situfuse.simgen import NoiseSpec

cfg = ScenarioConfig(
    seed=42,
    duration_s=10.0,
    vehicle_count=12,
    pedestrian_count=4,
    cooperative_fraction=0.5,
    cam_noise=NoiseSpec(position_m=0.5, course_deg=2.0, speed_ms=0.2),
)

print("== simulate ==")
truth, envelopes = generate(cfg)
print(f"{len(truth.objects)} ground-truth objects -> {len(envelopes)} batches,"
      f" {sum(len(e.records) for e in envelopes)} records")

print("\n== ingest ==")
store = SituationStore(":memory:")
inserted = sum(store.insert_envelope(env, receive_time=k) for k, env in enumerate(envelopes))
print(f"{inserted} raw rows inserted ({dict(store.stats())})")

print("\n== fuse ==")
t = cfg.start_time_ms + 5000
record = fuse_situation(cfg.vut_station, t, store)
print(f"situation {record.situation_id}: {len(record.objects)} fused objects,"
      f" driver={'yes' if record.driver else 'no'},"
      f" vut sensors={'yes' if record.vut_sensor else 'no'}")

print("\n== evaluate ==")
rows = evaluate_situation(record)
print(rows_to_csv(rows))
summary = handover_summary(rows, driver=record.driver, hazards=record.hazards)
print("handover:", "SUITABLE" if summary.suitable else "UNSUITABLE",
      f"(min TTI {summary.min_tti_ms} ms, {summary.near_object_count} objects"
      f" closer than {HANDOVER_NEAR_DISTANCE_M:g} m)")

print("\n== score against ground truth ==")
result = score(truth, record)
print(f"precision {result.precision:.3f}, recall {result.recall:.3f},"
      f" duplicate rate {result.duplicate_rate:.3f}"
      f" ({result.matched}/{result.truth_in_area} matched)")
store.close()
