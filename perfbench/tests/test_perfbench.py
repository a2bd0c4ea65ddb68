"""Tests of the benchmark itself: seeded inputs, output checks, the layer trace.

Run from the repository root:  python3 -m pytest perfbench/tests -q

Most tests shrink the scenes and cycles (the `small` fixture) so that they
take seconds; `test_full_size_stream_is_seeded` covers the real input sizes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from situfuse import fusion  # noqa: E402
from situfuse.store import SituationStore  # noqa: E402

from perfbench import run, scenes, workloads  # noqa: E402
from perfbench.trace import FUSION_GLOBALS, STORE_METHODS, Tracer, installed  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}

SEED = 5
HELD_OUT_SEED = 20261017  # used by no figure in perfbench/README.md


@pytest.fixture
def small(monkeypatch):
    """Scenes and cycles small enough for a unit test; the code paths are the real ones."""
    monkeypatch.setattr(
        scenes,
        "DENSE",
        dict(scenes.DENSE, duration_s=10.0, vehicle_count=20, pedestrian_count=5, spawn_radius_m=60.0),
    )
    monkeypatch.setattr(
        scenes,
        "HISTORY",
        dict(scenes.HISTORY, duration_s=10.0, vehicle_count=12, pedestrian_count=4),
    )
    monkeypatch.setattr(scenes, "HISTORY_SCENES", 3)
    monkeypatch.setattr(workloads, "PARTS", dict.fromkeys(workloads.PARTS, 2))
    monkeypatch.setattr(workloads, "READBACK_CALLS", 6)
    monkeypatch.setattr(workloads, "DENSE_CYCLE", 8)
    monkeypatch.setattr(workloads, "HISTORY_VISITS", 2)


def _run(name, seed, tmp_path, trace=False, tag="a"):
    workdir = tmp_path / f"{name}-{seed}-{int(trace)}-{tag}"
    workdir.mkdir()
    workload = workloads.Workload(name, seed, 0.0, str(workdir))
    metrics = workload.run(trace=trace)
    return workload, metrics


# --- trace machinery ------------------------------------------------------------


def test_spans_nest_by_parent_and_self_time_is_never_negative():
    tracer = Tracer()
    with tracer.request("fuse"):
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(1000))
            with tracer.span("c"):
                pass
        with tracer.span("d"):
            pass
    with tracer.request("eval"):
        with tracer.span("e"):
            pass
    names = [s[0] for s in tracer.spans]
    assert names == ["request.fuse", "a", "b", "c", "d", "request.eval", "e"]
    parents = [s[3] for s in tracer.spans]
    assert parents == [-1, 0, 1, 1, 0, -1, 5]
    assert [s[4] for s in tracer.spans] == [0, 0, 0, 0, 0, 1, 1]
    self_ns = tracer.self_times_ns()
    assert all(ns >= 0 for ns in self_ns)
    # The self times of one request add up to its root span's duration.
    root = tracer.spans[0]
    assert sum(self_ns[:5]) == root[2] - root[1]
    summary = tracer.summary()
    assert summary["b"]["kinds"] == {"fuse"} and summary["e"]["kinds"] == {"eval"}


def test_wrappers_are_removed_after_the_block_even_on_error():
    store_before = {m: SituationStore.__dict__[m] for m in STORE_METHODS}
    fusion_before = {g: getattr(fusion, g) for g in FUSION_GLOBALS}
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            assert all(SituationStore.__dict__[m] is not store_before[m] for m in STORE_METHODS)
            assert all(getattr(fusion, g) is not fusion_before[g] for g in FUSION_GLOBALS)
            raise RuntimeError("boom")
    assert all(SituationStore.__dict__[m] is store_before[m] for m in STORE_METHODS)
    assert all(getattr(fusion, g) is fusion_before[g] for g in FUSION_GLOBALS)


# --- seeded inputs ------------------------------------------------------------------


def test_full_size_stream_is_seeded():
    first = scenes.dense_stream(SEED, with_intersection=False)
    again = scenes.dense_stream(SEED, with_intersection=False)
    other = scenes.dense_stream(SEED + 1, with_intersection=False)
    assert first.digest() == again.digest() != other.digest()
    assert first.expected_rows == again.expected_rows
    # The ROADMAP scene: about 100k records in about 103 frames, ~10% re-sent.
    assert 90_000 < sum(first.expected_rows.values()) < 110_000
    originals = first.retransmit.count(False)
    assert 95 <= originals <= 110
    assert first.retransmit.count(True) == round(scenes.RETRANSMIT_SHARE * originals)


def test_history_scenes_do_not_share_message_keys(small):
    stream = scenes.history_stream(SEED)
    assert len({p.cfg.vut_station for p in stream.parts}) == scenes.HISTORY_SCENES
    spans = sorted(
        (p.cfg.start_time_ms, p.cfg.start_time_ms + round(p.cfg.duration_s * 1000)) for p in stream.parts
    )
    assert all(end < next_start for (_, end), (next_start, _) in zip(spans, spans[1:]))


def test_fuse_times_are_inside_the_interior_and_never_on_an_emission_instant():
    import numpy as np

    part = scenes.ScenePart(cfg=scenes.ScenarioConfig(duration_s=30.0), truth=None)
    rng = np.random.default_rng(0)
    times = scenes.fuse_times(rng, part, 100, 50, scenes.stratified_phases(rng, 50))
    start = part.cfg.start_time_ms
    assert all(start + 1000 < t < start + 29_000 for t in times)
    assert all((t - start) % 100 != 0 for t in times)


# --- whole workloads ------------------------------------------------------------------


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs_rows_and_quality(small, tmp_path, name):
    a, metrics_a = _run(name, SEED, tmp_path)
    b, metrics_b = _run(name, SEED, tmp_path, tag="b")
    for w in (a, b):
        assert w.tally.failed == 0, w.tally.problems
    assert a.info["stream_sha256"] == b.info["stream_sha256"]
    assert a.info["expected_rows"] == b.info["expected_rows"]
    assert a.rows_total == b.rows_total == sum(a.info["expected_rows"].values())
    for metric in ("fuse_precision", "fuse_recall"):
        assert metrics_a[metric] == metrics_b[metric]
    assert set(metrics_a) == END_TO_END
    assert all(value > 0 for value, _ in metrics_a.values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_held_out_seed_runs_clean_traced(small, tmp_path, name):
    workload, metrics = _run(name, HELD_OUT_SEED, tmp_path, trace=True)
    assert workload.tally.failed == 0, workload.tally.problems
    assert set(metrics) == PER_LAYER
    assert metrics["wire.frames_rejected"][0] == 0
    assert 0 < metrics["store.insert_new_ratio"][0] < 1  # retransmits are ignored
    for share in ("fusion.dedup.share_of_fuse", "store.query_raw.share_of_fuse"):
        assert 0 < metrics[share][0] < 1
    assert 0 < metrics["fusion.dedup.comparison_ratio"][0] <= 1
    spans = json.loads((Path(workload.workdir) / "trace.json").read_text())["spans"]
    assert {s[0] for s in spans} >= {"fusion.fuse_situation", "store.query_raw", "fusion.dedup"}


def test_a_failed_output_check_fails_the_run(small, tmp_path, monkeypatch):
    real = SituationStore.load_situation

    def tampered(self, situation_id):
        record = real(self, situation_id)
        return replace(record, radius_m=record.radius_m + 1)

    monkeypatch.setattr(SituationStore, "load_situation", tampered)
    workload, _ = _run("fuse_history", SEED, tmp_path)
    assert workload.tally.failed == workload.info["eval_calls"] > 0
    assert "reloads unequal" in workload.tally.problems[0]


# --- the command ---------------------------------------------------------------------


def test_command_prints_the_result_line(small, capsys):
    code = run.main(["--workload", "ingest", "--seed", str(SEED), "--seconds", "0", "--trace", "0"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == END_TO_END


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
