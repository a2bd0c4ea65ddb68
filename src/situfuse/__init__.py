"""Traffic data aggregation, batch transport, situation fusion and evaluation.

The pipeline: remote aggregators collect V2X extracts, vehicle sensors,
driver state and weather; everything travels in delta-compressed batches to
one store; the fusion merges all reports of the same moment and place into a
deduplicated situation record that can be evaluated (distances, times to
intersection, relative urgency) and rendered as maps, including a quad-tree
stress map of the driver.
"""

from .geo import GeoPosition, LocalPoint, haversine_distance
from .messages import (
    CamExtract,
    CpmDetection,
    CpmExtract,
    DriverStateSample,
    EnvironmentSample,
    HazardEvent,
    HazardKind,
    MapLane,
    MapTopology,
    ObjectClassification,
    ObservationSource,
    SignalPhase,
    SpatExtract,
    TrafficObjectObservation,
    VutSensorExtract,
)
from .wire import BatchEnvelope, DeltaRecord, MetaBlock, RecordKind, decode_batch, encode_batch, plan_batches
from .store import SituationStore
from .situation import FusedObject, SituationRecord
from .fusion import (
    SimilarityThresholds,
    dedup,
    fuse_situation,
    is_similar,
    merge_group,
)
from .metrics import (
    EvaluationRow,
    KinematicState,
    compute_ru,
    compute_tti,
    evaluate_situation,
    rows_to_csv,
)
from .stressmap import StressQuadTree, StressSample, color_for, export_geojson
from .simgen import GroundTruth, ScenarioConfig, generate, score
from .config import AppConfig

__version__ = "0.1.0"

__all__ = [
    "AppConfig",
    "BatchEnvelope",
    "CamExtract",
    "CpmDetection",
    "CpmExtract",
    "DeltaRecord",
    "DriverStateSample",
    "EnvironmentSample",
    "EvaluationRow",
    "FusedObject",
    "GeoPosition",
    "GroundTruth",
    "HazardEvent",
    "HazardKind",
    "KinematicState",
    "LocalPoint",
    "MapLane",
    "MapTopology",
    "MetaBlock",
    "ObjectClassification",
    "ObservationSource",
    "RecordKind",
    "ScenarioConfig",
    "SignalPhase",
    "SimilarityThresholds",
    "SituationRecord",
    "SituationStore",
    "SpatExtract",
    "StressQuadTree",
    "StressSample",
    "TrafficObjectObservation",
    "VutSensorExtract",
    "color_for",
    "compute_ru",
    "compute_tti",
    "decode_batch",
    "dedup",
    "encode_batch",
    "evaluate_situation",
    "export_geojson",
    "fuse_situation",
    "generate",
    "haversine_distance",
    "is_similar",
    "merge_group",
    "plan_batches",
    "rows_to_csv",
    "score",
]
