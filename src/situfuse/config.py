"""Runtime configuration with documented defaults, loadable from JSON."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .aggregators import DEFAULT_SCHEDULE_MS, TransmitSchedule
from .fusion import SimilarityThresholds


@dataclass
class AppConfig:
    store_path: str = "situfuse.db"
    listen: str = "127.0.0.1:4715"

    # fusion window and thresholds
    window_ms: int = 500
    radius_m: float = 300.0
    max_position_m: float = 2.5
    max_course_deg: float = 15.0
    max_speed_ms: float = 1.5
    speed_floor_ms: float = 1.5  # deprecated and ignored; old configs still load
    max_lateral_m: float = 2.0

    # vehicle data aggregator schedule
    vda_schedule_ms: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_SCHEDULE_MS))

    # metric floors and handover rule
    tti_speed_floor_ms: float = 0.1
    ru_closing_floor_ms: float = 0.05
    handover_min_tti_ms: int = 3000
    handover_near_distance_m: float = 25.0

    # stress map
    stress_matrix_path: str | None = None
    stress_capacity: int = 16
    stress_max_depth: int = 12

    def thresholds(self) -> SimilarityThresholds:
        return SimilarityThresholds(
            max_position_m=self.max_position_m,
            max_course_deg=self.max_course_deg,
            max_speed_ms=self.max_speed_ms,
        )

    def schedule(self) -> TransmitSchedule:
        return TransmitSchedule(periods_ms=dict(self.vda_schedule_ms))

    @classmethod
    def from_dict(cls, data: dict) -> "AppConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "AppConfig":
        with open(path, "r", encoding="utf-8") as fp:
            return cls.from_dict(json.load(fp))
