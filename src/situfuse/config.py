"""Runtime configuration with documented defaults, loadable from JSON."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

from .fusion import (DEFAULT_MAX_LATERAL_M, DEFAULT_RADIUS_M, DEFAULT_WINDOW_MS, MAX_RADIUS_M,
                     SimilarityThresholds)
from .metrics import HANDOVER_MIN_TTI_MS
from .stressmap import DEFAULT_CAPACITY, DEFAULT_MAX_DEPTH


# Keys of deleted options: a config file that sets one still loads, and the value is dropped.
_RETIRED_KEYS = frozenset({"speed_floor_ms", "vda_schedule_ms"})
# the type each scalar field's annotation names; a bool is no number here
_SCALAR_TYPES = {"int": Integral, "StationId": Integral, "float": Real, "str": str,
                 "str | None": (str, type(None))}
_POSITIVE = ("radius_m", "stress_capacity")
_NON_NEGATIVE = ("window_ms", "max_lateral_m", "handover_min_tti_ms", "stress_max_depth")


def check_scalars(obj, what: str) -> None:
    """Raise ValueError for a scalar field of the dataclass ``obj`` that is
    not of its annotated type, or is a number that is not finite."""
    for f in fields(obj):
        value, kind = getattr(obj, f.name), _SCALAR_TYPES.get(f.type)
        if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ValueError(f"{what} {f.name!r} must be {f.type}, not {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{what} {f.name!r} must be finite, not {value!r}")


@dataclass
class AppConfig:
    store_path: str = "situfuse.db"
    listen: str = "127.0.0.1:4715"

    # fusion window and thresholds
    window_ms: int = DEFAULT_WINDOW_MS
    radius_m: float = DEFAULT_RADIUS_M
    max_position_m: float = SimilarityThresholds.max_position_m
    max_course_deg: float = SimilarityThresholds.max_course_deg
    max_speed_ms: float = SimilarityThresholds.max_speed_ms
    max_lateral_m: float = DEFAULT_MAX_LATERAL_M

    # handover rule
    handover_min_tti_ms: int = HANDOVER_MIN_TTI_MS

    # stress map
    stress_matrix_path: str | None = None
    stress_capacity: int = DEFAULT_CAPACITY
    stress_max_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self):
        check_scalars(self, "config")
        for name in (*_POSITIVE, *_NON_NEGATIVE):
            value, positive = getattr(self, name), name in _POSITIVE
            if value < 0 or (positive and value == 0):
                rule = "> 0" if positive else ">= 0"
                raise ValueError(f"config {name!r} must be {rule}, not {value!r}")
        if self.radius_m > MAX_RADIUS_M:
            raise ValueError(f"config 'radius_m' must be <= {MAX_RADIUS_M}, not {self.radius_m!r}")
        self.thresholds()  # refuses a similarity threshold that is not positive

    def thresholds(self) -> SimilarityThresholds:
        return SimilarityThresholds(
            max_position_m=self.max_position_m,
            max_course_deg=self.max_course_deg,
            max_speed_ms=self.max_speed_ms,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "AppConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, not {type(data).__name__}")
        kept = {k: v for k, v in data.items() if k not in _RETIRED_KEYS}
        unknown = set(kept) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**kept)

    @classmethod
    def load(cls, path) -> "AppConfig":
        with open(path, "r", encoding="utf-8") as fp:
            return cls.from_dict(json.load(fp))
