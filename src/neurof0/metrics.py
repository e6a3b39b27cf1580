"""Stage-wise evaluation metrics and their report container."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np


def accuracy(pred: Sequence, truth: Sequence) -> float:
    """Fraction of positions where prediction equals truth exactly."""
    if len(pred) != len(truth):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(truth)}")
    if len(pred) == 0:
        raise ValueError("cannot compute accuracy of empty sequences")
    return sum(1 for p, t in zip(pred, truth) if p == t) / len(pred)


def rmse(pred: Sequence[float], truth: Sequence[float]) -> float:
    """Root mean square difference."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("cannot compute rmse of empty sequences")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise ValueError("rmse inputs must be finite")
    return float(np.sqrt(np.mean((p - t) ** 2)))


@dataclass(frozen=True)
class MetricsReport:
    """Per-stage test metrics of the decoding chain."""

    classifier_accuracy: float
    activation_rmse: float
    angle_accuracy: float
    angle_rmse_deg: float
    f0_rmse_hz: float
    n_test: int

    def __post_init__(self):
        for name in ("classifier_accuracy", "angle_accuracy"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("activation_rmse", "angle_rmse_deg", "f0_rmse_hz"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {v}")
        if self.n_test < 1:
            raise ValueError("n_test must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"
