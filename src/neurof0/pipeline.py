"""End-to-end orchestration: EEG frames to activations, angles, pitch, audio.

Also owns the JSON run configuration. The decode chain is

    frames -> classifier -> activation trajectory -> forward dynamics
           -> angle trajectory -> F0 trajectory -> audio

starting the simulation from rest. When the recording carries kinematics,
they are the ground truth: true activations are derived from them by the
static inverse, the true F0 is their mapped value, and the report collects
one accuracy/RMSE pair per stage. The angle-stage accuracy snaps both
predicted and true angles to the nearest of the ten equilibrium angles
before comparing, since exact equality of continuous angles is vacuous.
Only the dynamics (divergence) and the synthesis checks (sample rate,
Nyquist) can refuse a valid recording, model and config.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, get_type_hints

import numpy as np

from .arm import (ActivationTrajectory, AngleTrajectory, ArmModel, class_angles,
                  forward_dynamics, label_classes)
from .eeg import EegRecording, class_indices, window_matrix
from .errors import DataError, PipelineStageError, naming
from .forest import ForestHyperparams, ForestModel, predict_batch
from .metrics import MetricsReport, accuracy, rmse
from .voice import (AudioBuffer, F0Mapping, F0Trajectory, _samples_per_step, map_trajectory,
                    synthesize)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a reproducible run needs; see README for the JSON schema."""

    arm: ArmModel = field(default_factory=ArmModel)
    mapping: F0Mapping = field(default_factory=F0Mapping)
    forest: ForestHyperparams = field(default_factory=ForestHyperparams)
    train_fraction: float = 0.7
    split_seed: int = 0
    synth_sample_rate_hz: int = 44100
    synth_amplitude: float = 0.8
    model_path: Optional[str] = None
    data_path: Optional[str] = None
    out_dir: Optional[str] = None

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if not 0 <= self.split_seed <= 2**64 - 1:  # the splitmix64 state is 64 bits
            raise ValueError(f"split_seed must be in 0..2**64 - 1, got {self.split_seed}")
        if not 0.0 <= self.synth_amplitude <= 1.0:
            raise ValueError("synth_amplitude must be within [0, 1]")
        # the WAV header stores the byte rate, twice the sample rate, as u32
        if not 100 <= self.synth_sample_rate_hz <= 2**31 - 1:
            raise ValueError("synth_sample_rate_hz must be in 100..2147483647")


# sections that fill one dataclass each, and sections whose keys fill
# PipelineConfig fields directly (JSON key -> field)
_CLASS_SECTIONS = {"arm": ArmModel, "mapping": F0Mapping, "forest": ForestHyperparams}
_FLAT_SECTIONS = {
    "split": {"train_fraction": "train_fraction", "seed": "split_seed"},
    "synth": {"sample_rate_hz": "synth_sample_rate_hz", "amplitude": "synth_amplitude"},
    "paths": {"model": "model_path", "data": "data_path", "out_dir": "out_dir"},
}

# field type -> (test of a JSON value, what the test accepts)
_JSON_TYPES = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
            "a finite number"),
    Optional[str]: (lambda v: v is None or type(v) is str, "a string or null"),
}


def _reject_unknown(data: dict, known, where: str) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise DataError(f"unknown key(s) {sorted(unknown)} in {where}")


def _section(raw: dict, name: str, cls, keys: Optional[dict] = None) -> dict:
    """Config section ``name`` as keyword arguments for ``cls``; ``keys``
    maps each JSON key to the field it fills (default: the field of that
    name), whose type fixes the JSON values it takes."""
    types = get_type_hints(cls)
    keys = keys or {f.name: f.name for f in dataclasses.fields(cls)}
    data = raw.get(name, {})
    if not isinstance(data, dict):
        raise DataError(f"config section {name!r} must be a JSON object, got {data!r}")
    _reject_unknown(data, keys, f"config section {name!r}")
    for key, value in data.items():
        accepts, what = _JSON_TYPES[types[keys[key]]]
        if not accepts(value):
            raise DataError(f"config key {key!r} in section {name!r} must be {what}, got {value!r}")
    return {keys[key]: value for key, value in data.items()}


def _build(cls, where: str, kwargs: dict):
    with naming(f"invalid {where}"):
        return cls(**kwargs)


def config_from_dict(raw: dict) -> PipelineConfig:
    """Parse the JSON-level config dict; unknown keys anywhere and values
    of the wrong JSON type are rejected."""
    _reject_unknown(raw, [*_CLASS_SECTIONS, *_FLAT_SECTIONS], "the config")
    kwargs = {name: _build(cls, f"config section {name!r}", _section(raw, name, cls))
              for name, cls in _CLASS_SECTIONS.items()}
    for name, keys in _FLAT_SECTIONS.items():
        kwargs.update(_section(raw, name, PipelineConfig, keys))
    return _build(PipelineConfig, "config", kwargs)


def load_config(path) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh, naming(path):
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # undecodable bytes and nesting too deep for the parser included
            raise DataError(f"invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise DataError("config must be a JSON object")
        return config_from_dict(raw)


@dataclass(frozen=True)
class PipelineResult:
    """Decoded outputs; with kinematics, also their truth and the metrics.
    The audio is rendered from f0 on first access, so a decode that only
    writes the trajectories never holds it."""

    activations: np.ndarray  # int64 class index 1..10 of each frame
    angles: AngleTrajectory
    f0: F0Trajectory
    cfg: PipelineConfig  # the run's config, which sets how audio renders
    metrics: Optional[MetricsReport]
    true_activations: Optional[np.ndarray] = None
    true_f0: Optional[F0Trajectory] = None

    @cached_property
    def audio(self) -> AudioBuffer:
        return synthesize(self.f0, sample_rate_hz=self.cfg.synth_sample_rate_hz,
                          amplitude=self.cfg.synth_amplitude)


def _snap_to_class_angles(model: ArmModel, angles_deg: np.ndarray) -> np.ndarray:
    """Class index (1..10) of the nearest of the ten equilibrium angles to
    each angle, ties toward the lower class."""
    return np.argmin(np.abs(angles_deg[:, None] - class_angles(model)), axis=1) + 1


def _score(cfg: PipelineConfig, pred: np.ndarray, truth: np.ndarray,
           pred_deg: np.ndarray, true_deg: np.ndarray,
           pred_f0: np.ndarray, true_f0: np.ndarray) -> MetricsReport:
    """Stage metrics of predicted against true class indices (1..10),
    elbow angles and their mapped F0, one per frame. Angle accuracy
    compares the classes the angles snap to, which for equilibrium angles
    equals comparing the angles."""
    return MetricsReport(
        classifier_accuracy=accuracy(pred.tolist(), truth.tolist()),
        activation_rmse=rmse(pred / 10.0, truth / 10.0),
        angle_accuracy=accuracy(_snap_to_class_angles(cfg.arm, pred_deg).tolist(),
                                _snap_to_class_angles(cfg.arm, true_deg).tolist()),
        angle_rmse_deg=rmse(pred_deg, true_deg),
        f0_rmse_hz=rmse(pred_f0, true_f0),
        n_test=len(pred),
    )


@contextmanager
def _stage(name: str):
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise PipelineStageError(f"{name} stage failed: {exc}") from exc


def run_pipeline(cfg: PipelineConfig, rec: EegRecording, model: ForestModel) -> PipelineResult:
    """Decode a recording end to end and score it against its kinematics.

    Stages are chained exactly as the individual modules expose them; the
    forward simulation starts from rest. Without kinematics the outputs
    are still produced and metrics is None. A refusal of the dynamics or the
    synthesis checks raises PipelineStageError; any other fault leaves as itself.
    """
    pred = predict_batch(model, window_matrix(rec))[0]
    with _stage("dynamics"):
        angles = forward_dynamics(cfg.arm, ActivationTrajectory(pred / 10.0))
    f0 = map_trajectory(cfg.mapping, angles)  # F0Mapping's finite spans keep it finite
    with _stage("synthesis"):  # checks only: PipelineResult.audio renders
        _samples_per_step(f0, cfg.synth_sample_rate_hz, cfg.synth_amplitude)

    metrics = truth = true_f0 = None
    if rec.kinematics is not None:
        true_angles = AngleTrajectory(rec.kinematics)
        truth = label_classes(cfg.arm, true_angles.angles_deg)
        true_f0 = map_trajectory(cfg.mapping, true_angles)
        metrics = _score(cfg, pred, truth, angles.angles_deg, true_angles.angles_deg,
                         f0.values_hz, true_f0.values_hz)
    return PipelineResult(activations=pred, angles=angles, f0=f0,
                          cfg=cfg, metrics=metrics,
                          true_activations=truth, true_f0=true_f0)


def evaluate_static(cfg: PipelineConfig, pred, truth) -> MetricsReport:
    """Per-frame stage metrics with each sample treated independently.

    Used by model evaluation on shuffled test frames, where a temporal
    simulation is meaningless: angles are the static equilibrium angles of
    the predicted and true classes, and F0 their mapped values. pred and
    truth are class index vectors or ActivationClass lists (class_indices).
    """
    angles = class_angles(cfg.arm)
    f0 = map_trajectory(cfg.mapping, AngleTrajectory(angles)).values_hz
    p, t = class_indices(pred), class_indices(truth)
    return _score(cfg, p, t, angles[p - 1], angles[t - 1], f0[p - 1], f0[t - 1])
