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
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import arm as arm_mod
from . import voice as voice_mod
from .arm import ActivationTrajectory, AngleTrajectory, ArmModel, derive_labels, forward_dynamics
from .eeg import ActivationClass, EegRecording, check_kinematics_length, window_matrix
from .errors import DataError, PipelineStageError
from .forest import ForestHyperparams, ForestModel, predict_batch
from .metrics import MetricsReport, accuracy, rmse
from .voice import AudioBuffer, F0Mapping, F0Trajectory, map_trajectory, synthesize


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
        if not 0.0 <= self.synth_amplitude <= 1.0:
            raise ValueError("synth_amplitude must be within [0, 1]")
        if self.synth_sample_rate_hz < 100:
            raise ValueError("synth_sample_rate_hz must be at least 100")


def _build_section(cls, data: dict, where: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise DataError(f"unknown key(s) {sorted(unknown)} in config section {where!r}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise DataError(f"invalid config section {where!r}: {exc}") from None


def config_from_dict(raw: dict) -> PipelineConfig:
    """Parse the JSON-level config dict; unknown keys anywhere are rejected."""
    known = {"arm", "mapping", "forest", "split", "synth", "paths"}
    unknown = set(raw) - known
    if unknown:
        raise DataError(f"unknown top-level config key(s) {sorted(unknown)}")
    arm_cfg = _build_section(ArmModel, raw.get("arm", {}), "arm")
    map_cfg = _build_section(F0Mapping, raw.get("mapping", {}), "mapping")
    forest_cfg = _build_section(ForestHyperparams, raw.get("forest", {}), "forest")

    split = dict(raw.get("split", {}))
    unknown = set(split) - {"train_fraction", "seed"}
    if unknown:
        raise DataError(f"unknown key(s) {sorted(unknown)} in config section 'split'")
    synth = dict(raw.get("synth", {}))
    unknown = set(synth) - {"sample_rate_hz", "amplitude"}
    if unknown:
        raise DataError(f"unknown key(s) {sorted(unknown)} in config section 'synth'")
    paths = dict(raw.get("paths", {}))
    unknown = set(paths) - {"model", "data", "out_dir"}
    if unknown:
        raise DataError(f"unknown key(s) {sorted(unknown)} in config section 'paths'")

    try:
        return PipelineConfig(
            arm=arm_cfg,
            mapping=map_cfg,
            forest=forest_cfg,
            train_fraction=float(split.get("train_fraction", 0.7)),
            split_seed=int(split.get("seed", 0)),
            synth_sample_rate_hz=int(synth.get("sample_rate_hz", 44100)),
            synth_amplitude=float(synth.get("amplitude", 0.8)),
            model_path=paths.get("model"),
            data_path=paths.get("data"),
            out_dir=paths.get("out_dir"),
        )
    except ValueError as exc:
        raise DataError(f"invalid config: {exc}") from None


def load_config(path) -> PipelineConfig:
    with open(path, "r") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path}: config must be a JSON object")
    return config_from_dict(raw)


@dataclass(frozen=True)
class PipelineResult:
    """Decoded outputs; with kinematics, also their truth and the metrics."""

    activations: list[ActivationClass]
    angles: AngleTrajectory
    f0: F0Trajectory
    audio: AudioBuffer
    metrics: Optional[MetricsReport]
    true_activations: Optional[list[ActivationClass]] = None
    true_f0: Optional[F0Trajectory] = None


def _class_angles(model: ArmModel) -> np.ndarray:
    """Equilibrium angle of each class 1..10, in class order."""
    return np.array([arm_mod.equilibrium_angle(model, k / 10.0) for k in range(1, 11)])


def _snap_to_class_angles(model: ArmModel, angles_deg: np.ndarray) -> np.ndarray:
    """Class index (1..10) of the nearest of the ten equilibrium angles to
    each angle, ties toward the lower class."""
    return np.argmin(np.abs(angles_deg[:, None] - _class_angles(model)), axis=1) + 1


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(f"{name} stage failed: {exc}") from exc


def run_pipeline(cfg: PipelineConfig, rec: EegRecording, model: ForestModel) -> PipelineResult:
    """Decode a recording end to end and score it against its kinematics.

    Stages are chained exactly as the individual modules expose them; the
    forward simulation starts from rest. Without kinematics the outputs
    are still produced and metrics is None. A failing stage raises
    PipelineStageError naming that stage.
    """
    with _stage("windowing"):
        X = window_matrix(rec)
    with _stage("classification"):
        pred_classes = [ActivationClass(k) for k in predict_batch(model, X)[0].tolist()]
    with _stage("dynamics"):
        angles = forward_dynamics(cfg.arm, ActivationTrajectory.from_classes(pred_classes))
    with _stage("pitch mapping"):
        f0 = map_trajectory(cfg.mapping, angles)
    with _stage("synthesis"):
        audio = synthesize(f0, sample_rate_hz=cfg.synth_sample_rate_hz,
                           amplitude=cfg.synth_amplitude)

    metrics = true_classes = true_f0 = None
    if rec.kinematics is not None:
        check_kinematics_length(rec, "recording")
        true_angles = AngleTrajectory(rec.kinematics)
        true_classes = derive_labels(cfg.arm, true_angles)
        true_f0 = map_trajectory(cfg.mapping, true_angles)
        snap_pred = _snap_to_class_angles(cfg.arm, angles.angles_deg).tolist()
        snap_true = _snap_to_class_angles(cfg.arm, true_angles.angles_deg).tolist()
        metrics = MetricsReport(
            classifier_accuracy=accuracy(pred_classes, true_classes),
            activation_rmse=rmse([c.level for c in pred_classes],
                                 [c.level for c in true_classes]),
            angle_accuracy=accuracy(snap_pred, snap_true),
            angle_rmse_deg=rmse(angles.angles_deg, true_angles.angles_deg),
            f0_rmse_hz=rmse(f0.values_hz, true_f0.values_hz),
            n_test=len(X),
        )
    return PipelineResult(activations=pred_classes, angles=angles, f0=f0,
                          audio=audio, metrics=metrics,
                          true_activations=true_classes, true_f0=true_f0)


def evaluate_static(cfg: PipelineConfig, pred: list[ActivationClass],
                    truth: list[ActivationClass]) -> MetricsReport:
    """Per-frame stage metrics with each sample treated independently.

    Used by model evaluation on shuffled test frames, where a temporal
    simulation is meaningless: angles are the static equilibrium angles of
    the predicted and true classes, and F0 their mapped values.
    """
    angles = _class_angles(cfg.arm)
    f0 = np.array([voice_mod.map_angle_to_f0(cfg.mapping, t) for t in angles])
    p_row = np.array([c.index - 1 for c in pred], dtype=np.intp)
    t_row = np.array([c.index - 1 for c in truth], dtype=np.intp)
    return MetricsReport(
        classifier_accuracy=accuracy(pred, truth),
        activation_rmse=rmse([c.level for c in pred], [c.level for c in truth]),
        angle_accuracy=accuracy(angles[p_row], angles[t_row]),
        angle_rmse_deg=rmse(angles[p_row], angles[t_row]),
        f0_rmse_hz=rmse(f0[p_row], f0[t_row]),
        n_test=len(pred),
    )
