"""Synthetic class-conditional EEG and kinematics generator.

Stands in for recorded data at desk scale and doubles as a ground-truth
oracle for end-to-end tests. Each activation class k is encoded as a
carrier sinusoid of amplitude k * AMP_PER_CLASS microvolts on all ten
channels; independent white Gaussian noise is added per channel and
sample, scaled so each frame individually meets the configured SNR:

    snr_db = 10 * log10(P_signal / P_noise)

with P_signal the mean square of the frame's noiseless values. The
carrier phase runs continuously across the recording (sample t has phase
2*pi*CARRIER_HZ*t/fs), as in a real multi-window recording, so a frame's
ordinal determines its phase offset. Amplitude, not frequency, encodes
the class: a least-squares projection onto the known carrier segment
recovers the amplitude analytically, which makes classifier correctness
checkable against a closed-form oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arm import (ArmModel, ActivationTrajectory, _check_classes_apart, class_angles,
                  forward_dynamics)
from .eeg import (
    ActivationClass,
    EegFrame,
    EegRecording,
    LabeledDataset,
    N_CHANNELS,
    SAMPLE_RATE_HZ,
    SAMPLES_PER_FRAME,
    _all_finite,
    class_indices,
    nearest_classes,
    window_frames,
)

CARRIER_HZ = 20.0
AMP_PER_CLASS = 5.0


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic generator."""

    n_samples: int = 500
    snr_db: float = 40.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 10:
            raise ValueError("n_samples must be at least 10 (one per class)")
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must be a number (use inf for noiseless)")


def _eeg(cfg: SynthConfig, classes, rng: np.random.Generator) -> np.ndarray:
    """The class signal of per-frame classes (class_indices) on all channels,
    plus noise scaled per frame, as one read-only array that owns its memory,
    which EegRecording keeps. Raises ValueError, naming snr_db, when it makes
    any sample non-finite."""
    t = np.arange(len(classes) * SAMPLES_PER_FRAME) / SAMPLE_RATE_HZ
    amps = np.repeat(class_indices(classes) * AMP_PER_CLASS, SAMPLES_PER_FRAME)
    clean = amps * np.sin(2.0 * math.pi * CARRIER_HZ * t)
    del t, amps  # freed before the output is allocated
    # the noise is drawn into the output, then scaled and shifted in place,
    # which gives the bits of clean + noise * sigma. An infinite SNR needs no
    # branch: its sigma is 0.0, and a zero plus clean is clean bit for bit,
    # as no sample of clean is -0.0. -inf, all noise, is refused below
    with np.errstate(all="ignore"):
        frame_power = np.mean(clean.reshape(-1, SAMPLES_PER_FRAME) ** 2, axis=1)
        sigma = np.sqrt(frame_power / np.float64(10.0) ** (cfg.snr_db / 10.0))
        out = rng.normal(0.0, 1.0, size=(N_CHANNELS, clean.size))
        out *= np.repeat(sigma, SAMPLES_PER_FRAME)
        out += clean
    if not _all_finite(out):
        raise ValueError(f"synthetic EEG is not finite at snr_db={cfg.snr_db}")
    out.setflags(write=False)
    return out


def _labeled_recording(cfg: SynthConfig, model: ArmModel) -> tuple[EegRecording, np.ndarray]:
    """The dataset of generate_dataset as one recording, and the int64 class
    index 1..10 of each frame. Each frame's angle is its class's equilibrium
    angle, as in dataset_to_recording. An arm that _check_classes_apart
    refuses raises DataError."""
    _check_classes_apart(model)
    rng = np.random.default_rng(cfg.seed)
    classes = (np.arange(cfg.n_samples) % 10 + 1)[rng.permutation(cfg.n_samples)]
    kinematics = class_angles(model)[classes - 1]
    return EegRecording(_eeg(cfg, classes, rng), kinematics=kinematics), classes


def generate_dataset(cfg: SynthConfig) -> LabeledDataset:
    """Balanced labeled dataset of frames, deterministic given the seed.

    Labels are assigned round-robin over the ten classes (so counts are
    balanced up to rounding) and then shuffled; frames are cut in order
    from one continuous synthetic recording, so frame index equals
    position.
    """
    rec, classes = _labeled_recording(cfg, ArmModel())
    labels = [ActivationClass(k) for k in classes.tolist()]
    meta = {"generator": "synthetic", "seed": str(cfg.seed), "snr_db": str(cfg.snr_db)}
    return LabeledDataset(frames=window_frames(rec), labels=labels, metadata=meta)


def _ramp(n_steps: int) -> np.ndarray:
    """The int64 class index 1..10 of each step of ramp_classes."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    frac = np.arange(n_steps) / max(1, n_steps - 1)
    tri = np.where(frac <= 0.5, 2.0 * frac, 2.0 * (1.0 - frac))
    return nearest_classes(0.1 + 0.9 * tri)


def ramp_classes(n_steps: int) -> list[ActivationClass]:
    """Class staircase of a triangle ramp 0.1 -> 1.0 -> 0.1 over n_steps."""
    return [ActivationClass(k) for k in _ramp(n_steps).tolist()]


def _movement_recording(cfg: SynthConfig, classes: np.ndarray, model: ArmModel) -> EegRecording:
    """The recording of generate_movement for the int64 class index 1..10 of
    each step (_ramp). An arm that _check_classes_apart refuses raises
    DataError."""
    _check_classes_apart(model)
    samples = _eeg(cfg, classes, np.random.default_rng(cfg.seed))
    angles = forward_dynamics(model, ActivationTrajectory(levels=classes / 10.0))
    return EegRecording(samples=samples, kinematics=angles.angles_deg)


def generate_movement(
    cfg: SynthConfig, n_steps: int, model: ArmModel | None = None
) -> tuple[EegRecording, list[ActivationClass]]:
    """Synthetic movement trial: ramped activations, their EEG, and kinematics.

    The activation trajectory ramps up and back down across the classes;
    each control step contributes one frame of the class-conditional EEG.
    The kinematics track is the arm model's simulated response to that
    activation trajectory starting from rest, i.e. the motion the
    (simulated) hand actually performs, which downstream evaluation treats
    as the recorded ground truth.
    """
    classes = _ramp(n_steps)
    rec = _movement_recording(cfg, classes, ArmModel() if model is None else model)
    return rec, [ActivationClass(k) for k in classes.tolist()]


def oracle_classify(frame: EegFrame, cfg: SynthConfig) -> ActivationClass:
    """Closed-form amplitude-threshold oracle for synthetic frames.

    Projects the channel-averaged frame onto the unit-amplitude carrier
    segment that generated it (known from the frame ordinal), yielding the
    least-squares amplitude estimate; the class is read off by thresholding
    at the midpoints between class amplitudes. On noiseless frames this is
    exact; it is the Bayes classifier under the generator's Gaussian noise.
    cfg does not change the result: every config has the same carrier.
    """
    t = (frame.index * SAMPLES_PER_FRAME + np.arange(SAMPLES_PER_FRAME)) / SAMPLE_RATE_HZ
    template = np.sin(2.0 * math.pi * CARRIER_HZ * t)
    norm = float(template @ template)  # > 1.2: the carrier repeats every 5 frames
    amp_hat = float(template @ frame.values.mean(axis=0)) / norm
    k = int(math.floor(amp_hat / AMP_PER_CLASS + 0.5))
    return ActivationClass(min(10, max(1, k)))


def dataset_to_recording(ds: LabeledDataset, model: ArmModel | None = None) -> EegRecording:
    """Concatenate a dataset into one recording with label-encoding kinematics.

    Each frame's angle is the equilibrium angle of its label, so windowing
    the recording and inverting the kinematics recovers the labels exactly.
    Frames are written in dataset order.
    """
    if model is None:
        model = ArmModel()
    if len(ds) == 0:
        raise ValueError("cannot serialize an empty dataset")
    samples = np.hstack([f.values for f in ds.frames])
    kinematics = class_angles(model)[class_indices(ds.labels) - 1]
    return EegRecording(samples=samples, kinematics=kinematics)
