"""Elbow angle to pitch mapping and sine synthesis to 16-bit PCM WAV."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arm import CONTROL_DT_S, AngleTrajectory
from .eeg import _vector

F0_MIN_HZ = 1500.0
F0_MAX_HZ = 5150.0
PCM_FULL_SCALE = 32767
# synthesize and write_wav work on this many control steps of audio at a
# time, so their temporaries stay small however long the audio is
_BLOCK_STEPS = 100


@dataclass(frozen=True)
class F0Mapping:
    """Affine map from an elbow-angle range onto the pitch band."""

    angle_min_deg: float = 0.0
    angle_max_deg: float = 90.0
    f0_min_hz: float = F0_MIN_HZ
    f0_max_hz: float = F0_MAX_HZ

    def __post_init__(self):
        if not self.angle_min_deg < self.angle_max_deg:
            raise ValueError("angle_min_deg must be below angle_max_deg")
        if not 0 < self.f0_min_hz < self.f0_max_hz:
            raise ValueError("need 0 < f0_min_hz < f0_max_hz")
        for lo, hi in ("angle_min_deg", "angle_max_deg"), ("f0_min_hz", "f0_max_hz"):
            if not math.isfinite(getattr(self, hi) - getattr(self, lo)):
                raise ValueError(f"the span {hi} - {lo} is not finite")


@dataclass(frozen=True)
class F0Trajectory:
    """Fundamental-frequency values in Hz per 0.01 s control step."""

    values_hz: Sequence[float]

    def __post_init__(self):
        arr = _vector(self.values_hz, "values_hz")
        if np.any(arr <= 0):
            raise ValueError("f0 values must be positive")
        object.__setattr__(self, "values_hz", arr)

    def __len__(self) -> int:
        return int(self.values_hz.size)


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio, amplitude values in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int = 44100

    def __post_init__(self):
        arr = _vector(self.samples, "samples")
        if arr.size and (arr.max() > 1.0 or arr.min() < -1.0):
            raise ValueError("samples must be within [-1, 1]")
        object.__setattr__(self, "samples", arr)
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")

    def __len__(self) -> int:
        return int(self.samples.size)


def map_angle_to_f0(mapping: F0Mapping, theta_deg: float) -> float:
    """Affine angle-to-pitch map; out-of-range angles are clamped first."""
    if not math.isfinite(theta_deg):
        raise ValueError("angle must be finite")
    return float(map_trajectory(mapping, AngleTrajectory([theta_deg])).values_hz[0])


def map_trajectory(mapping: F0Mapping, angles: AngleTrajectory) -> F0Trajectory:
    """The affine angle-to-pitch map of every angle, out-of-range angles clamped first."""
    theta = np.minimum(mapping.angle_max_deg, np.maximum(mapping.angle_min_deg, angles.angles_deg))
    frac = (theta - mapping.angle_min_deg) / (mapping.angle_max_deg - mapping.angle_min_deg)
    return F0Trajectory(mapping.f0_min_hz + frac * (mapping.f0_max_hz - mapping.f0_min_hz))


def _samples_per_step(f0: F0Trajectory, sample_rate_hz: int, amplitude: float) -> int:
    """The checks synthesize runs before it renders anything, in its order;
    returns the number of samples per control step."""
    if len(f0) == 0:
        raise ValueError("f0 trajectory is empty")
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("amplitude must be within [0, 1]")
    spc_exact = sample_rate_hz * CONTROL_DT_S
    spc = int(round(spc_exact))
    if spc < 1 or abs(spc_exact - spc) > 1e-9:
        raise ValueError(
            f"sample rate {sample_rate_hz} is not a whole number of samples per control step"
        )
    f0_max, nyquist = float(np.max(f0.values_hz)), sample_rate_hz / 2
    if f0_max >= nyquist:
        raise ValueError(f"f0 {f0_max} Hz at or above the Nyquist frequency {nyquist} Hz "
                         f"of the {sample_rate_hz} Hz sample rate would alias")
    return spc


def synthesize(
    f0: F0Trajectory, sample_rate_hz: int = 44100, amplitude: float = 0.8
) -> AudioBuffer:
    """Render an F0 trajectory as a phase-continuous sine tone.

    The frequency is held constant within each 0.01 s control step; the
    oscillator accumulates phase per sample (phi[n+1] = phi[n] +
    2*pi*f0/fs, phi[0] = 0), so there are no discontinuities at step
    boundaries. Output length is len(f0) * fs / 100 samples.
    """
    spc = _samples_per_step(f0, sample_rate_hz, amplitude)
    step_increments = 2.0 * math.pi * f0.values_hz / sample_rate_hz
    samples = np.empty(len(f0) * spc)
    phase = 0.0
    for start in range(0, len(f0), _BLOCK_STEPS):
        steps = step_increments[start:start + _BLOCK_STEPS]
        block = samples[start * spc:(start + len(steps)) * spc]
        # the carried phase leads the block, so cumsum adds in the order a
        # single cumsum over the whole contour would
        block[0] = phase
        block[1:] = np.repeat(steps, spc)[:-1]
        np.cumsum(block, out=block)
        phase = block[-1] + steps[-1]
        np.sin(block, out=block)
        block *= amplitude
    samples.setflags(write=False)  # AudioBuffer keeps it without a copy
    return AudioBuffer(samples=samples, sample_rate_hz=sample_rate_hz)


def quantize_pcm16(samples: np.ndarray) -> np.ndarray:
    """Scale [-1, 1] floats by 32767, rounding half away from zero."""
    scaled = np.abs(np.asarray(samples, dtype=float))
    scaled *= PCM_FULL_SCALE
    scaled += 0.5
    np.floor(scaled, out=scaled)
    # floor(0.5) is 0, so the sign of a zero sample does not matter
    np.copysign(scaled, samples, out=scaled)
    return scaled.astype("<i2")


def write_wav(buf: AudioBuffer, path) -> None:
    """Write mono 16-bit little-endian PCM with a standard 44-byte header, whatever the host."""
    rate = int(buf.sample_rate_hz)
    n_bytes = 2 * len(buf)
    # RIFF size, fmt size, PCM, mono, rate, byte rate, block align, bits, data size
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + n_bytes, b"WAVE", b"fmt ", 16,
                         1, 1, rate, 2 * rate, 2, 16, b"data", n_bytes)
    block = max(1, round(_BLOCK_STEPS * rate * CONTROL_DT_S))
    with open(path, "wb") as fh:
        fh.write(header)
        for start in range(0, len(buf), block):
            fh.write(quantize_pcm16(buf.samples[start:start + block]))
