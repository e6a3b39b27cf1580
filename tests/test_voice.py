import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    count_zero_crossings,
    parse_wav_header,
    quantize_pcm16_reference,
    read_wav,
    synthesize_samples_reference,
)

from neurof0.arm import AngleTrajectory
from neurof0.voice import (
    AudioBuffer,
    F0Mapping,
    F0Trajectory,
    map_angle_to_f0,
    map_trajectory,
    quantize_pcm16,
    synthesize,
    write_wav,
)


class TestMapping:
    def test_endpoints_exact(self):
        m = F0Mapping()
        assert map_angle_to_f0(m, 0.0) == 1500.0
        assert map_angle_to_f0(m, 90.0) == 5150.0

    def test_midpoint_exact(self):
        assert map_angle_to_f0(F0Mapping(), 45.0) == 3325.0

    def test_30_degrees(self):
        expected = 1500.0 + 30.0 / 90.0 * 3650.0
        assert map_angle_to_f0(F0Mapping(), 30.0) == pytest.approx(expected)
        assert map_angle_to_f0(F0Mapping(), 30.0) == pytest.approx(2716.6667, abs=1e-3)

    def test_clamping(self):
        m = F0Mapping()
        assert map_angle_to_f0(m, -5.0) == 1500.0
        assert map_angle_to_f0(m, 120.0) == 5150.0

    def test_non_finite(self):
        with pytest.raises(ValueError):
            map_angle_to_f0(F0Mapping(), float("nan"))

    def test_affine_midpoint_property(self):
        m = F0Mapping()
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = rng.uniform(0.0, 90.0, size=2)
            mid = map_angle_to_f0(m, (a + b) / 2.0)
            avg = (map_angle_to_f0(m, a) + map_angle_to_f0(m, b)) / 2.0
            assert mid == pytest.approx(avg, rel=1e-9)

    def test_invalid_mapping(self):
        with pytest.raises(ValueError):
            F0Mapping(angle_min_deg=90.0, angle_max_deg=0.0)
        with pytest.raises(ValueError):
            F0Mapping(f0_min_hz=5000.0, f0_max_hz=1500.0)

    def test_map_trajectory(self):
        m = F0Mapping()
        out = map_trajectory(m, AngleTrajectory(angles_deg=[0.0, 45.0, 90.0]))
        assert list(out.values_hz) == [1500.0, 3325.0, 5150.0]
        assert len(map_trajectory(m, AngleTrajectory(angles_deg=[]))) == 0
        const = map_trajectory(m, AngleTrajectory(angles_deg=[90.0] * 5))
        assert list(const.values_hz) == [5150.0] * 5


def constant_f0(hz, seconds):
    return F0Trajectory(values_hz=[hz] * int(round(seconds * 100)))


class TestSynthesize:
    def test_length_and_phase_zero_start(self):
        audio = synthesize(constant_f0(1500.0, 0.2))
        assert len(audio) == 20 * 441
        assert audio.samples[0] == 0.0
        assert audio.sample_rate_hz == 44100

    def test_zero_amplitude(self):
        audio = synthesize(constant_f0(2000.0, 0.1), amplitude=0.0)
        assert np.all(audio.samples == 0.0)

    def test_amplitude_bound(self):
        audio = synthesize(constant_f0(3000.0, 0.5), amplitude=0.8)
        assert np.max(np.abs(audio.samples)) <= 0.8

    def test_crossing_counts_1500(self):
        audio = synthesize(constant_f0(1500.0, 1.0))
        assert abs(count_zero_crossings(audio.samples, "both") - 3000) <= 2
        assert abs(count_zero_crossings(audio.samples, "up") - 1500) <= 2

    def test_crossing_counts_5150(self):
        audio = synthesize(constant_f0(5150.0, 1.0))
        assert abs(count_zero_crossings(audio.samples, "up") - 5150) <= 2
        assert abs(count_zero_crossings(audio.samples, "both") - 10300) <= 2

    def test_phase_continuity_across_steps(self):
        # a frequency staircase must not jump in value at step boundaries
        traj = F0Trajectory(values_hz=[1500.0] * 10 + [5150.0] * 10)
        audio = synthesize(traj)
        diffs = np.abs(np.diff(audio.samples))
        max_step = 2 * np.pi * 5150.0 / 44100 * 0.8  # amplitude * max phase increment
        assert np.max(diffs) <= max_step + 1e-9

    def test_aliasing_guard(self):
        with pytest.raises(ValueError):
            synthesize(F0Trajectory(values_hz=[22050.0]))

    def test_empty_trajectory(self):
        with pytest.raises(ValueError):
            synthesize(F0Trajectory(values_hz=[]))

    def test_bad_sample_rate(self):
        with pytest.raises(ValueError):
            synthesize(constant_f0(1000.0, 0.1), sample_rate_hz=44111)

    def test_bad_amplitude(self):
        with pytest.raises(ValueError):
            synthesize(constant_f0(1000.0, 0.1), amplitude=1.5)


class TestAudioBuffer:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            AudioBuffer(samples=np.array([1.2]))

    def test_f0_trajectory_validation(self):
        with pytest.raises(ValueError):
            F0Trajectory(values_hz=[-10.0])
        with pytest.raises(ValueError):
            F0Trajectory(values_hz=[float("inf")])

    @pytest.mark.parametrize("make, values", [
        (F0Trajectory, [[2000.0], [3000.0]]),  # synthesize would render it as 2 steps
        (AudioBuffer, np.zeros((2, 3))),
        (AngleTrajectory, [[10.0, 20.0]]),
    ], ids=["f0", "audio", "angles"])
    def test_vectors_are_one_dimensional(self, make, values):
        with pytest.raises(ValueError, match="must be a finite 1-D vector"):
            make(values)


class TestWav:
    def test_one_second_file_size(self, tmp_path):
        audio = synthesize(constant_f0(1500.0, 1.0))
        path = tmp_path / "t.wav"
        write_wav(audio, path)
        assert path.stat().st_size == 44 + 2 * 44100

    def test_header_fields(self, tmp_path):
        audio = synthesize(constant_f0(2000.0, 0.5))
        path = tmp_path / "t.wav"
        write_wav(audio, path)
        h = parse_wav_header(path.read_bytes())
        n_bytes = 2 * len(audio)
        assert h["riff"] == b"RIFF"
        assert h["riff_size"] == 36 + n_bytes
        assert h["wave"] == b"WAVE"
        assert h["fmt"] == b"fmt "
        assert h["fmt_size"] == 16
        assert h["audio_format"] == 1  # PCM
        assert h["channels"] == 1
        assert h["sample_rate"] == 44100
        assert h["byte_rate"] == 44100 * 2
        assert h["block_align"] == 2
        assert h["bits_per_sample"] == 16
        assert h["data"] == b"data"
        assert h["data_size"] == n_bytes

    def test_empty_buffer(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav(AudioBuffer(samples=np.array([])), path)
        assert path.stat().st_size == 44
        h = parse_wav_header(path.read_bytes())
        assert h["data_size"] == 0

    def test_full_scale_quantization(self, tmp_path):
        path = tmp_path / "fs.wav"
        write_wav(AudioBuffer(samples=np.array([1.0, -1.0, 0.0])), path)
        _, data = read_wav(path)
        assert list(data) == [32767, -32767, 0]

    def test_round_half_away_from_zero(self):
        x = np.array([0.5 / 32767, -0.5 / 32767, 1.4 / 32767, -1.6 / 32767])
        assert list(quantize_pcm16(x)) == [1, -1, 1, -2]

    def test_read_back_within_quantization(self, tmp_path):
        audio = synthesize(constant_f0(3123.0, 0.3), amplitude=0.7)
        path = tmp_path / "q.wav"
        write_wav(audio, path)
        rate, data = read_wav(path)
        assert rate == 44100
        recovered = data.astype(float) / 32767.0
        assert np.max(np.abs(recovered - audio.samples)) <= 1.0 / 32767.0


class TestInPlaceSynthesis:
    """synthesize and quantize_pcm16 reuse one buffer per stage; their bytes
    stay those of the array expressions they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(rate=st.sampled_from([8000, 44100, 96000]),
           amplitude=st.floats(0.0, 1.0),
           fracs=st.lists(st.floats(1e-6, 0.4999), min_size=1, max_size=40))
    def test_bytes_match_reference(self, rate, amplitude, fracs):
        f0 = F0Trajectory(values_hz=[f * rate for f in fracs])
        audio = synthesize(f0, sample_rate_hz=rate, amplitude=amplitude)
        want = synthesize_samples_reference(f0.values_hz, rate, amplitude, rate // 100)
        assert audio.samples.tobytes() == want.tobytes()
        assert quantize_pcm16(audio.samples).tobytes() == quantize_pcm16_reference(want).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(x=arrays(np.float64, st.integers(0, 64), elements=st.floats(-1.0, 1.0)))
    @example(x=np.array([0.0, -0.0, 0.5 / 32767, -0.5 / 32767, 1.0, -1.0]))
    def test_quantize_matches_reference(self, x):
        assert quantize_pcm16(x).tobytes() == quantize_pcm16_reference(x).tobytes()

    def test_peak_memory_of_synthesis_and_quantization(self):
        # 2,000 control steps at 44.1 kHz: 882,000 float64 samples
        f0 = F0Trajectory(values_hz=np.linspace(1500.0, 5150.0, 2000))
        audio_bytes = 2000 * 441 * 8
        tracemalloc.start()
        try:
            pcm = quantize_pcm16(synthesize(f0).samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pcm) == 882_000
        assert peak < 2.5 * audio_bytes
