import tracemalloc
from collections import Counter

import numpy as np
import pytest

from neurof0 import datagen
from neurof0.arm import ArmModel, AngleTrajectory, derive_labels, forward_dynamics, ActivationTrajectory
from neurof0.datagen import (
    AMP_PER_CLASS,
    SynthConfig,
    _labeled_recording,
    _movement_recording,
    _ramp,
    dataset_to_recording,
    generate_dataset,
    generate_movement,
    oracle_classify,
    ramp_classes,
)
from neurof0.eeg import ActivationClass, load_recording_csv, window_frames, write_recording_csv
from neurof0.forest import ForestHyperparams, predict_trajectory, train

NOISELESS = float("inf")


class TestConfig:
    def test_defaults_valid(self):
        cfg = SynthConfig()
        assert cfg.n_samples == 500 and cfg.snr_db == 40.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 9},
            {"n_samples": 0},
            {"n_samples": -1},
            {"n_samples": 9, "snr_db": float("nan")},
            {"snr_db": float("nan")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)


class TestGenerateDataset:
    def test_balanced_counts(self):
        ds = generate_dataset(SynthConfig(n_samples=500, snr_db=30.0, seed=7))
        assert len(ds) == 500
        counts = Counter(lab.index for lab in ds.labels)
        assert all(counts[k] == 50 for k in range(1, 11))

    def test_deterministic(self):
        cfg = SynthConfig(n_samples=60, snr_db=20.0, seed=3)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        assert a.labels == b.labels
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa.values, fb.values)

    def test_noiseless_class_recoverable_from_amplitude(self):
        cfg = SynthConfig(n_samples=100, snr_db=NOISELESS, seed=5)
        ds = generate_dataset(cfg)
        for frame, label in zip(ds.frames, ds.labels):
            assert oracle_classify(frame, cfg) == label

    def test_oracle_correct_at_40db(self):
        cfg = SynthConfig(n_samples=500, snr_db=40.0, seed=11)
        ds = generate_dataset(cfg)
        hits = sum(oracle_classify(f, cfg) == lab for f, lab in zip(ds.frames, ds.labels))
        assert hits == len(ds)

    def test_mean_frame_power_matches_half_amplitude_squared(self):
        # noiseless, n >= 1000: mean per-frame power, normalized per class
        # amplitude, sits within 5% of amplitude^2 / 2
        cfg = SynthConfig(n_samples=1000, snr_db=NOISELESS, seed=2)
        ds = generate_dataset(cfg)
        ratios = []
        for frame, label in zip(ds.frames, ds.labels):
            amp = label.index * AMP_PER_CLASS
            ratios.append(float(np.mean(frame.values**2)) / (amp**2 / 2.0))
        assert abs(np.mean(ratios) - 1.0) < 0.05

    def test_frame_index_equals_position(self):
        ds = generate_dataset(SynthConfig(n_samples=50, snr_db=NOISELESS, seed=1))
        assert [f.index for f in ds.frames] == list(range(50))


class TestRamp:
    def test_up_then_down(self):
        classes = ramp_classes(20)
        idx = [c.index for c in classes]
        peak = idx.index(10)
        assert idx[: peak + 1] == sorted(idx[: peak + 1])
        assert idx[peak:] == sorted(idx[peak:], reverse=True)
        assert idx[0] == 1 and idx[-1] == 1

    def test_single_step(self):
        assert ramp_classes(1) == [ActivationClass(1)]

    def test_covers_all_classes(self):
        idx = {c.index for c in ramp_classes(1000)}
        assert idx == set(range(1, 11))

    def test_invalid(self):
        with pytest.raises(ValueError):
            ramp_classes(0)


class TestGenerateMovement:
    def test_shapes(self):
        cfg = SynthConfig(n_samples=10, snr_db=NOISELESS, seed=4)
        rec, classes = generate_movement(cfg, 20)
        assert rec.n_samples == 200
        assert len(rec.kinematics) == 20
        assert len(classes) == 20

    def test_single_step(self):
        cfg = SynthConfig(n_samples=10, snr_db=NOISELESS, seed=4)
        rec, classes = generate_movement(cfg, 1)
        assert rec.n_samples == 10
        assert len(rec.kinematics) == 1
        assert len(classes) == 1

    def test_kinematics_are_simulated_response(self):
        cfg = SynthConfig(n_samples=10, snr_db=NOISELESS, seed=4)
        model = ArmModel()
        rec, classes = generate_movement(cfg, 50, model=model)
        expected = forward_dynamics(model, ActivationTrajectory.from_classes(classes))
        np.testing.assert_array_equal(rec.kinematics, expected.angles_deg)
        assert np.all(rec.kinematics >= model.angle_min_deg)
        assert np.all(rec.kinematics <= model.angle_max_deg)

    def test_high_snr_decode_recovers_ramp(self):
        cfg = SynthConfig(n_samples=500, snr_db=40.0, seed=7)
        model = train(generate_dataset(cfg), ForestHyperparams())
        move_cfg = SynthConfig(n_samples=10, snr_db=40.0, seed=13)
        rec, classes = generate_movement(move_cfg, 200)
        pred = predict_trajectory(model, window_frames(rec))
        assert pred == classes


class TestDatasetToRecording:
    def test_labels_recoverable_by_inverse(self, tmp_path):
        cfg = SynthConfig(n_samples=40, snr_db=25.0, seed=9)
        ds = generate_dataset(cfg)
        arm = ArmModel()
        rec = dataset_to_recording(ds, model=arm)
        path = tmp_path / "d.csv"
        write_recording_csv(rec, path)
        back = load_recording_csv(path)
        frames = window_frames(back)
        labels = derive_labels(arm, AngleTrajectory(back.kinematics))
        assert labels == list(ds.labels)
        for fa, fb in zip(frames, ds.frames):
            np.testing.assert_array_equal(fa.values, fb.values)


class TestNonFiniteEeg:
    @pytest.mark.parametrize("make", [lambda cfg: generate_movement(cfg, 20)[0],
                                      generate_dataset], ids=["movement", "dataset"])
    def test_overflowing_amplitude_refused(self, make):
        with pytest.raises(ValueError, match=r"^synthetic EEG is not finite at snr_db=-4000.0$"):
            make(SynthConfig(snr_db=-4000.0))

    def test_minus_infinite_snr_refused(self):
        with pytest.raises(ValueError, match="snr_db=-inf"):
            generate_dataset(SynthConfig(n_samples=20, snr_db=-NOISELESS))

    def test_overflowing_snr_is_noiseless(self):
        loud, _ = generate_movement(SynthConfig(n_samples=10, snr_db=4000.0, seed=2), 20)
        clean, _ = generate_movement(SynthConfig(n_samples=10, snr_db=NOISELESS, seed=2), 20)
        np.testing.assert_array_equal(loud.samples, clean.samples)


class TestPeakMemory:
    """A recording is generated in about its own size: the noise is drawn
    into the buffer that the recording keeps."""

    @pytest.mark.parametrize("frames", [2500, 20000])
    @pytest.mark.parametrize("snr_db", [20.0, NOISELESS], ids=["noisy", "noiseless"])
    @pytest.mark.parametrize("kind", ["dataset", "movement"])
    def test_peak_of_one_recording(self, monkeypatch, kind, snr_db, frames):
        original, drawn = datagen._eeg, []

        def eeg(*args):
            drawn.append(original(*args))
            return drawn[-1]

        monkeypatch.setattr(datagen, "_eeg", eeg)

        def make(n):
            cfg = SynthConfig(n_samples=max(n, 10), snr_db=snr_db, seed=3)
            if kind == "dataset":
                return _labeled_recording(cfg, ArmModel())[0]
            return _movement_recording(cfg, _ramp(n), ArmModel())

        make(10)  # the first call's one-off imports are not the recording's
        if kind == "movement":
            # the RK4 loop allocates nothing the size of the recording, but runs
            # ten times slower traced: it hands over its result, made untraced
            levels = ActivationTrajectory(levels=_ramp(frames) / 10.0)
            angles = forward_dynamics(ArmModel(), levels)
            monkeypatch.setattr(datagen, "forward_dynamics", lambda model, act: angles)
        tracemalloc.start()
        try:
            rec = make(frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.samples is drawn[-1]
        assert peak <= 1.5 * rec.samples.nbytes
