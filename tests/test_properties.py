"""Property tests of the array-native paths, the split search, the RK4
stepper and the input boundaries."""

import dataclasses
import io
import json
import math
import struct
import tempfile
from functools import lru_cache
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from helpers import (
    _eeg_reference,
    _integrate_control_step,
    assert_loads_as_streaming,
    best_split_reference,
    derive_labels_reference,
    evaluate_static_reference,
    forest_votes_reference,
    forward_states_reference,
    generate_dataset_reference,
    inverse_tracking_reference,
    map_angle_to_f0_reference,
    movement_samples_reference,
    ramp_classes_reference,
    snap_to_class_angle_reference,
)

from neurof0 import forest
from neurof0.arm import (
    ActivationTrajectory,
    AngleTrajectory,
    ArmModel,
    class_angles,
    derive_labels,
    equilibrium_angle,
    forward_states,
    inverse_tracking,
    label_classes,
)
from neurof0.datagen import (
    SynthConfig,
    _ramp,
    dataset_to_recording,
    generate_dataset,
    generate_movement,
    ramp_classes,
)
from neurof0.cli import cli_main
from neurof0.eeg import (
    ANGLE_COLUMN,
    DEFAULT_CHANNELS,
    ActivationClass,
    EegRecording,
    _number,
    load_recording_csv,
    write_columns,
    write_recording_csv,
)
from neurof0.errors import DataError, ModelFileError
from neurof0.forest import LEAF, ForestHyperparams, load_model, predict_batch, save_model, train
from neurof0.pipeline import PipelineConfig, _snap_to_class_angles, evaluate_static, load_config
from neurof0.voice import F0Mapping, map_angle_to_f0, map_trajectory

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@lru_cache(maxsize=None)
def forest_at(snr_db: float):
    ds = generate_dataset(SynthConfig(n_samples=200, snr_db=snr_db, seed=int(snr_db)))
    return train(ds, ForestHyperparams(n_estimators=5))


def split_values(model) -> list[float]:
    return sorted({float(t.threshold[i]) for t in model.trees
                   for i in range(t.n_nodes) if t.feature[i] != LEAF})


def assert_matches_reference(model, X):
    classes, votes = predict_batch(model, X)
    assert votes.shape == (len(X), 10) and classes.shape == (len(X),)
    for x, cls, v in zip(X, classes, votes):
        ref = forest_votes_reference(model, x)
        np.testing.assert_array_equal(v, ref)
        assert cls == int(np.argmax(ref)) + 1


class TestPredictBatch:
    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 40.0])
    @SETTINGS
    @given(X=arrays(np.float64, st.tuples(st.integers(0, 30), st.just(100)),
                    elements=st.floats(-60.0, 60.0)))
    def test_matches_scalar_walk_on_random_rows(self, snr_db, X):
        assert_matches_reference(forest_at(snr_db), X)

    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 40.0])
    @SETTINGS
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_matches_scalar_walk_on_split_thresholds(self, snr_db, n, seed):
        # every feature sits exactly on some split threshold, so many
        # comparisons are equalities, which must send the row left
        model = forest_at(snr_db)
        X = np.random.default_rng(seed).choice(split_values(model), size=(n, 100))
        assert_matches_reference(model, X)


def split_bits(best):
    """A split search result with its floats as bit patterns, so -0.0 != 0.0."""
    if best is None:
        return None
    impurity, feature, threshold = best
    return (np.float64(impurity).tobytes(), int(feature), np.float64(threshold).tobytes())


class TestBestSplit:
    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n_base=st.integers(1, 40),
           n=st.integers(2, 320), n_classes=st.integers(1, 10),
           n_values=st.integers(1, 12), k=st.integers(1, 100),
           budget=st.sampled_from([1, 50, forest._ROW_BUDGET]), data=st.data())
    @example(seed=0, n_base=40, n=320, n_classes=10, n_values=12, k=100,
             budget=forest._ROW_BUDGET, data=None)
    def test_matches_per_feature_search(self, seed, n_base, n, n_classes, n_values, k,
                                        budget, data):
        # a bootstrap-style node: n draws with replacement from n_base rows
        # whose features come from a few values, -0.0 and 0.0 among them,
        # so rows repeat and every feature has ties; smaller row budgets
        # split the candidates over more batches
        rng = np.random.default_rng(seed)
        values = np.concatenate([[-0.0, 0.0], np.round(rng.normal(scale=5.0, size=n_values), 1)])
        X = rng.choice(values, size=(n_base, 100))
        y = rng.integers(0, n_classes, size=n_base)
        idx = rng.integers(0, n_base, size=n)
        feats = np.sort(rng.choice(100, size=k, replace=False)).tolist()
        min_leaf = 1 if data is None else data.draw(st.integers(1, max(1, n // 2)))
        with patch.object(forest, "_ROW_BUDGET", budget):
            got = forest._best_split(np.ascontiguousarray(X.T), np.eye(10, dtype=np.int8)[y],
                                     idx, feats, min_leaf)
        want = best_split_reference(X, np.eye(10)[y], idx, feats, min_leaf)
        assert split_bits(got) == split_bits(want)


class TestEvaluateStatic:
    ARMS = [ArmModel(), ArmModel(max_muscle_force_n=200.0)]

    @pytest.mark.parametrize("arm", ARMS)
    @SETTINGS
    @given(pairs=st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)),
                          min_size=1, max_size=60))
    def test_matches_per_frame_formulas(self, arm, pairs):
        # with the strong muscle classes 4..10 share one angle, so angle
        # accuracy differs from classifier accuracy
        cfg = PipelineConfig(arm=arm)
        pred = [ActivationClass(p) for p, _t in pairs]
        truth = [ActivationClass(t) for _p, t in pairs]
        assert (evaluate_static(cfg, pred, truth).to_json()
                == evaluate_static_reference(cfg, pred, truth).to_json())


class TestSnapTable:
    MODELS = [ArmModel(), ArmModel(max_muscle_force_n=200.0), ArmModel(angle_max_deg=60.0)]

    @pytest.mark.parametrize("arm", MODELS)
    def test_equilibria_and_their_neighbours(self, arm):
        eq = np.array([equilibrium_angle(arm, k / 10.0) for k in range(1, 11)])
        probes = np.concatenate([eq, np.nextafter(eq, -np.inf), np.nextafter(eq, np.inf),
                                 0.5 * (eq[:-1] + eq[1:])])
        got = _snap_to_class_angles(arm, probes)
        assert got.tolist() == [snap_to_class_angle_reference(arm, float(t)) for t in probes]

    def test_saturated_classes_tie_to_the_lowest(self):
        # with a strong muscle classes 4..10 all rest at 90 degrees
        arm = ArmModel(max_muscle_force_n=200.0)
        assert _snap_to_class_angles(arm, np.array([90.0])).tolist() == [4]

    @pytest.mark.parametrize("arm", MODELS)
    @SETTINGS
    @given(angles=st.lists(st.floats(0.0, 90.0), min_size=1, max_size=50))
    def test_random_angles(self, arm, angles):
        got = _snap_to_class_angles(arm, np.array(angles))
        assert got.tolist() == [snap_to_class_angle_reference(arm, t) for t in angles]


def bits(values) -> list[int]:
    """Float64 values as their bit patterns, so -0.0 != 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestMapTrajectory:
    MAPPINGS = [F0Mapping(), F0Mapping(angle_min_deg=-0.0),
                F0Mapping(angle_min_deg=10.0, angle_max_deg=60.0, f0_min_hz=200.0, f0_max_hz=900.0),
                F0Mapping(angle_min_deg=-30.0, angle_max_deg=120.5, f0_min_hz=55.0,
                          f0_max_hz=7040.0)]

    @staticmethod
    def specials(mapping) -> list[float]:
        limits = [mapping.angle_min_deg, mapping.angle_max_deg]
        return [1e308, -1e308, 0.0, -0.0, *limits, *np.nextafter(limits, -np.inf).tolist(),
                *np.nextafter(limits, np.inf).tolist()]

    def assert_matches_reference(self, mapping, angles):
        want = [map_angle_to_f0_reference(mapping, a) for a in angles]
        assert bits(map_trajectory(mapping, AngleTrajectory(angles)).values_hz) == bits(want)
        assert bits([map_angle_to_f0(mapping, a) for a in angles]) == bits(want)

    @pytest.mark.parametrize("mapping", MAPPINGS)
    @SETTINGS
    @given(data=st.data())
    def test_bit_equal_to_scalar_map(self, mapping, data):
        angles = data.draw(st.lists(st.one_of(st.floats(-1e308, 1e308),
                                              st.sampled_from(self.specials(mapping))),
                                    max_size=40))
        self.assert_matches_reference(mapping, angles)

    @SETTINGS
    @given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3),
           f0_lo=st.floats(1.0, 1e4), f0_width=st.floats(1e-3, 1e4), data=st.data())
    def test_bit_equal_on_drawn_mappings(self, lo, width, f0_lo, f0_width, data):
        mapping = F0Mapping(angle_min_deg=lo, angle_max_deg=lo + width,
                            f0_min_hz=f0_lo, f0_max_hz=f0_lo + f0_width)
        angles = data.draw(st.lists(st.one_of(st.floats(lo - 2 * width, lo + 2 * width),
                                              st.sampled_from(self.specials(mapping))),
                                    min_size=1, max_size=40))
        self.assert_matches_reference(mapping, angles)


class TestLabelClasses:
    # ratio below one (150 N), one (the calibrated default) and above one
    # (40 N), where the activation that holds an angle is clamped to 1
    ARMS = [ArmModel(), ArmModel(max_muscle_force_n=150.0), ArmModel(max_muscle_force_n=40.0)]

    @staticmethod
    def tie_angles(arm) -> np.ndarray:
        """Each angle whose activation lies on a class-rounding tie, and 50
        nextafter steps to either side of it."""
        ratio = arm.gravity_torque_max_nm / (arm.max_muscle_force_n * arm.moment_arm_m)
        ties = [math.degrees(math.asin((k + 0.5) / 10 / ratio)) for k in range(10)
                if (k + 0.5) / 10 / ratio <= 1.0]
        out = []
        for t in ties:
            down = up = t
            out.append(t)
            for _ in range(50):
                down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
                out += [down, up]
        return np.clip(out, arm.angle_min_deg, arm.angle_max_deg)

    def assert_matches_reference(self, arm, angles):
        want = derive_labels_reference(arm, angles)
        assert label_classes(arm, angles).tolist() == want
        assert [c.index for c in derive_labels(arm, AngleTrajectory(angles))] == want

    @pytest.mark.parametrize("arm", ARMS)
    def test_rounding_ties(self, arm):
        angles = self.tie_angles(arm)
        assert len(angles) > 100
        self.assert_matches_reference(arm, angles)

    @pytest.mark.parametrize("arm", ARMS)
    @SETTINGS
    @given(angles=st.lists(st.floats(0.0, 90.0), max_size=60))
    def test_random_angles(self, arm, angles):
        self.assert_matches_reference(arm, np.array(angles, dtype=float))

    @SETTINGS
    @given(force_n=st.floats(1e-3, 1e308), moment_m=st.floats(1e-3, 1e5),
           lo=st.floats(0.0, 89.0), width=st.floats(1e-3, 90.0))
    @example(force_n=1e308, moment_m=1e5, lo=0.0, width=90.0)  # every angle labels as class 1
    @example(force_n=73.575, moment_m=0.03, lo=0.0, width=90.0)  # the calibrated default
    def test_refused_exactly_when_every_class_gets_one_label(self, force_n, moment_m, lo, width):
        arm = ArmModel(max_muscle_force_n=force_n, moment_arm_m=moment_m,
                       angle_min_deg=lo, angle_max_deg=min(90.0, lo + width))
        one_label = len(set(derive_labels_reference(arm, class_angles(arm)))) == 1
        if one_label:
            with pytest.raises(DataError, match="all ten classes"):
                label_classes(arm, [arm.angle_min_deg])
        else:
            self.assert_matches_reference(arm, [arm.angle_min_deg, arm.angle_max_deg])


@SETTINGS
@given(n=st.integers(1, 3000))
@example(n=1)
@example(n=2)
@example(n=3000)
def test_ramp_classes_match_scalar_ramp(n):
    want = ramp_classes_reference(n)
    classes = _ramp(n)  # the int64 vector gen-data --movement-steps runs on
    assert classes.dtype == np.int64 and classes.tolist() == want
    assert [c.index for c in ramp_classes(n)] == want


def stop_at_turn(arm, level: float, theta0_deg: float, sub_dt_s: float):
    """(arm, control steps): arm with one joint limit placed inside the
    first sub-step that reverses the swing from rest at theta0_deg under a
    constant level, so that sub-step passes the stop while its velocity
    already points away from it; None if no sub-step does so within 2 s."""
    wide = dataclasses.replace(arm, angle_min_deg=-180.0, angle_max_deg=180.0)
    theta, omega = math.radians(theta0_deg), 0.0
    for j in range(round(2.0 / sub_dt_s)):
        th, om = _integrate_control_step(wide, theta, omega, level, sub_dt_s, 1)
        if omega < 0.0 < om and th < theta:  # a lower turn below the last angle
            limits = {"angle_min_deg": math.degrees(0.5 * (theta + th))}
        elif om < 0.0 < omega and th > theta:  # an upper turn above it
            limits = {"angle_max_deg": math.degrees(0.5 * (theta + th))}
        else:
            theta, omega = th, om
            continue
        return dataclasses.replace(wide, **limits), math.ceil((j + 1) * sub_dt_s / 0.01) + 3
    return None


class TestStepper:
    """forward_states and inverse_tracking against the reference RK4 in
    tests/helpers.py, compared bit for bit."""

    # the default arm, a saturating 150 N arm, a 40 N arm, no damping
    ARMS = [ArmModel(), ArmModel(max_muscle_force_n=150.0),
            ArmModel(max_muscle_force_n=40.0), ArmModel(damping_nms=0.0)]
    LIMITS = [(0.0, 90.0), (-0.0, 90.0), (-0.0, 45.0), (-30.0, 120.0), (20.0, 60.0)]
    SUB_DT = [1e-3, 2e-3, 5e-3, 1e-4]
    LEVELS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([k / 10 for k in range(11)]))

    @staticmethod
    def assert_forward_matches(arm, levels, theta0_deg, sub_dt_s):
        angles, omegas = forward_states(arm, ActivationTrajectory(levels), theta0_deg, sub_dt_s)
        want_angles, want_omegas = forward_states_reference(arm, levels, theta0_deg, sub_dt_s)
        assert bits(angles.angles_deg) == bits(want_angles)
        assert bits(omegas) == bits(want_omegas)

    def draw_arm(self, data):
        lo, hi = data.draw(st.sampled_from(self.LIMITS))
        arm = data.draw(st.sampled_from(self.ARMS))
        return dataclasses.replace(arm, angle_min_deg=lo, angle_max_deg=hi)

    @SETTINGS
    @given(data=st.data())
    def test_forward_states(self, data):
        arm = self.draw_arm(data)
        # starts inside and outside the limits
        theta0 = data.draw(st.floats(arm.angle_min_deg - 60.0, arm.angle_max_deg + 60.0))
        sub_dt = data.draw(st.sampled_from(self.SUB_DT))
        levels = data.draw(st.lists(self.LEVELS, min_size=1, max_size=12 if sub_dt < 1e-3 else 40))
        self.assert_forward_matches(arm, levels, theta0, sub_dt)

    @SETTINGS
    @given(arm=st.sampled_from(ARMS), level=LEVELS, theta0=st.floats(-80.0, 80.0),
           sub_dt=st.sampled_from(SUB_DT[:3]))
    def test_forward_states_at_a_turning_stop(self, arm, level, theta0, sub_dt):
        case = stop_at_turn(arm, level, theta0, sub_dt)
        if case is not None:
            arm, n_steps = case
            self.assert_forward_matches(arm, [level] * n_steps, theta0, sub_dt)

    @SETTINGS
    @given(data=st.data())
    def test_inverse_tracking(self, data):
        arm = self.draw_arm(data)
        lo, hi = arm.angle_min_deg, arm.angle_max_deg
        sub_dt = data.draw(st.sampled_from(self.SUB_DT))
        target = data.draw(st.lists(st.floats(lo, hi), min_size=1,
                                    max_size=4 if sub_dt < 1e-3 else 12))
        theta0 = data.draw(st.one_of(st.none(), st.floats(lo - 60.0, hi + 60.0)))
        act, loss = inverse_tracking(arm, AngleTrajectory(target), theta0, sub_dt)
        want_levels, want_loss = inverse_tracking_reference(arm, target, theta0, sub_dt)
        assert bits(act.levels) == bits(want_levels)
        assert bits([loss]) == bits([want_loss])


class TestCsvRoundTrip:
    @SETTINGS
    @given(steps=st.integers(1, 3), data=st.data())
    @example(steps=1, data=None)
    def test_bit_exact(self, steps, data):
        if data is None:
            special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                       1e308, -1e308, 1.7976931348623157e308, 0.1]
            samples = np.resize(np.array(special), (10, 10))
            kin = np.array([-0.0])
        else:
            samples = data.draw(arrays(np.float64, (10, 10 * steps), elements=FINITE))
            kin = data.draw(arrays(np.float64, (steps,), elements=FINITE))
        rec = EegRecording(samples=samples, kinematics=kin)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            write_recording_csv(rec, path)
            back = load_recording_csv(path)
        assert back.samples.view(np.uint64).tolist() == rec.samples.view(np.uint64).tolist()
        assert back.kinematics.view(np.uint64).tolist() == rec.kinematics.view(np.uint64).tolist()

    @settings(SETTINGS, max_examples=200)
    @given(data=st.data())
    def test_every_recording_round_trips(self, data):
        # EegRecording refuses what a recording CSV cannot hold, so whatever
        # it accepts loads back from write_recording_csv unchanged
        n_channels = data.draw(st.sampled_from([10, 9, 11]))
        n_samples = data.draw(st.integers(0, 25))
        samples = data.draw(arrays(np.float64, (n_channels, n_samples),
                                   elements=st.floats(width=64)))
        chars = st.characters() | st.characters(categories=["Cs"])  # surrogates too
        names = data.draw(st.lists(st.sampled_from(DEFAULT_CHANNELS) | st.text(chars, max_size=50),
                                   min_size=n_channels, max_size=n_channels))
        shapes = st.just((n_samples // 10,)) | array_shapes(min_dims=0, max_dims=2, min_side=0,
                                                            max_side=3)
        kinematics = data.draw(st.none() | arrays(np.float64, shapes,
                                                  elements=st.floats(width=64)))
        try:
            rec = EegRecording(samples, channel_names=names, kinematics=kinematics)
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            write_recording_csv(rec, path)
            back = load_recording_csv(path)
        assert back.channel_names == rec.channel_names
        assert back.samples.view(np.uint64).tolist() == rec.samples.view(np.uint64).tolist()
        assert (back.kinematics is None) == (rec.kinematics is None)
        if rec.kinematics is not None:
            assert (back.kinematics.view(np.uint64).tolist()
                    == rec.kinematics.view(np.uint64).tolist())


# an SNR flag value, or None for the default (no flag)
SNR_DB = st.one_of(st.floats(-30.0, 80.0), st.just(math.inf), st.none())


def _gen_data(tmp: str, force_n: float, seed: int, snr_db, *flags: str) -> None:
    """Run gen-data into tmp under an arm of max_muscle_force_n force_n."""
    config = Path(tmp) / "arm.json"
    config.write_text(json.dumps({"arm": {"max_muscle_force_n": force_n}}))
    snr_flag = [] if snr_db is None else [f"--snr-db={snr_db}"]
    assert cli_main(["--config", str(config), "--out", tmp, "--seed", str(seed),
                     "gen-data", *flags, *snr_flag]) == 0


class TestGenDataset:
    """gen-data, generate_dataset and generate_movement against the
    frame-by-frame generator and the tiling _eeg."""

    @SETTINGS
    @given(n=st.integers(10, 300), seed=st.integers(0, 2**64 - 1), snr_db=SNR_DB,
           force_n=st.sampled_from([150.0, 40.0]))
    def test_matches_reference(self, n, seed, snr_db, force_n):
        cfg = SynthConfig(n_samples=n, seed=seed,
                          **({} if snr_db is None else {"snr_db": snr_db}))
        reference = generate_dataset_reference(cfg)
        with tempfile.TemporaryDirectory() as tmp:
            _gen_data(tmp, force_n, seed, snr_db, "--n", str(n))
            back = load_recording_csv(Path(tmp) / "dataset.csv")
        want = dataset_to_recording(reference, ArmModel(max_muscle_force_n=force_n))
        assert back.samples.tobytes() == want.samples.tobytes()
        assert back.kinematics.tobytes() == want.kinematics.tobytes()

        ds = generate_dataset(cfg)
        assert [f.values.tobytes() for f in ds.frames] == \
            [f.values.tobytes() for f in reference.frames]
        assert [f.index for f in ds.frames] == [f.index for f in reference.frames]
        assert ds.labels == reference.labels
        assert ds.metadata == reference.metadata
        assert ds.split_seed == reference.split_seed

    @SETTINGS
    @given(steps=st.integers(1, 300), seed=st.integers(0, 2**64 - 1), snr_db=SNR_DB,
           force_n=st.sampled_from([150.0, 40.0]))
    def test_movement_matches_reference(self, steps, seed, snr_db, force_n):
        cfg = SynthConfig(seed=seed, **({} if snr_db is None else {"snr_db": snr_db}))
        want = movement_samples_reference(cfg, steps)
        with tempfile.TemporaryDirectory() as tmp:
            _gen_data(tmp, force_n, seed, snr_db, "--movement-steps", str(steps))
            back = load_recording_csv(Path(tmp) / "movement.csv")
        rec, classes = generate_movement(cfg, steps, ArmModel(max_muscle_force_n=force_n))
        assert [c.index for c in classes] == ramp_classes_reference(steps)
        assert rec.samples.tobytes() == want.tobytes()
        assert back.samples.tobytes() == want.tobytes()
        assert back.kinematics.tobytes() == rec.kinematics.tobytes()

    @pytest.mark.parametrize("kind", [("--n", "20"), ("--movement-steps", "20")],
                             ids=["dataset", "movement"])
    def test_all_noise_refused_as_before(self, tmp_path, capsys, kind):
        cfg = SynthConfig(n_samples=20, snr_db=-math.inf)
        with pytest.raises(ValueError) as want:
            _eeg_reference(cfg, [1] * 20, np.random.default_rng(0))
        assert cli_main(["--out", str(tmp_path), "gen-data", *kind, "--snr-db=-inf"]) == 2
        assert capsys.readouterr().err == f"nf0: error: --snr-db -inf: {want.value}\n"
        assert list(tmp_path.iterdir()) == []


@lru_cache(maxsize=None)
def model_blob() -> bytes:
    model = train(generate_dataset(SynthConfig(n_samples=60, snr_db=15.0, seed=14)),
                  ForestHyperparams(n_estimators=4))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.nf0f"
        save_model(model, path)
        return path.read_bytes()


def load_blob(blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.nf0f"
        path.write_bytes(blob)
        return load_model(path)


class TestModelFileFuzz:
    @SETTINGS
    @given(bits=st.lists(st.integers(0, 8 * len(model_blob()) - 1), min_size=1, max_size=3))
    def test_bit_flips(self, bits):
        blob = bytearray(model_blob())
        for bit in bits:
            blob[bit // 8] ^= 1 << (bit % 8)
        try:
            model = load_blob(bytes(blob))
        except ModelFileError:
            return
        X = np.random.default_rng(0).normal(scale=30.0, size=(16, 100))
        _classes, votes = predict_batch(model, X)
        assert votes.sum(axis=1).tolist() == [len(model.trees)] * 16

    @SETTINGS
    @given(length=st.integers(0, len(model_blob()) - 1))
    def test_truncations(self, length):
        with pytest.raises(ModelFileError):
            load_blob(model_blob()[:length])

    def test_backward_child_is_rejected(self):
        # a stump whose root stores left = 0: a walk from the root would never end
        blob = (b"NF0F" + struct.pack("<H", 1) + struct.pack("<IIIqII", 1, 1, 2, 42, 10, 1)
                + struct.pack("<I", 3)
                + struct.pack("<BIdII", 1, 0, 0.0, 0, 2)
                + struct.pack("<B10I", 0, *[1] * 10) * 2)
        with pytest.raises(ModelFileError, match="tree 0: node 0: stored children 0 and 2"):
            load_blob(blob)


# bytes a mutation inserts: quoting, line-ending, blank and cell-separating
# characters, a NUL, a byte that is not UTF-8, one cell longer than the csv
# module's 131,072-character field limit, and an underscore and a full-width
# digit, which float() reads in a number but np.loadtxt does not
INSERTS = [b"\x00", b'"', b"\r", b"\n", b" ", b",", b"\xff", b"1" * 131_073,
           b"_", "\uff11".encode()]


def mutate(data, blob: bytes) -> bytes:
    """One to three truncations, byte flips or insertions drawn from data."""
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["truncate", "flip", "insert"]))
        pos = data.draw(st.integers(0, len(out)))
        if kind == "truncate":
            del out[pos:]
        elif kind == "flip" and pos < len(out):
            out[pos] ^= 1 << data.draw(st.integers(0, 7))
        else:
            out[pos:pos] = data.draw(st.sampled_from(INSERTS))
    return bytes(out)


def load_text(load, blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(blob)
        return load(path)


@lru_cache(maxsize=None)
def gen_data_csv() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        assert cli_main(["--out", tmp, "gen-data", "--n", "20"]) == 0
        return (Path(tmp) / "dataset.csv").read_bytes()


@st.composite
def recording_blobs(draw) -> bytes:
    """Mutated gen-data output, or a recording CSV mutated or not: samples
    finite or not, with or without kinematics, partial last window. The CSV
    is laid out as write_recording_csv lays it out, but written through
    write_columns, as no EegRecording holds a non-finite sample."""
    data = draw(st.data())
    if data.draw(st.booleans()):
        return mutate(data, gen_data_csv())
    n = data.draw(st.integers(1, 45))
    samples = data.draw(arrays(np.float64, (10, n), elements=st.floats(width=64)))
    header, columns = list(DEFAULT_CHANNELS), list(samples)
    if data.draw(st.booleans()):
        kinematics = data.draw(arrays(np.float64, n // 10, elements=FINITE))
        angles = [None] * n
        angles[:len(kinematics) * 10:10] = kinematics.tolist()
        header.append(ANGLE_COLUMN)
        columns.append(angles)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.csv"
        write_columns(path, header, columns)
        blob = path.read_bytes()
    return mutate(data, blob) if data.draw(st.booleans()) else blob


# pieces of number text, and the underscore, whitespace and non-ASCII digits
# on which float() alone and np.loadtxt differ
NUMBER_PIECES = ["0", "1", "5", ".", "e", "E", "-", "+", "nan", "inf", "Infinity", " ", "\t",
                 "_", "\xa0", "\u3000", "\uff11", "\u0661", "\x00", "\x1c"]


CONFIG_JSON = json.dumps({
    "arm": {"forearm_mass_kg": 1.5, "damping_nms": 0.2},
    "mapping": {"f0_min_hz": 1500.0, "f0_max_hz": 5150.0},
    "forest": {"n_estimators": 10, "seed": 42},
    "split": {"train_fraction": 0.7, "seed": 0},
    "synth": {"sample_rate_hz": 44100, "amplitude": 0.8},
    "paths": {"model": "model.nf0f", "data": None, "out_dir": "out"},
}).encode()


class TestTextFuzz:
    @SETTINGS
    @given(data=st.data())
    def test_recording_csv(self, data):
        try:
            rec = load_text(load_recording_csv, mutate(data, gen_data_csv()))
        except DataError:
            return
        assert rec.n_channels == 10
        assert np.all(np.isfinite(rec.samples))
        assert rec.kinematics is None or np.all(np.isfinite(rec.kinematics))
        assert rec.kinematics is None or len(rec.kinematics) == rec.n_samples // 10

    @SETTINGS
    @given(blob=recording_blobs())
    # a non-finite sample on row 2 and a ragged row 3: the text fault is named
    @example(blob=("\n".join([",".join(DEFAULT_CHANNELS), ",".join(["inf"] + ["1.0"] * 9),
                              "1.0,2.0"]) + "\n").encode())
    # angle_deg first and empty on row 4, whose F7 holds oops: F7 is named
    @example(blob=("\n".join([",".join([ANGLE_COLUMN, *DEFAULT_CHANNELS]),
                              ",".join(["10.0"] + ["1.0"] * 10), ",".join([""] + ["1.0"] * 10),
                              ",".join(["", "1.0", "1.0", "oops"] + ["1.0"] * 7)]) + "\n").encode())
    def test_recording_csv_fast_path_matches_streaming_reader(self, blob):
        load_text(assert_loads_as_streaming, blob)

    @SETTINGS
    @given(cell=st.lists(st.sampled_from(NUMBER_PIECES) | st.characters(
        blacklist_characters=',"\r\n', blacklist_categories=("Cs",))).map("".join))
    @example(cell="1_0")
    @example(cell="\uff11.\uff15")
    @example(cell="\xa0-1.5e3\u3000")
    @example(cell="\x1c0")  # float() refuses it unstripped
    def test_number_reads_what_loadtxt_reads(self, cell):
        # one cell with no comma, quote or line break, then a second cell,
        # so that a blank first cell is no blank line
        try:
            want = np.loadtxt(io.StringIO(cell + ",0\n"), delimiter=",", quotechar='"',
                              comments=None, ndmin=2)[0, 0]
        except ValueError:
            with pytest.raises(ValueError):
                _number(cell)
            return
        assert np.float64(_number(cell)).tobytes() == want.tobytes()

    @SETTINGS
    @given(data=st.data())
    def test_config_json(self, data):
        try:
            cfg = load_text(load_config, mutate(data, CONFIG_JSON))
        except DataError:
            return
        assert isinstance(cfg, PipelineConfig)
