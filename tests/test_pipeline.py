import json
import re

import numpy as np
import pytest

from neurof0.arm import ActivationTrajectory, AngleTrajectory, derive_labels, forward_dynamics
from neurof0.datagen import SynthConfig, generate_dataset, generate_movement, _eeg
from neurof0.eeg import ActivationClass, EegRecording, window_frames
from neurof0.errors import DataError, PipelineStageError
from neurof0.forest import ForestHyperparams, predict_trajectory, train
from neurof0.pipeline import (
    PipelineConfig,
    config_from_dict,
    evaluate_static,
    load_config,
    run_pipeline,
)
from neurof0.voice import map_trajectory, synthesize

NOISELESS = float("inf")


@pytest.fixture(scope="module")
def trained_model():
    return train(generate_dataset(SynthConfig(n_samples=300, snr_db=40.0, seed=7)),
                 ForestHyperparams())


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.train_fraction == 0.7
        assert cfg.forest.seed == 42
        assert cfg.arm.is_calibrated()

    def test_from_dict_round_trip(self):
        raw = {
            "arm": {"damping_nms": 0.15},
            "mapping": {"angle_max_deg": 80.0},
            "forest": {"n_estimators": 5},
            "split": {"train_fraction": 0.6, "seed": 9},
            "synth": {"sample_rate_hz": 22050, "amplitude": 0.5},
            "paths": {"model": "m.nf0f", "data": "d.csv", "out_dir": "o"},
        }
        cfg = config_from_dict(raw)
        assert cfg.arm.damping_nms == 0.15
        assert cfg.mapping.angle_max_deg == 80.0
        assert cfg.forest.n_estimators == 5
        assert cfg.train_fraction == 0.6 and cfg.split_seed == 9
        assert cfg.synth_sample_rate_hz == 22050
        assert cfg.model_path == "m.nf0f"

    @pytest.mark.parametrize(
        "raw",
        [
            {"armz": {}},
            {"arm": {"mass": 2.0}},
            {"split": {"fraction": 0.5}},
            {"paths": {"output": "x"}},
            {"forest": {"n_estimators": 0}},
            {"split": {"seed": None}},
            {"split": 5},
            {"synth": {"amplitude": [1]}},
            {"paths": {"model": 5}},
            {"forest": {"seed": 1.5}},
            {"forest": {"n_estimators": 2.5}},
            {"split": {"seed": 9.7}},
            {"synth": {"sample_rate_hz": 22050.5}},
            {"forest": {"n_estimators": True}},
            {"split": {"seed": False}},
            {"synth": {"amplitude": True}},
            {"arm": {"damping_nms": "0.2"}},
            {"mapping": {"f0_max_hz": float("inf")}},
            {"split": {"train_fraction": float("nan")}},
            {"arm": {"gravity_ms2": 10**400}},
            {"arm": None},
            {"paths": ["model.nf0f"]},
            {"forest": {"seed": 18446744073709551615}},
            {"synth": {"sample_rate_hz": 2**31}},
            {"split": {"seed": -1}},
            {"split": {"seed": 2**64}},
        ],
    )
    def test_unknown_or_invalid_keys_rejected(self, raw):
        with pytest.raises(DataError):
            config_from_dict(raw)

    @pytest.mark.parametrize("raw, match", [
        ({"split": {"seed": 9.7}}, "'seed' in section 'split' must be an integer, got 9.7"),
        ({"forest": {"n_estimators": True}},
         "'n_estimators' in section 'forest' must be an integer, got True"),
        ({"synth": {"amplitude": [1]}}, "'amplitude' in section 'synth' must be a finite number"),
        ({"paths": {"model": 5}}, "'model' in section 'paths' must be a string or null"),
        ({"split": 5}, "section 'split' must be a JSON object"),
        ({"paths": {"output": "x"}}, "unknown key(s) ['output'] in config section 'paths'"),
        ({"armz": {}}, "unknown key(s) ['armz'] in the config"),
        ({"split": {"train_fraction": 1.5}}, "invalid config: train_fraction must be in (0, 1)"),
        ({"synth": {"amplitude": 1.5}}, "invalid config: synth_amplitude must be within [0, 1]"),
    ])
    def test_rejection_names_section_and_key(self, raw, match):
        with pytest.raises(DataError, match=re.escape(match)):
            config_from_dict(raw)

    def test_json_numbers_accepted(self):
        cfg = config_from_dict({"arm": {"damping_nms": 0}, "synth": {"amplitude": 1},
                                "forest": {"seed": -(2**63)},
                                "paths": {"model": None, "data": "d.csv"}})
        assert cfg.arm.damping_nms == 0 and cfg.synth_amplitude == 1
        assert cfg.forest.seed == -(2**63)
        assert cfg.model_path is None and cfg.data_path == "d.csv"

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(DataError):
            load_config(path)
        path.write_text("[1, 2]")
        with pytest.raises(DataError):
            load_config(path)

    def test_split_seed_range(self):
        assert config_from_dict({"split": {"seed": 2**64 - 1}}).split_seed == 2**64 - 1
        with pytest.raises(DataError, match="split_seed must be in 0..2"):
            config_from_dict({"split": {"seed": -1}})

    def test_synth_rate_upper_bound_accepted(self):
        cfg = config_from_dict({"synth": {"sample_rate_hz": 2**31 - 1}})
        assert cfg.synth_sample_rate_hz == 2**31 - 1

    @pytest.mark.parametrize("text, match", [
        (b"[" * 200_000, "maximum recursion depth exceeded"),
        (b'{"split": {"seed": 1\xff}}', "can't decode byte 0xff"),
    ], ids=["deep-nesting", "not-utf8"])
    def test_load_config_unparsable_text_named(self, tmp_path, text, match):
        path = tmp_path / "c.json"
        path.write_bytes(text)
        with pytest.raises(DataError, match=re.escape(f"{path}: invalid JSON (")) as exc:
            load_config(path)
        assert match in str(exc.value)


class TestRunPipeline:
    def test_stage_composition(self, trained_model):
        cfg = PipelineConfig()
        rec, _classes = generate_movement(SynthConfig(n_samples=10, seed=5), 80)
        result = run_pipeline(cfg, rec, trained_model)

        frames = window_frames(rec)
        pred = predict_trajectory(trained_model, frames)
        angles = forward_dynamics(cfg.arm, ActivationTrajectory.from_classes(pred))
        f0 = map_trajectory(cfg.mapping, angles)
        audio = synthesize(f0, cfg.synth_sample_rate_hz, cfg.synth_amplitude)

        assert result.activations.tolist() == [c.index for c in pred]
        np.testing.assert_array_equal(result.angles.angles_deg, angles.angles_deg)
        np.testing.assert_array_equal(result.f0.values_hz, f0.values_hz)
        np.testing.assert_array_equal(result.audio.samples, audio.samples)
        assert result.metrics is not None
        assert result.metrics.n_test == 80

    def test_missing_kinematics_skips_metrics(self, trained_model):
        rec_full, _ = generate_movement(SynthConfig(n_samples=10, seed=5), 30)
        rec = EegRecording(samples=rec_full.samples)  # drop kinematics
        result = run_pipeline(PipelineConfig(), rec, trained_model)
        assert result.metrics is None
        assert len(result.angles) == 30
        assert len(result.audio) == 30 * 441

    def test_kinematics_length_mismatch(self):
        # run_pipeline cannot be handed such a recording: it cannot be built
        rec_full, _ = generate_movement(SynthConfig(n_samples=10, seed=5), 30)
        with pytest.raises(ValueError, match="7 kinematic values for 30 frames"):
            EegRecording(samples=rec_full.samples, kinematics=np.zeros(7))

    def test_kinematics_length_message(self):
        rec_full, _ = generate_movement(SynthConfig(n_samples=10, seed=5), 30)
        with pytest.raises(ValueError, match="^30 kinematic values for 29 frames of 10 samples$"):
            EegRecording(samples=rec_full.samples[:, :295], kinematics=np.zeros(30))

    def test_stage_errors_carry_stage_name(self, trained_model):
        too_short = EegRecording(samples=np.zeros((10, 5)))
        with pytest.raises(PipelineStageError, match="windowing"):
            run_pipeline(PipelineConfig(), too_short, trained_model)

    def test_constant_full_activation_converges_to_top_pitch(self, trained_model):
        # constant class-1.0 EEG for 5 s: decoded F0 must converge to 5150 Hz
        cfg = SynthConfig(n_samples=10, snr_db=NOISELESS, seed=3)
        classes = [ActivationClass(10)] * 500
        rec = EegRecording(samples=_eeg(cfg, classes, np.random.default_rng(0)))
        result = run_pipeline(PipelineConfig(), rec, trained_model)
        assert result.f0.values_hz[-1] == pytest.approx(5150.0, abs=1e-6)

    def test_noiseless_movement_decodes_cleanly(self, trained_model):
        rec, classes = generate_movement(SynthConfig(n_samples=10, snr_db=NOISELESS, seed=21), 300)
        result = run_pipeline(PipelineConfig(), rec, trained_model)
        assert result.activations.tolist() == [c.index for c in classes]
        assert result.metrics.f0_rmse_hz == 0.0
        assert result.metrics.angle_rmse_deg == 0.0
        assert result.metrics.angle_accuracy == 1.0


class TestEvaluateStatic:
    def test_perfect_prediction(self):
        cfg = PipelineConfig()
        classes = [ActivationClass(k) for k in range(1, 11)]
        report = evaluate_static(cfg, classes, classes)
        assert report.classifier_accuracy == 1.0
        assert report.activation_rmse == 0.0
        assert report.angle_accuracy == 1.0
        assert report.angle_rmse_deg == 0.0
        assert report.f0_rmse_hz == 0.0
        assert report.n_test == 10

    def test_one_class_off(self):
        cfg = PipelineConfig()
        truth = [ActivationClass(5), ActivationClass(5)]
        pred = [ActivationClass(5), ActivationClass(6)]
        report = evaluate_static(cfg, pred, truth)
        assert report.classifier_accuracy == 0.5
        assert report.activation_rmse == pytest.approx(0.1 / np.sqrt(2))
        assert report.angle_rmse_deg > 0.0
        assert report.f0_rmse_hz > 0.0

    def test_index_vectors_match_class_lists(self):
        cfg = PipelineConfig()
        pred, truth = [3, 3, 10, 1], [3, 4, 9, 1]
        report = evaluate_static(cfg, np.array(pred), np.array(truth))
        expected = evaluate_static(cfg, [ActivationClass(k) for k in pred],
                                   [ActivationClass(k) for k in truth])
        assert report.to_json() == expected.to_json()

    @pytest.mark.parametrize("pred", [[1.5, 2.0], ["3", "3"], [0, 3], [3, 11], [True, True]])
    def test_rejects_non_classes(self, pred):
        with pytest.raises(ValueError, match="class indices"):
            evaluate_static(PipelineConfig(), pred, [3, 3])

    def test_json_shape(self):
        cfg = PipelineConfig()
        classes = [ActivationClass(2)] * 4
        report = evaluate_static(cfg, classes, classes)
        data = json.loads(report.to_json())
        assert set(data) == {
            "classifier_accuracy", "activation_rmse", "angle_accuracy",
            "angle_rmse_deg", "f0_rmse_hz", "n_test",
        }


def test_result_carries_truth(trained_model):
    cfg = PipelineConfig()
    rec, _classes = generate_movement(SynthConfig(n_samples=10, snr_db=20.0, seed=8), 60)
    result = run_pipeline(cfg, rec, trained_model)
    truth = AngleTrajectory(rec.kinematics)
    assert result.true_activations.tolist() == [c.index for c in derive_labels(cfg.arm, truth)]
    np.testing.assert_array_equal(result.true_f0.values_hz,
                                  map_trajectory(cfg.mapping, truth).values_hz)
    bare = run_pipeline(cfg, EegRecording(samples=rec.samples), trained_model)
    assert bare.true_activations is None and bare.true_f0 is None
