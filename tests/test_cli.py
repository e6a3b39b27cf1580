import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import parse_wav_header

import neurof0
from neurof0 import eeg
from neurof0.cli import cli_main
from neurof0.eeg import load_recording_csv


def run(*argv):
    return cli_main(list(argv))


@pytest.fixture()
def dataset_csv(tmp_path):
    out = tmp_path / "data"
    assert run("--out", str(out), "--seed", "7", "gen-data", "--n", "200") == 0
    return out / "dataset.csv"


@pytest.fixture()
def movement_csv(tmp_path):
    out = tmp_path / "data"
    assert run("--out", str(out), "--seed", "9", "gen-data",
               "--movement-steps", "150") == 0
    return out / "movement.csv"


class TestUsageErrors:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "usage" in capsys.readouterr().out

    def test_no_subcommand(self, capsys):
        assert run() == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self):
        assert run("gen-data", "--wat") == 1

    def test_bad_flag_value(self):
        assert run("--seed", "xyz", "gen-data") == 1


class TestDataErrors:
    def test_missing_data_file(self, tmp_path):
        assert run("--out", str(tmp_path), "train", "--data",
                   str(tmp_path / "nope.csv")) == 2

    def test_corrupt_model(self, tmp_path, movement_csv):
        bad = tmp_path / "bad.nf0f"
        bad.write_bytes(b"garbage bytes")
        assert run("--out", str(tmp_path), "decode", "--data", str(movement_csv),
                   "--model", str(bad)) == 2

    def test_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run("--config", str(cfg), "--out", str(tmp_path), "gen-data") == 2

    def test_train_without_data(self, tmp_path):
        assert run("--out", str(tmp_path), "train") == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range(self, tmp_path, capsys, seed):
        assert run("--seed", seed, "--out", str(tmp_path), "gen-data") == 2
        assert "split_seed must be in 0..2**64 - 1" in capsys.readouterr().err
        assert not (tmp_path / "dataset.csv").exists()

    def test_zero_movement_steps(self, tmp_path, capsys):
        assert run("--out", str(tmp_path), "gen-data", "--movement-steps", "0") == 2
        assert "n_steps must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "eval", "decode"])
    def test_data_required(self, tmp_path, command, capsys):
        assert run("--out", str(tmp_path), command) == 2
        assert f"{command} needs --data (or paths.data in the config)" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [
        {"split": {"seed": None}},
        {"split": 5},
        {"synth": {"amplitude": [1]}},
        {"paths": {"model": 5}},
        {"forest": {"seed": 1.5}},
        {"forest": {"n_estimators": 2.5}},
        {"forest": {"seed": 18446744073709551615}},
    ])
    def test_bad_config_value_exits_2_without_traceback(self, tmp_path, dataset_csv, raw):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        env = {**os.environ, "PYTHONPATH": str(Path(neurof0.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "neurof0", "--config", str(cfg), "--out", str(tmp_path),
             "train", "--data", str(dataset_csv)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("nf0: error: ")

    @pytest.mark.parametrize("command, flag", [("decode", "--data"),
                                               ("simulate", "--activations")])
    @pytest.mark.parametrize("cell, match", [(b"1" * 131_073, "line 2: field larger than"),
                                             (b"\xff", "not UTF-8 text")],
                             ids=["overlong-cell", "not-utf8"])
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, command, flag, cell, match):
        src = tmp_path / "in.csv"  # ten columns, one named activation: read by both commands
        src.write_bytes(b"activation" + b",c" * 9 + b"\n" + cell + b",0.5" * 9 + b"\n")
        assert run("--out", str(tmp_path), command, flag, str(src)) == 2
        assert f"nf0: error: {src}: {match}" in capsys.readouterr().err


    def test_header_only_recording_named(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text(",".join(eeg.DEFAULT_CHANNELS) + "\n")
        assert run("--out", str(tmp_path), "decode", "--data", str(src)) == 2
        assert f"nf0: error: {src}: no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("angle, missing", [(False, "column"), (True, "values")])
    def test_no_angles_named(self, tmp_path, capsys, command, angle, missing):
        src = tmp_path / "r.csv"
        rows = [",".join(eeg.DEFAULT_CHANNELS) + (",angle_deg" if angle else "")]
        rows += [",".join(["1.0"] * 10) + ("," if angle else "") for _ in range(20)]
        src.write_text("\n".join(rows) + "\n")
        assert run("--out", str(tmp_path / "run"), command, "--data", str(src)) == 2
        err = capsys.readouterr().err
        assert f"nf0: error: {src}: no angle_deg {missing}; labels cannot be derived" in err


class TestGenData:
    def test_dataset_file(self, dataset_csv):
        rec = load_recording_csv(dataset_csv)
        assert rec.n_samples == 2000
        assert len(rec.kinematics) == 200

    def test_movement_file(self, movement_csv):
        rec = load_recording_csv(movement_csv)
        assert rec.n_samples == 1500
        assert len(rec.kinematics) == 150

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("--out", str(a), "--seed", "4", "gen-data", "--n", "50")
        run("--out", str(b), "--seed", "4", "gen-data", "--n", "50")
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()

    def test_dataset_builds_no_frame_objects(self, tmp_path, monkeypatch):
        argv = ("--seed", "4", "gen-data", "--n", "50")
        assert run("--out", str(tmp_path / "a"), *argv) == 0

        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built")

        for cls in (eeg.EegFrame, eeg.ActivationClass, eeg.LabeledDataset):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        assert run("--out", str(tmp_path / "b"), *argv) == 0
        assert (tmp_path / "b" / "dataset.csv").read_bytes() == \
            (tmp_path / "a" / "dataset.csv").read_bytes()

    @pytest.mark.parametrize("kind", [("--n", "20"), ("--movement-steps", "20")],
                             ids=["dataset", "movement"])
    def test_non_finite_eeg_refused(self, tmp_path, capsys, kind):
        out = tmp_path / "data"
        assert run("--out", str(out), "gen-data", *kind, "--snr-db", "-4000") == 2
        err = capsys.readouterr().err
        assert err.startswith("nf0: error: ") and err.count("\n") == 1
        assert "snr_db" in err
        assert not list(tmp_path.rglob("*.csv"))


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, dataset_csv):
        out = tmp_path / "run"
        assert run("--out", str(out), "--seed", "7", "train",
                   "--data", str(dataset_csv)) == 0
        assert (out / "model.nf0f").exists()
        assert run("--out", str(out), "--seed", "7", "eval",
                   "--data", str(dataset_csv)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["classifier_accuracy"] >= 0.95
        assert metrics["n_test"] == 60

    def test_builds_no_frame_objects(self, tmp_path, dataset_csv, monkeypatch):
        def no_frames(self):
            raise AssertionError("EegFrame built")

        monkeypatch.setattr(eeg.EegFrame, "__post_init__", no_frames)
        out = tmp_path / "run"
        for command in ("train", "eval"):
            assert run("--out", str(out), command, "--data", str(dataset_csv)) == 0

    @pytest.mark.parametrize("command", ["train", "eval", "decode", "pipeline"])
    def test_kinematics_length_mismatch(self, tmp_path, command, capsys):
        # 105 rows: ten whole windows and a partial one whose first row
        # carries an eleventh angle, which no frame can be labeled with
        path = tmp_path / "short.csv"
        rows = [",".join(eeg.DEFAULT_CHANNELS) + ",angle_deg"]
        rows += [",".join(["1.0"] * 10) + (",10.0" if r % 10 == 0 else ",")
                 for r in range(105)]
        path.write_text("\n".join(rows) + "\n")
        assert run("--out", str(tmp_path / "run"), command, "--data", str(path)) == 2
        assert f"{path}: 11 kinematic values for 10 frames" in capsys.readouterr().err


class TestSimulate:
    def test_constant(self, tmp_path):
        out = tmp_path / "sim"
        assert run("--out", str(out), "simulate", "--constant", "0.5",
                   "--steps", "400") == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t_s,activation,angle_deg"
        assert len(lines) == 401
        final_angle = float(lines[-1].split(",")[2])
        assert abs(final_angle - 30.0) < 0.5

    def test_from_csv(self, tmp_path):
        out = tmp_path / "sim"
        src = tmp_path / "act.csv"
        src.write_text("t_s,activation\n" + "\n".join(
            f"{i * 0.01},0.3" for i in range(50)) + "\n")
        assert run("--out", str(out), "simulate", "--activations", str(src)) == 0
        assert (out / "trajectory.csv").exists()

    def test_needs_input(self, tmp_path):
        assert run("--out", str(tmp_path), "simulate") == 2

    def test_non_finite_activation_named(self, tmp_path, capsys):
        src = tmp_path / "act.csv"
        src.write_text("t_s,activation\n0.0,0.3\n0.01,inf\n")
        assert run("--out", str(tmp_path), "simulate", "--activations", str(src)) == 2
        assert "non-finite value 'inf' on row 3, column activation" in capsys.readouterr().err


class TestOutputPaths:
    def write_config(self, tmp_path, **paths):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"paths": {k: str(v) for k, v in paths.items()}}))
        return str(cfg)

    def test_config_out_dir_used(self, tmp_path, dataset_csv):
        cfg = self.write_config(tmp_path, out_dir=tmp_path / "cfg_out")
        assert run("--config", cfg, "simulate", "--constant", "0.5", "--steps", "20") == 0
        assert (tmp_path / "cfg_out" / "trajectory.csv").exists()
        # the default model path follows the configured output directory
        assert run("--config", cfg, "train", "--data", str(dataset_csv)) == 0
        assert (tmp_path / "cfg_out" / "model.nf0f").exists()

    def test_out_flag_wins(self, tmp_path):
        cfg = self.write_config(tmp_path, out_dir=tmp_path / "cfg_out")
        assert run("--config", cfg, "--out", str(tmp_path / "flag_out"),
                   "simulate", "--constant", "0.5", "--steps", "20") == 0
        assert (tmp_path / "flag_out" / "trajectory.csv").exists()
        assert not (tmp_path / "cfg_out").exists()

    def test_model_flag_wins(self, tmp_path, dataset_csv):
        cfg = self.write_config(tmp_path, model=tmp_path / "cfg.nf0f", data=dataset_csv)
        assert run("--config", cfg, "--out", str(tmp_path / "run"), "train",
                   "--model", str(tmp_path / "flag.nf0f")) == 0
        assert (tmp_path / "flag.nf0f").exists() and not (tmp_path / "cfg.nf0f").exists()


class TestDecodeSynthPipeline:
    @pytest.fixture()
    def model_file(self, tmp_path, dataset_csv):
        out = tmp_path / "run"
        run("--out", str(out), "--seed", "7", "train", "--data", str(dataset_csv))
        return out / "model.nf0f"

    def test_decode_writes_stage_csvs(self, tmp_path, movement_csv, model_file):
        out = tmp_path / "dec"
        assert run("--out", str(out), "decode", "--data", str(movement_csv),
                   "--model", str(model_file)) == 0
        angles = (out / "angles.csv").read_text().splitlines()
        assert angles[0] == "t_s,activation,angle_deg,true_activation,true_angle_deg"
        assert len(angles) == 151
        f0 = (out / "f0.csv").read_text().splitlines()
        assert f0[0] == "t_s,f0_hz,true_f0_hz"

    def test_synth_names_a_nan_f0(self, tmp_path, capsys):
        src = tmp_path / "f0.csv"
        src.write_text("t_s,f0_hz\n0.0,2000.0\n0.01,nan\n0.02,2000.0\n")
        assert run("--out", str(tmp_path / "syn"), "synth", "--f0", str(src)) == 2
        assert f"{src}: non-finite value 'nan' on row 3, column f0_hz" in capsys.readouterr().err
        assert not (tmp_path / "syn" / "out.wav").exists()

    def test_synth_from_f0_csv(self, tmp_path):
        src = tmp_path / "f0.csv"
        src.write_text("t_s,f0_hz\n" + "\n".join(
            f"{i * 0.01},2000.0" for i in range(30)) + "\n")
        out = tmp_path / "syn"
        assert run("--out", str(out), "synth", "--f0", str(src)) == 0
        blob = (out / "out.wav").read_bytes()
        header = parse_wav_header(blob)
        assert header["data_size"] == 30 * 441 * 2

    def test_pipeline_writes_all_artifacts(self, tmp_path, movement_csv, model_file):
        out = tmp_path / "pipe"
        assert run("--out", str(out), "pipeline", "--data", str(movement_csv),
                   "--model", str(model_file)) == 0
        for name in ("metrics.json", "angles.csv", "f0.csv", "out.wav"):
            assert (out / name).exists(), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {
            "classifier_accuracy", "activation_rmse", "angle_accuracy",
            "angle_rmse_deg", "f0_rmse_hz", "n_test",
        }

    def test_pipeline_self_contained_demo(self, tmp_path, model_file):
        # no --data: a deterministic synthetic movement is decoded
        out = tmp_path / "demo"
        assert run("--out", str(out), "--seed", "7", "pipeline",
                   "--model", str(model_file)) == 0
        assert (out / "out.wav").exists()

    def test_metrics_recomputable_from_csvs(self, tmp_path, movement_csv, model_file):
        from neurof0.arm import ArmModel, equilibrium_angle

        out = tmp_path / "pipe2"
        run("--out", str(out), "pipeline", "--data", str(movement_csv),
            "--model", str(model_file))
        metrics = json.loads((out / "metrics.json").read_text())

        rows = [line.split(",") for line in
                (out / "angles.csv").read_text().splitlines()[1:]]
        act = np.array([float(r[1]) for r in rows])
        ang = np.array([float(r[2]) for r in rows])
        t_act = np.array([float(r[3]) for r in rows])
        t_ang = np.array([float(r[4]) for r in rows])
        f0_rows = [line.split(",") for line in
                   (out / "f0.csv").read_text().splitlines()[1:]]
        f0 = np.array([float(r[1]) for r in f0_rows])
        t_f0 = np.array([float(r[2]) for r in f0_rows])

        assert metrics["n_test"] == len(rows)
        assert metrics["classifier_accuracy"] == pytest.approx(
            np.mean(act == t_act), abs=1e-9)
        assert metrics["activation_rmse"] == pytest.approx(
            np.sqrt(np.mean((act - t_act) ** 2)), abs=1e-9)
        assert metrics["angle_rmse_deg"] == pytest.approx(
            np.sqrt(np.mean((ang - t_ang) ** 2)), abs=1e-9)
        assert metrics["f0_rmse_hz"] == pytest.approx(
            np.sqrt(np.mean((f0 - t_f0) ** 2)), abs=1e-9)

        model = ArmModel()
        eq = np.array([equilibrium_angle(model, k / 10) for k in range(1, 11)])
        snap = lambda a: np.argmin(np.abs(eq[None, :] - a[:, None]), axis=1)
        assert metrics["angle_accuracy"] == pytest.approx(
            np.mean(snap(ang) == snap(t_ang)), abs=1e-9)

    def test_model_path_resolution_via_config(self, tmp_path, movement_csv, model_file):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"paths": {"model": str(model_file),
                                             "data": str(movement_csv)}}))
        out = tmp_path / "cfg_run"
        assert run("--config", str(cfg), "--out", str(out), "pipeline") == 0
        assert (out / "metrics.json").exists()
