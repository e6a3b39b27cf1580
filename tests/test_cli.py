import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import parse_wav_header

import neurof0
from neurof0 import cli, eeg, pipeline
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
        err = capsys.readouterr().err
        assert err.startswith("usage: nf0 ")
        assert err.splitlines()[-1] == "nf0: error: the following arguments are required: COMMAND"

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

    @pytest.mark.parametrize("argv, message", [
        (("gen-data", "--n", "0"), "--n 0: n_samples must be at least 10 (one per class)"),
        (("gen-data", "--movement-steps", "0"), "--movement-steps 0: n_steps must be at least 1"),
        (("simulate", "--constant", "0.5", "--steps", "0"),
         "--steps 0: activation trajectory is empty"),
        (("gen-data", "--snr-db", "nan"),
         "--snr-db nan: snr_db must be a number (use inf for noiseless)"),
        (("simulate", "--constant", "2"), "--constant 2.0: activation level 2.0 outside [0, 1]"),
        (("--seed", "-1", "gen-data"), "--seed -1: split_seed must be in 0..2**64 - 1, got -1"),
    ], ids=["n", "movement-steps", "steps", "snr-db", "constant", "seed"])
    def test_refused_value_names_its_flag(self, tmp_path, capsys, argv, message):
        assert run("--out", str(tmp_path), *argv) == 2
        assert capsys.readouterr().err == f"nf0: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [("simulate", "--constant", "0.5"),
                                      ("gen-data", "--movement-steps", "20"),
                                      ("pipeline", "--model", "absent.nf0f")],
                             ids=["simulate", "gen-data", "pipeline"])
    def test_arm_inertia_underflow_exits_2(self, tmp_path, capsys, argv):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"arm": {"forearm_length_m": 1e-200}}))
        assert run("--config", str(cfg), "--out", str(tmp_path / "out"), *argv) == 2
        assert capsys.readouterr().err == (f"nf0: error: {cfg}: invalid config section 'arm': "
                                           "inertia m * L^2 / 3 underflows to 0.0\n")

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
        {"arm": {"max_muscle_force_n": 1e-200, "moment_arm_m": 1e-200}},
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

    @pytest.mark.parametrize("command", ["train", "eval", "decode", "pipeline"])
    def test_recording_shorter_than_a_window_named(self, tmp_path, capsys, command):
        src = tmp_path / "short.csv"
        rows = [",".join(eeg.DEFAULT_CHANNELS) + ",angle_deg"]
        rows += [",".join(["1.0"] * 10) + "," for _ in range(5)]
        src.write_text("\n".join(rows) + "\n")
        assert run("--out", str(tmp_path / "run"), command, "--data", str(src)) == 2
        msg = f"nf0: error: {src}: recording has 5 samples, fewer than one 10-sample window\n"
        assert capsys.readouterr().err == msg

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("angle, missing", [(False, "column"), (True, "values")])
    def test_no_angles_named(self, tmp_path, capsys, command, angle, missing):
        src = tmp_path / "r.csv"
        rows = [",".join(eeg.DEFAULT_CHANNELS) + (",angle_deg" if angle else "")]
        rows += [",".join(["1.0"] * 10) + ("," if angle else "") for _ in range(20)]
        src.write_text("\n".join(rows) + "\n")
        assert run("--out", str(tmp_path / "run"), command, "--data", str(src)) == 2
        err = capsys.readouterr().err
        # an angle column with no values holds 0 angles for the file's 2 frames
        want = ("no angle_deg column; labels cannot be derived" if missing == "column"
                else "0 kinematic values for 2 frames of 10 samples")
        assert f"nf0: error: {src}: {want}" in err


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
        assert err.startswith("nf0: error: --snr-db -4000.0: ") and err.count("\n") == 1
        assert "snr_db" in err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("exc, message", [(MemoryError(), "out of memory"),
                                              (MemoryError("Unable to allocate"),
                                               "Unable to allocate")])
    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch, exc, message):
        def stage(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "_labeled_recording", stage)
        assert run("--out", str(tmp_path), "gen-data", "--n", "20") == 2
        assert capsys.readouterr().err == f"nf0: error: {message}\n"


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

    def test_eval_with_nothing_held_out_refused(self, tmp_path, capsys):
        # 10 frames at train_fraction 0.99: all 10 train, none is held out
        out = tmp_path / "run"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"split": {"train_fraction": 0.99}}))
        assert run("--out", str(out), "gen-data", "--n", "10") == 0
        data = out / "dataset.csv"
        argv = ["--config", str(cfg), "--out", str(out)]
        assert run(*argv, "train", "--data", str(data)) == 0
        assert "(0 held out)" in capsys.readouterr().out
        assert run(*argv, "eval", "--data", str(data)) == 2
        assert capsys.readouterr().err == (f"nf0: error: {data}: split.train_fraction 0.99 "
                                           "holds out none of its 10 frames for eval\n")
        assert not (out / "metrics.json").exists()

    def test_train_with_no_training_frame_refused(self, tmp_path, capsys):
        # 10 frames at train_fraction 0.01: none trains, all 10 are held out
        out = tmp_path / "run"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"split": {"train_fraction": 0.01}}))
        assert run("--out", str(out), "gen-data", "--n", "10") == 0
        data = out / "dataset.csv"
        capsys.readouterr()
        assert run("--config", str(cfg), "--out", str(out), "train", "--data", str(data)) == 2
        assert capsys.readouterr().err == (f"nf0: error: {data}: split.train_fraction 0.01 "
                                           "keeps none of its 10 frames for train\n")
        assert not (out / "model.nf0f").exists()

    def test_builds_no_frame_objects(self, tmp_path, dataset_csv, monkeypatch):
        def no_frames(self):
            raise AssertionError("EegFrame built")

        monkeypatch.setattr(eeg.EegFrame, "__post_init__", no_frames)
        out = tmp_path / "run"
        for command in ("train", "eval"):
            assert run("--out", str(out), command, "--data", str(dataset_csv)) == 0

    @pytest.mark.parametrize("command", ["train", "eval", "decode", "pipeline"])
    def test_kinematics_length_mismatch(self, tmp_path, dataset_csv, command, capsys):
        # 105 rows: ten whole windows and a partial one whose first row
        # carries an eleventh angle, which no frame can be labeled with;
        # 100 rows under an angle column with every cell empty: no angles.
        # A model is there, so only the angle count stops the run.
        out = tmp_path / "run"
        assert run("--out", str(out), "train", "--data", str(dataset_csv)) == 0
        for name, n_rows, angle, n_angles in [("short.csv", 105, ",10.0", 11),
                                             ("empty.csv", 100, ",", 0)]:
            path = tmp_path / name
            rows = [",".join(eeg.DEFAULT_CHANNELS) + ",angle_deg"]
            rows += [",".join(["1.0"] * 10) + (angle if r % 10 == 0 else ",")
                     for r in range(n_rows)]
            path.write_text("\n".join(rows) + "\n")
            assert run("--out", str(out), command, "--data", str(path)) == 2
            msg = f"{path}: {n_angles} kinematic values for 10 frames of 10 samples"
            assert msg in capsys.readouterr().err
            assert not (out / "out.wav").exists() and not (out / "metrics.json").exists()


class TestArmLabels:
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_one_label_arm_refused(self, tmp_path, capsys, dataset_csv, command):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"arm": {"max_muscle_force_n": 1e308, "moment_arm_m": 1e5}}))
        out = tmp_path / "run"
        assert run("--config", str(cfg), "--out", str(out), command,
                   "--data", str(dataset_csv)) == 2
        assert capsys.readouterr().err == (
            "nf0: error: the arm config labels the angles of all ten classes as class 1, "
            "so no two classes can be told apart\n")
        assert not (out / "metrics.json").exists() and not (out / "model.nf0f").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_angle_outside_limits_names_the_file(self, tmp_path, capsys, dataset_csv, command):
        lines = dataset_csv.read_text().splitlines(keepends=True)
        lines[1] = lines[1].rsplit(",", 1)[0] + ",95.0\n"  # the first window's angle
        far = tmp_path / "far.csv"
        far.write_text("".join(lines))
        out = tmp_path / "run"
        assert run("--out", str(out), command, "--data", str(far)) == 2
        assert capsys.readouterr().err == (
            f"nf0: error: {far}: angle 95.0 deg outside limits [0.0, 90.0]\n")
        assert not (out / "metrics.json").exists() and not (out / "model.nf0f").exists()

    @pytest.mark.parametrize("form", [["--n", "50"], ["--movement-steps", "30"]],
                             ids=["dataset", "movement"])
    def test_one_label_arm_gen_data_refused(self, tmp_path, capsys, form):
        # train and eval refuse any data such an arm labels, so none is written
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"arm": {"max_muscle_force_n": 1e308, "moment_arm_m": 1e5}}))
        out = tmp_path / "gen"
        assert run("--config", str(cfg), "--out", str(out), "gen-data", *form) == 2
        assert capsys.readouterr().err == (
            "nf0: error: the arm config labels the angles of all ten classes as class 1, "
            "so no two classes can be told apart\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["train", "--data", "DATA"], ["eval", "--data", "DATA"],
                                      ["gen-data"], ["gen-data", "--movement-steps", "30"],
                                      ["pipeline"]],
                             ids=["train", "eval", "gen-data", "movement", "pipeline"])
    def test_infinite_gravity_torque_refused(self, tmp_path, capsys, dataset_csv, argv):
        # without the ratio check, inf * sin(0) is NaN: "activation value must be finite"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"arm": {"gravity_ms2": 1e308, "forearm_mass_kg": 1e10}}))
        out = tmp_path / "run"
        argv = [str(dataset_csv) if a == "DATA" else a for a in argv]
        assert run("--config", str(cfg), "--out", str(out), *argv) == 2
        assert capsys.readouterr().err == (
            "nf0: error: the arm config's gravity torque m * g * L / 2 over the muscle torque "
            "Fmax * r is not finite, so no angle can be labelled\n")
        assert not out.exists()

    def test_overflowing_inertia_holds_the_arm(self, tmp_path, capsys):
        # float L ** 2 raises OverflowError where the square overflows; the inertia is inf
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"arm": {"forearm_length_m": 1e200}}))
        f0 = tmp_path / "f0.csv"
        f0.write_text("t_s,f0_hz\n0.0,1500.0\n0.01,2000.0\n")
        out = tmp_path / "run"
        assert run("--config", str(cfg), "--out", str(out), "synth", "--f0", str(f0)) == 0
        assert run("--config", str(cfg), "--out", str(out), "simulate",
                   "--constant", "0.5", "--steps", "5") == 0
        assert "final angle 0.000 deg" in capsys.readouterr().out
        assert np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[:, 2].tolist() \
            == [0.0] * 5

    @pytest.mark.parametrize("force", [147.15, 150.0])
    def test_saturating_arm_gen_data_runs(self, tmp_path, force):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"arm": {"max_muscle_force_n": force}}))
        for form in (["--n", "50"], ["--movement-steps", "30"]):
            assert run("--config", str(cfg), "--out", str(tmp_path), "gen-data", *form) == 0
        assert (tmp_path / "dataset.csv").exists() and (tmp_path / "movement.csv").exists()

    def test_saturating_arm_runs(self, tmp_path, dataset_csv):
        # classes 5-10 share label 5 under twice the calibrated force; not refused
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"arm": {"max_muscle_force_n": 147.15}}))
        for command in ("train", "eval"):
            assert run("--config", str(cfg), "--out", str(tmp_path / "run"), command,
                       "--data", str(dataset_csv)) == 0
        assert (tmp_path / "run" / "metrics.json").exists()


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

    def test_oversized_steps_exit_2(self, tmp_path, capsys):
        # 10**20 steps cannot be represented as a list length: no allocation
        assert run("--out", str(tmp_path), "simulate", "--constant", "0.5",
                   "--steps", str(10**20)) == 2
        err = capsys.readouterr().err
        assert err.startswith("nf0: error: ") and err.count("\n") == 1

    def test_non_finite_activation_named(self, tmp_path, capsys):
        src = tmp_path / "act.csv"
        src.write_text("t_s,activation\n0.0,0.3\n0.01,inf\n")
        assert run("--out", str(tmp_path), "simulate", "--activations", str(src)) == 2
        assert "non-finite value 'inf' on row 3, column activation" in capsys.readouterr().err

    def test_level_out_of_range_names_the_file(self, tmp_path, capsys):
        src = tmp_path / "act.csv"
        src.write_text("t_s,activation\n0.0,0.3\n0.01,1.5\n")
        out = tmp_path / "sim"
        assert run("--out", str(out), "simulate", "--activations", str(src)) == 2
        assert capsys.readouterr().err == f"nf0: error: {src}: activation level 1.5 outside [0, 1]\n"
        assert not out.exists()


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

    def test_truncated_model_named(self, tmp_path, capsys, movement_csv, model_file):
        bad = tmp_path / "trunc.nf0f"
        bad.write_bytes(model_file.read_bytes()[:100])
        out = tmp_path / "dec"
        assert run("--out", str(out), "decode", "--data", str(movement_csv),
                   "--model", str(bad)) == 2
        assert capsys.readouterr().err == f"nf0: error: {bad}: model file is truncated\n"
        assert not out.exists()

    def test_wav_path_a_directory_exits_2_without_traceback(self, tmp_path, model_file):
        out = tmp_path / "dec"
        (out / "out.wav").mkdir(parents=True)
        env = {**os.environ, "PYTHONPATH": str(Path(neurof0.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "neurof0", "--out", str(out), "pipeline",
             "--model", str(model_file)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1 and "out.wav" in proc.stderr
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    def test_synth_names_a_nan_f0(self, tmp_path, capsys):
        src = tmp_path / "f0.csv"
        src.write_text("t_s,f0_hz\n0.0,2000.0\n0.01,nan\n0.02,2000.0\n")
        assert run("--out", str(tmp_path / "syn"), "synth", "--f0", str(src)) == 2
        assert f"{src}: non-finite value 'nan' on row 3, column f0_hz" in capsys.readouterr().err
        assert not (tmp_path / "syn" / "out.wav").exists()

    @pytest.mark.parametrize("text, message", [
        ("t_s,f0_hz\n0.0,2000.0\n0.01,-3\n", "f0 values must be positive"),
        ("t_s,f0_hz,f0_hz\n0.0,2000.0,2000.0\n", "2 columns named 'f0_hz'"),
        ("t_s,f0_hz\n0.0,1_500\n", "non-numeric cell '1_500' on row 2, column f0_hz"),
    ], ids=["negative", "repeated-column", "underscore"])
    def test_synth_refusal_names_the_file(self, tmp_path, capsys, text, message):
        src = tmp_path / "f0.csv"
        src.write_text(text)
        out = tmp_path / "syn"
        assert run("--out", str(out), "synth", "--f0", str(src)) == 2
        assert capsys.readouterr().err == f"nf0: error: {src}: {message}\n"
        assert not out.exists()

    # the Nyquist refusal names the highest f0, so each test fills in its own
    SYNTH_ERRORS = pytest.mark.parametrize("rate, message", [
        (8000, "f0 {f0_max} Hz at or above the Nyquist frequency 4000.0 Hz "
               "of the 8000 Hz sample rate would alias"),
        (44111, "sample rate 44111 is not a whole number of samples per control step"),
    ], ids=["nyquist", "samples-per-step"])

    @staticmethod
    def synth_config(tmp_path, rate):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"synth": {"sample_rate_hz": rate}}))
        return str(cfg)

    @SYNTH_ERRORS
    @pytest.mark.parametrize("command", ["decode", "pipeline"])
    def test_synthesis_errors_exit_2(self, tmp_path, capsys, movement_csv, model_file,
                                     command, rate, message):
        out = tmp_path / "out"
        assert run("--config", self.synth_config(tmp_path, rate), "--out", str(out), command,
                   "--data", str(movement_csv), "--model", str(model_file)) == 2
        message = message.format(f0_max=4374.456962522456)  # decoded from movement_csv
        assert capsys.readouterr().err == f"nf0: error: synthesis stage failed: {message}\n"
        assert not out.exists()

    @SYNTH_ERRORS
    def test_synth_errors_exit_2(self, tmp_path, capsys, rate, message):
        src = tmp_path / "f0.csv"
        src.write_text("t_s,f0_hz\n0.0,2000.0\n0.01,5150.0\n")
        out = tmp_path / "out"
        assert run("--config", self.synth_config(tmp_path, rate), "--out", str(out),
                   "synth", "--f0", str(src)) == 2
        assert capsys.readouterr().err == f"nf0: error: {message.format(f0_max=5150.0)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, stage", [("decode", "predict_batch"),
                                                ("pipeline", "synthesize")])
    def test_out_of_memory_in_a_stage_exits_2(self, tmp_path, capsys, monkeypatch, movement_csv,
                                              model_file, command, stage):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(pipeline, stage, exhausted)
        assert run("--out", str(tmp_path / "out"), command, "--data", str(movement_csv),
                   "--model", str(model_file)) == 2
        assert capsys.readouterr().err == "nf0: error: out of memory\n"

    def test_overflowing_mapping_span_one_line(self, tmp_path, movement_csv, model_file):
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"mapping": {"angle_min_deg": -1e308, "angle_max_deg": 1.7e308}}))
        env = {**os.environ, "PYTHONPATH": str(Path(neurof0.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "neurof0", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "decode", "--data", str(movement_csv), "--model", str(model_file)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == (f"nf0: error: {cfg}: invalid config section 'mapping': "
                               "the span angle_max_deg - angle_min_deg is not finite\n")

    def test_decode_renders_no_audio(self, tmp_path, movement_csv, model_file, monkeypatch):
        argv = ["decode", "--data", str(movement_csv), "--model", str(model_file)]
        assert run("--out", str(tmp_path / "plain"), *argv) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("decode rendered audio")

        monkeypatch.setattr(pipeline, "synthesize", refuse)
        assert run("--out", str(tmp_path / "patched"), *argv) == 0
        for name in ("angles.csv", "f0.csv"):
            assert (tmp_path / "patched" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes(), name

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

    def test_demo_decodes_the_gen_data_movement(self, tmp_path, model_file):
        # the demo's recording is gen-data's 500-step movement for the seed
        assert run("--out", str(tmp_path / "demo"), "--seed", "7", "pipeline",
                   "--model", str(model_file)) == 0
        assert run("--out", str(tmp_path / "gen"), "--seed", "7", "gen-data",
                   "--movement-steps", "500") == 0
        assert run("--out", str(tmp_path / "file"), "pipeline", "--data",
                   str(tmp_path / "gen" / "movement.csv"), "--model", str(model_file)) == 0
        for name in ("metrics.json", "angles.csv", "f0.csv", "out.wav"):
            assert (tmp_path / "demo" / name).read_bytes() == \
                (tmp_path / "file" / name).read_bytes(), name

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
