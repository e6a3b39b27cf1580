"""Command-line interface.

Subcommands: gen-data, train, eval, simulate, decode, synth, pipeline.
Exit codes: 0 success, 1 usage error, 2 data, model or oversized-count error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .arm import (CONTROL_DT_S, ActivationTrajectory, _check_classes_apart, forward_dynamics,
                  label_classes)
from .datagen import SynthConfig, _labeled_recording, _movement_recording, _ramp
from .eeg import (
    ANGLE_COLUMN,
    load_recording_csv,
    read_column,
    split_indices,
    window_matrix,
    write_columns,
    write_recording_csv,
)
from .errors import DataError, naming
from .forest import fit as train_forest, load_model, predict_batch, save_model
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    evaluate_static,
    load_config,
    run_pipeline,
)
from .voice import F0Trajectory, synthesize, write_wav

DEFAULT_MODEL_NAME = "model.nf0f"


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="nf0", description="EEG to pitch decoding pipeline")
    parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the split/generator seed")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (default: paths.out_dir, else out)")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset or movement CSV")
    p.set_defaults(run=_cmd_gen_data)
    p.add_argument("--n", type=int, default=500, help="number of labeled frames")
    p.add_argument("--snr-db", type=float, default=40.0, help="per-frame SNR in dB (inf for noiseless)")
    p.add_argument("--movement-steps", type=int, metavar="N",
                   help="write an N-step movement recording instead of a dataset")

    p = sub.add_parser("train", help="train the classifier on the train split")
    p.set_defaults(run=_cmd_train)
    p.add_argument("--data", metavar="CSV", help="recording CSV with kinematics")
    p.add_argument("--model", metavar="PATH", help="where to write the model")

    p = sub.add_parser("eval", help="evaluate the classifier on the test split")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--data", metavar="CSV", help="recording CSV with kinematics")
    p.add_argument("--model", metavar="PATH", help="trained model file")

    p = sub.add_parser("simulate", help="forward-simulate an activation trajectory")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--activations", metavar="CSV", help="trajectory CSV with an activation column")
    p.add_argument("--constant", type=float, metavar="LEVEL", help="constant activation level")
    p.add_argument("--steps", type=int, default=500, help="steps for --constant (0.01 s each)")

    p = sub.add_parser("decode", help="decode a recording into activations/angles/F0")
    p.set_defaults(run=_cmd_decode)
    p.add_argument("--data", metavar="CSV", help="recording CSV")
    p.add_argument("--model", metavar="PATH", help="trained model file")

    p = sub.add_parser("synth", help="render an F0 trajectory CSV to WAV")
    p.set_defaults(run=_cmd_synth)
    p.add_argument("--f0", metavar="CSV", required=True, help="CSV with t_s,f0_hz columns")

    p = sub.add_parser("pipeline", help="full decode: metrics, CSVs, and audio")
    p.set_defaults(run=_cmd_pipeline)
    p.add_argument("--data", metavar="CSV", help="movement recording CSV")
    p.add_argument("--model", metavar="PATH", help="trained model file")

    return parser


def _load_cfg(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        with naming(f"--seed {args.seed}"):
            cfg = dataclasses.replace(cfg, split_seed=args.seed)
    return cfg


def _path(flag, configured, default=None):
    """The rule for every path: the flag if given, else the config's
    paths.* entry, else the default (None if there is none)."""
    value = flag or configured or default
    return None if value is None else Path(value)


def _out_dir(args, cfg: PipelineConfig) -> Path:
    out = _path(args.out, cfg.out_dir, "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _model_path(args, cfg: PipelineConfig) -> Path:
    return _path(args.model, cfg.model_path) or _out_dir(args, cfg) / DEFAULT_MODEL_NAME


def _data_path(args, cfg: PipelineConfig) -> Path:
    data = _path(args.data, cfg.data_path)
    if data is None:
        raise DataError(f"{args.command} needs --data (or paths.data in the config)")
    return data


def _read_trajectory(path, column: str, make):
    """make(values) of a trajectory CSV's column, naming the file in a
    DataError when make refuses the values."""
    values = read_column(path, column)
    with naming(path):
        return make(values)


def _load_labeled(args, cfg: PipelineConfig, part: str):
    """X, y, train rows, test rows: the (n, 100) frame matrix of the recording
    that --data names, the class index 1..10 of each frame and the configured
    split, which must leave part ("train" or "eval") at least one frame."""
    path = _data_path(args, cfg)
    rec = load_recording_csv(path)
    if rec.kinematics is None:
        raise DataError(f"{path}: no {ANGLE_COLUMN} column; labels cannot be derived")
    X = window_matrix(rec)
    _check_classes_apart(cfg.arm)  # a fault of the config, not named by the file
    with naming(path):  # an angle outside the joint limits
        y = label_classes(cfg.arm, rec.kinematics)
    train, test = split_indices(len(y), cfg.train_fraction, cfg.split_seed)
    rows, keeps = (train, "keeps") if part == "train" else (test, "holds out")
    if not len(rows):
        raise DataError(f"{path}: split.train_fraction {cfg.train_fraction} {keeps} "
                        f"none of its {len(y)} frames for {part}")
    return X, y, train, test


def _cmd_gen_data(args, cfg: PipelineConfig) -> int:
    movement = args.movement_steps is not None
    n = max(args.n, 10) if movement else args.n  # a movement has no labeled frames
    with naming(f"--n {args.n}"):
        synth_cfg = SynthConfig(n_samples=n, seed=cfg.split_seed)
    with naming(f"--snr-db {args.snr_db}"):
        synth_cfg = dataclasses.replace(synth_cfg, snr_db=args.snr_db)
    if movement:
        with naming(f"--movement-steps {args.movement_steps}"):
            classes = _ramp(args.movement_steps)
    _check_classes_apart(cfg.arm)  # a fault of the config, not named by a flag
    with naming(f"--snr-db {args.snr_db}"):  # noise that leaves the EEG not finite
        rec = (_movement_recording(synth_cfg, classes, cfg.arm) if movement
               else _labeled_recording(synth_cfg, cfg.arm)[0])
    path = _out_dir(args, cfg) / ("movement.csv" if movement else "dataset.csv")
    write_recording_csv(rec, path)
    print(f"wrote {path} ({rec.n_samples} samples, {len(rec.kinematics)} kinematic values)")
    return 0


def _cmd_train(args, cfg: PipelineConfig) -> int:
    X, y, train, test = _load_labeled(args, cfg, "train")
    X, y = X[train], y[train]  # drops the held-out rows before training
    model = train_forest(X, y, cfg.forest)
    path = _model_path(args, cfg)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, path)
    print(f"trained on {len(train)} frames ({len(test)} held out), wrote {path}")
    return 0


def _cmd_eval(args, cfg: PipelineConfig) -> int:
    X, y, _train, test = _load_labeled(args, cfg, "eval")
    model = load_model(_model_path(args, cfg))
    pred, _votes = predict_batch(model, X[test])
    report = evaluate_static(cfg, pred, y[test])
    out = _out_dir(args, cfg)
    (out / "metrics.json").write_text(report.to_json(), newline="\n")
    print(report.to_json(), end="")
    print(f"wrote {out / 'metrics.json'}")
    return 0


def _step_times(n: int) -> np.ndarray:
    """Start time in seconds of each of n control steps."""
    return np.arange(n) * CONTROL_DT_S


def _cmd_simulate(args, cfg: PipelineConfig) -> int:
    if args.activations:
        act = _read_trajectory(args.activations, "activation", ActivationTrajectory)
        angles = forward_dynamics(cfg.arm, act)
    elif args.constant is not None:
        with naming(f"--constant {args.constant}"):
            act = ActivationTrajectory(levels=[args.constant] * args.steps)
        with naming(f"--steps {args.steps}"):
            angles = forward_dynamics(cfg.arm, act)
    else:
        raise DataError("simulate needs --activations or --constant")
    out = _out_dir(args, cfg)
    path = out / "trajectory.csv"
    write_columns(path, ["t_s", "activation", "angle_deg"],
                  [_step_times(len(act)), act.levels, angles.angles_deg])
    print(f"wrote {path} ({len(act)} steps, final angle {angles.angles_deg[-1]:.3f} deg)")
    return 0


def _decode(args, cfg: PipelineConfig, rec) -> tuple[Path, PipelineResult]:
    """run_pipeline with the model the flags name; writes angles.csv and
    f0.csv to the output directory and returns it with the result."""
    result = run_pipeline(cfg, rec, load_model(_model_path(args, cfg)))
    t = _step_times(len(result.activations))
    angles = {"t_s": t, "activation": result.activations / 10.0,
              "angle_deg": result.angles.angles_deg}
    f0 = {"t_s": t, "f0_hz": result.f0.values_hz}
    if result.true_activations is not None:
        angles["true_activation"] = result.true_activations / 10.0
        angles["true_angle_deg"] = rec.kinematics
        f0["true_f0_hz"] = result.true_f0.values_hz
    out = _out_dir(args, cfg)
    write_columns(out / "angles.csv", list(angles), list(angles.values()))
    write_columns(out / "f0.csv", list(f0), list(f0.values()))
    return out, result


def _cmd_decode(args, cfg: PipelineConfig) -> int:
    out, result = _decode(args, cfg, load_recording_csv(_data_path(args, cfg)))
    print(f"wrote {out / 'angles.csv'} and {out / 'f0.csv'} ({len(result.activations)} steps)")
    return 0


def _cmd_synth(args, cfg: PipelineConfig) -> int:
    audio = synthesize(_read_trajectory(args.f0, "f0_hz", F0Trajectory),
                       sample_rate_hz=cfg.synth_sample_rate_hz,
                       amplitude=cfg.synth_amplitude)
    out = _out_dir(args, cfg)
    path = out / "out.wav"
    write_wav(audio, path)
    print(f"wrote {path} ({len(audio)} samples at {audio.sample_rate_hz} Hz)")
    return 0


def _cmd_pipeline(args, cfg: PipelineConfig) -> int:
    data = _path(args.data, cfg.data_path)
    if data is not None:
        rec = load_recording_csv(data)
    else:
        # self-contained demo: deterministic synthetic movement from the seed
        rec = _movement_recording(SynthConfig(seed=cfg.split_seed), _ramp(500), cfg.arm)
    out, result = _decode(args, cfg, rec)
    write_wav(result.audio, out / "out.wav")
    if result.metrics is not None:
        (out / "metrics.json").write_text(result.metrics.to_json(), newline="\n")
        print(result.metrics.to_json(), end="")
    else:
        print("recording has no kinematics; metrics skipped", file=sys.stderr)
    print(f"wrote angles.csv, f0.csv, out.wav in {out}")
    return 0


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_cfg(args)
        return args.run(args, cfg)
    except (OSError, ValueError, FloatingPointError, OverflowError, MemoryError) as exc:
        # the last two: a count too large to represent or to allocate
        empty_oom = isinstance(exc, MemoryError) and not str(exc)
        print(f"nf0: error: {'out of memory' if empty_oom else exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
