"""The benchmark's workloads: seeded inputs, timed nf0 operations, output checks.

One operation is what a user pays for once: one fresh ``python -m neurof0``
process (two for ``train``: ``nf0 train`` then ``nf0 eval``). Inputs are made
in set-up with the library's own generator and written to files; the
program under test receives only those files and its command line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import wave
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# metrics.json is frozen to exactly these fields.
METRICS_FIELDS = ("classifier_accuracy", "activation_rmse", "angle_accuracy",
                  "angle_rmse_deg", "f0_rmse_hz", "n_test")
ROWS_PER_STEP = 10         # 1000 Hz EEG, one 10-sample frame per 0.01 s step
AUDIO_PER_STEP = 441       # 44100 Hz synthesis, 0.01 s per step
TRAIN_FRACTION = 0.7       # PipelineConfig default
CHANNELS = ("FP1", "FP2", "F7", "F8", "T3", "T4", "T5", "T6", "O1", "O2")
OP_TIMEOUT_S = 60


@dataclass(frozen=True)
class Sizes:
    """Input sizes of a workload; SNRs are per-frame, in dB."""

    dataset_frames: int
    dataset_snr_db: float
    movement_steps: int
    movement_snr_db: float
    recordings: int = 1


DEFAULT_SIZES = {
    "decode": Sizes(dataset_frames=2000, dataset_snr_db=40.0,
                    movement_steps=2000, movement_snr_db=20.0, recordings=4),
    "train": Sizes(dataset_frames=1600, dataset_snr_db=20.0,
                   movement_steps=2000, movement_snr_db=20.0),
    "gen": Sizes(dataset_frames=2500, dataset_snr_db=40.0,
                 movement_steps=2500, movement_snr_db=20.0),
}
SMOKE_SIZES = Sizes(dataset_frames=60, dataset_snr_db=40.0,
                    movement_steps=40, movement_snr_db=20.0, recordings=2)


def derived_seed(seed: int, tag: str) -> int:
    """Independent generator seed for one input, fixed by the workload seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{tag}".encode()).digest()[:4], "little")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


@dataclass
class ProcRun:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    timed_out: bool


@dataclass
class OpResult:
    wall_s: float
    peak_rss_mb: float
    units: int
    commands: dict[str, float]
    errors: list[str] = field(default_factory=list)
    timed_out: bool = False


class Runner:
    """Starts nf0 as a fresh process and measures it.

    The process's peak resident memory comes from the kernel's rusage for
    that child (``os.wait4``), the per-child form of
    ``getrusage(RUSAGE_CHILDREN)``.
    """

    def __init__(self, root: Path, log: Path):
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.root = root
        self.log = log

    def nf0(self, *args) -> list[str]:
        return [sys.executable, "-m", "neurof0", *map(str, args)]

    def run(self, argv: list[str]) -> ProcRun:
        with open(self.log, "wb") as out:
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    cwd=self.root, env=self.env)
            timed_out = False
            try:
                signal.alarm(OP_TIMEOUT_S)
                _pid, status, usage = os.wait4(proc.pid, 0)
                signal.alarm(0)
            except _Timeout:
                proc.kill()
                _pid, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return ProcRun(wall, proc.returncode, usage.ru_maxrss / 1024.0, timed_out)

    def log_tail(self) -> str:
        """Last line the latest process printed."""
        text = self.log.read_text(errors="replace").strip()
        return text.splitlines()[-1] if text else ""


# --------------------------------------------------------------------------
# output checks


def read_metrics_json(path: Path, n_test: int, errors: list[str]) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        errors.append(f"{path.name}: unreadable ({exc})")
        return {}
    if not isinstance(data, dict) or tuple(data) != METRICS_FIELDS:
        errors.append(f"{path.name}: fields {list(data) if isinstance(data, dict) else data!r}"
                      f" are not exactly {list(METRICS_FIELDS)}")
        return {}
    if data["n_test"] != n_test:
        errors.append(f"{path.name}: n_test {data['n_test']} != {n_test}")
    for key in METRICS_FIELDS[:-1]:
        v = data[key]
        if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
            errors.append(f"{path.name}: {key} = {v!r} is not a finite non-negative number")
    return data


def check_wav(path: Path, steps: int, errors: list[str]) -> None:
    try:
        with wave.open(str(path), "rb") as w:
            params = (w.getnchannels(), w.getsampwidth(), w.getframerate())
            n = w.getnframes()
    except (OSError, EOFError, wave.Error) as exc:
        errors.append(f"{path.name}: invalid WAV ({exc})")
        return
    if params != (1, 2, 44100):
        errors.append(f"{path.name}: (channels, width, rate) = {params}, expected (1, 2, 44100)")
    if n != steps * AUDIO_PER_STEP:
        errors.append(f"{path.name}: {n} samples, expected {steps} x {AUDIO_PER_STEP}")
    if path.stat().st_size != 44 + 2 * n:
        errors.append(f"{path.name}: {path.stat().st_size} bytes, expected a 44-byte header "
                      f"and {n} 16-bit samples")


def check_csv(path: Path, header: list[str], rows: int, errors: list[str]) -> None:
    try:
        with open(path, "r") as fh:
            first = fh.readline().rstrip("\n").split(",")
            n = sum(1 for _ in fh)
    except OSError as exc:
        errors.append(f"{path.name}: unreadable ({exc})")
        return
    if first != header:
        errors.append(f"{path.name}: header {first} != {header}")
    if n != rows:
        errors.append(f"{path.name}: {n} data rows, expected {rows}")


class Digests:
    """Output digests per input; a repeat on the same input must match."""

    def __init__(self):
        self.first: dict[str, dict[str, str]] = {}

    def check(self, key: str, files: dict[str, Path], errors: list[str]) -> None:
        try:
            got = {name: sha256_file(p) for name, p in files.items()}
        except OSError as exc:
            errors.append(f"{key}: output missing ({exc})")
            return
        ref = self.first.setdefault(key, got)
        for name in sorted(set(ref) | set(got)):
            if ref.get(name) != got.get(name):
                errors.append(f"{key}: {name} differs from the first run on the same input")


# --------------------------------------------------------------------------
# workloads


class Workload:
    """Base: inputs are made by setup(), then operation(i) runs one operation."""

    name = ""
    unit = ""

    def __init__(self, nf, runner: Runner, sizes: Sizes, seed: int, work: Path):
        self.nf = nf            # the imported neurof0 package
        self.runner = runner
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.inputs_dir = reset_dir(work / "inputs")
        self.digests = Digests()
        self.inputs: list[dict] = []
        self.quality: dict[str, float] = {}

    # one entry per input file for the environment block
    def _record_input(self, path: Path, **info) -> None:
        self.inputs.append({"file": path.name, "bytes": path.stat().st_size,
                            "sha256": sha256_file(path), **info})

    def _write_dataset(self, path: Path, frames: int, snr_db: float, tag: str) -> None:
        seed = derived_seed(self.seed, tag)
        ds = self.nf.generate_dataset(self.nf.SynthConfig(n_samples=frames, snr_db=snr_db, seed=seed))
        self.nf.write_recording_csv(self.nf.dataset_to_recording(ds), path)
        self._record_input(path, kind="dataset", frames=frames, rows=frames * ROWS_PER_STEP,
                           snr_db=snr_db, generator_seed=seed)

    def _write_movement(self, path: Path, steps: int, snr_db: float, tag: str) -> None:
        seed = derived_seed(self.seed, tag)
        rec, _classes = self.nf.generate_movement(
            self.nf.SynthConfig(snr_db=snr_db, seed=seed), steps)
        self.nf.write_recording_csv(rec, path)
        self._record_input(path, kind="movement", steps=steps, rows=steps * ROWS_PER_STEP,
                           snr_db=snr_db, generator_seed=seed)

    def _run_commands(self, named: list[tuple[str, list[str]]], units: int) -> OpResult:
        """Run the op's processes in order; stops at the first failing one."""
        op = OpResult(wall_s=0.0, peak_rss_mb=0.0, units=units, commands={})
        for cmd_name, argv in named:
            run = self.runner.run(argv)
            op.wall_s += run.wall_s
            op.peak_rss_mb = max(op.peak_rss_mb, run.peak_rss_mb)
            op.commands[cmd_name] = run.wall_s
            if run.timed_out:
                op.timed_out = True
                op.errors.append(f"{cmd_name}: killed after {OP_TIMEOUT_S} s")
                break
            if run.exit_code != 0:
                op.errors.append(f"{cmd_name}: exit code {run.exit_code}: {self.runner.log_tail()}")
                break
        return op

    @property
    def distinct_inputs(self) -> int:
        return 1

    def setup(self) -> None:
        raise NotImplementedError

    def operation(self, i: int, out: Path) -> OpResult:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks and quality figures that need the whole run; returns errors."""
        return []


class Decode(Workload):
    """nf0 pipeline on distinct movement recordings with a model trained in set-up."""

    name = "decode"
    unit = "control steps"

    @property
    def distinct_inputs(self) -> int:
        return self.sizes.recordings

    def setup(self) -> None:
        s = self.sizes
        data = self.inputs_dir / "dataset.csv"
        self._write_dataset(data, s.dataset_frames, s.dataset_snr_db, "model-dataset")
        self.model = self.inputs_dir / "model.nf0f"
        run = self.runner.run(self.runner.nf0("--out", self.work / "setup", "train",
                                              "--data", data, "--model", self.model))
        if run.exit_code != 0:
            raise RuntimeError(f"set-up nf0 train failed: {self.runner.log_tail()}")
        self._record_input(self.model, kind="model")
        self.recordings = []
        for r in range(s.recordings):
            path = self.inputs_dir / f"movement_{r}.csv"
            self._write_movement(path, s.movement_steps, s.movement_snr_db, f"recording-{r}")
            self.recordings.append(path)
        self.scores: dict[int, dict] = {}

    def operation(self, i: int, out: Path) -> OpResult:
        steps = self.sizes.movement_steps
        r = i % len(self.recordings)
        op = self._run_commands(
            [("pipeline", self.runner.nf0("--out", out, "pipeline", "--data", self.recordings[r],
                                          "--model", self.model))], units=steps)
        if op.errors:
            return op
        e = op.errors
        scores = read_metrics_json(out / "metrics.json", steps, e)
        check_wav(out / "out.wav", steps, e)
        check_csv(out / "angles.csv", ["t_s", "activation", "angle_deg",
                                       "true_activation", "true_angle_deg"], steps, e)
        check_csv(out / "f0.csv", ["t_s", "f0_hz", "true_f0_hz"], steps, e)
        self.digests.check(f"recording-{r}", {n: out / n for n in
                           ("metrics.json", "angles.csv", "f0.csv", "out.wav")}, e)
        if scores and not e:
            self.scores.setdefault(r, scores)
        return op

    def finish(self) -> list[str]:
        if len(self.scores) != len(self.recordings):
            return [f"only {len(self.scores)} of {len(self.recordings)} recordings decoded cleanly"]
        for key in ("classifier_accuracy", "f0_rmse_hz"):
            self.quality[key] = sum(s[key] for s in self.scores.values()) / len(self.scores)
        return []


class Train(Workload):
    """nf0 train then nf0 eval on one noisy labeled dataset."""

    name = "train"
    unit = "training frames"

    def setup(self) -> None:
        s = self.sizes
        self.data = self.inputs_dir / "dataset.csv"
        self._write_dataset(self.data, s.dataset_frames, s.dataset_snr_db, "train-dataset")
        self.n_train = int(math.floor(s.dataset_frames * TRAIN_FRACTION + 0.5))

    def operation(self, i: int, out: Path) -> OpResult:
        model = out / "model.nf0f"
        nf0 = self.runner.nf0
        op = self._run_commands(
            [("train", nf0("--out", out, "train", "--data", self.data, "--model", model)),
             ("eval", nf0("--out", out, "eval", "--data", self.data, "--model", model))],
            units=self.n_train)
        if op.errors:
            return op
        e = op.errors
        scores = read_metrics_json(out / "metrics.json", self.sizes.dataset_frames - self.n_train, e)
        self.digests.check("dataset", {"model.nf0f": model, "metrics.json": out / "metrics.json"}, e)
        if scores and not e and not self.quality:
            self.quality = {k: scores[k] for k in ("classifier_accuracy", "f0_rmse_hz")}
        return op

    def finish(self) -> list[str]:
        return [] if self.quality else ["no train/eval operation finished cleanly"]


class Gen(Workload):
    """nf0 gen-data, alternating a labeled dataset and a movement recording.

    After timing, the first file of each kind is read back and must hold
    exactly the values the library generates in memory; then a model is
    trained on the written dataset and the written movement is decoded
    with it, which gives this workload's quality figures.
    """

    name = "gen"
    unit = "CSV rows written"

    @property
    def distinct_inputs(self) -> int:
        return 2

    def setup(self) -> None:
        s = self.sizes
        self.kinds = {
            "dataset": (derived_seed(self.seed, "gen-dataset"), s.dataset_frames * ROWS_PER_STEP,
                        ["--n", s.dataset_frames, "--snr-db", s.dataset_snr_db]),
            "movement": (derived_seed(self.seed, "gen-movement"), s.movement_steps * ROWS_PER_STEP,
                         ["--movement-steps", s.movement_steps, "--snr-db", s.movement_snr_db]),
        }
        self.kept = reset_dir(self.work / "kept")
        for kind, (seed, rows, _args) in self.kinds.items():
            self.inputs.append({"kind": kind, "rows": rows, "generator_seed": seed,
                                "snr_db": s.dataset_snr_db if kind == "dataset" else s.movement_snr_db})

    def operation(self, i: int, out: Path) -> OpResult:
        kind = ("dataset", "movement")[i % 2]
        seed, rows, args = self.kinds[kind]
        op = self._run_commands(
            [(kind, self.runner.nf0("--out", out, "--seed", seed, "gen-data", *args))], units=rows)
        if op.errors:
            return op
        path = out / f"{kind}.csv"
        header = list(CHANNELS) + ["angle_deg"]
        check_csv(path, header, rows, op.errors)
        self.digests.check(kind, {path.name: path}, op.errors)
        kept = self.kept / path.name
        if not op.errors and not kept.exists():
            shutil.copyfile(path, kept)
        return op

    def finish(self) -> list[str]:
        errors = []
        for kind in self.kinds:
            if not (self.kept / f"{kind}.csv").exists():
                errors.append(f"no clean {kind} output to check")
        if errors:
            return errors
        errors += self._check_values()
        self.inputs = [dict(info, sha256=sha256_file(self.kept / f"{info['kind']}.csv"))
                       for info in self.inputs]
        model = self.work / "quality" / "model.nf0f"
        runs = [self.runner.nf0("--out", self.work / "quality", "train",
                                "--data", self.kept / "dataset.csv", "--model", model),
                self.runner.nf0("--out", self.work / "quality", "pipeline",
                                "--data", self.kept / "movement.csv", "--model", model)]
        for argv in runs:
            if self.runner.run(argv).exit_code != 0:
                return errors + [f"decoding the written files failed: {self.runner.log_tail()}"]
        scores = read_metrics_json(self.work / "quality" / "metrics.json",
                                   self.sizes.movement_steps, errors)
        if scores:
            self.quality = {k: scores[k] for k in ("classifier_accuracy", "f0_rmse_hz")}
        return errors

    def _check_values(self) -> list[str]:
        """The written CSVs must read back to exactly the generated values."""
        nf, s = self.nf, self.sizes
        seed = self.kinds["dataset"][0]
        want_ds = nf.dataset_to_recording(nf.generate_dataset(
            nf.SynthConfig(n_samples=s.dataset_frames, snr_db=s.dataset_snr_db, seed=seed)))
        want_mv, _ = nf.generate_movement(
            nf.SynthConfig(snr_db=s.movement_snr_db, seed=self.kinds["movement"][0]),
            s.movement_steps)
        errors = []
        for kind, want in (("dataset", want_ds), ("movement", want_mv)):
            try:
                got = nf.load_recording_csv(self.kept / f"{kind}.csv")
            except (nf.DataError, ValueError, OSError) as exc:
                errors.append(f"{kind}.csv does not read back: {exc}")
                continue
            if not (got.samples.tobytes() == want.samples.tobytes()
                    and got.kinematics is not None
                    and got.kinematics.tobytes() == want.kinematics.tobytes()):
                errors.append(f"{kind}.csv does not read back to the generated values")
        return errors


WORKLOADS = {w.name: w for w in (Decode, Train, Gen)}
