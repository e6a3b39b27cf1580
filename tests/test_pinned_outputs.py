"""Every file the CLI writes, pinned by SHA-256.

The digests were taken from the code before the CSV reader and writer,
the config parser, the stage scorer and the path resolution were each
reduced to one path; those refactors must leave every byte unchanged.
The noiseless files under inf/ were pinned while gen-data still had a
separate branch for an infinite SNR, before it was folded into the one
noise path.
"""

import hashlib
import json

import pytest

from neurof0.cli import cli_main
from neurof0.eeg import EegRecording, load_recording_csv, write_recording_csv

SATURATING = {"arm": {"max_muscle_force_n": 150.0}}

PINNED = {
    "data/dataset.csv":
        "d7525fa6c749da215a66e60d7bddedbb778c6f5f4fb23158dccf1acbdbc6bcec",
    "data/movement.csv":
        "0290be5fca37e5d6876dac6c15ad7360701ed88e23c3a28b4acb9b82fd09c28c",
    "data/partial.csv":
        "c499fb88496b26a4015a9dde0068dee9fbcb92d04cfdf350321045d0519ab771",
    "data/bare.csv":
        "b733713e9a6bbfe0e819fad93f13f539fdc9f41a49c77951e943c7c461e1f583",
    "run/model.nf0f":
        "27cb69246586eb5abf34283fea7151647bdc9bc915f002fe93d1d00b46703830",
    "run/metrics.json":
        "c46a4622b25a0d11c20ab9498beb395e2564821ad5931af34bd68423a8e0583e",
    "sat/dataset.csv":
        "ee5d07973ee6d01833b63804d2f5260534d6152e5ee55a483b47e9a22d2fe431",
    "sat/model.nf0f":
        "eeb0c41ec018b4f901d5a5f66df78f2ceb1e3de37902e5a3772b159c9a032fe9",
    "sat/metrics.json":
        "4a933e15eb7cb608f7500e6428f3d51a52c75dea5fe0771b1fa9d4dc9b10f3aa",
    "pipe/angles.csv":
        "bd99723a9ed7e82be4f4946b6fcdb266b9bc4748164e2d5bb67472232fb2419b",
    "pipe/f0.csv":
        "b303824691241125ddaab2c951c29828245a7ad77f352c969e7590bce675a5c3",
    "pipe/metrics.json":
        "d57325055ebf5c7318418e82a494727cd7bc4f9ddc3746cdbc51b6eae5b50e6b",
    "pipe/out.wav":
        "d2e9199916f3e98f1f3eb7f8490031784ef44d4ab2ce4df3b47453d247838f38",
    "sat_pipe/angles.csv":
        "a4b8416d28b48139ba8adb596d813c3fb51c16d332a95ad055c8cfc540d344f3",
    "sat_pipe/f0.csv":
        "22366ab4dae38b4616f2c3b6b3159215fbfc9d643675b029ff4d46c24fcbdfd9",
    "sat_pipe/metrics.json":
        "2baecc4966ff9ef6fc5350f937a4f75e9d5e9f0a8f737955bb161f22742513ed",
    "sat_pipe/out.wav":
        "ea449db4a851911dd660c52027e00d5345c3435239cd44527e9891495ceded12",
    "bare_pipe/angles.csv":
        "d547b0d52729d2f6762c24a7f9c5db92ab745ea1f9e319ee6953833f808c72ba",
    "bare_pipe/f0.csv":
        "98c7017973d1a28aef3b9a1242b9bc26c0ad3f8c34a3ff176553d1104e027aec",
    "bare_pipe/out.wav":
        "d2e9199916f3e98f1f3eb7f8490031784ef44d4ab2ce4df3b47453d247838f38",
    "inf/dataset.csv":
        "9ba62237d32022283b28362e29eb00a1ed8e0ee3cd609531e0d145c645bbf450",
    "inf/movement.csv":
        "4dd8c2105a09684ca5f8dfcb8c3c8027b7084c3a2624a500bf9b49ed362e53e4",
    "sim/trajectory.csv":
        "4a813d9ebe572277a5483f49b8a22fc9c5d02c305dae863ce17fcea62ef1078d",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """Run each output-writing command once; SHA-256 of every file written."""
    root = tmp_path_factory.mktemp("outputs")
    inputs = tmp_path_factory.mktemp("inputs")
    sat_cfg = inputs / "saturating.json"
    sat_cfg.write_text(json.dumps(SATURATING))

    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0, argv

    data, sat = root / "data", root / "sat"
    run("--out", data, "--seed", 7, "gen-data", "--n", 200, "--snr-db", 20)
    run("--out", data, "--seed", 9, "gen-data", "--movement-steps", 150, "--snr-db", 20)
    # noiseless: the noise is drawn and scaled by a sigma of exactly 0.0
    run("--out", root / "inf", "--seed", 7, "gen-data", "--n", 200, "--snr-db", "inf")
    run("--out", root / "inf", "--seed", 9, "gen-data", "--movement-steps", 150, "--snr-db", "inf")
    dataset = load_recording_csv(data / "dataset.csv")
    # 199 whole windows and a 5-row partial one, which carries no angle
    write_recording_csv(EegRecording(samples=dataset.samples[:, :1995],
                                     kinematics=dataset.kinematics[:199]), data / "partial.csv")
    movement = load_recording_csv(data / "movement.csv")
    write_recording_csv(EegRecording(samples=movement.samples), data / "bare.csv")

    run("--out", root / "run", "--seed", 7, "train", "--data", data / "dataset.csv")
    run("--out", root / "run", "--seed", 7, "eval", "--data", data / "dataset.csv")
    run("--config", sat_cfg, "--out", sat, "--seed", 7, "gen-data", "--n", 200, "--snr-db", 20)
    run("--config", sat_cfg, "--out", sat, "--seed", 7, "train", "--data", sat / "dataset.csv")
    run("--config", sat_cfg, "--out", sat, "--seed", 7, "eval", "--data", sat / "dataset.csv")

    model = root / "run" / "model.nf0f"
    run("--out", root / "pipe", "pipeline", "--data", data / "movement.csv", "--model", model)
    run("--config", sat_cfg, "--out", root / "sat_pipe", "pipeline",
        "--data", data / "movement.csv", "--model", sat / "model.nf0f")
    run("--out", root / "bare_pipe", "pipeline", "--data", data / "bare.csv", "--model", model)
    run("--out", root / "sim", "simulate", "--constant", 0.7, "--steps", 300)
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in root.rglob("*") if p.is_file()
    }


def test_no_unpinned_outputs(digests):
    assert sorted(digests) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_pinned(digests, name):
    assert digests[name] == PINNED[name]
