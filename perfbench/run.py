#!/usr/bin/env python3
"""neurof0 benchmark: the nf0 commands, timed on seeded synthetic inputs.

Run from the repository root:

    python3 perfbench/run.py --workload {decode,train,gen} --seed N --seconds S --trace {0,1}

With ``--trace 0`` the workload's operations run as fresh ``nf0`` processes
in a closed loop with one client for ``--seconds`` seconds, every output is
checked, and the end-to-end metrics are printed. With ``--trace 1`` the
paper's whole command chain runs in this process through ``cli_main`` with
spans around each layer, and the per-layer metrics are printed. The last
line of standard output is the result as one JSON object; the full report,
with the environment block, input and output digests, is written to
``.perfbench_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads as wl

SETUP_REPEATS = 9
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def tail_percentile(values: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank).

    Returns (percentile, value, samples beyond). With ten samples or fewer
    no percentile qualifies, and the maximum is returned as the 100th.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1], 0
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, xs[rank - 1], n - rank


def environment(seed: int, inputs: list[dict], nf_version: str) -> dict:
    import numpy
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "neurof0": nf_version,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "inputs": inputs,
    }


def measure_setup(runner: wl.Runner) -> tuple[float, list[float]]:
    """Start-up cost of one nf0 invocation: import neurof0 and parse --help."""
    argv = runner.nf0("--help")
    runner.run(argv)  # warm-up: byte-compiles the sources once, as an install would
    times = []
    for _ in range(SETUP_REPEATS):
        run = runner.run(argv)
        if run.exit_code != 0:
            raise RuntimeError(f"nf0 --help exited {run.exit_code}: {runner.log_tail()}")
        times.append(run.wall_s)
    return statistics.median(times), times


def run_timed(workload: wl.Workload, runner: wl.Runner, seconds: float, work: Path) -> dict:
    workload.setup()
    setup_s, setup_samples = measure_setup(runner)

    ops: list[wl.OpResult] = []
    min_ops = 2 * workload.distinct_inputs  # every input is repeated at least once
    t0 = perf_counter()
    while perf_counter() - t0 < seconds or len(ops) < min_ops:
        out = work / "op"
        shutil.rmtree(out, ignore_errors=True)
        ops.append(workload.operation(len(ops), out))
        if ops[-1].timed_out:
            break
    timed_phase_s = perf_counter() - t0
    final_errors = workload.finish()

    walls = [op.wall_s for op in ops]
    p, tail, beyond = tail_percentile(walls)
    failed = sum(1 for op in ops if op.errors) + (1 if final_errors else 0)
    attempted = len(ops) + 1  # the operations, and the whole-run checks in finish()
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s_p50": (statistics.median(walls), "s"),
        "wall_s_tail": (tail, "s"),
        "throughput_per_s": (sum(op.units for op in ops) / sum(walls), "1/s"),
        "peak_rss_mb": (statistics.median(op.peak_rss_mb for op in ops), "MB"),
        "classifier_accuracy": (workload.quality.get("classifier_accuracy", 0.0), "fraction"),
    }
    # printed and recorded, but not end-to-end metrics with a bound: see README
    unbounded = {
        "error_rate": (failed / attempted, "fraction"),
        "f0_rmse_hz": (workload.quality.get("f0_rmse_hz", 0.0), "Hz"),
    }
    commands = sorted({name for op in ops for name in op.commands})
    details = {
        "operations": len(ops),
        "failed": failed,
        "unbounded": {k: {"value": v, "unit": u} for k, (v, u) in unbounded.items()},
        "errors": [err for op in ops for err in op.errors][:20] + final_errors,
        "wall_s_tail": {"percentile": p, "samples": len(ops), "beyond": beyond},
        "throughput_unit": workload.unit + " per second",
        "timed_phase_s": timed_phase_s,
        "peak_rss_mb_max": max(op.peak_rss_mb for op in ops),
        "setup_s_samples": setup_samples,
        "command_wall_s_p50": {c: statistics.median(op.commands[c] for op in ops if c in op.commands)
                               for c in commands},
        "wall_s_samples": walls,
        "quality": workload.quality,
        "output_sha256": workload.digests.first,
    }
    return {"metrics": metrics, "unbounded": unbounded, "details": details,
            "attempted": attempted, "failed": failed}


def chain_commands(sizes: wl.Sizes, seed: int, base: Path) -> dict[str, list[str]]:
    """The paper's chain as a user runs it: generate, train, evaluate, decode."""
    data, run = base / "data", base / "run"
    model = run / "model.nf0f"
    chain = {
        "gen-data --n": ["--out", data, "--seed", wl.derived_seed(seed, "gen-dataset"), "gen-data",
                         "--n", sizes.dataset_frames, "--snr-db", sizes.dataset_snr_db],
        "gen-data --movement-steps": [
            "--out", data, "--seed", wl.derived_seed(seed, "gen-movement"), "gen-data",
            "--movement-steps", sizes.movement_steps, "--snr-db", sizes.movement_snr_db],
        "train": ["--out", run, "train", "--data", data / "dataset.csv", "--model", model],
        "eval": ["--out", run / "eval", "eval", "--data", data / "dataset.csv", "--model", model],
        "pipeline": ["--out", run / "decode", "pipeline", "--data", data / "movement.csv",
                     "--model", model],
    }
    return {label: [str(a) for a in argv] for label, argv in chain.items()}


def chain_outputs(base: Path) -> dict[str, str]:
    files = sorted(p for p in base.rglob("*") if p.is_file())
    return {str(p.relative_to(base)): wl.sha256_file(p) for p in files}


def run_traced(sizes: wl.Sizes, seed: int, seconds: float, work: Path, out_dir: Path,
               tag: str) -> dict:
    """Alternate untraced and traced in-process passes of the chain for --seconds."""
    import neurof0.cli as cli
    import neurof0.datagen as datagen
    import neurof0.pipeline as pipeline
    modules = {"cli": cli, "pipeline": pipeline, "datagen": datagen}
    base = work / "chain"
    chain = chain_commands(sizes, seed, base)
    commands = list(chain.values())

    shutil.rmtree(base, ignore_errors=True)
    _wall, codes = tracing.run_commands(cli.cli_main, commands)  # warm-up and reference
    if any(codes):
        raise RuntimeError(f"untraced chain failed with exit codes {codes}")
    reference = chain_outputs(base)
    errors: list[str] = []
    attempted = 0

    def one_pass(cli_main) -> float:
        nonlocal attempted
        shutil.rmtree(base, ignore_errors=True)
        wall, codes = tracing.run_commands(cli_main, commands)
        attempted += 1
        if any(codes):
            errors.append(f"chain exit codes {codes}")
        elif chain_outputs(base) != reference:
            errors.append("chain outputs differ from the first untraced pass")
        return wall

    untraced, traced, recorders = [], [], []
    missing: list[str] = []
    t0 = perf_counter()
    while not traced or perf_counter() - t0 < seconds:
        rec = tracing.Recorder()
        untraced_first = len(traced) % 2 == 0  # alternate which side runs first
        if untraced_first:
            untraced.append(one_pass(cli.cli_main))
        with rec.patched(modules) as missing:
            traced.append(one_pass(rec.wrap(tracing.ROOT_SPAN, cli.cli_main)))
        recorders.append(rec)
        if not untraced_first:
            untraced.append(one_pass(cli.cli_main))

    # per-layer numbers come from the traced pass with the median wall time
    order = sorted(range(len(traced)), key=traced.__getitem__)
    chosen = order[(len(order) - 1) // 2]
    rec = recorders[chosen]
    values = tracing.layer_metrics(rec)
    values["trace.wall_s"] = traced[chosen]
    values["trace.untraced_wall_s"] = statistics.median(untraced)
    # pairs ran back to back, so their difference cancels slow drift of the machine
    values["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    values["trace.unaccounted_s"] = traced[chosen] - sum(rec.self_times().values())

    spans_path = out_dir / f"spans-{tag}.jsonl"
    with open(spans_path, "w") as fh:
        for i, r in enumerate(recorders):
            for s in r.spans:
                fh.write(json.dumps({"pass": i, **dataclasses.asdict(s)}) + "\n")

    metrics = {name: (values[name], unit) for name, unit, _b in tracing.PER_LAYER_METRICS}
    details = {
        "commands": {label: ["nf0", *argv] for label, argv in chain.items()},
        "passes": len(traced),
        "traced_wall_s": traced,
        "untraced_wall_s": untraced,
        "chosen_pass": chosen,
        "self_s_sum": sum(rec.self_times().values()),
        "self_s_by_command": {label: rec.self_times(op=i) for i, label in enumerate(chain)},
        "unpatched_bindings": missing,
        "errors": errors,
        "spans": str(spans_path),
        "output_sha256": reference,
    }
    return {"metrics": metrics, "unbounded": {}, "details": details, "attempted": attempted,
            "failed": len(errors)}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    for f in dataclasses.fields(wl.Sizes):
        ap.add_argument("--" + f.name.replace("_", "-"), type=int if f.type == "int" else float,
                        help=f"override the workload's {f.name}")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "neurof0" / "__init__.py").is_file():
        print(f"perfbench: {src / 'neurof0'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import neurof0
    if not Path(neurof0.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: neurof0 imported from {neurof0.__file__}, not {src}", file=sys.stderr)
        return 2

    sizes = wl.SMOKE_SIZES if args.smoke else wl.DEFAULT_SIZES[args.workload]
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(wl.Sizes)
                 if getattr(args, f.name) is not None}
    sizes = dataclasses.replace(sizes, **overrides)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(WORK_DIR) / f"{tag}-{os.getpid()}"
    out_dir = Path(OUT_DIR)
    out_dir.mkdir(exist_ok=True)
    runner = wl.Runner(root, wl.reset_dir(work) / "nf0.log")
    try:
        if args.trace:
            result = run_traced(sizes, args.seed, args.seconds, work, out_dir, tag)
            inputs = [{"chain": "generated by the traced commands", **dataclasses.asdict(sizes)}]
        else:
            workload = wl.WORKLOADS[args.workload](neurof0, runner, sizes, args.seed, work)
            result = run_timed(workload, runner, args.seconds, work)
            inputs = workload.inputs
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "sizes": dataclasses.asdict(sizes),
        "environment": environment(args.seed, inputs, neurof0.__version__),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        **result["details"],
    }
    report_path = out_dir / f"{tag}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    d = result["details"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for name, (value, unit) in {**result["metrics"], **result["unbounded"]}.items():
        note = ""
        if name == "wall_s_tail":
            t = d["wall_s_tail"]
            note = f"  (p{t['percentile']} of {t['samples']} operations, {t['beyond']} beyond)"
        elif name == "throughput_per_s":
            note = f"  ({d['throughput_unit']})"
        print(f"  {name:34s} {value:14.6f} {unit}{note}")
    for err in d["errors"]:
        print(f"  error: {err}")
    print(f"  report: {report_path}")

    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
