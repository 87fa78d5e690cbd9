"""Benchmark of interference-lab: one client, closed loop, one op at a time.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each op is a fresh Python process making a
single call into the package, as a CLI user runs it. The benchmark repeats
passes over the workload's ops for S seconds, checks every op's output after
its pass, and prints one JSON object as the last line of stdout.

--trace 0 reports the end-to-end metrics (medians over passes):
    wall_s       sum over the pass's ops of spawn-to-exit time (start-up included)
    compute_s    sum over the pass's ops of the time inside the single call
    setup_s      median over the run's ops of spawn-to-package-ready time
    peak_rss_mb  highest peak RSS (VmHWM) of any op process in the pass
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see tracing.py), plus the tracing overhead:
traced minus untraced compute_s.

The machine this runs on is shared, and its speed drifts by up to 2x over
tens of seconds. So the benchmark times fixed mixes of work (Calibrator) in
its own process just before and just after each op, and scales each of the
op's times by the mix's reference duration over the mean of those two. Times
are therefore seconds at the reference machine speed; the calibrations
themselves are printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
OP_TIMEOUT_S = 60.0
# Typical durations of the two calibration mixes (whole, array passes) on the
# reference machine (2 cores, Python 3.11, numpy 2.4). Times are reported in
# seconds at that machine speed.
CALIBRATION_REF_S = (0.09, 0.045)

END_TO_END = {"wall_s": "s", "compute_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "cli.import_s",
    "cli.main.calls",
    "cli.main.self_s",
    "designs.enumerate_support.calls",
    "designs.enumerate_support.self_s",
    "designs.support_points",
    "outcomes.observed_vector.calls",
    "outcomes.observed_vector.self_s",
    "outcomes.random.self_s",
    "outcomes.estimand_value.self_s",
    "estimators.call.calls",
    "estimators.call.self_s",
    "exact.exact_moments.self_s",
    "exact.neyman_variance_terms.self_s",
    "feasibility.default_witness_family.self_s",
    "feasibility.unbiased_feasibility.self_s",
    "feasibility.mse_adversary.self_s",
    "feasibility.system_rows",
    "feasibility.system_cols",
    "feasibility.rank",
    "graphs.Graph.from_edges.self_s",
    "graphs.NeighborhoodIndex.build.calls",
    "graphs.NeighborhoodIndex.build.self_s",
    "graphs.NeighborhoodIndex.masks.self_s",
    "graphs.ball_size_sum",
    "er.mc_expected_variance.self_s",
    "er.mc.reps_attempted",
    "er.mc.reps_used",
    "er.sample_er_graph.self_s",
    "er.closed_forms.self_s",
    "kernels.ht_variance_terms.calls",
    "kernels.ht_variance_terms.self_s",
    "kernels.er_variance_scan.self_s",
    "kernels.er_moment_scan.self_s",
    "kernels.graphs_scanned",
    "kernels.scan_bytes_computed",
    "trace.overhead_s",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes_computed") else "count"


@dataclass
class PassResult:
    traced: bool
    calibration_s: list
    wall_s: float = 0.0
    compute_s: float = 0.0
    setups: list = field(default_factory=list)
    imports: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def child_env() -> dict:
    """os.environ plus overrides: the package on PYTHONPATH, one MC thread."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["INTERFERENCE_LAB_THREADS"] = "1"
    return env


class Calibrator:
    """Times fixed work in two mixes, one for each kind of op.

    CLI ops are mostly interpreter-bound, with numpy calls in between: their
    drift follows the whole mix, a loop with dict stores, scalar numpy RNG
    calls and array passes larger than the cache. The API ops are the
    exhaustive scans, which stream large arrays: their drift follows the
    array passes alone. One mix for both tracked one kind and missed the
    other.
    """

    KINDS = ("whole mix", "array passes")

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._rng = np.random.default_rng(0)
        self._array = np.arange(1 << 20, dtype=np.int64)

    def __call__(self) -> tuple[float, float]:
        np, array, draw = self._np, self._array, self._rng.random
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(100_000):
            total += i * i
            table[i & 1023] = total
        for _ in range(30_000):
            total += draw() < 0.5
        middle = time.perf_counter()
        for _ in range(4):
            np.bitwise_count(((array >> 3) & array).astype(np.uint64))
        end = time.perf_counter()
        return end - start, end - middle


def spawn(argv: list, env: dict, log: Path) -> tuple[float, float, int]:
    """Run argv to completion; return its spawn and exit times on
    CLOCK_MONOTONIC and its exit code."""
    with open(log, "wb") as fh:
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
    return started, time.clock_gettime(time.CLOCK_MONOTONIC), code


def evaluate(op, code: int, record: Path) -> tuple[dict | None, str | None]:
    """The op's record, or why the op failed: a non-zero exit, a missing
    record, or an output that fails its check."""
    import checks

    try:
        if code != 0:
            raise checks.CheckFailed(f"exit code {code}")
        rec = json.loads(record.read_text())
        checks.check(op)
    except Exception as exc:  # any failure of the op counts against it
        return None, f"{op.label}: {type(exc).__name__}: {exc}"
    return rec, None


def run_pass(
    ops: list, traced: bool, env: dict, run_dir: Path, calibrate: Calibrator
) -> PassResult:
    import tracing

    jobs = []
    for op in ops:
        if op.out.is_dir():
            shutil.rmtree(op.out)
        op.out.unlink(missing_ok=True)
        spec = run_dir / f"{op.label}.spec.json"
        record = run_dir / f"{op.label}.record.json"
        record.unlink(missing_ok=True)
        spec.write_text(
            json.dumps({**op.call, "out": str(op.out), "record": str(record), "trace": traced})
        )
        jobs.append((op, record, [sys.executable, str(HERE / "op.py"), str(spec)]))
    # A calibration before the first op and after each one: each op's times
    # are scaled by the reference over the mean of the two around it, taking
    # the mix for the op's kind (API ops are the array scans).
    calibrations = [calibrate()]
    launched = []
    for op, record, argv in jobs:
        started, ended, code = spawn(argv, env, run_dir / f"{op.label}.log")
        calibrations.append(calibrate())
        kind = 1 if "api" in op.call else 0
        mean = (calibrations[-2][kind] + calibrations[-1][kind]) / 2
        launched.append((op, record, started, ended, code, CALIBRATION_REF_S[kind] / mean))
    result = PassResult(
        traced, calibration_s=[statistics.median(c) for c in zip(*calibrations)]
    )
    for op, record, started, ended, code, scale in launched:
        result.wall_s += (ended - started) * scale
        rec, failure = evaluate(op, code, record)
        if failure is not None:
            result.failures.append(failure)
            continue
        result.peak_rss_mb = max(result.peak_rss_mb, rec["peak_rss_mb"])
        result.compute_s += rec["compute_s"] * scale
        result.setups.append((rec["ready"] - started) * scale)
        result.imports.append(rec["import_s"] * scale)
        if traced:
            for name, value in tracing.layer_totals(rec["trace"]).items():
                value *= scale if name.endswith("_s") else 1
                result.layers[name] = result.layers.get(name, 0) + value
    if result.imports:
        result.layers["cli.import_s"] = statistics.median(result.imports)
    return result


def summarize(values: list) -> str:
    return (
        f"median {statistics.median(values):.6g} min {min(values):.6g} "
        f"max {max(values):.6g} (n={len(values)})"
    )


def main(argv: list | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke sizes (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "interference_lab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'interference_lab'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)])
    if build.returncode != 0:
        print("error: byte-compiling the package failed", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = workloads.build(args.workload, args.seed, run_dir, tiny=args.tiny)
    env = child_env()
    calibrate = Calibrator()

    passes: list[PassResult] = []
    deadline = time.monotonic() + args.seconds
    modes = (False, True) if args.trace else (False,)
    while len(passes) < len(modes) or time.monotonic() < deadline:
        passes.append(run_pass(ops, modes[len(passes) % len(modes)], env, run_dir, calibrate))

    attempted = len(ops) * len(passes)
    failures = [f for p in passes for f in p.failures]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
        f"ops/pass={len(ops)} attempted={attempted} failed={len(failures)} "
        f"error_rate={len(failures) / attempted:.4g}"
    )
    for line in failures:
        print(f"  FAILED {line}")
    for kind, name in enumerate(Calibrator.KINDS):
        calibration = summarize([p.calibration_s[kind] * 1e3 for p in passes])
        print(f"  {name} calibration [ms] {calibration}; reference {CALIBRATION_REF_S[kind] * 1e3:g}")

    untraced = [p for p in passes if not p.traced]
    series = {
        "wall_s": [p.wall_s for p in untraced],
        "compute_s": [p.compute_s for p in untraced],
        "setup_s": [s for p in untraced for s in p.setups],
        "peak_rss_mb": [p.peak_rss_mb for p in untraced],
    }
    if not all(series.values()):
        print("error: no op completed; nothing to report", file=sys.stderr)
        return 1
    metrics = {}
    for name, unit in END_TO_END.items():
        print(f"  {name} [{unit}] {summarize(series[name])}")
        metrics[name] = {"value": statistics.median(series[name]), "unit": unit}

    if args.trace:
        traced = [p for p in passes if p.traced]
        overhead = statistics.median(p.compute_s for p in traced) - metrics["compute_s"]["value"]
        print(f"  tracing overhead: {overhead:.6g} s per pass (traced minus untraced compute_s)")
        metrics = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead
            else:
                value = statistics.median(p.layers.get(name, 0) for p in traced)
            metrics[name] = {"value": value, "unit": layer_unit(name)}
            print(f"  {name} [{layer_unit(name)}] {value:.6g}")

    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
