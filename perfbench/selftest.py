"""Self-test of the benchmark.

Usage: python3 perfbench/selftest.py

1. Wrong outputs count as failed: genuine smoke-size outputs pass their
   checks, and the same outputs with a perturbed HT variance, an oracle
   moment one ulp off, or a Monte Carlo mean moved by 4 standard errors fail.
2. Every workload passes a smoke-size run, untraced and traced, and reports
   exactly the metrics BENCHMARK.json declares.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero without printing a result.
Exits non-zero on the first broken expectation.
"""

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

sys.path.insert(0, str(run.SRC))


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def _rewrite_json(path: Path, key: str, change) -> None:
    doc = json.loads(path.read_text())
    doc[key] = change(doc[key])
    path.write_text(json.dumps(doc))


def _shift_mc_mean(path: Path) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    row = rows[0]
    row["mc_mean"] = repr(float(row["mc_mean"]) + 4.0 * float(row["mc_stderr"]))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def wrong_outputs_fail(work: Path) -> None:
    perturbations = {
        "moments-ht0": lambda out: _rewrite_json(out, "variance", lambda v: v * (1 + 1e-6)),
        "oracle-moments": lambda out: _rewrite_json(
            out, "two_pow_nbhd", lambda v: math.nextafter(v, math.inf)
        ),
        "er-analysis": _shift_mc_mean,
    }
    env = run.child_env()
    for name in ("enum-moments", "oracle", "er-mc"):
        run_dir = work / name
        run_dir.mkdir(parents=True)
        ops = workloads.build(name, 0, run_dir, tiny=True)
        result = run.run_pass(ops, False, env, run_dir, run.Calibrator())
        _expect(not result.failures, f"{name}: genuine outputs failed: {result.failures}")
        for op in ops:
            if op.label in perturbations:
                record = run_dir / f"{op.label}.record.json"
                perturbations[op.label](op.out)
                _, failure = run.evaluate(op, 0, record)
                _expect(failure is not None, f"{op.label}: perturbed output passed its check")
                print(f"ok: perturbed {op.label} counted as failed ({failure})")


def _result(argv: list, cwd: Path) -> dict:
    out = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    _expect(out.returncode == 0, f"{argv} exited {out.returncode}: {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def smoke_runs() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    _expect(names == list(workloads.WORKLOADS), f"workloads {names} != {workloads.WORKLOADS}")
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0",
                    "--seconds", "0", "--trace", str(trace), "--tiny"]
            result = _result(argv, run.ROOT)
            _expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {result}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            _expect(units == expected[trace], f"{name} trace={trace}: metrics {sorted(units)}")
            print(f"ok: smoke {name} trace={trace}, {result['attempted']} ops")


def bare_directory_fails(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    argv = [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "0",
            "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    _expect(out.returncode != 0, "benchmark succeeded without the package source")
    _expect(not out.stdout.strip(), f"benchmark printed a result: {out.stdout!r}")
    print(f"ok: bare directory exits {out.returncode} without a result")


def main() -> int:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wrong_outputs_fail(work)
    smoke_runs()
    bare_directory_fails(work)
    shutil.rmtree(work)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
