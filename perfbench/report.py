"""Print every metric of every workload, by name and unit.

Usage: python3 perfbench/report.py [--seed N] [--seconds S]

Runs run.py on each workload untraced (end-to-end metrics) and traced
(per-layer metrics, tracing overhead included) and prints one table.
"""

import argparse
import json
import subprocess
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    print(f"{'workload':<14} {'metric':<44} {'value':>14} unit")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stdout + out.stderr, file=sys.stderr)
                return out.returncode
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if trace == 0:
                rate = result["failed"] / result["attempted"]
                print(f"{name:<14} {'error_rate':<44} {rate:>14.6g} "
                      f"fraction ({result['failed']}/{result['attempted']} ops)")
            for metric, entry in result["metrics"].items():
                print(f"{name:<14} {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
