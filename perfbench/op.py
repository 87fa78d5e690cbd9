"""Run one benchmark op in a fresh process.

Usage: python3 op.py SPEC.json

SPEC holds the call (a CLI argv, or a public function and its arguments),
where to write the record, and whether to trace. The record holds the
CLOCK_MONOTONIC time at which the package was imported and ready for the
call (the parent subtracts its own spawn time; the clock is system-wide on
Linux), the import time, the time inside the single call, the peak RSS, and,
when traced, the spans and counts. The exit code is the call's.
"""

import json
import sys
import time
from pathlib import Path


def _api(call: str, args: dict, out: Path) -> int:
    import interference_lab as il

    spec = il.ERSpec(args["n"], args["p"])
    if call == "exhaustive_expected_variance":
        result = {"value": il.exhaustive_expected_variance(spec, args["c"])}
    else:
        oracle = il.exhaustive_moments(spec)
        result = {
            "two_pow_nbhd": oracle.two_pow_nbhd,
            "two_pow_shared": oracle.two_pow_shared,
            "prob_no_common": oracle.prob_no_common,
        }
    out.write_text(json.dumps(result))
    return 0


def _peak_rss_mb() -> float:
    """This program's peak RSS (VmHWM). The rusage figure would also count the
    parent's pages, which the child held until exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    start = time.perf_counter()
    import interference_lab.cli as cli

    import_s = time.perf_counter() - start
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    start = time.perf_counter()
    if "cli" in spec:
        # Looked up after install(), so a traced run enters the wrapper.
        code = cli.main(spec["cli"])
    else:
        code = _api(spec["api"], spec["args"], Path(spec["out"]))
    compute_s = time.perf_counter() - start
    record = {
        "ready": ready,
        "import_s": import_s,
        "compute_s": compute_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
    Path(spec["record"]).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
