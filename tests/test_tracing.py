"""The benchmark's tracer still finds every name it wraps.

Claims pinned here:
    - ``perfbench/tracing.py``'s ``Tracer().install()`` binds its spans to the
      package without error, and a traced ``moments``, ``feasibility`` and
      ``er-analysis`` run then count calls and Monte Carlo replicates at the
      layers the per-layer metrics read; a refactor that moves or renames a
      wrapped name, or a field the replicate count reads, fails here first
    - traced ``tables`` and ``regimes`` runs, the rest of the er-mc
      workload, exit 0 and each count calls of the random-graph closed
      forms, which include the per-node moment under both of its names
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, layer_totals
tracer = Tracer()
tracer.install()
from interference_lab.cli import main
assert main(["moments", "--config", sys.argv[2]]) == 0
assert main(["feasibility", "--config", sys.argv[3], "--out", "cert.json"]) == 0
assert main(["er-analysis", "--config", sys.argv[4], "--out", "er.csv"]) == 0
closed_forms = {}
for command, config, out in (
    ("tables", sys.argv[5], "tables"),
    ("regimes", sys.argv[6], "regimes.csv"),
):
    before = tracer.counts["er.closed_forms.calls"]
    assert main([command, "--config", config, "--out", out]) == 0
    closed_forms[command] = tracer.counts["er.closed_forms.calls"] - before
totals = layer_totals(tracer.dump())
counts = {k: v for k, v in totals.items() if not k.endswith(".self_s")}
print(json.dumps({"counts": counts, "closed_forms": closed_forms}))
"""


def test_tracer_installs_and_counts_a_moments_and_a_feasibility_run(tmp_path):
    feasibility = json.loads((ROOT / "configs" / "feasibility_bd.json").read_text())
    del feasibility["witness_csv"]
    feasibility_path = tmp_path / "feasibility.json"
    feasibility_path.write_text(json.dumps(feasibility))
    run = subprocess.run(
        [
            sys.executable,
            "-c",
            SCRIPT,
            str(ROOT / "perfbench"),
            str(ROOT / "configs" / "moments_ht.json"),
            str(feasibility_path),
            str(ROOT / "configs" / "er_analysis.json"),
            str(ROOT / "configs" / "tables.json"),
            str(ROOT / "configs" / "regimes.json"),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        # a warning in the child fails as it does in process
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error"),
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    counts = result["counts"]
    assert counts["cli.main.calls"] == 5
    assert counts["designs.enumerate_support.calls"] == 2
    assert counts["designs.support_points"] > 0
    assert counts["exact.exact_moments.calls"] == 1
    assert counts["feasibility.unbiased_feasibility.calls"] == 1
    assert counts["feasibility.system_rows"] > 0
    assert counts["outcomes.estimand_value.calls"] > 0
    assert counts["graphs.NeighborhoodIndex.build.calls"] > 0
    er_analysis = json.loads((ROOT / "configs" / "er_analysis.json").read_text())
    reps = er_analysis["reps"] * len(er_analysis["cases"])
    assert counts["er.mc_expected_variance.calls"] == len(er_analysis["cases"])
    assert counts["er.mc.reps_attempted"] == reps
    assert counts["er.mc.reps_used"] == reps
    assert result["closed_forms"]["tables"] > 0
    assert result["closed_forms"]["regimes"] > 0
    assert counts["er.closed_forms.calls"] > 0
