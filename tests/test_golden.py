"""Shipped configs against recorded outputs.

Claims pinned here:
    - every config under configs/ produces, byte for byte, the stdout and
      the output files recorded in tests/golden/<config>/ (``stdout`` holds
      the standard output; every other file is one the run writes, at the
      same path relative to the working directory)
    - the ``*_scale`` configs run the exact layer at the benchmark's size,
      n = 14, where the support spans several full 1024-code blocks
      (``designs.SUPPORT_BLOCK``; 16 under bd, 3 and a partial one under
      crd): HT moments under bd on an ER(14, 0.2) graph, and the MSE
      adversary for difference in means under crd and for the pure-arm IPW
      under bd
    - ``er_analysis_scale`` runs Monte Carlo at the benchmark's size (n = 15,
      30, 60 along p = 1/n, 500 replicates) with constant outcomes at 1.37,
      and ``er_analysis_uniform`` at n = 60 with uniform outcomes; unlike the
      shipped c = 1.0 config, whose terms are integers below 2^53 and so
      sum to the same bits in any order, these pin the closed form's float
      summation order
    - every row of each recorded ``er_analysis*`` output holds a Monte Carlo
      mean within three of its standard errors of the exact reference:
      ``h_bound`` at the constant policy's level, and, for the uniform
      policy, the envelope [h(K), h(M)] widened by three standard errors;
      so a re-recorded golden must be statistically right, not only
      reproducible

Unlike the re-runs of acceptance criterion 8, which compare two runs of the
same code, the recordings compare this version with the one that wrote them.
A change that alters output on purpose records the new output and says why.
"""

import csv
import json
from pathlib import Path

import pytest

from interference_lab import ERSpec, h_bound
from interference_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "adversary_bd_ipw_scale": "adversary",
    "adversary_crd_scale": "adversary",
    "adversary_diff_means": "adversary",
    "er_analysis": "er-analysis",
    "er_analysis_scale": "er-analysis",
    "er_analysis_uniform": "er-analysis",
    "feasibility_bd": "feasibility",
    "feasibility_crd": "feasibility",
    "moments_crd": "moments",
    "moments_ht": "moments",
    "moments_ht_scale": "moments",
    "regimes": "regimes",
    "tables": "tables",
}


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_every_shipped_config_is_recorded():
    assert sorted(p.stem for p in (ROOT / "configs").glob("*.json")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_shipped_config_output_matches_recording(name, tmp_path, monkeypatch, capsys):
    argv = [COMMANDS[name], "--config", str(ROOT / "configs" / f"{name}.json")]
    if COMMANDS[name] == "tables":
        argv += ["--out", "out"]
    monkeypatch.chdir(tmp_path)  # relative output paths land in tmp_path
    assert main(argv) == 0
    produced = _files(tmp_path)
    produced["stdout"] = capsys.readouterr().out.encode()
    assert produced == _files(GOLDEN / name)


ER_ANALYSES = [name for name in sorted(COMMANDS) if COMMANDS[name] == "er-analysis"]


@pytest.mark.parametrize("name", ER_ANALYSES)
def test_recorded_monte_carlo_lies_within_three_stderr_of_the_reference(name):
    policy = json.loads((ROOT / "configs" / f"{name}.json").read_text()).get("policy", {})
    rows = list(csv.DictReader((GOLDEN / name / "stdout").read_text().splitlines()))
    assert rows
    for row in rows:
        spec = ERSpec(int(row["N"]), float(row["p"]))
        mean, se = float(row["mc_mean"]), float(row["mc_stderr"])
        if policy.get("kind", "constant") == "constant":
            assert abs(mean - h_bound(policy.get("value", 1.0), spec)) <= 3 * se
        else:
            assert float(row["h_lower"]) - 3 * se <= mean <= float(row["h_upper"]) + 3 * se
