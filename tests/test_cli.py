"""End-to-end command runs: outputs, exit codes, determinism.

Claims pinned here:
    - each subcommand runs a small config to completion with exit 0, and
      ``python -m interference_lab`` prints the recorded ``regimes`` output
    - malformed JSON, unknown keys, JSON booleans where numbers belong,
      missing, unreadable, non-UTF-8 or incomplete input files, and
      unwritable outputs exit 2 without a traceback, naming the offending
      key or path, as do a table unit that lists fewer outcomes than its
      reference group needs, naming the unit, and integers past Python's 4300-digit
      conversion limit, in a config file or a --set value; over-cap sizes,
      including feasibility past the 63-unit code width,
      tables and Monte Carlo beyond the 63-node code width, and tables
      past 1074 nodes (an ER graph past
      2^22 node pairs among them), before any pair is allocated, exit 3;
      moments past the enumeration cap
      exits 3 before it reads a graph or draws a table, and the adversary
      (n = 15, 24, 64 and 2^63) before it builds a table, on one stderr
      line; er-analysis refuses any case (a bad key, edge probability,
      size or envelope) before its first replicate; sweep sizes that
      are not positive or overflow a float, a NaN feasibility grid level,
      a NaN outcome level or bound (regimes' k_lower, the adversary's
      m_upper, a table file's m_upper), an infinite table bound, and
      er-analysis levels outside 0 < k_lower < m_upper, both finite, a
      constant estimator's or policy's value that is not finite, and a
      negative radius k, exit 2 naming the entry on one stderr line, as
      does a random table's interval that holds no double, while one a
      few ulps wide runs; a
      malformed table file (a bad n, edge or radius included, and a float
      or boolean one, refused rather than truncated; a unit that is not a
      list of 2^|G_i| finite JSON numbers) or graph
      file (a node count below 1, an edge line of three fields) exits 2
      naming the file; tables without --out, with a sweep size it
      cannot evaluate or a unit outside its graph, and an ER graph whose n
      is not the design's, exit 2 before any graph is drawn; tables on a
      graph past 1074 nodes, ER or file, exits 3 before it draws the graph
      or builds a ball, and at 1074 prints f_i = 2^-1074; its k-local e_i
      is 2^|ball| of the unit's ball, read from one search from the unit
      without building every node's ball; a table document
      past the outcome budget (63 units of 19-node balls) exits 3 before it
      reads a unit, and one beside a structure block exits 2 naming the
      block; a broken moment
      identity or MSE floor exits 4 without a
      traceback; a negative seed, in any of its three keys, and a float
      overflow in an estimand, a moment, MSE or Monte Carlo reduction or
      in the envelope h(M) exit 2 with one stderr line
    - numpy.random stays unloaded through importing the CLI and running
      moments on a random table and on an inline ER graph, feasibility,
      adversary, regimes and tables, until er-analysis runs Monte Carlo; the import generates no dataclass code and runs
      BLAS on the calling thread: it sets OPENBLAS_NUM_THREADS to 1 unless
      the variable is already set, and starts no thread; argparse, gettext
      and locale stay unloaded through a run of every command
    - a CLI process freezes its heap at exit, after a run that exits 0, 2
      or 3, registering the freeze once however often main runs; main
      freezes nothing before the process exits, and importing the CLI
      without calling main freezes nothing
    - a design block of unknown kind, a crd block without n_a, a bd or cbd
      block with n_a, and a table whose size differs from the design's
      exit 2 naming the fault
    - er-analysis on a dense graph at the 63-node code width exits 0 with a
      finite Monte Carlo mean
    - the exposure-weighted estimator takes an inline graph when the
      structure carries none, and without either it exits 2
    - the adversary runs under cbd
    - the witness block that feasibility prints is the in-process
      certificate's, and the worst-case table the adversary writes (``table_json``)
      reads back through ``moments`` (``table.json_path``) to the
      adversary's MSE, bit for bit
    - re-running any command byte-identically reproduces its output and the
      files it writes, with OPENBLAS_NUM_THREADS unset, 1 and 4, including
      configs/feasibility_bd.json (pinned by acceptance criterion 8 in
      test_acceptance.py)
    - a block refuses, naming it, any key its kind does not read, and a
      top-level seed outside er-analysis, which no draw reads
    - the grammar is COMMAND --config PATH [--out PATH] [--set
      KEY=VALUE]...: --set overrides nested keys and feeds a seedless
      config; each flag also takes --flag=VALUE; a repeated --config or
      --out keeps its last value and --set values apply in order; -h and
      --help print one usage text and return 0; and every usage error (no
      or an unknown command, no --config, an abbreviated or unknown flag
      such as --seed, a flag without its value, an extra argument) returns
      2 in process, not SystemExit, writing the usage line and argparse's
      wording of the error on exactly two stderr lines
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import interference_lab
from interference_lab import ATE, Design, PotentialOutcomeTable, cli, exact, feasibility, graphs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = str(Path(interference_lab.__file__).resolve().parents[1])


def blas_env(threads=None):
    """os.environ with OPENBLAS_NUM_THREADS set to ``threads``, or unset for
    None (an in-process import of the package may have set it), this
    package first on PYTHONPATH, so a child in any cwd runs the same code,
    and warnings turned into errors."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONWARNINGS"] = "error"  # a warning in the child fails as it does in process
    return env


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "interference_lab.cli", *args],
        capture_output=True,
        text=True,
        env=blas_env(),
    )


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


MOMENTS_CFG = {
    "design": {"design": "crd", "n": 6, "n_a": 3},
    "structure": {"kind": "none"},
    "table": {"random": {"k_lower": 0.0, "m_upper": 1.0, "seed": 11}},
    "estimator": {"kind": "diff_means"},
    "estimand": {"kind": "ate"},
}


def test_moments_command(tmp_path):
    cfg = write_config(tmp_path, "m.json", MOMENTS_CFG)
    out = tmp_path / "report.json"
    result = run_cli(["moments", "--config", cfg, "--out", str(out)])
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert abs(report["expectation"] - report["estimand_value"]) < 1e-12
    assert report["support_size"] == 20
    assert abs(report["variance"] - report["neyman"]["variance"]) < 1e-10


def test_moments_ht_variance_field(tmp_path):
    cfg = write_config(
        tmp_path,
        "ht.json",
        {
            "design": {"design": "bd", "n": 2},
            "structure": {
                "kind": "k_local",
                "k": 1,
                "graph": {"er": {"n": 2, "p": 1.0, "seed": 1}},
            },
            "table": {"random": {"k_lower": 0.999999, "m_upper": 1.000001, "seed": 2}},
            "estimator": {"kind": "horvitz_thompson"},
            "estimand": {"kind": "ate"},
        },
    )
    result = run_cli(["moments", "--config", cfg])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["variance"] == pytest.approx(8.0, rel=1e-4)


def test_feasibility_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "f.json",
        {"design": {"design": "crd", "n": 3, "n_a": 1}, "estimand": {"kind": "ate"}, "grid": [0, 1]},
    )
    result = run_cli(["feasibility", "--config", cfg])
    assert result.returncode == 0
    assert json.loads(result.stdout)["status"] == "infeasible"

    cfg2 = write_config(
        tmp_path,
        "f2.json",
        {"design": {"design": "bd", "n": 3}, "estimand": {"kind": "ate"}, "grid": [0, 1]},
    )
    result = run_cli(["feasibility", "--config", cfg2])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["status"] == "feasible"
    # the printed witness is the in-process certificate's
    cert = feasibility.unbiased_feasibility(Design("bd", 3), ATE, [0, 1])
    assert report["witness"] == cert.to_json_dict()["witness"] == {"kind": "pure_arm_ipw"}


def test_adversary_command(tmp_path):
    table_json = tmp_path / "adversary_table.json"
    cfg = write_config(
        tmp_path,
        "a.json",
        {
            "design": {"design": "bd", "n": 6},
            "estimator": {"kind": "diff_means"},
            "m_upper": 1.0,
            "table_json": str(table_json),
        },
    )
    result = run_cli(["adversary", "--config", cfg])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["mse"] >= 0.125 - 1e-6
    assert report["table_json"] == str(table_json)
    table = PotentialOutcomeTable.from_json(table_json)
    assert table.n == 6


@pytest.mark.parametrize("estimator", ["diff_means", "pure_arm_ipw"])
def test_adversary_table_reads_back_to_its_mse(tmp_path, capsys, estimator):
    table = str(tmp_path / "adversary_table.json")
    design = {"design": "bd", "n": 6}
    cfg = {"design": design, "estimator": {"kind": estimator}, "m_upper": 1.0, "table_json": table}
    assert cli.main(["adversary", "--config", write_config(tmp_path, "a.json", cfg)]) == 0
    mse = json.loads(capsys.readouterr().out)["mse"]
    cfg = {"design": design, "table": {"json_path": table}, "estimator": {"kind": estimator}}
    assert cli.main(["moments", "--config", write_config(tmp_path, "m.json", cfg)]) == 0
    assert repr(json.loads(capsys.readouterr().out)["mse_vs_estimand"]) == repr(mse)


def test_adversary_runs_under_cbd(tmp_path, capsys):
    cfg = {"design": {"design": "cbd", "n": 6}, "estimator": {"kind": "diff_means"}, "m_upper": 1.0}
    assert cli.main(["adversary", "--config", write_config(tmp_path, "a.json", cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mse"] >= (1.0 - 2e-6) ** 2 / 4 > report["floor"]


_NO_STRUCTURE = {k: v for k, v in MOMENTS_CFG.items() if k != "structure"}


@pytest.mark.parametrize(
    "command,config,overrides,message",
    [
        ("moments", [1], [], "{path}: top level must be a JSON object"),
        ("moments", "moments_crd.json", ["design"], "--set needs key=value, got 'design'"),
        (
            "moments",
            "moments_crd.json",
            ["design.n.x=1"],
            "--set path 'design.n.x' crosses a non-object",
        ),
        ("er-analysis", "er_analysis.json", ["cases=[1]"], "cases[0]: expected an object"),
        (
            "er-analysis",
            "er_analysis.json",
            ["policy.value=Infinity"],
            "policy.value: must be finite, got inf",
        ),
        (
            "moments",
            "moments_ht.json",
            ["structure.graph={}"],
            "structure.graph: give exactly one of path / er",
        ),
        (
            "moments",
            "moments_ht.json",
            ['structure={"kind": "k_local"}'],
            "structure: k_local needs a graph",
        ),
        ("moments", "moments_crd.json", ["table={}"], "table: give exactly one of random / json_path"),
        ("moments", _NO_STRUCTURE, [], "table: random tables need a structure block"),
        ("regimes", "regimes.json", ["m_upper=0.5"], "m_upper: must be at least k_lower=1.0, got 0.5"),
        ("regimes", "regimes.json", ["m_upper=Infinity"], "m_upper: must be finite, got inf"),
    ],
)
def test_config_refusals_exit_2_on_one_line(tmp_path, capsys, command, config, overrides, message):
    if isinstance(config, str):
        path = str(CONFIGS / config)
    else:
        path = write_config(tmp_path, "c.json", config)
    argv = [command, "--config", path]
    for item in overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


def test_er_analysis_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "er.json",
        {
            "cases": [{"n": 6, "p": 0.3}, {"n": 5, "p": 0.0}],
            "k_lower": 0.5,
            "m_upper": 1.0,
            "reps": 40,
            "seed": 3,
            "policy": {"kind": "constant", "value": 1.0},
        },
    )
    result = run_cli(["er-analysis", "--config", cfg])
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == (
        "N,p,regime,h_lower,h_upper,mc_mean,mc_stderr,expected_Ei,informative_fraction"
    )
    assert len(lines) == 3
    row = lines[2].split(",")
    assert row[0] == "5" and row[2] == "sparse"
    assert float(row[5]) == pytest.approx(4.0 / 5)  # p=0 degenerate value
    assert float(row[6]) == 0.0


def test_er_analysis_bounds_enclose_the_uniform_policy(tmp_path, capsys):
    cfg = {
        "cases": [{"n": 6, "p": 0.3}, {"n": 10, "p": 0.1}, {"n": 8, "p": 0.5}],
        "k_lower": 0.999,
        "m_upper": 1.0,
        "policy": {"kind": "uniform"},
        "reps": 2000,
        "seed": 7,
    }
    assert cli.main(["er-analysis", "--config", write_config(tmp_path, "er.json", cfg)]) == 0
    header, *lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        row = dict(zip(header.split(","), line.split(",")))
        slack = 3 * float(row["mc_stderr"])
        h_lower, h_upper = float(row["h_lower"]), float(row["h_upper"])
        assert h_lower - slack <= float(row["mc_mean"]) <= h_upper + slack, line


def test_tables_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "t.json",
        {
            "unit": 0,
            "k": 1,
            "graph": {"path": str(tmp_path / "g.txt")},
            "sweep_n": [200],
        },
    )
    (tmp_path / "g.txt").write_text("3\n0 1\n")
    out_dir = tmp_path / "tables"
    result = run_cli(["tables", "--config", cfg, "--out", str(out_dir)])
    assert result.returncode == 0, result.stderr
    structure = (out_dir / "structure_table.csv").read_text().splitlines()
    assert structure[0] == "structure,e_i,f_i"
    assert structure[1] == "none,2,0.5"
    assert structure[2] == "k_local,4,0.25"
    assert structure[3] == "arbitrary,8,0.125"
    limits = (out_dir / "limits_table.csv").read_text().splitlines()
    assert limits[-2].startswith("limit,1/N,")
    assert limits[-1] == "limit,1/sqrt(N),inf,0.0"


def test_regimes_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "r.json",
        {"n_values": [8, 16, 32], "k_lower": 1.0, "m_upper": 1.0},
    )
    result = run_cli(["regimes", "--config", cfg])
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 4
    dense = [float(line.split(",")[5]) for line in lines[1:]]
    assert dense[0] < dense[1] < dense[2]


def test_bad_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = run_cli(["moments", "--config", str(path)])
    assert result.returncode == 2


def test_unknown_key_exits_2(tmp_path):
    cfg = dict(MOMENTS_CFG)
    cfg["mystery"] = 1
    path = write_config(tmp_path, "m.json", cfg)
    result = run_cli(["moments", "--config", str(path)])
    assert result.returncode == 2
    assert "mystery" in result.stderr


@pytest.mark.parametrize(
    "design, message",
    [
        ({"design": "zz", "n": 3}, "unknown design kind 'zz'"),
        ({"design": "crd", "n": 3}, "crd requires n_a"),
        ({"design": "bd", "n": 3, "n_a": 1}, "bd takes no n_a"),
        ({"design": "cbd", "n": 3, "n_a": 1}, "cbd takes no n_a"),
    ],
)
def test_malformed_design_block_exits_2(tmp_path, capsys, design, message):
    cfg = {"design": design, "estimand": {"kind": "ate"}, "grid": [0, 1]}
    assert cli.main(["feasibility", "--config", write_config(tmp_path, "f.json", cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_moments_on_a_narrow_random_table(tmp_path, capsys):
    # a table drawn on (1e15, 1e15 + 1), where the interior offset rounds
    # away next to the bound's ulp, keeps its draws inside it
    narrow = {"k_lower": 1e15, "m_upper": 1e15 + 1, "seed": 0}
    cfg = dict(MOMENTS_CFG, table={"random": narrow})
    assert cli.main(["moments", "--config", write_config(tmp_path, "m.json", cfg)]) == 0
    # an interval holding no double is refused, naming both bounds
    empty = {"k_lower": 1.0, "m_upper": 1.0000000000000002, "seed": 0}
    cfg = dict(MOMENTS_CFG, table={"random": empty})
    capsys.readouterr()
    assert cli.main(["moments", "--config", write_config(tmp_path, "e.json", cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: no double lies strictly between"
        " k_lower=1.0 and m_upper=1.0000000000000002\n"
    )


def test_table_of_another_size_exits_2(tmp_path, capsys):
    table = tmp_path / "t.json"
    doc = {"structure": {"kind": "no_interference", "n": 4}, "units": [[1.0, 0.5]] * 4}
    table.write_text(json.dumps(doc))
    cfg = dict(MOMENTS_CFG, table={"json_path": str(table)})
    cfg.pop("structure")
    assert cli.main(["moments", "--config", write_config(tmp_path, "m.json", cfg)]) == 2
    assert capsys.readouterr().err == "error: table has n=4, design has n=6\n"


def test_short_table_unit_exits_2_naming_it(tmp_path, capsys):
    table = tmp_path / "t.json"
    doc = {"structure": {"kind": "no_interference", "n": 2}, "units": [[1.0, 0.5], [1.0]]}
    table.write_text(json.dumps(doc))
    cfg = dict(MOMENTS_CFG, design={"design": "crd", "n": 2, "n_a": 1}, table={"json_path": str(table)})
    cfg.pop("structure")
    assert cli.main(["moments", "--config", write_config(tmp_path, "m.json", cfg)]) == 2
    assert capsys.readouterr().err == f"error: {table}: unit 1: need a list of 2 numbers\n"


def test_structure_beside_a_table_document_exits_2(tmp_path, capsys):
    # the document states its own structure; a second statement is refused
    # rather than silently preferred
    table = tmp_path / "t.json"
    doc = {"structure": {"kind": "no_interference", "n": 6}, "units": _ARM_UNITS * 6}
    table.write_text(json.dumps(doc))
    cfg = dict(MOMENTS_CFG, table={"json_path": str(table)})
    assert cli.main(["moments", "--config", write_config(tmp_path, "m.json", cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: structure: a table.json_path document states its own\n"
    )


def test_table_document_past_the_value_cap_exits_3_before_allocating(tmp_path, capsys):
    # 63 units, each with a closed ball of 19 nodes (every node joined to the
    # nine on either side): 63 * 2^19 outcomes, refused before a unit is
    # read (each empty list would exit 2) and before the table's size is
    # held against the design's
    edges = sorted([i, (i + d) % 63] for i in range(63) for d in range(1, 10))
    structure = {"kind": "k_local", "n": 63, "k": 1, "edges": edges}
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"structure": structure, "units": [[]] * 63}))
    cfg = dict(MOMENTS_CFG, table={"json_path": str(table)})
    cfg.pop("structure")
    assert cli.main(["moments", "--config", write_config(tmp_path, "m.json", cfg)]) == 3
    assert capsys.readouterr().err == (
        f"capacity error: {table}: outcome tables hold at most 229376 outcomes, got 33030144\n"
    )


def _moments_with_table(tmp_path, table):
    cfg = dict(MOMENTS_CFG, table=table)
    cfg.pop("structure")
    return run_cli(["moments", "--config", write_config(tmp_path, "m.json", cfg)])


def test_missing_table_file_exits_2(tmp_path):
    result = _moments_with_table(tmp_path, {"json_path": str(tmp_path / "absent")})
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_table_json_without_structure_exits_2(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"units": [[1.0, 0.0]] * 6}))
    result = _moments_with_table(tmp_path, {"json_path": str(path)})
    assert result.returncode == 2
    assert "structure" in result.stderr
    assert "Traceback" not in result.stderr


_HUB_EDGES = [[0, j] for j in range(1, 22)]  # unit 0's reference group has 22 units
_ARM_UNITS = [[1.0, 0.5]]
_BELOW_ONE = [[0.75, 0.5]]  # a unit inside the bounds (0, 1)
# units of a k = 1 table on n = 6 with the one edge (0, 1)
_PAIR_UNITS = [[1.0, 0.75, 0.75, 0.5]] * 2 + _ARM_UNITS * 4
_EIGHT = [0.5] * 8  # a unit of an arbitrary table on 3 units


def _whole(units, n=3):
    """An arbitrary-interference table document on n units."""
    return json.dumps({"structure": {"kind": "arbitrary", "n": n}, "units": units})


@pytest.mark.parametrize(
    "name,text,code",
    [
        # a unit is a list of 2^|G_i| numbers: not an object keyed by arms,
        # not a list of another length, not a list holding a non-number
        ("table.json", _whole([{"AAA": 0.5}, _EIGHT, _EIGHT]), 2),
        ("table.json", _whole([["x", *_EIGHT[1:]], _EIGHT, _EIGHT]), 2),
        ("table.json", _whole([_EIGHT] * 4), 2),
        ("table.json", _whole([_EIGHT * 2, _EIGHT, _EIGHT]), 2),
        ("table.json", _whole([_EIGHT[1:], _EIGHT, _EIGHT]), 2),
        ("table.json", _whole([[[0.5]] * 8, _EIGHT, _EIGHT]), 2),
        ("table.json", _whole([[None] * 8, _EIGHT, _EIGHT]), 2),
        ("table.json", _whole([[]] * 15, n=15), 3),
        ("table.json", "[1, 2]", 2),
        (
            "table.json",
            json.dumps({"structure": {"kind": "no_interference", "n": 64}, "units": []}),
            3,
        ),
        (
            "table.json",
            json.dumps(
                {
                    "structure": {"kind": "k_local", "n": 22, "k": 1, "edges": _HUB_EDGES},
                    "units": [[]] * 22,
                }
            ),
            3,
        ),
        # a NaN or infinite bound, which JSON-loading Python accepts, fails
        # its check (the report would print Infinity back, which is not JSON)
        *(
            (
                "table.json",
                json.dumps(
                    {
                        "m_upper": bound,
                        "structure": {"kind": "no_interference", "n": 6},
                        "units": _ARM_UNITS * 6,
                    }
                ),
                2,
            )
            for bound in (math.nan, math.inf)
        ),
        # a malformed structure fails inside the reader, naming the file
        *(
            ("table.json", json.dumps({"structure": s, "units": _ARM_UNITS * 6}), 2)
            for s in (
                {"kind": "no_interference", "n": "abc"},
                {"kind": "k_local", "n": 6, "k": 1, "edges": [[0, 1, 2]]},
                {"kind": "k_local", "n": 6, "k": 1, "edges": [["a", "b"]]},
                {"kind": "k_local", "n": 6, "k": 1, "edges": [[0, 0]]},
                {"kind": "k_local", "n": 6, "k": -1, "edges": [[0, 1]]},
            )
        ),
        # a size, radius or edge endpoint that is not an integer is refused,
        # not truncated into a table that loads (each units list fits the
        # truncated structure)
        *(
            ("table.json", json.dumps({"structure": s, "units": units}), 2)
            for s, units in (
                ({"kind": "no_interference", "n": 6.5}, _ARM_UNITS * 6),
                ({"kind": "no_interference", "n": 6.0}, _ARM_UNITS * 6),
                ({"kind": "no_interference", "n": True}, _ARM_UNITS),
                ({"kind": "k_local", "n": 6, "k": 0.5, "edges": []}, _ARM_UNITS * 6),
                ({"kind": "k_local", "n": 6, "k": True, "edges": []}, _ARM_UNITS * 6),
                ({"kind": "k_local", "n": 6, "k": 1, "edges": [[0, 1.5]]}, _PAIR_UNITS),
                ({"kind": "k_local", "n": 6, "k": 1, "edges": [[0, True]]}, _PAIR_UNITS),
            )
        ),
        # an outcome must be a finite JSON number and a bound a JSON number:
        # a boolean is not 1 or 0, a string is not parsed, and NaN and
        # Infinity, which JSON-loading Python accepts, are not outcomes
        # (each table loads once the entry is a finite number)
        *(
            (
                "table.json",
                json.dumps(
                    {
                        **bounds,
                        "structure": {"kind": "no_interference", "n": 6},
                        "units": [*_BELOW_ONE * 3, unit, *_BELOW_ONE * 2],
                    }
                ),
                2,
            )
            for bounds, unit in (
                ({}, [True, 0.5]),
                ({}, [0.75, "1e3"]),
                ({}, [0.75, "nan"]),
                ({}, [0.75, math.nan]),
                ({}, [-math.inf, 0.5]),
                ({"m_upper": True}, _BELOW_ONE[0]),
                ({"k_lower": False, "m_upper": 1.0}, _BELOW_ONE[0]),
            )
        ),
    ],
)
def test_malformed_table_file_exit_code(tmp_path, name, text, code):
    path = tmp_path / name
    path.write_text(text)
    result = _moments_with_table(tmp_path, {"json_path": str(path)})
    assert result.returncode == code, result.stderr
    assert str(path) in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("unit", [10, -1])
def test_tables_unit_out_of_range_exits_2(tmp_path, capsys, er_draws, unit):
    # refused before the graph is drawn
    argv = ["tables", "--config", str(CONFIGS / "tables.json"), "--out", str(tmp_path)]
    assert cli.main([*argv, "--set", f"unit={unit}"]) == 2
    assert capsys.readouterr().err == f"error: unit: {unit} out of range for n=10\n"
    assert er_draws == []


@pytest.mark.parametrize("text", ["0\n", "-3\n", "6\n0 1\n0 1 2\n"])
def test_malformed_graph_file_exits_2_naming_it(tmp_path, text):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    cfg = dict(MOMENTS_CFG)
    cfg["structure"] = {"kind": "k_local", "graph": {"path": str(path)}}
    result = run_cli(["moments", "--config", write_config(tmp_path, "m.json", cfg)])
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: {path}: ")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


def test_missing_graph_file_exits_2(tmp_path):
    cfg = dict(MOMENTS_CFG)
    cfg["structure"] = {"kind": "k_local", "graph": {"path": str(tmp_path / "absent")}}
    result = run_cli(["moments", "--config", write_config(tmp_path, "m.json", cfg)])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr


def _file_error_args(tmp_path, case):
    """Argv of a run that fails on one file, and that file's path."""
    if case == "out:missing_dir":
        bad = str(tmp_path / "missing" / "x.json")
        return ["moments", "--config", str(CONFIGS / "moments_ht.json"), "--out", bad], bad
    if case == "tables_out:existing_file":
        bad = tmp_path / "taken"
        bad.write_text("")
        return ["tables", "--config", str(CONFIGS / "tables.json"), "--out", str(bad)], str(bad)
    where, kind = case.split(":")
    if kind == "dir":
        bad = str(tmp_path)
    else:
        bad = str(tmp_path / "latin1.txt")
        Path(bad).write_bytes(b"\xff\xfe{}\n")
    if where == "config":
        return ["moments", "--config", bad], bad
    cfg = dict(MOMENTS_CFG)
    if where == "graph":
        cfg["structure"] = {"kind": "k_local", "graph": {"path": bad}}
    else:
        cfg.pop("structure")
        cfg["table"] = {where: bad}
    return ["moments", "--config", write_config(tmp_path, "m.json", cfg)], bad


@pytest.mark.parametrize(
    "case",
    [
        f"{where}:{kind}"
        for where in ("config", "graph", "json_path")
        for kind in ("dir", "non_utf8")
    ]
    + ["out:missing_dir", "tables_out:existing_file"],
)
def test_file_errors_exit_2(tmp_path, case):
    args, bad = _file_error_args(tmp_path, case)
    result = run_cli(args)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert bad in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "command,config,override",
    [
        ("feasibility", "feasibility_bd.json", "design.n=true"),
        ("feasibility", "feasibility_bd.json", "grid=[0, true]"),
        ("moments", "moments_ht.json", "table.random.seed=false"),
        ("regimes", "regimes.json", "n_values=[true]"),
        ("tables", "tables.json", "sweep_n=[true]"),
        # nor is NaN: a grid level must be finite, and an outcome level or
        # bound positive
        ("feasibility", "feasibility_bd.json", "grid=[NaN, 1]"),
        ("regimes", "regimes.json", "k_lower=NaN"),
        ("adversary", "adversary_diff_means.json", "m_upper=NaN"),
        # nor is an m_upper whose M^2/8 floor is subnormal or zero, where
        # the floor gate would check nothing
        ("adversary", "adversary_diff_means.json", "m_upper=1e-170"),
        ("adversary", "adversary_diff_means.json", "m_upper=1e-320"),
        # regimes levels must be finite, with k_lower <= m_upper (the
        # shipped config sets both to 1.0), before any row is computed
        ("regimes", "regimes.json", "m_upper=Infinity"),
        ("regimes", "regimes.json", "k_lower=Infinity"),
        ("regimes", "regimes.json", "m_upper=0.5"),
        # er-analysis levels must satisfy 0 < k_lower < m_upper, both
        # finite, before any replicate runs
        ("er-analysis", "er_analysis_uniform.json", "k_lower=2.0"),
        ("er-analysis", "er_analysis_uniform.json", "k_lower=NaN"),
        ("er-analysis", "er_analysis_uniform.json", "m_upper=Infinity"),
        ("er-analysis", "er_analysis.json", "m_upper=NaN"),
        # a constant's value must be finite, and a radius non-negative
        ("er-analysis", "er_analysis.json", "policy.value=NaN"),
        ("er-analysis", "er_analysis.json", "policy.value=Infinity"),
        ("moments", "moments_crd.json", 'estimator={"kind": "constant", "value": NaN}'),
        (
            "adversary",
            "adversary_diff_means.json",
            'estimator={"kind": "constant", "value": Infinity}',
        ),
        ("moments", "moments_ht.json", "structure.k=-1"),
        (
            "moments",
            "moments_crd.json",
            'estimator={"kind": "horvitz_thompson", "k": -1, '
            '"graph": {"er": {"n": 8, "p": 0.25, "seed": 4}}}',
        ),
        ("tables", "tables.json", "k=-1"),
    ],
)
def test_json_booleans_are_not_numbers(tmp_path, command, config, override):
    key = override.split("=")[0]
    result = run_cli(
        [command, "--config", str(CONFIGS / config), "--set", override,
         "--out", str(tmp_path / "out")]
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: {key}")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


@pytest.fixture
def er_draws(monkeypatch):
    """The ER graphs the CLI draws, recorded instead of drawn."""
    drawn = []
    monkeypatch.setattr(cli, "sample_er_graph", lambda *args: drawn.append(args))
    return drawn


def test_tables_without_out_exits_2_before_drawing(capsys, er_draws):
    assert cli.main(["tables", "--config", str(CONFIGS / "tables.json")]) == 2
    assert capsys.readouterr().err == "error: tables writes two CSVs; --out must name a directory\n"
    assert er_draws == []


@pytest.mark.parametrize(
    "sweep,message",
    [("[0]", "sweep_n[0]: must be positive, got 0"), ("[50, 1]", "pairwise moments need n >= 2")],
)
def test_tables_refuses_its_sweep_before_drawing(tmp_path, capsys, er_draws, sweep, message):
    argv = ["tables", "--config", str(CONFIGS / "tables.json"), "--out", str(tmp_path)]
    assert cli.main([*argv, "--set", f"sweep_n={sweep}"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert er_draws == []


@pytest.mark.parametrize(
    "n,source",
    [(1075, "er"), (2897, "er"), (1075, "path"), (20000, "path"), (10**6, "path")],
)
def test_tables_past_its_size_exits_3_before_drawing_or_building_balls(
    tmp_path, capsys, monkeypatch, er_draws, n, source
):
    # past n = 1074 the arbitrary row's f_i = 2^-n underflows to 0.0, and
    # from n = 14,285 on its e_i = 2^n has more digits than int-to-str allows;
    # so the ER draw's own cap, 2^22 node pairs (n = 2897), is never reached
    def refuse(*args, **kwargs):
        raise AssertionError("NeighborhoodIndex.build ran")

    monkeypatch.setattr(graphs.NeighborhoodIndex, "build", refuse)
    graph = tmp_path / "g.txt"
    graph.write_text(f"{n}\n0 1\n")
    block = {"path": str(graph)} if source == "path" else {"er": {"n": n, "p": 0.1, "seed": 0}}
    argv = ["tables", "--config", str(CONFIGS / "tables.json"), "--out", str(tmp_path / "out")]
    assert cli.main([*argv, "--set", f"graph={json.dumps(block)}"]) == 3
    assert capsys.readouterr().err == (
        f"capacity error: tables capped at n=1074, past which f_i = 2^-n underflows; got n={n}\n"
    )
    assert er_draws == []
    assert not (tmp_path / "out").exists()


def test_tables_at_its_size_cap_prints_the_least_positive_double(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("1074\n0 1\n")
    cfg = {"unit": 1073, "graph": {"path": str(graph)}, "sweep_n": [50]}
    cfg = write_config(tmp_path, "t.json", cfg)
    assert cli.main(["tables", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "structure_table.csv").read_text().splitlines()
    assert rows[1:] == ["none,2,0.5", "k_local,2,0.5", f"arbitrary,{2**1074},5e-324"]


@pytest.mark.parametrize("k", [0, 1, 3])
def test_tables_reads_the_units_ball_from_one_search(tmp_path, monkeypatch, k):
    # the k_local row's e_i is 2^|ball| of the unit's own ball, found by one
    # breadth-first search from the unit, with no ball of every node built
    build = graphs.NeighborhoodIndex.build
    builds = []
    monkeypatch.setattr(graphs.NeighborhoodIndex, "build", lambda *args: builds.append(args))
    rng = random.Random(k)
    argv = ["tables", "--config", str(CONFIGS / "tables.json"), "--out", str(tmp_path)]
    for _ in range(8):
        n = rng.randint(2, 40)
        graph = {"n": n, "p": rng.uniform(0.0, 0.3), "seed": rng.randrange(2**32)}
        unit = rng.randrange(n)
        overrides = [f"graph={json.dumps({'er': graph})}", f"unit={unit}", f"k={k}"]
        assert cli.main([*argv, *(arg for o in overrides for arg in ("--set", o))]) == 0
        rows = (tmp_path / "structure_table.csv").read_text().splitlines()
        g = interference_lab.sample_er_graph(interference_lab.ERSpec(n, graph["p"]), graph["seed"])
        count = 1 << len(build(g, k).closed[unit])
        assert rows[2] == f"k_local,{count},{1 / count}"
    assert builds == []


@pytest.fixture
def mc_runs(monkeypatch):
    """The Monte Carlo runs the CLI makes, recorded instead of run."""
    runs = []
    monkeypatch.setattr(cli, "mc_expected_variance", lambda *args: runs.append(args))
    return runs


@pytest.mark.parametrize(
    "case,m_upper,code,message",
    [
        ({"n": 6, "p": 1.5}, 1.0, 2, "error: edge probability must be in [0,1], got 1.5"),
        ({"n": 6, "p": 0.1, "k": 1}, 1.0, 2, "error: cases[3]: unknown keys ['k']"),
        (
            {"n": 64, "p": 0.1},
            1.0,
            3,
            "capacity error: Monte Carlo needs n <= 63 (int64 neighborhood bitmasks), got n=64",
        ),
        # h(1e150) is finite on the three shipped cases and not on this one
        (
            {"n": 63, "p": 1.0},
            1e150,
            2,
            "error: float overflow envelope h(1e+150) past the double range at n=63, p=1.0",
        ),
    ],
)
def test_er_analysis_refuses_every_case_before_any_replicate(
    tmp_path, capsys, mc_runs, case, m_upper, code, message
):
    cfg = json.loads((CONFIGS / "er_analysis.json").read_text())
    cfg["cases"].append(case)  # after three good cases
    cfg["m_upper"] = m_upper
    assert cli.main(["er-analysis", "--config", write_config(tmp_path, "er.json", cfg)]) == code
    assert capsys.readouterr().err == f"{message}\n"
    assert mc_runs == []


@pytest.mark.parametrize(
    "config,override,where",
    [
        ("moments_ht.json", "structure.graph.er.n=9", "structure.graph"),
        (
            "moments_crd.json",
            'estimator={"kind": "horvitz_thompson", '
            '"graph": {"er": {"n": 9, "p": 0.25, "seed": 4}}}',
            "estimator.graph",
        ),
    ],
    ids=["structure", "inline"],
)
def test_er_graph_of_another_size_exits_2_before_drawing(capsys, er_draws, config, override, where):
    assert cli.main(["moments", "--config", str(CONFIGS / config), "--set", override]) == 2
    assert capsys.readouterr().err == f"error: {where}: graph has n=9, design has n=8\n"
    assert er_draws == []


@pytest.mark.parametrize("n", [15, 24, 64, 2**63])
def test_adversary_past_the_enumeration_cap_exits_3_before_allocating(capsys, monkeypatch, n):
    # each worst-case outcome column holds 2^n values (8 GB at n = 30), and past
    # n = 62 the allocation itself fails
    def refuse(*args, **kwargs):
        raise AssertionError("_witness_column ran")

    monkeypatch.setattr(feasibility, "_witness_column", refuse)
    argv = ["adversary", "--config", str(CONFIGS / "adversary_bd_ipw_scale.json")]
    assert cli.main([*argv, "--set", f"design.n={n}"]) == 3
    assert capsys.readouterr().err == (
        f"capacity error: support enumeration capped at n=14 (got n={n}); "
        "exact analysis does not run beyond it\n"
    )


def test_capacity_exits_3(tmp_path):
    path = write_config(tmp_path, "m.json", MOMENTS_CFG)
    result = run_cli(
        ["moments", "--config", path, "--set", "design.n=20", "--set", "design.n_a=10"]
    )
    assert result.returncode == 3


def test_moments_past_the_enumeration_cap_exits_3_before_drawing(tmp_path, capsys, monkeypatch):
    # the cap is refused once the design is parsed: no graph is read (this
    # one does not exist) and no table is drawn
    drawn = []
    monkeypatch.setattr(PotentialOutcomeTable, "random", lambda *args: drawn.append(args))
    graph = {"path": str(tmp_path / "absent.txt")}
    cfg = dict(
        MOMENTS_CFG,
        design={"design": "bd", "n": 15},
        structure={"kind": "k_local", "k": 1, "graph": graph},
        estimator={"kind": "horvitz_thompson"},
    )
    assert cli.main(["moments", "--config", write_config(tmp_path, "m.json", cfg)]) == 3
    assert capsys.readouterr().err == (
        "capacity error: support enumeration capped at n=14 (got n=15); "
        "exact analysis does not run beyond it\n"
    )
    assert drawn == []


@pytest.mark.parametrize(
    "override,error",
    [("design.n=64", "capacity error: feasibility reads int64 assignment codes, so n <= 63")],
    ids=["n"],
)
def test_feasibility_beyond_its_caps_exits_3(tmp_path, capsys, monkeypatch, override, error):
    # no witness family is built, at any n
    built = []
    monkeypatch.setattr(feasibility, "default_witness_family", lambda *args: built.append(args))
    config = str(CONFIGS / "feasibility_bd.json")
    out = tmp_path / "out.json"
    argv = ["feasibility", "--config", config, "--set", override, "--out", str(out)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith(error)
    assert not out.exists()
    assert built == []


def test_er_analysis_beyond_bitmask_ceiling_exits_3(tmp_path):
    cfg = {
        "cases": [{"n": 100, "p": 0.01}],
        "k_lower": 0.5,
        "m_upper": 1.0,
        "reps": 10,
        "seed": 7,
    }
    result = run_cli(["er-analysis", "--config", write_config(tmp_path, "er.json", cfg)])
    assert result.returncode == 3, result.stderr
    assert "Monte Carlo needs n <= 63" in result.stderr
    assert "Traceback" not in result.stderr


def test_er_analysis_on_a_dense_graph_at_the_code_width_exits_0(tmp_path, capsys):
    # balls of up to 63 nodes: every replicate counts, none is rejected
    cfg = {
        "cases": [{"n": 63, "p": 0.5}],
        "k_lower": 0.5,
        "m_upper": 1.0,
        "reps": 20,
        "seed": 7,
    }
    assert cli.main(["er-analysis", "--config", write_config(tmp_path, "er.json", cfg)]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    mc_mean = float(row.split(",")[header.split(",").index("mc_mean")])
    assert math.isfinite(mc_mean) and mc_mean > 0


def test_er_analysis_with_a_huge_n_exits_3(tmp_path, capsys):
    cfg = {
        "cases": [{"n": 10**400, "p": 0.01}],
        "k_lower": 0.5,
        "m_upper": 1.0,
        "reps": 10,
        "seed": 7,
    }
    assert cli.main(["er-analysis", "--config", write_config(tmp_path, "er.json", cfg)]) == 3
    assert capsys.readouterr().err.startswith("capacity error: Monte Carlo needs n <= 63")


# commands that run no Monte Carlo: a random outcome table and the coins of
# an inline graph.er block (tables, moments_ht) come from Python's
# random.Random(seed)
NO_MONTE_CARLO_RUNS = [
    ("moments", "moments_crd.json"),
    ("feasibility", "feasibility_bd.json"),
    ("adversary", "adversary_diff_means.json"),
    ("regimes", "regimes.json"),
    ("tables", "tables.json"),
    ("moments", "moments_ht.json"),
]


def test_cli_import_leaves_numpy_random_unloaded(tmp_path):
    # numpy.random loads at the first Monte Carlo run (er-analysis), not with
    # the package nor with any other command, so those do not pay for its
    # import; nor does the import generate dataclass code or start OpenBLAS
    # worker threads; and no command, er-analysis included, loads argparse,
    # gettext or locale
    linux = sys.platform.startswith("linux")
    runs = [
        [command, "--config", str(CONFIGS / config), "--out",
         "tables_out" if command == "tables" else os.devnull]
        for command, config in NO_MONTE_CARLO_RUNS
    ]
    monte_carlo = ["er-analysis", "--config", str(CONFIGS / "er_analysis.json"), "--set",
                   "reps=10", "--out", os.devnull]
    code = (
        "import os, sys, interference_lab.cli\n"
        "print('numpy.random' in sys.modules, 'dataclasses' in sys.modules)\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
        "if sys.platform.startswith('linux'):\n"
        "    status = open('/proc/self/status').read()\n"
        "    print(status.split('Threads:')[1].split()[0])\n"
        f"for argv in {runs!r}:\n"
        "    assert interference_lab.cli.main(argv) == 0, argv\n"
        "print('numpy.random' in sys.modules)\n"
        f"assert interference_lab.cli.main({monte_carlo!r}) == 0\n"
        "print('numpy.random' in sys.modules)\n"
        "print([m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])\n"
    )
    run = [sys.executable, "-c", code]
    result = subprocess.run(run, capture_output=True, text=True, env=blas_env(), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    threads = "1\n" if linux else ""
    assert result.stdout == "False False\n1\n" + threads + "False\nTrue\n[]\n"
    # an explicit value is kept
    result = subprocess.run(
        run, capture_output=True, text=True, env=blas_env(3), cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[1] == "3"


def test_cli_freezes_the_heap_at_exit(tmp_path):
    # main registers gc.freeze with atexit once per process, so its final
    # collections skip the heap; an atexit observer registered first runs
    # after that handler (handlers run last in, first out) and sees the
    # frozen heap after a run that exits 0, 2 or 3; in process, after main
    # returns, nothing is frozen yet; a second main call registers nothing
    # more (gc.freeze is wrapped to count its calls); and importing the CLI
    # without calling main leaves the heap unfrozen
    regimes = ["regimes", "--config", str(CONFIGS / "regimes.json"), "--out", os.devnull]
    refused = ["moments", "--config", str(tmp_path / "missing.json")]
    capped = ["feasibility", "--config", str(CONFIGS / "feasibility_bd.json"),
              "--set", "design.n=64"]
    cases = [
        ([], "0 False\n"),
        ([regimes, regimes], "0 0\n0 0\n1 True\n"),
        ([refused], "2 0\n1 True\n"),
        ([capped], "3 0\n1 True\n"),
    ]
    for argvs, expected in cases:
        code = (
            "import atexit, gc\n"
            "freeze, calls = gc.freeze, []\n"
            "gc.freeze = lambda: (calls.append(1), freeze())\n"
            "atexit.register(lambda: print(len(calls), gc.get_freeze_count() > 0))\n"
            "import interference_lab.cli\n"
            f"for argv in {argvs!r}:\n"
            "    print(interference_lab.cli.main(argv), gc.get_freeze_count())\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=blas_env(), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout == expected, argvs


# int() refuses decimal strings of more than 4300 digits
LONG_INT = "1" * 5000


def test_config_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text('{"n_values": [%s], "k_lower": 1.0, "m_upper": 1.0}' % LONG_INT)
    assert cli.main(["regimes", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid JSON (") and "4300" in err


def test_set_integer_past_the_digit_limit_exits_2(capsys):
    config = str(CONFIGS / "regimes.json")
    assert cli.main(["regimes", "--config", config, "--set", f"n_values=[{LONG_INT}]"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --set n_values: ") and "4300" in err


@pytest.mark.parametrize(
    "command,key,value,message",
    [
        ("regimes", "n_values", 10**400, "n_values[1]: exceeds the float range"),
        ("tables", "sweep_n", 10**400, "sweep_n[1]: exceeds the float range"),
        ("tables", "sweep_n", 0, "sweep_n[1]: must be positive, got 0"),
    ],
    ids=["regimes-huge", "tables-huge", "tables-zero"],
)
def test_sweep_sizes_out_of_range_exit_2(tmp_path, capsys, command, key, value, message):
    cfg = json.loads((CONFIGS / f"{command}.json").read_text())
    cfg[key] = [cfg[key][0], value]
    path = write_config(tmp_path, "c.json", cfg)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_horvitz_thompson_with_an_inline_graph(tmp_path, capsys):
    ht = {"kind": "horvitz_thompson", "graph": {"er": {"n": 6, "p": 0.3, "seed": 1}}}
    adversary = {"design": {"design": "bd", "n": 6}, "estimator": ht, "m_upper": 1.0}
    assert cli.main(["adversary", "--config", write_config(tmp_path, "a.json", adversary)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mse"] > report["floor"]
    moments = dict(
        MOMENTS_CFG,
        design={"design": "bd", "n": 6},
        structure={"kind": "arbitrary"},
        estimator=ht,
    )
    assert cli.main(["moments", "--config", write_config(tmp_path, "m.json", moments)]) == 0
    assert json.loads(capsys.readouterr().out)["support_size"] == 64
    moments["estimator"] = {"kind": "horvitz_thompson"}
    assert cli.main(["moments", "--config", write_config(tmp_path, "m.json", moments)]) == 2
    assert capsys.readouterr().err == (
        "error: estimator: horvitz_thompson needs a k_local structure or an inline graph\n"
    )


def test_moment_identity_violation_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(exact, "_IDENTITY_RTOL", -1.0)  # any slack at all violates
    assert cli.main(["moments", "--config", str(CONFIGS / "moments_ht.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("identity violation: moment identity violated")
    assert "Traceback" not in err


def test_mse_floor_violation_exits_4(monkeypatch, capsys):
    # an estimand pinned at 0 lets the estimator's constant answer 0 reach MSE 0
    monkeypatch.setattr(feasibility, "_estimand", lambda estimand, observed, n: 0.0)
    assert cli.main(["adversary", "--config", str(CONFIGS / "adversary_diff_means.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("identity violation: adversarial MSE")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,config,key",
    [
        ("er-analysis", "er_analysis.json", "seed"),
        ("tables", "tables.json", "graph.er.seed"),
        ("moments", "moments_crd.json", "table.random.seed"),
    ],
)
def test_negative_seed_exits_2(tmp_path, command, config, key):
    result = run_cli(
        [command, "--config", str(CONFIGS / config), "--set", f"{key}=-1",
         "--out", str(tmp_path / "out")]
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == f"error: {key}: must be non-negative, got -1\n"
    assert "Traceback" not in result.stderr


# crd n=6 with difference in means, whose squared deviations pass the double
# range; Monte Carlo variances past it, from outcomes at 1e200; and the
# envelope h(M) past it, at M = 1e200
ER_CFG = json.loads((CONFIGS / "er_analysis.json").read_text())
REGIMES_CFG = json.loads((CONFIGS / "regimes.json").read_text())
_HUGE_TABLE = {"random": {"k_lower": 0.0, "m_upper": 1e200, "seed": 3}}
# the exposure-weighted estimator and the mean contrast on outcomes up to
# 1.7e308, both of whose sums pass the double range
HT_CFG = json.loads((CONFIGS / "moments_ht.json").read_text())
_LARGEST_TABLE = {"random": {"k_lower": 0.0, "m_upper": 1.7e308, "seed": 12}}
_HUGE_ADVERSARY = {"design": MOMENTS_CFG["design"], "estimator": {"kind": "diff_means"}}


@pytest.mark.parametrize(
    "command,config",
    [
        ("moments", dict(MOMENTS_CFG, table=_HUGE_TABLE)),
        ("adversary", dict(_HUGE_ADVERSARY, m_upper=1e200)),
        ("er-analysis", dict(ER_CFG, policy={"kind": "constant", "value": 1e200})),
        ("er-analysis", dict(ER_CFG, m_upper=1e200)),
        ("regimes", dict(REGIMES_CFG, m_upper=1e200)),
        ("moments", dict(HT_CFG, table=_LARGEST_TABLE)),
    ],
)
def test_float_overflow_exits_2(tmp_path, command, config):
    result = run_cli([command, "--config", write_config(tmp_path, "c.json", config)])
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: float overflow ")
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


_UNREAD = {"value": 1.0, "k": 1, "graph": {"er": {"n": 8, "p": 0.25, "seed": 4}}}


@pytest.mark.parametrize(
    "command,config,block,kind,key",
    [
        ("moments", "moments_crd", "structure", "none", "k"),
        ("moments", "moments_crd", "structure", "none", "graph"),
        ("moments", "moments_crd", "structure", "arbitrary", "k"),
        ("moments", "moments_crd", "structure", "arbitrary", "graph"),
        ("moments", "moments_crd", "estimator", "diff_means", "value"),
        ("moments", "moments_crd", "estimator", "diff_means", "k"),
        ("moments", "moments_crd", "estimator", "diff_means", "graph"),
        ("adversary", "adversary_diff_means", "estimator", "pure_arm_ipw", "value"),
        ("adversary", "adversary_diff_means", "estimator", "solo_ipw", "k"),
        ("adversary", "adversary_diff_means", "estimator", "constant", "k"),
        ("adversary", "adversary_diff_means", "estimator", "constant", "graph"),
        ("adversary", "adversary_diff_means", "estimator", "horvitz_thompson", "value"),
        ("er-analysis", "er_analysis_uniform", "policy", "uniform", "value"),
    ],
)
def test_key_the_kind_does_not_read_exits_2(tmp_path, capsys, command, config, block, kind, key):
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    cfg[block] = {"kind": kind, key: _UNREAD[key]}
    assert cli.main([command, "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    assert capsys.readouterr().err == f"error: {block}: {kind} takes no {key}\n"


@pytest.mark.parametrize("key", ["k", "graph"])
def test_horvitz_thompson_on_a_k_local_structure_takes_no_graph(tmp_path, capsys, key):
    cfg = json.loads((CONFIGS / "moments_ht.json").read_text())
    cfg["estimator"][key] = _UNREAD[key]
    assert cli.main(["moments", "--config", write_config(tmp_path, "m.json", cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: estimator: horvitz_thompson reads k and graph from the structure\n"
    )


@pytest.mark.parametrize(
    "command,config",
    [
        ("moments", "moments_crd"),
        ("feasibility", "feasibility_bd"),
        ("adversary", "adversary_diff_means"),
        ("tables", "tables"),
        ("regimes", "regimes"),
    ],
)
def test_top_level_seed_outside_er_analysis_exits_2(tmp_path, capsys, command, config):
    argv = [command, "--config", str(CONFIGS / f"{config}.json"), "--set", "seed=7",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: config: unknown keys ['seed']\n"


def test_package_entry_point_prints_the_recorded_regimes():
    argv = ["regimes", "--config", str(CONFIGS / "regimes.json")]
    result = subprocess.run(
        [sys.executable, "-m", "interference_lab", *argv], capture_output=True, env=blas_env()
    )
    assert result.returncode == 0, result.stderr
    golden = Path(__file__).resolve().parent / "golden" / "regimes" / "stdout"
    assert result.stdout == golden.read_bytes()


def test_set_override_and_seed(tmp_path):
    cfg = {
        "design": {"design": "bd", "n": 3},
        "estimand": {"kind": "ate"},
        "grid": [0, 1],
    }
    path = write_config(tmp_path, "f.json", cfg)
    result = run_cli(
        ["feasibility", "--config", path, "--set", "design.design=cbd"]
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["status"] == "infeasible"

    er_cfg = {
        "cases": [{"n": 4, "p": 0.5}],
        "k_lower": 0.5,
        "m_upper": 1.0,
        "reps": 10,
    }
    er_path = write_config(tmp_path, "er.json", er_cfg)
    result = run_cli(["er-analysis", "--config", er_path])
    assert result.returncode == 2
    assert result.stderr == "error: config: missing keys ['seed']\n"
    result = run_cli(["er-analysis", "--config", er_path, "--set", "seed=7"])
    assert result.returncode == 0, result.stderr
    result = run_cli(["er-analysis", "--config", er_path, "--seed", "7"])
    assert result.returncode == 2
    assert "unrecognized arguments: --seed 7" in result.stderr


USAGE = "usage: interference-lab COMMAND --config PATH [--out PATH] [--set KEY=VALUE]...\n"
REGIMES = str(CONFIGS / "regimes.json")


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (
            ["bogus"],
            "argument command: invalid choice: 'bogus' (choose from 'moments', "
            "'feasibility', 'adversary', 'er-analysis', 'tables', 'regimes')",
        ),
        (["regimes"], "the following arguments are required: --config"),
        (["regimes", "--out", "x.csv"], "the following arguments are required: --config"),
        # a flag is spelled out in full
        (["regimes", "--conf", REGIMES], "the following arguments are required: --config"),
        (["regimes", "--config"], "argument --config: expected one argument"),
        (["regimes", "--config", "--out", "x.csv"], "argument --config: expected one argument"),
        (["regimes", "--config", REGIMES, "--set"], "argument --set: expected one argument"),
        (["regimes", "--config", REGIMES, "--seed", "7"], "unrecognized arguments: --seed 7"),
        (["regimes", "--config", REGIMES, "a", "b"], "unrecognized arguments: a b"),
    ],
    ids=[
        "no-command",
        "unknown-command",
        "no-config",
        "out-without-config",
        "abbreviated-flag",
        "config-without-value",
        "config-followed-by-a-flag",
        "set-without-value",
        "unknown-flag",
        "extra-arguments",
    ],
)
def test_usage_error_returns_2(capsys, argv, message):
    # in process too: a usage error is a return value, not SystemExit
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == USAGE + f"interference-lab: error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["moments", "--help"], ["regimes", "--config", REGIMES, "-h"]],
    ids=["short", "long", "after-command", "after-config"],
)
def test_help_returns_0(capsys, argv):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(USAGE)
    assert "--set KEY=VALUE" in captured.out
    assert captured.err == ""


def test_help_names_every_command(capsys):
    assert cli.main(["--help"]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("commands: ")]
    assert line.removeprefix("commands: ").split(", ") == list(cli._COMMANDS)


def test_equals_form_last_value_wins_and_sets_apply_in_order(tmp_path, capsys):
    out = tmp_path / "regimes.csv"
    argv = [
        "regimes",
        f"--config={tmp_path / 'absent.json'}",
        "--config",
        REGIMES,
        "--out",
        str(tmp_path / "first.csv"),
        f"--out={out}",
        "--set=k_lower=NaN",
        "--set",
        "k_lower=1.0",
    ]
    assert cli.main(argv) == 0, capsys.readouterr().err
    golden = Path(__file__).resolve().parent / "golden" / "regimes" / "stdout"
    assert out.read_bytes() == golden.read_bytes()
    assert not (tmp_path / "first.csv").exists()
    # the other order leaves k_lower at NaN
    assert cli.main(argv[:-3] + ["--set", "k_lower=1.0", argv[-3]]) == 2
    assert capsys.readouterr().err == "error: k_lower: must be positive, got nan\n"
