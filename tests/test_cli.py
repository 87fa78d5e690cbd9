"""End-to-end command runs: outputs, exit codes, determinism.

Claims pinned here:
    - each subcommand runs a small config to completion with exit 0
    - malformed JSON, unknown keys, JSON booleans where numbers belong,
      missing, unreadable, non-UTF-8 or incomplete input files, and
      unwritable outputs exit 2 without a traceback, naming the offending
      key or path, as do integers past Python's 4300-digit conversion
      limit, in a config file or a --set value; over-cap sizes, including
      feasibility systems past their unit or grid-level cap, and tables and
      Monte Carlo beyond the 63-node code width, exit 3; sweep sizes that
      are not positive or overflow a float exit 2 naming the entry; a
      broken moment identity or MSE floor exits 4 without a traceback
    - a design block of unknown kind, a crd block without n_a, a bd or cbd
      block with n_a, and a table whose size differs from the design's
      exit 2 naming the fault
    - er-analysis on a dense graph at the 63-node code width exits 0 with a
      finite Monte Carlo mean
    - the exposure-weighted estimator takes an inline graph when the
      structure carries none, and without either it exits 2
    - re-running any command byte-identically reproduces its output,
      including across different INTERFERENCE_LAB_THREADS settings
    - --set overrides nested keys; --seed feeds seedless configs
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from interference_lab import PotentialOutcomeTable, TabularEstimator, cli, exact, feasibility

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_cli(args, threads=None):
    env = dict(os.environ)
    env.pop("INTERFERENCE_LAB_THREADS", None)
    if threads is not None:
        env["INTERFERENCE_LAB_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "interference_lab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
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

    witness_csv = tmp_path / "witness.csv"
    cfg2 = write_config(
        tmp_path,
        "f2.json",
        {
            "design": {"design": "bd", "n": 3},
            "estimand": {"kind": "ate"},
            "grid": [0, 1],
            "witness_csv": str(witness_csv),
        },
    )
    result = run_cli(["feasibility", "--config", cfg2])
    assert result.returncode == 0
    assert json.loads(result.stdout)["status"] == "feasible"
    witness = TabularEstimator.from_csv(witness_csv)
    assert len(witness) > 0


def test_adversary_command(tmp_path):
    table_csv = tmp_path / "adversary_table.csv"
    cfg = write_config(
        tmp_path,
        "a.json",
        {
            "design": {"design": "bd", "n": 6},
            "estimator": {"kind": "diff_means"},
            "m_upper": 1.0,
            "table_csv": str(table_csv),
        },
    )
    result = run_cli(["adversary", "--config", cfg])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["mse"] >= 0.125 - 1e-6
    table = PotentialOutcomeTable.from_csv(table_csv)
    assert table.n == 6


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


def test_table_of_another_size_exits_2(tmp_path, capsys):
    table = tmp_path / "t.json"
    PotentialOutcomeTable.no_interference([1.0] * 4, [0.5] * 4).to_json(table)
    cfg = dict(MOMENTS_CFG, table={"json_path": str(table)})
    cfg.pop("structure")
    assert cli.main(["moments", "--config", write_config(tmp_path, "m.json", cfg)]) == 2
    assert capsys.readouterr().err == "error: table has n=4, design has n=6\n"


def _moments_with_table(tmp_path, table):
    cfg = dict(MOMENTS_CFG, table=table)
    cfg.pop("structure")
    return run_cli(["moments", "--config", write_config(tmp_path, "m.json", cfg)])


@pytest.mark.parametrize("key", ["json_path", "csv_path"])
def test_missing_table_file_exits_2(tmp_path, key):
    result = _moments_with_table(tmp_path, {key: str(tmp_path / "absent")})
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_table_json_without_structure_exits_2(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"units": [{"A": 1.0, "B": 0.0}] * 6}))
    result = _moments_with_table(tmp_path, {"json_path": str(path)})
    assert result.returncode == 2
    assert "structure" in result.stderr
    assert "Traceback" not in result.stderr


_HUB_EDGES = [[0, j] for j in range(1, 22)]  # unit 0's reference group has 22 units


@pytest.mark.parametrize(
    "name,text,code",
    [
        ("table.csv", "assignment,unit,outcome\nAAA,0\n", 2),
        ("table.csv", "assignment,unit,outcome\nAAA,0,x\n", 2),
        ("table.csv", "assignment,unit,outcome\nAAA,7,0.5\n", 2),
        ("table.csv", "assignment,unit,outcome\nAAA,-1,0.5\n", 2),
        ("table.csv", "assignment,unit,outcome\n" + "A" * 15 + ",0,0.5\n", 3),
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
                    "units": [{}] * 22,
                }
            ),
            3,
        ),
    ],
)
def test_malformed_table_file_exit_code(tmp_path, name, text, code):
    path = tmp_path / name
    path.write_text(text)
    key = "csv_path" if name.endswith(".csv") else "json_path"
    result = _moments_with_table(tmp_path, {key: str(path)})
    assert result.returncode == code, result.stderr
    assert str(path) in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("unit", [10, -1])
def test_tables_unit_out_of_range_exits_2(tmp_path, unit):
    cfg = str(CONFIGS / "tables.json")
    result = run_cli(["tables", "--config", cfg, "--out", str(tmp_path), "--set", f"unit={unit}"])
    assert result.returncode == 2, result.stderr
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
    if case == "witness_csv:missing_dir":
        bad = str(tmp_path / "missing" / "w.csv")
        cfg = str(CONFIGS / "feasibility_bd.json")
        return ["feasibility", "--config", cfg, "--set", f"witness_csv={bad}"], bad
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
        for where in ("config", "graph", "json_path", "csv_path")
        for kind in ("dir", "non_utf8")
    ]
    + ["out:missing_dir", "witness_csv:missing_dir", "tables_out:existing_file"],
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
    assert "Traceback" not in result.stderr


def test_capacity_exits_3(tmp_path):
    path = write_config(tmp_path, "m.json", MOMENTS_CFG)
    result = run_cli(
        ["moments", "--config", path, "--set", "design.n=20", "--set", "design.n_a=10"]
    )
    assert result.returncode == 3


@pytest.mark.parametrize(
    "override", ["design.n=7", "grid=[0, 0.25, 0.5, 0.75, 1]"], ids=["n", "grid"]
)
def test_feasibility_beyond_its_caps_exits_3(tmp_path, capsys, override):
    config = str(CONFIGS / "feasibility_bd.json")
    out = tmp_path / "out.json"
    argv = ["feasibility", "--config", config, "--set", override, "--out", str(out)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("capacity error: feasibility ")
    assert not out.exists()


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
    monkeypatch.setattr(feasibility, "estimand_value", lambda estimand, table: 0.0)
    assert cli.main(["adversary", "--config", str(CONFIGS / "adversary_diff_means.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("identity violation: adversarial MSE")
    assert "Traceback" not in err


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
    assert run_cli(["er-analysis", "--config", er_path]).returncode == 2  # no seed
    result = run_cli(["er-analysis", "--config", er_path, "--seed", "7"])
    assert result.returncode == 0


@pytest.mark.parametrize(
    "command,config",
    [
        ("moments", MOMENTS_CFG),
        (
            "feasibility",
            {"design": {"design": "bd", "n": 3}, "estimand": {"kind": "ate"}, "grid": [0, 1]},
        ),
        (
            "adversary",
            {"design": {"design": "crd", "n": 6, "n_a": 3}, "estimator": {"kind": "diff_means"}, "m_upper": 1.0},
        ),
        (
            "er-analysis",
            {
                "cases": [{"n": 6, "p": 0.3}],
                "k_lower": 0.5,
                "m_upper": 1.0,
                "reps": 60,
                "seed": 3,
            },
        ),
        (
            "regimes",
            {"n_values": [8, 16], "k_lower": 1.0, "m_upper": 1.0},
        ),
    ],
)
def test_rerun_byte_identical_across_thread_counts(tmp_path, command, config):
    cfg = write_config(tmp_path, "c.json", config)
    outputs = []
    for threads in (None, 1, 4):
        result = run_cli([command, "--config", cfg], threads=threads)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_tables_rerun_byte_identical(tmp_path):
    (tmp_path / "g.txt").write_text("4\n0 1\n1 2\n")
    cfg = write_config(
        tmp_path,
        "t.json",
        {"unit": 1, "k": 1, "graph": {"path": str(tmp_path / "g.txt")}, "sweep_n": [64, 256]},
    )
    blobs = []
    for threads, out_name in ((1, "t1"), (4, "t4")):
        out_dir = tmp_path / out_name
        result = run_cli(["tables", "--config", cfg, "--out", str(out_dir)], threads=threads)
        assert result.returncode == 0
        blobs.append(
            (out_dir / "structure_table.csv").read_bytes()
            + (out_dir / "limits_table.csv").read_bytes()
        )
    assert blobs[0] == blobs[1]
