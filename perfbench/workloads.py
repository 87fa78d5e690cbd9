"""Seeded workload generators.

A workload is a list of ops. An op is one fresh process making one call into
the package, as a CLI user runs it: ``cli.main(argv)`` on a generated config,
or a public function for the exhaustive oracles, which no CLI command exposes.
The package sees only the generated files; the benchmark seed never reaches it.

Inputs are drawn so that the work per op does not depend on the seed: random
graphs for the exact layer have a fixed edge count (so the summed closed-ball
size n + 2m is fixed), and sizes, replicate counts and grid sizes are constants.
The seed varies graphs, tables, outcome levels, grids and sweeps.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("enum-moments", "certify", "er-mc", "oracle")

# Exact binary fractions, so observed-vector keys in the feasibility system
# never drift (see the feasibility module docstring).
GRID_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)

# The oracle moments are float-exact against the product forms on the dyadic
# grid of edge probabilities, which is where the acceptance suite states that
# gate; other p agree only to rounding.
DYADIC_P = (0.25, 0.5, 0.75)

# Monte Carlo replicate seed, the one the shipped configs/er_analysis.json
# uses. The 3-standard-error gate is a statistical test: over replicate seeds
# 0..399 it failed 3 times in 1200 cases (n in {15, 30, 60}, 200 reps), so a
# replicate seed drawn per run would make some benchmark runs fail although
# the program is right. Pinning it, as the acceptance suite pins its own,
# keeps the check deterministic; the benchmark seed still varies the outcome
# level and the envelope bounds of the er-analysis op.
MC_SEED = 7


@dataclass
class Op:
    """One process: ``call`` is what op.py runs, ``out`` where the output
    lands, and ``check``/``params`` name the check in checks.py that reads it."""

    label: str
    call: dict
    out: Path
    check: str
    params: dict


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cli_op(run_dir: Path, label: str, command: str, cfg: dict, check: str, params: dict) -> Op:
    cfg_path = run_dir / f"{label}.json"
    out = run_dir / f"{label}.out"
    _write_json(cfg_path, cfg)
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    return Op(label, {"cli": argv}, out, check, params)


def _api_op(run_dir: Path, label: str, function: str, args: dict, check: str) -> Op:
    out = run_dir / f"{label}.out"
    return Op(label, {"api": function, "args": args}, out, check, dict(args))


def _random_graph_file(rng: random.Random, path: Path, n: int, m: int) -> None:
    """Uniform random graph with exactly m edges, in the package's text format."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = sorted(rng.sample(pairs, m))
    path.write_text("\n".join([str(n)] + [f"{u} {v}" for u, v in edges]) + "\n")


def _table(rng: random.Random) -> dict:
    return {"k_lower": 0.0, "m_upper": 1.0, "seed": rng.randrange(2**31)}


def enum_moments(rng: random.Random, run_dir: Path, tiny: bool) -> list[Op]:
    """`moments` at n=14: HT under bd on a k=1 graph with edge density ~0.2,
    and difference in means under crd with no interference."""
    n = 6 if tiny else 14
    m = round(0.2 * n * (n - 1) / 2)
    ops = []
    for j in range(2):
        graph = run_dir / f"graph-ht{j}.txt"
        _random_graph_file(rng, graph, n, m)
        table = _table(rng)
        cfg = {
            "design": {"design": "bd", "n": n},
            "structure": {"kind": "k_local", "k": 1, "graph": {"path": str(graph)}},
            "table": {"random": table},
            "estimator": {"kind": "horvitz_thompson"},
            "estimand": {"kind": "ate"},
        }
        ops.append(
            _cli_op(run_dir, f"moments-ht{j}", "moments", cfg, "ht_moments",
                    {"graph": str(graph), "table": table})
        )
    for j in range(2):
        table = _table(rng)
        cfg = {
            "design": {"design": "crd", "n": n, "n_a": n // 2},
            "structure": {"kind": "none"},
            "table": {"random": table},
            "estimator": {"kind": "diff_means"},
            "estimand": {"kind": "ate"},
        }
        ops.append(
            _cli_op(run_dir, f"moments-dim{j}", "moments", cfg, "dim_moments",
                    {"n": n, "n_a": n // 2, "table": table})
        )
    return ops


def certify(rng: random.Random, run_dir: Path, tiny: bool) -> list[Op]:
    """Least-squares feasibility at n=6 and the MSE adversary at n=14, both on
    full-matrix (arbitrary-interference) tables."""
    n_feas = 3 if tiny else 6
    n_adv = 6 if tiny else 14
    grid = sorted(rng.sample(GRID_LEVELS, 2 if tiny else 4))
    solo = {
        "design": {"design": "bd", "n": n_feas},
        "estimand": {"kind": "solo"},
        "grid": grid,
    }
    contrast = {
        "design": {"design": "crd", "n": n_feas, "n_a": n_feas // 2},
        "estimand": {"kind": "ate"},
        "grid": grid,
    }
    adv_crd = {
        "design": {"design": "crd", "n": n_adv, "n_a": n_adv // 2},
        "estimator": {"kind": "diff_means"},
        "m_upper": rng.uniform(0.5, 4.0),
    }
    adv_bd = {
        "design": {"design": "bd", "n": n_adv},
        "estimator": {"kind": "pure_arm_ipw"},
        "m_upper": rng.uniform(0.5, 4.0),
    }
    return [
        _cli_op(run_dir, "feasibility-bd-solo", "feasibility", solo, "feasibility_status",
                {"expected": "feasible"}),
        _cli_op(run_dir, "feasibility-crd-ate", "feasibility", contrast, "feasibility_status",
                {"expected": "infeasible"}),
        _cli_op(run_dir, "adversary-crd-dim", "adversary", adv_crd, "adversary_floor", {}),
        _cli_op(run_dir, "adversary-bd-ipw", "adversary", adv_bd, "adversary_floor", {}),
    ]


def er_mc(rng: random.Random, run_dir: Path, tiny: bool) -> list[Op]:
    """`er-analysis` along p=1/n with constant outcomes, plus `regimes` and
    `tables`. Stays at n <= 62: beyond it MC exits 2 on the int64 bitmask
    ceiling, and a refused op is fast, so timing it would penalise the fix."""
    sizes = (6, 8) if tiny else (15, 30, 60)
    c = rng.uniform(0.5, 2.0)
    k_lower = rng.uniform(0.1, 1.0)
    analysis = {
        "cases": [{"n": n, "p": 1.0 / n} for n in sizes],
        "k_lower": k_lower,
        "m_upper": k_lower + rng.uniform(0.1, 1.0),
        "policy": {"kind": "constant", "value": c},
        "reps": 50 if tiny else 500,
        "seed": MC_SEED,
    }
    k_lower = rng.uniform(0.1, 1.0)
    first = rng.randint(8, 16)
    regimes = {
        "n_values": [first << j for j in range(4 if tiny else 8)],
        "k_lower": k_lower,
        "m_upper": k_lower + rng.uniform(0.1, 1.0),
    }
    graph = {"n": rng.randint(8, 12), "p": rng.uniform(0.1, 0.3), "seed": rng.randrange(2**31)}
    first = rng.randint(40, 60)
    tables = {
        "unit": rng.randrange(graph["n"]),
        "k": 1,
        "graph": {"er": graph},
        "sweep_n": [first << j for j in range(4)],
    }
    return [
        _cli_op(run_dir, "er-analysis", "er-analysis", analysis, "mc_reference", {"c": c}),
        _cli_op(run_dir, "regimes", "regimes", regimes, "regimes_gate", {}),
        _cli_op(run_dir, "tables", "tables", tables, "tables_structure",
                {"graph": graph, "unit": tables["unit"], "sweep": len(tables["sweep_n"])}),
    ]


def oracle(rng: random.Random, run_dir: Path, tiny: bool) -> list[Op]:
    """The exhaustive all-graph oracles at n=7 (2^21 graphs each)."""
    n = 4 if tiny else 7
    variance = {"n": n, "p": rng.choice(DYADIC_P), "c": rng.uniform(0.5, 2.0)}
    moments = {"n": n, "p": rng.choice(DYADIC_P)}
    return [
        _api_op(run_dir, "oracle-variance", "exhaustive_expected_variance", variance,
                "oracle_variance"),
        _api_op(run_dir, "oracle-moments", "exhaustive_moments", moments, "oracle_moments"),
    ]


_BUILDERS = {
    "enum-moments": enum_moments,
    "certify": certify,
    "er-mc": er_mc,
    "oracle": oracle,
}


def build(name: str, seed: int, run_dir: Path, tiny: bool = False) -> list[Op]:
    """Write the workload's inputs into run_dir and return its ops."""
    return _BUILDERS[name](random.Random(f"{name}/{seed}"), run_dir, tiny)
