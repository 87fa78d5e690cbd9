"""Batch front door: JSON-configured runs emitting JSON reports and CSVs.

Subcommands: moments, feasibility, adversary, er-analysis, tables, regimes.
Every command is deterministic given its config (seeds included): re-runs
produce byte-identical output; Monte Carlo replicates run serially, each
seeded by its index.  Exit codes: 0 success, 2 usage/config error,
3 capacity error, 4 identity violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .designs import Design
from .er import (
    DENSE,
    SPARSE,
    ConstantOutcomes,
    ERSpec,
    UniformOutcomes,
    classify_regime,
    expected_effective_treatments,
    expected_informative_fraction,
    h_bound,
    mc_expected_variance,
    regime_report,
    sample_er_graph,
)
from .errors import CapacityError, ConfigError, IdentityViolationError, InterferenceLabError
from .estimators import (
    ConstantEstimator,
    DifferenceInMeans,
    HorvitzThompson,
    PureArmIPW,
    SoloTreatedIPW,
)
from .exact import exact_moments, neyman_variance_terms
from .feasibility import mse_adversary, unbiased_feasibility
from .graphs import (
    Arbitrary,
    Graph,
    KLocal,
    NoInterference,
    effective_treatment_count,
)
from .outcomes import (
    ATE,
    PotentialOutcomeTable,
    SoloTreatmentEffect,
    estimand_value,
)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv_lines(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# Config plumbing


def _load_config(path: str, overrides: list[str]) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except ValueError as exc:  # bad JSON or UTF-8, or an int past the digit limit
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except ValueError as exc:  # valid JSON, but an int past the digit limit
            raise ConfigError(f"--set {key}: {exc}") from exc
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object")
        node[parts[-1]] = value
    return cfg


def _check_keys(obj, where: str, required: dict, optional: dict) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    for key, kind in {**required, **optional}.items():
        if key in obj and not _is(obj[key], kind):
            raise ConfigError(f"{where}.{key}: expected {kind}, got {type(obj[key])}")


_NUM = (int, float)


def _is(value, kind) -> bool:
    """isinstance, except that a JSON boolean is not a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _sizes(cfg: dict, key: str) -> list[int]:
    """The node counts listed under ``key``: positive integers that convert
    to float, since the sweeps divide by them."""
    for idx, value in enumerate(cfg[key]):
        if not _is(value, int):
            raise ConfigError(f"{key}: entries must be integers")
        if value < 1:
            raise ConfigError(f"{key}[{idx}]: must be positive, got {value}")
        if value > sys.float_info.max:
            raise ConfigError(f"{key}[{idx}]: exceeds the float range")
    return cfg[key]


def _parse_design(cfg, where="design") -> Design:
    _check_keys(cfg, where, {"design": str, "n": int}, {"n_a": int})
    kind = cfg["design"]
    if kind == "crd":
        if "n_a" not in cfg:
            raise ConfigError(f"{where}: crd needs n_a")
        return Design.crd(cfg["n"], cfg["n_a"])
    if kind == "bd":
        return Design.bd(cfg["n"])
    if kind == "cbd":
        return Design.cbd(cfg["n"])
    raise ConfigError(f"{where}.design: must be crd, bd or cbd, got {kind!r}")


def _parse_graph(cfg, seed: int | None, where="graph") -> Graph:
    _check_keys(cfg, where, {}, {"path": str, "er": dict})
    if ("path" in cfg) == ("er" in cfg):
        raise ConfigError(f"{where}: give exactly one of path / er")
    if "path" in cfg:
        return Graph.from_file(cfg["path"])
    er = cfg["er"]
    _check_keys(er, f"{where}.er", {"n": int, "p": _NUM}, {"seed": int})
    graph_seed = er.get("seed", seed)
    if graph_seed is None:
        raise ConfigError(f"{where}.er: needs a seed (inline or top-level)")
    return sample_er_graph(ERSpec(er["n"], float(er["p"])), graph_seed)


def _parse_structure(cfg, n: int, seed: int | None, where="structure"):
    _check_keys(cfg, where, {"kind": str}, {"k": int, "graph": dict})
    kind = cfg["kind"]
    if kind == "none":
        return NoInterference(n)
    if kind == "arbitrary":
        return Arbitrary(n)
    if kind == "k_local":
        if "graph" not in cfg:
            raise ConfigError(f"{where}: k_local needs a graph")
        graph = _parse_graph(cfg["graph"], seed, f"{where}.graph")
        if graph.n != n:
            raise ConfigError(f"{where}: graph has n={graph.n}, design has n={n}")
        return KLocal(graph, cfg.get("k", 1))
    raise ConfigError(f"{where}.kind: must be none, k_local or arbitrary, got {kind!r}")


def _parse_table(cfg, structure, seed, where="table") -> PotentialOutcomeTable:
    _check_keys(cfg, where, {}, {"random": dict, "json_path": str, "csv_path": str})
    sources = [k for k in ("random", "json_path", "csv_path") if k in cfg]
    if len(sources) != 1:
        raise ConfigError(f"{where}: give exactly one of random / json_path / csv_path")
    if "random" in cfg:
        r = cfg["random"]
        _check_keys(r, f"{where}.random", {"k_lower": _NUM, "m_upper": _NUM}, {"seed": int})
        table_seed = r.get("seed", seed)
        if table_seed is None:
            raise ConfigError(f"{where}.random: needs a seed (inline or top-level)")
        if structure is None:
            raise ConfigError(f"{where}: random tables need a structure block")
        return PotentialOutcomeTable.random(
            structure, float(r["k_lower"]), float(r["m_upper"]), table_seed
        )
    if "json_path" in cfg:
        return PotentialOutcomeTable.from_json(cfg["json_path"])
    return PotentialOutcomeTable.from_csv(cfg["csv_path"])


def _parse_estimator(cfg, structure, n: int, seed, where="estimator"):
    _check_keys(cfg, where, {"kind": str}, {"value": _NUM, "k": int, "graph": dict})
    kind = cfg["kind"]
    if kind == "diff_means":
        return DifferenceInMeans()
    if kind == "constant":
        return ConstantEstimator(float(cfg.get("value", 0.0)))
    if kind == "pure_arm_ipw":
        return PureArmIPW()
    if kind == "solo_ipw":
        return SoloTreatedIPW()
    if kind == "horvitz_thompson":
        if isinstance(structure, KLocal):
            return HorvitzThompson(structure.index)
        if "graph" not in cfg:
            raise ConfigError(
                f"{where}: horvitz_thompson needs a k_local structure or an inline graph"
            )
        graph = _parse_graph(cfg["graph"], seed, f"{where}.graph")
        if graph.n != n:
            raise ConfigError(f"{where}: graph has n={graph.n}, expected n={n}")
        return HorvitzThompson(KLocal(graph, cfg.get("k", 1)).index)
    raise ConfigError(f"{where}.kind: unknown estimator {kind!r}")


def _parse_estimand(cfg, where="estimand"):
    _check_keys(cfg, where, {"kind": str}, {})
    kind = cfg["kind"]
    if kind == "ate":
        return ATE
    if kind == "solo":
        return SoloTreatmentEffect()
    raise ConfigError(f"{where}.kind: must be ate or solo, got {kind!r}")


# ----------------------------------------------------------------------
# Commands


def cmd_moments(cfg: dict, out: str | None, seed: int | None) -> int:
    _check_keys(
        cfg,
        "config",
        {"design": dict, "table": dict, "estimator": dict},
        {"structure": dict, "estimand": dict, "seed": int},
    )
    seed = seed if seed is not None else cfg.get("seed")
    design = _parse_design(cfg["design"])
    structure = None
    if "structure" in cfg:
        structure = _parse_structure(cfg["structure"], design.n, seed)
    table = _parse_table(cfg["table"], structure, seed)
    if table.n != design.n:
        raise ConfigError(f"table has n={table.n}, design has n={design.n}")
    structure = structure if structure is not None else table.structure
    estimator = _parse_estimator(cfg["estimator"], structure, design.n, seed)
    estimand = _parse_estimand(cfg.get("estimand", {"kind": "ate"}))
    report = exact_moments(estimator, design, table, estimand)
    payload = report.to_json_dict()
    payload["estimand_value"] = estimand_value(estimand, table)
    if design.kind == "crd" and isinstance(table.structure, NoInterference):
        payload["neyman"] = neyman_variance_terms(table, design.n_a).to_json_dict()
    _emit(_json_text(payload), out)
    return 0


def cmd_feasibility(cfg: dict, out: str | None, seed: int | None) -> int:
    _check_keys(
        cfg,
        "config",
        {"design": dict, "estimand": dict, "grid": list},
        {"witness_csv": str, "seed": int},
    )
    design = _parse_design(cfg["design"])
    estimand = _parse_estimand(cfg["estimand"])
    grid = cfg["grid"]
    if not all(_is(v, _NUM) for v in grid):
        raise ConfigError("grid: entries must be numbers")
    certificate = unbiased_feasibility(design, estimand, grid)
    payload = certificate.to_json_dict()
    if certificate.feasible and cfg.get("witness_csv"):
        certificate.witness.to_csv(cfg["witness_csv"], design.n)
        payload["witness_csv"] = cfg["witness_csv"]
    _emit(_json_text(payload), out)
    return 0


def cmd_adversary(cfg: dict, out: str | None, seed: int | None) -> int:
    _check_keys(
        cfg,
        "config",
        {"design": dict, "estimator": dict, "m_upper": _NUM},
        {"table_csv": str, "seed": int},
    )
    seed = seed if seed is not None else cfg.get("seed")
    design = _parse_design(cfg["design"])
    estimator = _parse_estimator(cfg["estimator"], None, design.n, seed)
    result = mse_adversary(estimator, design, ATE, float(cfg["m_upper"]))
    payload = result.to_json_dict()
    payload["estimator"] = cfg["estimator"]["kind"]
    if cfg.get("table_csv"):
        result.table.to_csv(cfg["table_csv"])
        payload["table_csv"] = cfg["table_csv"]
    _emit(_json_text(payload), out)
    return 0


def cmd_er_analysis(cfg: dict, out: str | None, seed: int | None) -> int:
    _check_keys(
        cfg,
        "config",
        {"cases": list, "k_lower": _NUM, "m_upper": _NUM, "reps": int},
        {"policy": dict, "seed": int},
    )
    seed = seed if seed is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("er-analysis needs a seed (config key or --seed)")
    k_lower = float(cfg["k_lower"])
    m_upper = float(cfg["m_upper"])
    policy_cfg = cfg.get("policy", {"kind": "constant", "value": 1.0})
    _check_keys(policy_cfg, "policy", {"kind": str}, {"value": _NUM})
    if policy_cfg["kind"] == "constant":
        policy = ConstantOutcomes(float(policy_cfg.get("value", 1.0)))
    elif policy_cfg["kind"] == "uniform":
        policy = UniformOutcomes(k_lower, m_upper)
    else:
        raise ConfigError(f"policy.kind: must be constant or uniform, got {policy_cfg['kind']!r}")
    rows = []
    for idx, case in enumerate(cfg["cases"]):
        _check_keys(case, f"cases[{idx}]", {"n": int, "p": _NUM}, {})
        spec = ERSpec(case["n"], float(case["p"]))
        mc = mc_expected_variance(spec, policy, cfg["reps"], seed)
        rows.append(
            [
                spec.n,
                spec.p,
                classify_regime(spec),
                h_bound(k_lower, spec),
                h_bound(m_upper, spec),
                mc.mean,
                mc.stderr,
                expected_effective_treatments(spec),
                expected_informative_fraction(spec),
            ]
        )
    header = [
        "N",
        "p",
        "regime",
        "h_lower",
        "h_upper",
        "mc_mean",
        "mc_stderr",
        "expected_Ei",
        "informative_fraction",
    ]
    _emit(_csv_lines(header, rows), out)
    return 0


def cmd_tables(cfg: dict, out: str | None, seed: int | None) -> int:
    _check_keys(
        cfg,
        "config",
        {"unit": int, "graph": dict, "sweep_n": list},
        {"k": int, "seed": int},
    )
    seed = seed if seed is not None else cfg.get("seed")
    graph = _parse_graph(cfg["graph"], seed)
    unit = cfg["unit"]
    n = graph.n
    structure_rows = []
    for name, s in (
        ("none", NoInterference(n)),
        ("k_local", KLocal(graph, cfg.get("k", 1))),
        ("arbitrary", Arbitrary(n)),
    ):
        # under the fair coin, a share 1/count of assignments informs the unit
        count = effective_treatment_count(s, unit)
        structure_rows.append([name, count, 1 / count])
    sweep_rows = []
    for value in _sizes(cfg, "sweep_n"):
        sparse = ERSpec(value, 1.0 / value)
        dense = ERSpec(value, 1.0 / math.sqrt(value))
        sweep_rows.append(
            [
                value,
                "1/N",
                expected_effective_treatments(sparse),
                expected_informative_fraction(sparse),
            ]
        )
        sweep_rows.append(
            [
                value,
                "1/sqrt(N)",
                expected_effective_treatments(dense),
                expected_informative_fraction(dense),
            ]
        )
    sweep_rows.append(["limit", "1/N", 2.0 * math.e, 0.5 * math.exp(-0.5)])
    sweep_rows.append(["limit", "1/sqrt(N)", math.inf, 0.0])
    if out is None:
        raise ConfigError("tables writes two CSVs; --out must name a directory")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "structure_table.csv").write_text(
        _csv_lines(["structure", "e_i", "f_i"], structure_rows)
    )
    (out_dir / "limits_table.csv").write_text(
        _csv_lines(["n", "p_rule", "expected_e_i", "informative_fraction"], sweep_rows)
    )
    return 0


def cmd_regimes(cfg: dict, out: str | None, seed: int | None) -> int:
    _check_keys(
        cfg,
        "config",
        {"n_values": list, "k_lower": _NUM, "m_upper": _NUM},
        {"seed": int},
    )
    rows = []
    for value in _sizes(cfg, "n_values"):
        sparse = regime_report(value, SPARSE, float(cfg["k_lower"]), float(cfg["m_upper"]))
        dense = regime_report(value, DENSE, float(cfg["k_lower"]), float(cfg["m_upper"]))
        rows.append(
            [
                value,
                sparse.p,
                sparse.value,
                value * sparse.value,
                dense.p,
                dense.value,
            ]
        )
    header = [
        "n",
        "sparse_p",
        "sparse_h",
        "n_times_sparse_h",
        "dense_p",
        "dense_lower_bound",
    ]
    _emit(_csv_lines(header, rows), out)
    return 0


_COMMANDS = {
    "moments": cmd_moments,
    "feasibility": cmd_feasibility,
    "adversary": cmd_adversary,
    "er-analysis": cmd_er_analysis,
    "tables": cmd_tables,
    "regimes": cmd_regimes,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="interference-lab",
        description="Exact analysis of randomized experiments under network interference",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run-config JSON")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            dest="overrides",
            help="override a config entry (dot paths, JSON values)",
        )
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config, args.overrides)
        return _COMMANDS[args.command](cfg, args.out, args.seed)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except IdentityViolationError as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 4
    except (InterferenceLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
