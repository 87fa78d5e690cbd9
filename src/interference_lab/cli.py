"""Batch front door: JSON-configured runs emitting JSON reports and CSVs.

Usage: ``interference-lab COMMAND --config PATH [--out PATH] [--set
KEY=VALUE]...``, one grammar for the commands moments, feasibility,
adversary, er-analysis, tables and regimes.  It is parsed by hand, since
building argparse parsers (and the gettext and locale imports they bring)
costs several milliseconds of every run.
Each value has one key: a random draw reads its seed only from ``seed``
(er-analysis), ``graph.er.seed`` or ``table.random.seed``, each required and
non-negative, and a block refuses any key its kind does not read.  So every
command is deterministic given its config, and re-runs are byte-identical.
Exit codes: 0 success, 2 usage/config error (float overflow included),
3 capacity error, 4 identity violation.
"""

from __future__ import annotations

import atexit
import gc
import json
import math
import sys
from pathlib import Path

from .designs import Design, check_enumerable
from .er import (
    ConstantOutcomes,
    ERSpec,
    RegimeReport,
    UniformOutcomes,
    check_monte_carlo,
    classify_regime,
    expected_informative_fraction,
    h_bound,
    mc_expected_variance,
    moment_two_pow_nbhd,
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
    k_step_neighborhood,
)
from .outcomes import (
    ATE,
    PotentialOutcomeTable,
    SoloTreatmentEffect,
)


def _csv_lines(header: list[str], rows: list) -> str:
    """The one CSV writer: a float prints as its shortest round-trip repr,
    which ``str`` gives."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


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


def _check_kind(cfg, where: str, kinds: dict) -> str:
    """The block's kind, once the block holds only the keys that kind reads
    (``kinds`` maps each kind to those keys and their types)."""
    _check_keys(cfg, where, {"kind": str}, {k: t for ks in kinds.values() for k, t in ks.items()})
    kind = cfg["kind"]
    if kind not in kinds:
        raise ConfigError(f"{where}.kind: must be one of {', '.join(kinds)}, got {kind!r}")
    unread = sorted(set(cfg) - {"kind"} - set(kinds[kind]))
    if unread:
        raise ConfigError(f"{where}: {kind} takes no {', '.join(unread)}")
    return kind


def _non_negative(value: int, key: str) -> int:
    """A seed, which numpy needs non-negative, or a radius ``k``."""
    if value < 0:
        raise ConfigError(f"{key}: must be non-negative, got {value}")
    return value


def _finite(value, key: str) -> float:
    """A constant estimator's or policy's ``value`` as a finite float."""
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {value}")
    return value


def _parse_design(cfg) -> Design:
    _check_keys(cfg, "design", {"design": str, "n": int}, {"n_a": int})
    return Design(cfg["design"], cfg["n"], cfg.get("n_a"))


def _graph_block(cfg, where="graph"):
    """The block's node count, and a function that builds its graph (an
    ER one is drawn only then)."""
    _check_keys(cfg, where, {}, {"path": str, "er": dict})
    if ("path" in cfg) == ("er" in cfg):
        raise ConfigError(f"{where}: give exactly one of path / er")
    if "path" in cfg:
        graph = Graph.from_file(cfg["path"])
        return graph.n, lambda: graph
    er = cfg["er"]
    _check_keys(er, f"{where}.er", {"n": int, "p": _NUM, "seed": int}, {})
    seed = _non_negative(er["seed"], f"{where}.er.seed")
    spec = ERSpec(er["n"], float(er["p"]))
    return spec.n, lambda: sample_er_graph(spec, seed)


def _parse_graph(cfg, where: str, n: int) -> Graph:
    """The block's graph, refused if not of size ``n`` (an ER one undrawn)."""
    size, build = _graph_block(cfg, where)
    if size != n:
        raise ConfigError(f"{where}: graph has n={size}, design has n={n}")
    return build()


def _parse_structure(cfg, n: int):
    kinds = {"none": {}, "k_local": {"k": int, "graph": dict}, "arbitrary": {}}
    kind = _check_kind(cfg, "structure", kinds)
    if kind == "none":
        return NoInterference(n)
    if kind == "arbitrary":
        return Arbitrary(n)
    if "graph" not in cfg:
        raise ConfigError("structure: k_local needs a graph")
    k = _non_negative(cfg.get("k", 1), "structure.k")
    return KLocal(_parse_graph(cfg["graph"], "structure.graph", n), k)


def _parse_table(cfg, structure, n: int) -> PotentialOutcomeTable:
    """The config's table: a random one on the config's ``structure`` block,
    or a ``json_path`` document, which states its own structure."""
    _check_keys(cfg, "table", {}, {"random": dict, "json_path": str})
    if ("random" in cfg) == ("json_path" in cfg):
        raise ConfigError("table: give exactly one of random / json_path")
    if "json_path" in cfg:
        if structure is not None:
            raise ConfigError("structure: a table.json_path document states its own")
        return PotentialOutcomeTable.from_json(cfg["json_path"])
    r = cfg["random"]
    _check_keys(r, "table.random", {"k_lower": _NUM, "m_upper": _NUM, "seed": int}, {})
    seed = _non_negative(r["seed"], "table.random.seed")
    if structure is None:
        raise ConfigError("table: random tables need a structure block")
    return PotentialOutcomeTable.random(
        _parse_structure(structure, n), float(r["k_lower"]), float(r["m_upper"]), seed
    )


def _parse_estimator(cfg, structure, design: Design):
    plain = dict(
        diff_means=DifferenceInMeans,
        pure_arm_ipw=PureArmIPW,
        solo_ipw=lambda: SoloTreatedIPW(design),
    )
    kinds = {kind: {} for kind in plain}
    kinds.update(constant={"value": _NUM}, horvitz_thompson={"k": int, "graph": dict})
    kind = _check_kind(cfg, "estimator", kinds)
    if kind in plain:
        return plain[kind]()
    if kind == "constant":
        return ConstantEstimator(_finite(cfg.get("value", 0.0), "estimator.value"))
    if isinstance(structure, KLocal):
        if "k" in cfg or "graph" in cfg:
            raise ConfigError("estimator: horvitz_thompson reads k and graph from the structure")
        return HorvitzThompson(structure.index)
    if "graph" not in cfg:
        raise ConfigError(
            "estimator: horvitz_thompson needs a k_local structure or an inline graph"
        )
    k = _non_negative(cfg.get("k", 1), "estimator.k")
    graph = _parse_graph(cfg["graph"], "estimator.graph", design.n)
    return HorvitzThompson(KLocal(graph, k).index)


def _parse_estimand(cfg):
    kind = _check_kind(cfg, "estimand", {"ate": {}, "solo": {}})
    return ATE if kind == "ate" else SoloTreatmentEffect()


# ----------------------------------------------------------------------
# Commands


def cmd_moments(cfg: dict, out: str | None) -> int:
    _check_keys(
        cfg,
        "config",
        {"design": dict, "table": dict, "estimator": dict},
        {"structure": dict, "estimand": dict},
    )
    design = _parse_design(cfg["design"])
    check_enumerable(design)  # before any graph is read or table drawn
    table = _parse_table(cfg["table"], cfg.get("structure"), design.n)
    estimator = _parse_estimator(cfg["estimator"], table.structure, design)
    estimand = _parse_estimand(cfg.get("estimand", {"kind": "ate"}))
    report = exact_moments(estimator, design, table, estimand)
    payload = report._asdict()
    if design.kind == "crd" and isinstance(table.structure, NoInterference):
        payload["neyman"] = neyman_variance_terms(table, design.n_a)._asdict()
    _emit(_json_text(payload), out)
    return 0


def cmd_feasibility(cfg: dict, out: str | None) -> int:
    _check_keys(cfg, "config", {"design": dict, "estimand": dict, "grid": list}, {})
    design = _parse_design(cfg["design"])
    estimand = _parse_estimand(cfg["estimand"])
    grid = cfg["grid"]
    if not all(_is(v, _NUM) for v in grid):
        raise ConfigError("grid: entries must be numbers")
    certificate = unbiased_feasibility(design, estimand, grid)
    _emit(_json_text(certificate.to_json_dict()), out)
    return 0


def cmd_adversary(cfg: dict, out: str | None) -> int:
    _check_keys(
        cfg,
        "config",
        {"design": dict, "estimator": dict, "m_upper": _NUM},
        {"table_json": str},
    )
    design = _parse_design(cfg["design"])
    estimator = _parse_estimator(cfg["estimator"], None, design)
    result = mse_adversary(estimator, design, float(cfg["m_upper"]))
    payload = result.to_json_dict()
    payload["estimator"] = cfg["estimator"]["kind"]
    if cfg.get("table_json"):
        result.table.to_json(cfg["table_json"])
        payload["table_json"] = cfg["table_json"]
    _emit(_json_text(payload), out)
    return 0


def _levels(cfg: dict) -> tuple[float, float]:
    """The config's outcome levels ``k_lower`` and ``m_upper``, each
    positive and finite."""
    levels = float(cfg["k_lower"]), float(cfg["m_upper"])
    for key, level in zip(("k_lower", "m_upper"), levels):
        if not level > 0:  # NaN fails too
            raise ConfigError(f"{key}: must be positive, got {level}")
        if level == math.inf:
            raise ConfigError(f"{key}: must be finite, got {level}")
    return levels


def cmd_er_analysis(cfg: dict, out: str | None) -> int:
    _check_keys(
        cfg,
        "config",
        {"cases": list, "k_lower": _NUM, "m_upper": _NUM, "reps": int, "seed": int},
        {"policy": dict},
    )
    seed = _non_negative(cfg["seed"], "seed")
    # checked before any replicate draws from them
    k_lower, m_upper = _levels(cfg)
    if not k_lower < m_upper:
        raise ConfigError(f"k_lower: must be below m_upper={m_upper}, got {k_lower}")
    policy_cfg = cfg.get("policy", {"kind": "constant"})
    kinds = {"constant": {"value": _NUM}, "uniform": {}}
    if _check_kind(policy_cfg, "policy", kinds) == "constant":
        policy = ConstantOutcomes(_finite(policy_cfg.get("value", 1.0), "policy.value"))
    else:
        policy = UniformOutcomes(k_lower, m_upper)
    cases = []
    for idx, case in enumerate(cfg["cases"]):  # every case, and its envelope, before any replicate
        _check_keys(case, f"cases[{idx}]", {"n": int, "p": _NUM}, {})
        spec = ERSpec(case["n"], float(case["p"]))
        check_monte_carlo(spec, cfg["reps"])
        cases.append((spec, h_bound(k_lower, spec), h_bound(m_upper, spec)))
    rows = []
    for spec, h_lower, h_upper in cases:
        mc = mc_expected_variance(spec, policy, cfg["reps"], seed)
        rows.append(
            [
                spec.n,
                spec.p,
                classify_regime(spec),
                h_lower,
                h_upper,
                mc.mean,
                mc.stderr,
                moment_two_pow_nbhd(spec),
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


_TABLES_NODE_CAP = 1074  # 2^-1074 is the least positive double


def cmd_tables(cfg: dict, out: str | None) -> int:
    _check_keys(cfg, "config", {"unit": int, "graph": dict, "sweep_n": list}, {"k": int})
    if out is None:
        raise ConfigError("tables writes two CSVs; --out must name a directory")
    k = _non_negative(cfg.get("k", 1), "k")
    sweep_rows = []  # before the graph is drawn, since they refuse bad sizes
    for value in _sizes(cfg, "sweep_n"):
        for rule, p in (("1/N", 1.0 / value), ("1/sqrt(N)", 1.0 / math.sqrt(value))):
            spec = ERSpec(value, p)
            sweep_rows.append(
                [value, rule, moment_two_pow_nbhd(spec), expected_informative_fraction(spec)]
            )
    sweep_rows.append(["limit", "1/N", 2.0 * math.e, 0.5 * math.exp(-0.5)])
    sweep_rows.append(["limit", "1/sqrt(N)", math.inf, 0.0])
    n, build = _graph_block(cfg["graph"])  # checked before it is drawn
    if n > _TABLES_NODE_CAP:
        raise CapacityError(
            f"tables capped at n={_TABLES_NODE_CAP}, past which f_i = 2^-n underflows; got n={n}"
        )
    unit = cfg["unit"]
    if not 0 <= unit < n:
        raise ConfigError(f"unit: {unit} out of range for n={n}")
    ball = k_step_neighborhood(build(), unit, k)  # one search, from the unit
    structure_rows = []
    for name, count in (
        ("none", effective_treatment_count(NoInterference(n), unit)),
        ("k_local", 1 << len(ball)),
        ("arbitrary", effective_treatment_count(Arbitrary(n), unit)),
    ):
        # under the fair coin, a share 1/count of assignments informs the unit
        structure_rows.append([name, count, 1 / count])
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "structure_table.csv").write_text(
        _csv_lines(["structure", "e_i", "f_i"], structure_rows)
    )
    (out_dir / "limits_table.csv").write_text(
        _csv_lines(["n", "p_rule", "expected_e_i", "informative_fraction"], sweep_rows)
    )
    return 0


def cmd_regimes(cfg: dict, out: str | None) -> int:
    _check_keys(cfg, "config", {"n_values": list, "k_lower": _NUM, "m_upper": _NUM}, {})
    # checked before any row is computed; equal levels are allowed
    k_lower, m_upper = _levels(cfg)
    if m_upper < k_lower:
        raise ConfigError(f"m_upper: must be at least k_lower={k_lower}, got {m_upper}")
    rows = [regime_report(value, k_lower, m_upper) for value in _sizes(cfg, "n_values")]
    _emit(_csv_lines(list(RegimeReport._fields), rows), out)
    return 0


_COMMANDS = {
    "moments": cmd_moments,
    "feasibility": cmd_feasibility,
    "adversary": cmd_adversary,
    "er-analysis": cmd_er_analysis,
    "tables": cmd_tables,
    "regimes": cmd_regimes,
}


_PROG = "interference-lab"
_USAGE = f"usage: {_PROG} COMMAND --config PATH [--out PATH] [--set KEY=VALUE]...\n"
_HELP = (
    _USAGE
    + f"""
Exact analysis of randomized experiments under network interference

commands: {", ".join(_COMMANDS)}

options:
  -h, --help       show this help message and exit
  --config PATH    path to the run-config JSON
  --out PATH       output path (default: stdout)
  --set KEY=VALUE  override a config entry (dot paths, JSON values); repeatable
"""
)


class _UsageError(Exception):
    pass


def _is_flag(token: str) -> bool:
    """Whether a token reads as an option rather than a value: it starts
    with '-' and is neither '-' alone nor a negative number."""
    return token.startswith("-") and token != "-" and not token[1:].replace(".", "", 1).isdigit()


def _parse_args(argv: list[str]) -> tuple[str, str, str | None, list[str]] | None:
    """``COMMAND --config PATH [--out PATH] [--set KEY=VALUE]...``, each flag
    also as ``--flag=VALUE``: the command, config path, output path and
    overrides, or None when help was asked for.  A repeated --config or
    --out keeps its last value; --set values apply in order."""
    if "-h" in argv or "--help" in argv:
        return None
    if not argv:
        raise _UsageError("the following arguments are required: command")
    command = argv[0]
    if command not in _COMMANDS:
        choices = ", ".join(repr(name) for name in _COMMANDS)
        raise _UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    values: dict[str, list[str]] = {"--config": [], "--out": [], "--set": []}
    extras = []
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in values:
            extras.append(token)
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                raise _UsageError(f"argument {flag}: expected one argument")
        values[flag].append(value)
    if not values["--config"]:
        raise _UsageError("the following arguments are required: --config")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    out = values["--out"][-1] if values["--out"] else None
    return command, values["--config"][-1], out, values["--set"]


def main(argv: list[str] | None = None) -> int:
    # A CLI process freezes its heap at exit, so the interpreter's final
    # collections skip what is alive then, mostly numpy's import-time heap
    # (about 21,400 tracked objects).  That collection cost more than any
    # shipped op's compute: one `moments` process on
    # configs/moments_ht.json took 222 ms with it and 193 ms without
    # (medians of 40, 2-core x86-64).  Reference counting still frees
    # objects during teardown, and stdout and stderr are still flushed.
    # The handler is registered once however often main runs, and runs at
    # the caller's exit; importing the package registers nothing.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        sys.stderr.write(f"{_USAGE}{_PROG}: error: {exc}\n")
        return 2
    if args is None:
        sys.stdout.write(_HELP)
        return 0
    command, config, out, overrides = args
    try:
        return _COMMANDS[command](_load_config(config, overrides), out)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except IdentityViolationError as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 4
    except (InterferenceLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a float result past the double range
        print(f"error: float overflow {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
