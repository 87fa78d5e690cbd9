"""Output checks, run in the benchmark process after each pass, outside every
timed region.

Each check recomputes its reference from the package's public functions and
applies one of the repository's own gates: identities to 1e-10, the
feasibility verdicts, the MSE floor, Monte Carlo within 3 standard errors,
float-exact oracle moments. Outputs are read by key, so a report that gains
fields does not fail a check. Needs the package importable (run.py puts
``src`` on ``sys.path``).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import interference_lab as il

IDENTITY_TOL = 1e-10


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(what: str, got: float, want: float) -> None:
    _require(abs(got - want) <= IDENTITY_TOL, f"{what}: {got!r} vs reference {want!r}")


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def ht_moments(out: Path, graph: str, table: dict) -> None:
    """HT expectation equals the estimand; variance equals the closed form."""
    report = json.loads(out.read_text())
    g = il.Graph.from_file(graph)
    t = il.PotentialOutcomeTable.random(
        il.KLocal(g, 1), table["k_lower"], table["m_upper"], table["seed"]
    )
    _close("expectation", report["expectation"], il.estimand_value(il.ATE, t))
    _close("variance", report["variance"], il.ht_variance_closed_form(g, 1, t).total)


def dim_moments(out: Path, n: int, n_a: int, table: dict) -> None:
    """Difference-in-means variance equals the Neyman decomposition."""
    report = json.loads(out.read_text())
    t = il.PotentialOutcomeTable.random(
        il.NoInterference(n), table["k_lower"], table["m_upper"], table["seed"]
    )
    _close("variance", report["variance"], il.neyman_variance_terms(t, n_a).variance)


def feasibility_status(out: Path, expected: str) -> None:
    status = json.loads(out.read_text())["status"]
    _require(status == expected, f"status {status!r}, expected {expected!r}")


def adversary_floor(out: Path) -> None:
    report = json.loads(out.read_text())
    _require(report["mse"] >= report["floor"], f"mse {report['mse']!r} < floor {report['floor']!r}")


def mc_constant_reference(spec: il.ERSpec, c: float) -> float:
    """Graph-expected variance at constant outcome level c, from the moment
    closed forms: 2c^2 [(m1-1)/n + (n-1)/n (m2-1) + 1/n + (n-1)/n (1-p0)]."""
    n = spec.n
    m1 = il.moment_two_pow_nbhd(spec)
    m2 = il.moment_two_pow_shared(spec)
    p0 = il.prob_no_common(spec)
    share = (n - 1) / n
    return 2.0 * c * c * ((m1 - 1.0) / n + share * (m2 - 1.0) + 1.0 / n + share * (1.0 - p0))


def mc_reference(out: Path, c: float) -> None:
    """Each Monte Carlo mean lands within 3 standard errors of the reference."""
    rows = _csv_rows(out)
    _require(bool(rows), "no rows")
    for row in rows:
        spec = il.ERSpec(int(row["N"]), float(row["p"]))
        mean, stderr = float(row["mc_mean"]), float(row["mc_stderr"])
        want = mc_constant_reference(spec, c)
        _require(
            abs(mean - want) <= 3.0 * stderr,
            f"n={spec.n}: mc_mean {mean!r} is {abs(mean - want) / stderr:.2f} "
            f"stderr from {want!r}",
        )


def regimes_gate(out: Path) -> None:
    """n*h stays within 3x its first value along p=1/n; the dense lower bound
    strictly increases (acceptance criterion 6)."""
    rows = _csv_rows(out)
    sparse = [float(r["n_times_sparse_h"]) for r in rows]
    dense = [float(r["dense_lower_bound"]) for r in rows]
    _require(len(rows) >= 2, "fewer than two rows")
    _require(max(sparse) <= 3.0 * sparse[0], f"n*h {max(sparse)!r} > 3 x {sparse[0]!r}")
    _require(all(b > a for a, b in zip(dense, dense[1:])), "dense bound not increasing")


def tables_structure(out: Path, graph: dict, unit: int, sweep: int) -> None:
    """The k-local row counts 2^|ball| effective treatments for the unit."""
    g = il.sample_er_graph(il.ERSpec(graph["n"], graph["p"]), graph["seed"])
    ball = len(il.k_step_neighborhood(g, unit, 1))
    rows = {r["structure"]: r for r in _csv_rows(out / "structure_table.csv")}
    _require(int(rows["k_local"]["e_i"]) == 1 << ball, f"k_local e_i != 2^{ball}")
    _require(float(rows["k_local"]["f_i"]) == 0.5**ball, f"k_local f_i != 2^-{ball}")
    limits = _csv_rows(out / "limits_table.csv")
    _require(len(limits) == 2 * sweep + 2, f"{len(limits)} limit rows, expected {2 * sweep + 2}")


def oracle_variance(out: Path, n: int, p: float, c: float) -> None:
    got = json.loads(out.read_text())["value"]
    want = mc_constant_reference(il.ERSpec(n, p), c)
    _require(
        abs(got - want) <= IDENTITY_TOL * max(1.0, abs(want)),
        f"oracle variance {got!r} vs closed form {want!r}",
    )


def oracle_moments(out: Path, n: int, p: float) -> None:
    """Float-exact (==) agreement with the product-form moments."""
    got = json.loads(out.read_text())
    spec = il.ERSpec(n, p)
    want = {
        "two_pow_nbhd": il.moment_two_pow_nbhd(spec),
        "two_pow_shared": il.moment_two_pow_shared(spec),
        "prob_no_common": il.prob_no_common(spec),
    }
    for key, value in want.items():
        _require(got[key] == value, f"{key}: {got[key]!r} != closed form {value!r}")


CHECKS = {
    f.__name__: f
    for f in (
        ht_moments,
        dim_moments,
        feasibility_status,
        adversary_floor,
        mc_reference,
        regimes_gate,
        tables_structure,
        oracle_variance,
        oracle_moments,
    )
}


def check(op) -> None:
    """Raise CheckFailed (or the parse error) if the op's output is wrong."""
    CHECKS[op.check](op.out, **op.params)
