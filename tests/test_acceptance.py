"""Acceptance suite: one test per criterion, at its stated tolerance and
runtime budget.  Each test prints a single pass line on success; a failing
criterion shows up as an ordinary pytest failure.

Criterion 8 re-runs every command, the adversary under both of its designs
(bd and crd), and the shipped least-squares config
``configs/feasibility_bd.json`` with the witness it writes, in fresh
processes with OPENBLAS_NUM_THREADS unset, 1 and 4, and compares stdout and
written files byte for byte.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import interference_lab
from interference_lab import (
    ATE,
    Arbitrary,
    ConstantEstimator,
    Design,
    DifferenceInMeans,
    ERSpec,
    ConstantOutcomes,
    HorvitzThompson,
    KLocal,
    NoInterference,
    PotentialOutcomeTable,
    PureArmIPW,
    SoloTreatedIPW,
    SoloTreatmentEffect,
    estimand_value,
    exact_moments,
    exhaustive_expected_variance,
    exhaustive_moments,
    expected_informative_fraction,
    ht_variance_closed_form,
    mc_expected_variance,
    moment_two_pow_nbhd,
    moment_two_pow_shared,
    mse_adversary,
    neyman_variance_terms,
    prob_no_common,
    regime_report,
    sample_er_graph,
    unbiased_feasibility,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = str(Path(interference_lab.__file__).resolve().parents[1])


class _Timer:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s exceeded budget {self.budget}s"
            )


def _report(k, timer, detail):
    print(f"ACCEPTANCE {k}: PASS ({timer.elapsed:.2f}s) - {detail}", flush=True)


def test_criterion_1_unbiasedness_suite():
    with _Timer(10.0) as t:
        worst = 0.0
        # difference in means under fixed counts, no interference
        rng = np.random.default_rng(101)
        for trial in range(5):
            n = int(rng.integers(4, 11))
            n_a = int(rng.integers(1, n))
            table = PotentialOutcomeTable.random(NoInterference(n), 0.0, 1.0, seed=trial)
            rep = exact_moments(DifferenceInMeans(), Design("crd", n, n_a), table, ATE)
            worst = max(worst, abs(rep.expectation - estimand_value(ATE, table)))
        # exposure-weighted estimator under the fair-coin design, k-local
        for trial in range(20):
            n = int(rng.integers(4, 11))
            graph = sample_er_graph(ERSpec(n, float(rng.uniform(0.1, 0.6))), 500 + trial)
            structure = KLocal(graph, int(rng.integers(1, 3)))
            table = PotentialOutcomeTable.random(structure, 0.0, 1.0, seed=900 + trial)
            rep = exact_moments(
                HorvitzThompson(structure.index), Design("bd", n), table, ATE
            )
            worst = max(worst, abs(rep.expectation - estimand_value(ATE, table)))
        # pure-arm and solo-treated rules under arbitrary interference
        for trial in range(5):
            n = int(rng.integers(2, 7))
            table = PotentialOutcomeTable.random(Arbitrary(n), 0.0, 1.0, seed=300 + trial)
            rep = exact_moments(PureArmIPW(), Design("bd", n), table, ATE)
            worst = max(worst, abs(rep.expectation - estimand_value(ATE, table)))
            solo = SoloTreatmentEffect()
            rep = exact_moments(SoloTreatedIPW(), Design("bd", n), table, solo)
            worst = max(worst, abs(rep.expectation - estimand_value(solo, table)))
        assert worst <= 1e-10
    _report(1, t, f"worst enumeration bias {worst:.2e}")


def test_criterion_2_feasibility_certificates():
    with _Timer(5.0) as t:
        infeasible_crd = unbiased_feasibility(Design("crd", 3, 1), ATE, [0, 1])
        infeasible_cbd = unbiased_feasibility(Design("cbd", 3), ATE, [0, 1])
        feasible_bd = unbiased_feasibility(Design("bd", 3), ATE, [0, 1])
        feasible_solo = unbiased_feasibility(Design("bd", 3), SoloTreatmentEffect(), [0, 1])
        assert not infeasible_crd.feasible
        assert not infeasible_cbd.feasible
        assert feasible_bd.feasible
        assert feasible_solo.feasible
    _report(
        2,
        t,
        "crd/cbd infeasible "
        f"(residuals {infeasible_crd.min_residual:.2f}/{infeasible_cbd.min_residual:.2f}), "
        "bd feasible for both estimands",
    )


def test_criterion_3_mse_floor():
    with _Timer(5.0) as t:
        results = []
        for design in (Design("crd", 6, 3), Design("bd", 6)):
            for estimator in (DifferenceInMeans(), ConstantEstimator(0.0), PureArmIPW()):
                res = mse_adversary(estimator, design, 1.0)
                results.append(res.mse)
                assert res.mse >= 0.125 - 1e-6
    _report(3, t, f"six worst-case MSEs all >= 0.125 (min {min(results):.4f})")


def test_criterion_4_variance_identities():
    with _Timer(30.0) as t:
        # pairwise closed form vs enumeration, 50 random instances
        rng = np.random.default_rng(404)
        worst_ht = 0.0
        for trial in range(50):
            n = int(rng.integers(2, 11))
            graph = sample_er_graph(ERSpec(n, float(rng.uniform(0.05, 0.7))), 700 + trial)
            k = int(rng.integers(1, 3))
            structure = KLocal(graph, k)
            table = PotentialOutcomeTable.random(structure, 0.0, 1.0, seed=1100 + trial)
            closed = ht_variance_closed_form(graph, k, table)
            rep = exact_moments(
                HorvitzThompson(structure.index), Design("bd", n), table, ATE
            )
            worst_ht = max(worst_ht, abs(closed.total - rep.variance))
        assert worst_ht <= 1e-10
        # three-term decomposition vs enumeration, plus the coarse envelope
        worst_neyman = 0.0
        for trial in range(12):
            n = int(rng.integers(2, 13))
            n_a = int(rng.integers(1, n))
            table = PotentialOutcomeTable.random(
                NoInterference(n), 0.0, 1.0, seed=1500 + trial
            )
            terms = neyman_variance_terms(table, n_a)
            rep = exact_moments(DifferenceInMeans(), Design("crd", n, n_a), table, ATE)
            worst_neyman = max(worst_neyman, abs(terms.variance - rep.variance))
            assert rep.variance <= terms.bound
        assert worst_neyman <= 1e-10
    _report(
        4,
        t,
        f"closed-form gaps: pairwise {worst_ht:.1e}, decomposition {worst_neyman:.1e}, "
        "envelope held",
    )


def test_criterion_5_er_moment_oracle():
    with _Timer(60.0) as t:
        # product-form moments equal enumeration bit for bit on a dyadic grid
        for n in (2, 3, 4):
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                spec = ERSpec(n, p)
                oracle = exhaustive_moments(spec)
                assert moment_two_pow_nbhd(spec) == oracle.two_pow_nbhd
                assert moment_two_pow_shared(spec) == oracle.two_pow_shared
                assert prob_no_common(spec) == oracle.prob_no_common
        # Monte Carlo vs the exact value of the edge-reduced oracle
        spec = ERSpec(6, 0.3)
        exact = exhaustive_expected_variance(spec, 1.0)
        mc = mc_expected_variance(spec, ConstantOutcomes(1.0), reps=2000, seed=55)
        gap = abs(mc.mean - exact)
        assert gap <= 3.0 * mc.stderr
    _report(
        5,
        t,
        f"moments float-exact; MC gap {gap:.4f} <= 3 x stderr {mc.stderr:.4f} "
        f"(exact {exact:.4f})",
    )


def test_criterion_6_example_regimes():
    with _Timer(1.0) as t:
        sparse_scaled = []
        dense_values = []
        n = 8
        while n <= 1024:
            report = regime_report(n, 1.0, 1.0)
            sparse_scaled.append(report.n_times_sparse_h)
            dense_values.append(report.dense_lower_bound)
            n *= 2
        assert max(sparse_scaled) <= 3.0 * sparse_scaled[0]
        assert all(b > a for a, b in zip(dense_values, dense_values[1:]))
    _report(
        6,
        t,
        f"n*h in [{min(sparse_scaled):.1f}, {max(sparse_scaled):.1f}] "
        f"(<= 3x initial {sparse_scaled[0]:.1f}); dense bound strictly increasing",
    )


def test_criterion_7_limit_values():
    with _Timer(1.0) as t:
        count = moment_two_pow_nbhd(ERSpec(200, 1 / 200))
        count_limit = 2 * math.e
        assert abs(count - count_limit) / count_limit < 0.01
        fraction = expected_informative_fraction(ERSpec(200, 1 / 200))
        fraction_limit = 0.5 * math.exp(-0.5)
        assert abs(fraction - fraction_limit) / fraction_limit < 0.01
        dense_fraction = expected_informative_fraction(ERSpec(400, 1 / 20))
        assert dense_fraction < 1e-4
    _report(
        7,
        t,
        f"count {count:.4f} ~ 2e, fraction {fraction:.5f} ~ 1/(2 sqrt(e)), "
        f"dense fraction {dense_fraction:.2e} < 1e-4",
    )


def _run_cli(args, threads, cwd):
    """stdout and every file written under ``cwd`` of one CLI run of this
    package with OPENBLAS_NUM_THREADS at ``threads`` (None: unset, as an
    in-process import of the package may have set it)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONWARNINGS"] = "error"  # a warning in the child fails as it does in process
    cwd.mkdir()
    result = subprocess.run(
        [sys.executable, "-m", "interference_lab.cli", *args],
        capture_output=True,
        env=env,
        cwd=cwd,
    )
    assert result.returncode == 0, result.stderr.decode()
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
    return result.stdout, files


def test_criterion_8_byte_identical_cli(tmp_path):
    (tmp_path / "g.txt").write_text("4\n0 1\n1 2\n")
    configs = {
        "moments": {
            "design": {"design": "crd", "n": 6, "n_a": 3},
            "structure": {"kind": "none"},
            "table": {"random": {"k_lower": 0.0, "m_upper": 1.0, "seed": 11}},
            "estimator": {"kind": "diff_means"},
            "estimand": {"kind": "ate"},
        },
        "feasibility": {
            "design": {"design": "bd", "n": 3},
            "estimand": {"kind": "ate"},
            "grid": [0, 1],
        },
        "adversary": {
            "design": {"design": "bd", "n": 6},
            "estimator": {"kind": "diff_means"},
            "m_upper": 1.0,
        },
        "er-analysis": {
            "cases": [{"n": 6, "p": 0.3}],
            "k_lower": 0.5,
            "m_upper": 1.0,
            "reps": 120,
            "seed": 3,
        },
        "regimes": {"n_values": [8, 16, 32], "k_lower": 1.0, "m_upper": 1.0},
        "tables": {
            "unit": 1,
            "k": 1,
            "graph": {"path": str(tmp_path / "g.txt")},
            "sweep_n": [64, 256],
        },
    }
    runs = []
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        runs.append((command, cfg_path))
    # the adversary under its other design
    crd = dict(configs["adversary"], design={"design": "crd", "n": 6, "n_a": 3})
    (tmp_path / "adversary_crd.json").write_text(json.dumps(crd))
    runs.append(("adversary", tmp_path / "adversary_crd.json"))
    # the shipped least-squares run, which writes its witness to the cwd
    runs.append(("feasibility", CONFIGS / "feasibility_bd.json"))
    for command, cfg_path in runs:
        args = [command, "--config", str(cfg_path)]
        if command == "tables":
            args += ["--out", "out"]
        outputs = [
            _run_cli(args, threads, tmp_path / f"{cfg_path.stem}_{threads}")
            for threads in (None, 1, 4)
        ]
        assert outputs[0] == outputs[1] == outputs[2], f"{cfg_path.stem} output differs"
    assert "witness.csv" in outputs[0][1]  # of the last run, feasibility_bd
    print("ACCEPTANCE 8: PASS - all six commands, the adversary under bd and crd, "
          "and the shipped feasibility_bd config byte-identical across re-runs "
          "with OPENBLAS_NUM_THREADS unset, 1 and 4", flush=True)
