"""Existence certificates for unbiased estimators.

Claims pinned here:
    - the verdict is exact: a case is infeasible iff two tables of the
      default witness family reveal == outcomes at every support code and
      have different estimands, the estimands compared as Fractions (bd,
      cbd and crd with every n_a at n <= 8, both estimands, grids with both
      zeros and levels that are not binary fractions, and offset grids)
    - the verdict holds at every n from 2 to CODE_BITS = 63: bd ATE and
      solo, cbd solo and crd (n, 1) solo are feasible; crd and cbd ATE and
      crd solo with n_a > 1 are infeasible; n = 64 is a capacity error
    - feasibility enumerates nothing: with enumerate_support,
      default_witness_family, _witness_column and np.linalg.matrix_rank
      made to raise, every verdict still holds
    - the closed-form family_size, n_unknowns and rank equal those of the
      system built from default_witness_family as a 0/1 matrix with
      np.linalg.matrix_rank: every design and both estimands at n = 1 to
      10, and five n = 14 cases (bd solo on four levels: 232 tables, 65,536
      unknowns, rank 52), on grids with both zeros and repeated levels
    - crd with n_a > 1 never reveals a solo row, so the solo estimand is
      infeasible on [L, L + 1] for L from 1e6 to 1e15 and -1e10, n = 3 to
      8, with no warning
    - designs that kill the two pure assignments admit no unbiased rule for
      the mean contrast, and no witness
    - a feasible certificate names its witness: PureArmIPW for the bd ATE,
      SoloTreatedIPW of the design (weight |S| / n) for the solo estimand,
      the constant estimand on a one-level grid; its JSON form prints the
      CLI estimator block, and that block, run through ``moments`` under the
      same design, reproduces the estimand within 1e-10 (n <= 10, cbd solo
      included); witnesses reproduce the estimand on every family member
    - the verdict does not depend on the grid's scale or offset ([0, v] for
      v from 2^-40 to 1e200, [L, L + 1] for L = 3e9, 1e10, -1e10, and the
      subnormal or near-subnormal grids [0, 5e-324], [5e-324, 1e-323] and
      [2.3e-308, 2.4e-308]: bd ATE and crd solo with n_a = 1 feasible, crd
      ATE infeasible, no warning), and grids at the top of the double range
      decide with a named witness
    - the witness is exactly unbiased on those grids: its expectation over
      the support, in Fractions, equals every family table's estimand
    - on offset grids [L, L + 1], L in {1e6, 1e10, 1e15, -1e10}, the
      witness's expectation in Fractions equals every family table's
      estimand for the ATE and wherever n divides |S|, and is within
      2^-52 relative otherwise (bd 3 to 8, cbd 5, crd with n_a = 1)
    - crd and cbd ATE on [0, 1.7e308] read infeasible (n = 2 to 8)
    - scaling the grid by 2^k, k from -1021 to 1000, leaves the status,
      sizes, rank and witness alone and scales a constant witness's value
      by 2^k bit for bit (bd, cbd, crd with n_a = 1 and n / 2, both
      estimands, five grids with both zeros among them); grids spanning
      more than one scale of doubles ([1e-300, 1e300], [0, 5e-324, 1e307])
      keep every level as an unknown
    - an empty grid, or a grid level that is NaN or infinite, is an invalid
      argument naming the entry
    - above six units every verdict is the named certificate's: for n = 7
      to 10, bd, cbd and crd with every n_a, ATE and solo, on grids with
      both zeros and 1e-310 among the levels, and bd and crd ATE at n = 14;
      at n = 8 the bd solo witness reproduces the estimand through
      exact_moments on every family table on four levels within 1e-10
    - a witness column reads as the full (2^n, n) matrix, read-only, and
      the adversary's table serializes as that matrix does; the adversary's
      mse, floor and target equal, bit for bit, those of both candidate
      tables built as full matrices and reduced through the same exact
      sums (difference in means, the two inverse-probability rules, a
      constant, and HT on ER graphs at k = 1, 2; crd and bd; n = 3 to 14);
      a whole n = 14 adversary call allocates below 1.5 MB, less than one
      (2^14, 14) matrix
"""

import json
import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import interference_lab
from interference_lab import (
    ATE,
    Arbitrary,
    Assignment,
    CapacityError,
    ConstantEstimator,
    Design,
    DifferenceInMeans,
    ERSpec,
    FeasibilityCertificate,
    HorvitzThompson,
    InvalidArgumentError,
    NeighborhoodIndex,
    PotentialOutcomeTable,
    PureArmIPW,
    SoloTreatedIPW,
    SoloTreatmentEffect,
    cli,
    default_witness_family,
    designs,
    enumerate_support,
    estimand_value,
    exact_moments,
    feasibility,
    mse_adversary,
    sample_er_graph,
    unbiased_feasibility,
)
from interference_lab.designs import CODE_BITS
from interference_lab.exact import _support_values, _weighted_square_sum
from interference_lab.feasibility import _revealed


def test_infeasible_when_pure_vectors_have_no_mass():
    for design in (Design("crd", 3, 1), Design("cbd", 3), Design("cbd", 2), Design("crd", 4, 2)):
        cert = unbiased_feasibility(design, ATE, [0, 1])
        assert not cert.feasible
        assert cert.witness is None


@pytest.mark.parametrize(
    "low, high",
    [(0.0, v) for v in (2.0**-40, 2.0**-30, 1.0, 2.0**20, 2.0**30, 1e200)]
    + [(level, level + 1.0) for level in (3e9, 1e10, -1e10)]
    + [(0.0, 5e-324), (5e-324, 1e-323), (2.3e-308, 2.4e-308)],
)
def test_verdict_does_not_depend_on_the_grid_scale(low, high):
    # unbiasedness is linear in the outcomes, so the verdict on [low, high]
    # is the verdict on [0, 1], whatever the grid's units or offset, and
    # the witnesses (2^3 l at the pure rows, l at the solo rows) are exact
    # on every family table, subnormal levels included
    grid = (low, high)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bd = unbiased_feasibility(Design("bd", 3), ATE, grid)
        crd = unbiased_feasibility(Design("crd", 3, 1), ATE, grid)
        solo = unbiased_feasibility(Design("crd", 3, 1), SoloTreatmentEffect(), grid)
    assert not crd.feasible
    for cert, design, estimand in [
        (bd, Design("bd", 3), ATE),
        (solo, Design("crd", 3, 1), SoloTreatmentEffect()),
    ]:
        assert cert.feasible
        for column in default_witness_family(3, estimand, grid):
            assert _exact_expectation(cert, design, column) == _exact_estimand(estimand, column)


_EQUIVARIANCE_GRIDS = ((0.0, 1.0), (0.0, 0.25, 0.5, 1.5), (-1.0, 1.5), (1.0,), (-0.0, 0.0, 1.25))
_EQUIVARIANCE_DESIGNS = (
    Design("bd", 4), Design("cbd", 5), Design("crd", 5, 1), Design("crd", 6, 3)
)


@pytest.mark.parametrize("grid", _EQUIVARIANCE_GRIDS, ids=repr)
def test_certificates_scale_bit_for_bit_with_the_grid(grid):
    # scaling the grid by 2^k scales a constant witness's value by 2^k
    # exactly and leaves the rest alone, from the subnormal range
    # (k = -1021) to the top of the double range (k = 1000)
    for design in _EQUIVARIANCE_DESIGNS:
        for estimand in (ATE, SoloTreatmentEffect()):
            base = unbiased_feasibility(design, estimand, grid).to_json_dict()
            for k in (-1021, -600, -1, 1, 600, 1000):
                scaled = [math.ldexp(level, k) for level in grid]
                doc = unbiased_feasibility(design, estimand, scaled).to_json_dict()
                expected = dict(base)
                if base.get("witness", {}).get("kind") == "constant":
                    value = math.ldexp(base["witness"]["value"], k)
                    expected["witness"] = {"kind": "constant", "value": value}
                assert repr(doc) == repr(expected), (design, estimand, grid, k)


def test_grids_at_the_top_of_the_double_range_decide():
    # n copies of a level near 1.7e308 overflow in grid units, not after
    # the scaling: the verdicts are the named certificates'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        crd = unbiased_feasibility(Design("crd", 4, 2), SoloTreatmentEffect(), [0, 1.7e308])
        bd = unbiased_feasibility(Design("bd", 3), ATE, [1.7e308])
    assert not crd.feasible
    assert bd.feasible
    assert bd.to_json_dict()["witness"] == {"kind": "constant", "value": 0.0}


@pytest.mark.parametrize(
    "grid, unknowns", [((1e-300, 1e300), 8), ((0.0, 5e-324, 1e307), 12)], ids=["pm300", "sub307"]
)
def test_grids_wider_than_one_scale_keep_their_levels(grid, unknowns):
    # no power of two brings both ends of these grids into the normal range,
    # and every level is still an unknown
    cert = unbiased_feasibility(Design("bd", 2), ATE, grid)
    assert cert.feasible and cert.n_unknowns == unknowns
    assert cert.to_json_dict()["witness"] == {"kind": "pure_arm_ipw"}


@pytest.mark.parametrize("n", [5, 6])
def test_witness_past_the_double_range_is_named(n):
    # the fair-coin witness weighs the level 1e307 by 2^n at the pure rows,
    # past the double range, but the certificate names the rule and
    # computes no value of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ate = unbiased_feasibility(Design("bd", n), ATE, [0, 1e307])
        solo = unbiased_feasibility(Design("cbd", n), SoloTreatmentEffect(), [0, 1e307])
    assert ate.to_json_dict()["witness"] == {"kind": "pure_arm_ipw"}
    assert solo.to_json_dict()["witness"] == {"kind": "solo_ipw"}


def test_mean_contrast_is_infeasible_at_the_top_of_the_double_range():
    # crd and cbd never assign a pure row, so no witness is named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(2, 9):
            for design in [Design("cbd", n)] + [Design("crd", n, k) for k in range(1, n)]:
                cert = unbiased_feasibility(design, ATE, [0, 1.7e308])
                assert not cert.feasible and cert.witness is None, design


def test_feasible_fair_coin_mean_contrast():
    for n in (2, 3):
        cert = unbiased_feasibility(Design("bd", n), ATE, [0, 1])
        assert cert.feasible
        _witness_reproduces(cert, Design("bd", n), ATE, default_witness_family(n, ATE, (0.0, 1.0)))


def test_feasible_fair_coin_solo_effect():
    solo = SoloTreatmentEffect()
    cert = unbiased_feasibility(Design("bd", 3), solo, [0, 1])
    assert cert.feasible
    _witness_reproduces(cert, Design("bd", 3), solo, default_witness_family(3, solo, (0.0, 1.0)))


def _support(design):
    """The support as (assignment, p) pairs."""
    return [
        (Assignment(code, design.n), p)
        for codes, p in enumerate_support(design)
        for code in codes.tolist()
    ]


def _witness_reproduces(cert: FeasibilityCertificate, design, estimand, family):
    for table in map(_full_matrix_table, family):
        expectation = math.fsum(
            p * cert.witness(z, table.observed_vector(z))
            for z, p in _support(design)
        )
        assert expectation == pytest.approx(
            estimand_value(estimand, table), abs=1e-9
        )


def test_witness_reproduces_estimand_on_family():
    design = Design("bd", 3)
    for estimand in (ATE, SoloTreatmentEffect()):
        cert = unbiased_feasibility(design, estimand, [0, 1])
        assert cert.feasible
        _witness_reproduces(
            cert, design, estimand, default_witness_family(3, estimand, (0.0, 1.0))
        )


def test_witness_is_unbiased_on_every_family_table_at_n_8():
    design, estimand, grid = Design("bd", 8), SoloTreatmentEffect(), (0.0, 0.25, 0.5, 1.0)
    cert = unbiased_feasibility(design, estimand, grid)
    assert cert.feasible
    for table in map(_full_matrix_table, default_witness_family(8, estimand, grid)):
        report = exact_moments(cert.witness, design, table, estimand)
        assert abs(report.expectation - estimand_value(estimand, table)) <= 1e-10


def test_witness_is_the_named_rule():
    solo = SoloTreatmentEffect()
    cases = [
        (Design("bd", 3), ATE, [0, 1], PureArmIPW, {"kind": "pure_arm_ipw"}),
        (Design("bd", 3), solo, [0, 1], SoloTreatedIPW, {"kind": "solo_ipw"}),
        (Design("cbd", 6), solo, [0, 1], SoloTreatedIPW, {"kind": "solo_ipw"}),
        (Design("crd", 5, 1), solo, [0, 1], SoloTreatedIPW, {"kind": "solo_ipw"}),
    ]
    for estimand, grid, value in ((ATE, [0.5], 0.0), (solo, [2, 2.0], 2.0)):
        block = {"kind": "constant", "value": value}
        cases.append((Design("crd", 5, 2), estimand, grid, ConstantEstimator, block))
    for design, estimand, grid, rule, block in cases:
        cert = unbiased_feasibility(design, estimand, grid)
        assert type(cert.witness) is rule, design
        assert cert.to_json_dict()["witness"] == block
    # the solo rule weighs each solo row by |S| / n: 6 / 3 under cbd (3)
    z, y = Assignment.from_arms("BAB"), np.array([0.0, 5.0, 0.0])
    assert unbiased_feasibility(Design("cbd", 3), solo, [0, 1]).witness(z, y) == 10.0


def _certified(design, estimand):
    """The verdict of the named certificate: the pure-arm rule for bd ATE;
    the solo-row rule wherever the support holds every solo row (bd, cbd,
    and crd with n_a = 1) for the solo estimand; otherwise two family
    tables that reveal the same data on the support but differ in the
    estimand."""
    if design.kind == "bd":
        return True
    return isinstance(estimand, SoloTreatmentEffect) and (design.kind == "cbd" or design.n_a == 1)


def _every_design(n):
    cbd = [Design("cbd", n)] if n > 1 else []
    return [Design("bd", n), *cbd] + [Design("crd", n, k) for k in range(1, n)]


@pytest.mark.parametrize(
    "cases",
    [
        [
            (design, estimand, grid)
            for design in _every_design(n)
            for estimand in (ATE, SoloTreatmentEffect())
            for grid in ([0, 1], [-0.0, 0.0, 2], [0, 1e-310, 1])
        ]
        for n in range(7, 11)
    ]
    + [[(Design("bd", 14), ATE, [0, 1]), (Design("crd", 14, 7), ATE, [0, 1])]],
    ids=["n7", "n8", "n9", "n10", "n14"],
)
def test_verdicts_follow_the_named_certificates(cases):
    for design, estimand, grid in cases:
        cert = unbiased_feasibility(design, estimand, grid)
        assert cert.feasible == _certified(design, estimand), (design, estimand, grid)


def test_verdicts_hold_up_to_code_bits():
    for n in range(2, CODE_BITS + 1):
        for design in _every_design(n):
            for estimand in (ATE, SoloTreatmentEffect()):
                cert = unbiased_feasibility(design, estimand, [0, 1])
                assert cert.feasible == _certified(design, estimand), (design, estimand)
    # at n = 63 the sizes are those of the closed forms: 8 tables, |S| = 2^63
    cert = unbiased_feasibility(Design("bd", CODE_BITS), ATE, [0, 1])
    assert cert[:4] == (True, 8, 2**64, 4)
    for design in (Design("bd", 64), Design("cbd", 64), Design("crd", 64, 1)):
        with pytest.raises(CapacityError, match="n <= 63"):
            unbiased_feasibility(design, ATE, [0, 1])


def test_cli_feasibility_decides_at_n_63_and_exits_3_at_64(tmp_path, capsys):
    config = tmp_path / "feasibility.json"
    blocks = [{"design": "bd"}, {"design": "cbd"}, {"design": "crd", "n_a": 1}]
    blocks.append({"design": "crd", "n_a": 31})
    for block in blocks:
        for estimand in (ATE, SoloTreatmentEffect()):
            kind = "ate" if estimand is ATE else "solo"
            for n in (63, 64):
                cfg = {"design": {**block, "n": n}, "estimand": {"kind": kind}, "grid": [0, 1]}
                config.write_text(json.dumps(cfg))
                code = cli.main(["feasibility", "--config", str(config)])
                out, err = capsys.readouterr()
                if n == 64:
                    assert code == 3 and err.startswith("capacity error: feasibility reads int64")
                    continue
                assert code == 0
                design = Design(block["design"], n, block.get("n_a"))
                expected = "feasible" if _certified(design, estimand) else "infeasible"
                assert json.loads(out)["status"] == expected, cfg


def test_feasibility_enumerates_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("feasibility enumerated")

    for module in (designs, interference_lab):
        monkeypatch.setattr(module, "enumerate_support", refuse)
    for name in ("default_witness_family", "_witness_column"):
        monkeypatch.setattr(feasibility, name, refuse)
    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
    for n in (2, 9, 14, 15, 40, CODE_BITS):
        for design in _every_design(n)[:4]:
            for estimand in (ATE, SoloTreatmentEffect()):
                for grid in ([0, 1], [-0.0, 0.0, 0.5, 1.0, 1.0]):
                    cert = unbiased_feasibility(design, estimand, grid)
                    assert cert.feasible == _certified(design, estimand), (design, estimand)


def _reference_sizes(design, estimand, grid):
    """``family_size``, ``n_unknowns`` and ``rank`` of the unbiasedness
    system, built: one 0/1 row per ``default_witness_family`` table and one
    column per (support code, distinct level), 1 where the table reveals
    that level at that code (levels compared as floats).  Columns that every
    table reveals alike are merged before ``np.linalg.matrix_rank``, which
    leaves the rank alone."""
    family = default_witness_family(design.n, estimand, tuple(map(float, grid)))
    codes = np.concatenate([block for block, _ in enumerate_support(design)])
    levels = np.array(list(dict.fromkeys(map(float, grid))))
    # (unknowns, tables): unknown c * len(levels) + l is (codes[c], levels[l])
    hit = (family.T[codes][:, None, :] == levels[:, None]).reshape(-1, len(family))
    packed = np.packbits(hit, axis=1)
    _, first = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True)
    matrix = hit[first].T.astype(float)
    return len(family), len(hit), int(np.linalg.matrix_rank(matrix))


# both zeros, a repeated level and a one-level grid
_REFERENCE_GRIDS = ((0.0, 1.0), (-0.0, 0.5, 0.0, 0.5, 2.0), (1.5, 1.5))


@pytest.mark.parametrize("n", range(1, 11))
def test_closed_form_sizes_equal_the_built_system(n):
    for design in _every_design(n):
        for estimand in (ATE, SoloTreatmentEffect()):
            for grid in _REFERENCE_GRIDS:
                cert = unbiased_feasibility(design, estimand, grid)
                reference = _reference_sizes(design, estimand, grid)
                assert cert[1:4] == reference, (design, estimand, grid)


@pytest.mark.parametrize(
    "design, solo, grid, sizes",
    [
        (Design("bd", 14), True, (0.0, 0.25, 0.5, 1.0), (232, 65536, 52)),
        (Design("bd", 14), False, (0.0, 1.0), (8, 32768, 4)),
        (Design("crd", 14, 7), False, (-0.0, 0.0, 1.0), (27, 6864, 2)),
        (Design("cbd", 14), True, (0.0, 1.0, 1.0), (83, 32764, 16)),
        (Design("crd", 14, 1), True, (0.0, 0.5, 1.0), (111, 42, 29)),
    ],
    ids=["bd-solo", "bd-ate", "crd-ate", "cbd-solo", "crd1-solo"],
)
def test_closed_form_sizes_equal_the_built_system_at_n_14(design, solo, grid, sizes):
    cert = unbiased_feasibility(design, SoloTreatmentEffect() if solo else ATE, grid)
    assert cert[1:4] == sizes
    assert _reference_sizes(design, SoloTreatmentEffect() if solo else ATE, grid) == sizes


@pytest.mark.parametrize(
    "design, estimand, grid, table",
    [
        ({"design": "bd", "n": 3}, "ate", [0, 1], None),
        ({"design": "bd", "n": 10}, "ate", [0, 1], None),
        ({"design": "bd", "n": 6}, "solo", [0, 0.5, 1], None),
        ({"design": "cbd", "n": 6}, "solo", [0, 1], None),
        ({"design": "cbd", "n": 10}, "solo", [-0.0, 0.0, 1], None),
        ({"design": "crd", "n": 7, "n_a": 1}, "solo", [0, 1], None),
        ({"design": "cbd", "n": 5}, "ate", [0.5], 0.5),
        ({"design": "crd", "n": 6, "n_a": 3}, "solo", [2.0, 2], 2.0),
    ],
    ids=["bd3-ate", "bd10-ate", "bd6-solo", "cbd6-solo", "cbd10-solo", "crd7-solo",
         "cbd5-const", "crd6-const"],
)
def test_printed_witness_reproduces_the_estimand_through_moments(
    tmp_path, capsys, design, estimand, grid, table
):
    # the certificate's witness block is a moments estimator block; on a
    # one-level grid the witness is unbiased on the constant table at it
    config = tmp_path / "feasibility.json"
    config.write_text(json.dumps({"design": design, "estimand": {"kind": estimand}, "grid": grid}))
    assert cli.main(["feasibility", "--config", str(config)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["status"] == "feasible"
    moments = {"design": design, "estimator": cert["witness"], "estimand": {"kind": estimand}}
    if table is None:
        moments["structure"] = {"kind": "arbitrary"}
        moments["table"] = {"random": {"k_lower": 0.0, "m_upper": 1.0, "seed": design["n"]}}
    else:
        n = design["n"]
        constant = PotentialOutcomeTable(Arbitrary(n), np.full((n, 1 << n), table))
        constant.to_json(tmp_path / "table.json")
        moments["table"] = {"json_path": str(tmp_path / "table.json")}
    config.write_text(json.dumps(moments))
    assert cli.main(["moments", "--config", str(config)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["expectation"] - report["estimand_value"]) <= 1e-10


def test_validation():
    with pytest.raises(InvalidArgumentError):
        unbiased_feasibility(Design("bd", 3), ATE, [])
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError, match=rf"grid\[1\]: .* finite, got {level}"):
            unbiased_feasibility(Design("bd", 3), ATE, [0, level])
    # neither the grid's length nor n up to CODE_BITS is capped
    cert = unbiased_feasibility(Design("bd", 15), ATE, [0, 0.25, 0.5, 0.75, 1.0])
    assert cert[:4] == (True, 125, 5 * 2**15, 13)


def test_certificate_serialization():
    cert = unbiased_feasibility(Design("crd", 3, 1), ATE, [0, 1])
    doc = cert.to_json_dict()
    assert doc == {"status": "infeasible", "family_size": 8, "n_unknowns": 6, "rank": 2}
    doc = unbiased_feasibility(Design("bd", 3), ATE, [0, 1]).to_json_dict()
    assert doc["witness"] == {"kind": "pure_arm_ipw"}


def _full_matrix_table(column, m_upper=None):
    """The arbitrary-interference table whose units each store their own
    copy of the outcome column ``column``: a full (2^n, n) matrix."""
    n = len(column).bit_length() - 1
    return PotentialOutcomeTable(Arbitrary(n), np.tile(column, (n, 1)), m_upper=m_upper)


# -0.0 and 0.0 are distinct grid levels; the mean of n copies of 0.1, 1/3,
# 7.7 or 3e9 + 0.1 need not be the level
_LEVELS = (-0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, -1.0, 0.1, 1 / 3, 7.7, 3e9 + 0.1)


_OFFSETS = (1e6, 1e8, 1e10, 1e12, 1e15, -1e10)


def _exact_estimand(estimand, column):
    """The estimand of the witness table ``column`` as a Fraction: the pure
    rows' contrast, or the mean over units of each unit's solo row."""
    n = len(column).bit_length() - 1
    if isinstance(estimand, SoloTreatmentEffect):
        solo = [column[(len(column) - 1) ^ (1 << unit)] for unit in range(n)]
        return sum(map(Fraction, solo)) / n
    return Fraction(column[0]) - Fraction(column[-1])


def _exact_expectation(cert, design, column):
    """The witness's expectation on the witness table ``column`` as a
    Fraction: its value at each support code, weighted by 1 / |S|."""
    codes = np.concatenate([block for block, _ in enumerate_support(design)])
    values = Counter(cert.witness.evaluate(codes, _revealed(column, design.n)(codes)).tolist())
    return sum(count * Fraction(value) for value, count in values.items()) / len(codes)


def _refuted(design, estimand, family):
    """Whether two family tables reveal == outcomes at every support code
    and have different estimands, so that no estimator is unbiased on both."""
    codes = np.concatenate([block for block, _ in enumerate_support(design)])
    revealed = family[:, codes]
    same = (revealed[:, None] == revealed[None]).all(axis=-1)
    values = [_exact_estimand(estimand, column) for column in family]
    return any(values[i] != values[j] for i, j in zip(*np.nonzero(same)))


@st.composite
def _designs(draw):
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["crd", "cbd", "bd"]))
    return Design(kind, n, draw(st.integers(1, n - 1))) if kind == "crd" else Design(kind, n)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    design=_designs(),
    solo=st.booleans(),
    grid=st.one_of(
        st.lists(
            st.sampled_from(_LEVELS), min_size=1, max_size=4, unique_by=repr
        ),
        st.sampled_from([(level, level + 1.0) for level in _OFFSETS]),
    ),
)
@example(design=Design("crd", 4, 2), solo=True, grid=(1e10, 1e10 + 1.0))
@example(design=Design("cbd", 3), solo=False, grid=[-0.0, 0.0])
def test_infeasible_iff_two_family_tables_refute_every_estimator(design, solo, grid):
    # no tolerance: the revealed outcomes compare with ==, the estimands
    # exactly, so a mean that rounds to the same float hides nothing
    estimand = SoloTreatmentEffect() if solo else ATE
    family = default_witness_family(design.n, estimand, tuple(map(float, grid)))
    cert = unbiased_feasibility(design, estimand, grid)
    assert cert.feasible != _refuted(design, estimand, family)
    assert (cert.witness is None) != cert.feasible


@pytest.mark.parametrize("level", _OFFSETS)
def test_crd_solo_is_infeasible_on_offset_grids(level):
    # a solo row assigns arm A to one unit, which crd with n_a > 1 never
    # does, however far the grid sits from zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(3, 9):
            for n_a in range(2, n):
                design = Design("crd", n, n_a)
                cert = unbiased_feasibility(design, SoloTreatmentEffect(), [level, level + 1.0])
                assert not cert.feasible and cert.witness is None, design


@pytest.mark.parametrize("level", [1e6, 1e10, 1e15, -1e10])
def test_witness_is_unbiased_on_offset_grids_in_exact_arithmetic(level):
    # E[tau] over the support, in Fractions, against each family table's
    # estimand: the pure rows' |S| l is exact, and the solo rows' weight
    # |S| / n and its product with l round unless n divides |S|
    grid = (level, level + 1.0)
    designs = (
        [Design("bd", n) for n in range(3, 9)]
        + [Design("cbd", 5)]
        + [Design("crd", n, 1) for n in range(3, 9)]
    )
    for design in designs:
        size = sum(len(block) for block, _ in enumerate_support(design))
        for estimand in (ATE, SoloTreatmentEffect()):
            cert = unbiased_feasibility(design, estimand, grid)
            assert cert.feasible == _certified(design, estimand), (design, estimand)
            if not cert.feasible:
                continue
            exact = estimand is ATE or size % design.n == 0
            for column in default_witness_family(design.n, estimand, grid):
                target = _exact_estimand(estimand, column)
                bias = _exact_expectation(cert, design, column) - target
                if exact:
                    assert bias == 0, (design, estimand)
                else:
                    assert abs(bias) <= abs(target) / 2**52, (design, estimand)


def _adversary_columns(n, m):
    """The adversary's two candidate outcome columns, built by hand: M/2
    everywhere, the pure rows at M/2 (target 0) or at M - eps and eps."""
    half, eps = m / 2.0, 1e-6 * m
    columns = []
    for pure in ((half, half), (m - eps, eps)):
        column = np.full(1 << n, half)
        column[0], column[-1] = pure
        columns.append(column)
    return columns


def _er_ht(n, k):
    return HorvitzThompson(NeighborhoodIndex.build(sample_er_graph(ERSpec(n, 0.3), n), k))


@pytest.mark.parametrize("n", [3, 6, 10, 14])
@pytest.mark.parametrize("kind", ["crd", "bd"])
def test_adversary_equals_the_full_matrix_reference(kind, n):
    design = Design("crd", n, n // 2) if kind == "crd" else Design(kind, n)
    m = 1.3
    estimators = [
        DifferenceInMeans(),
        PureArmIPW(),
        SoloTreatedIPW(design),
        ConstantEstimator(0.4),
        _er_ht(n, 1),
        _er_ht(n, 2),
    ]
    for estimator in estimators:
        result = mse_adversary(estimator, design, m)
        reference = []
        for column in _adversary_columns(n, m):
            table = _full_matrix_table(column, m)
            theta = estimand_value(ATE, table)
            values, p = _support_values(estimator, design, table.observed)
            reference.append((_weighted_square_sum(values, p, theta), theta))
        mse, theta = max(reference, key=lambda pair: pair[0])
        floor = m * m / 8.0 * (1.0 - 10.0 * (1e-6 * m) / m)
        assert (result.mse, result.floor, result.estimand_target) == (mse, floor, theta)


def test_witness_table_writes_the_full_matrix_json(tmp_path):
    # a constant-0 estimator gets the full-contrast column, a constant-M
    # one the null column
    for value, m, winner in [(0.0, 1.0, 1), (3.0, 3.0, 0)]:
        result = mse_adversary(ConstantEstimator(value), Design("bd", 6), m)
        column = _adversary_columns(6, m)[winner]
        result.table.to_json(tmp_path / "adversary.json")
        _full_matrix_table(column, m).to_json(tmp_path / "full.json")
        assert (tmp_path / "adversary.json").read_bytes() == (tmp_path / "full.json").read_bytes()


def test_witness_table_reads_as_the_full_matrix():
    n = 14
    codes = np.arange(1 << n, dtype=np.int64)
    for column in _adversary_columns(n, 2.0):
        revealed = _revealed(column, n)(codes)
        assert not revealed.flags.writeable
        assert np.array_equal(revealed, _full_matrix_table(column, 2.0).observed(codes))


def test_adversary_tables_allocate_one_column_each():
    # a (2^14, 14) matrix alone is 1.84 MB; the whole call stays below it
    cases = [
        (PureArmIPW(), Design("bd", 14)),
        (DifferenceInMeans(), Design("crd", 14, 7)),
        (DifferenceInMeans(), Design("bd", 14)),
    ]
    for estimator, design in cases:
        tracemalloc.start()
        try:
            mse_adversary(estimator, design, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6
