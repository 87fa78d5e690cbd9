"""Enumeration moments and the two closed-form variance identities.

Claims pinned here:
    - difference in means is unbiased under the fixed-count design with no
      interference, and its variance matches the three-term decomposition
    - the decomposition obeys the coarse 4 M^2/(n-1) envelope at these sizes
    - the exposure-weighted estimator's pairwise closed form reproduces the
      enumerated variance exactly (to 1e-10) on random graphs and tables,
      at radius k = 0, 1 and 2; above n = 10 (n = 11 to 14, k = 1 and 2,
      on ER(n, 1.5/sqrt(n))) the two agree to 1e-13 relative
    - a report carries the estimand its MSE is taken against
    - mse = variance + bias^2 holds for every report, and is checked to
      1e-9 relative plus 8 eps max(|v|, |theta|) |bias| for the size of the
      summed values: an MSE sum off by 1e-7 raises IdentityViolationError,
      one off by 1e-12 does not; one off by 1e-6 max(1, mse) raises on
      outcomes near 1 and near 1e15, and the solo rule's correct sums near
      1e15 (crd (5, 1), the witness family) pass
    - the solo rule is unbiased under bd, cbd and crd with n_a = 1
    - difference in means is demonstrably biased once interference is
      unrestricted: on a pure-spillover table under crd(4, 2) its bias is
      exactly -1, the whole ATE
    - the array reduction of squared deviations equals the scalar
      ``math.fsum(p * ((v - c) * (v - c)) ...)`` bit for bit, and raises
      OverflowError exactly where a square is infinite or fsum overflows;
      each square is the IEEE product, correctly rounded (checked against
      exact rationals), not libm's ``pow``, which misrounds some
    - under unrestricted interference and bd, the pure-arm rule on the
      table reading M at the all-A code and 0 elsewhere has expectation M
      and variance = MSE = (2^n - 1) M^2 exactly, for n = 1 to 14
    - the vectorized exact sum equals ``math.fsum`` bit for bit, the sign
      of a zero included, or raises the same exception class: on mixed
      signs and exponents, subnormals, values near the double range,
      exactly cancelling pairs, non-finite values, and seeded arrays of
      2^14 and 2^20 values, in one block or in many
"""

import math
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interference_lab import (
    ATE,
    Arbitrary,
    CapacityError,
    ConstantEstimator,
    Design,
    DifferenceInMeans,
    Graph,
    HorvitzThompson,
    IdentityViolationError,
    InvalidArgumentError,
    KLocal,
    NoInterference,
    PotentialOutcomeTable,
    estimand_value,
    exact_moments,
    ht_variance_closed_form,
    neyman_variance_terms,
    sample_er_graph,
    ERSpec,
    SoloTreatedIPW,
    SoloTreatmentEffect,
    default_witness_family,
)
from interference_lab import exact
from interference_lab.exact import _exact_sum, _weighted_square_sum
from graph_builders import empty_graph


def _constant_klocal_table(graph, k, value):
    structure = KLocal(graph, k)
    values = []
    for i in range(graph.n):
        size = len(structure.index.closed[i])
        values.append(np.full(1 << size, value))
    return PotentialOutcomeTable(structure, values)


def test_diff_means_unbiased_crd_no_interference():
    table = PotentialOutcomeTable.random(NoInterference(6), 0.0, 1.0, seed=4)
    report = exact_moments(DifferenceInMeans(), Design("crd", 6, 2), table, ATE)
    assert abs(report.expectation - estimand_value(ATE, table)) <= 1e-12


def test_ht_moments_two_node_complete():
    graph = Graph.from_edges(2, combinations(range(2), 2))
    table = _constant_klocal_table(graph, 1, 1.0)
    ht = HorvitzThompson(KLocal(graph, 1).index)
    report = exact_moments(ht, Design("bd", 2), table, ATE)
    assert report.expectation == 0.0
    assert report.variance == 8.0
    assert report.mse_vs_estimand == 8.0
    assert report.support_size == 4


def test_constant_estimator_moments():
    table = PotentialOutcomeTable.random(NoInterference(4), 0.0, 1.0, seed=6)
    theta = estimand_value(ATE, table)
    report = exact_moments(ConstantEstimator(0.25), Design("crd", 4, 2), table, ATE)
    assert report.estimand_value == theta
    assert report.variance == 0.0
    assert report.mse_vs_estimand == pytest.approx((0.25 - theta) ** 2, abs=1e-15)


def test_mse_identity_across_cases():
    rng = np.random.default_rng(8)
    for seed in range(5):
        n = int(rng.integers(3, 7))
        table = PotentialOutcomeTable.random(Arbitrary(n), 0.0, 1.0, seed=seed)
        report = exact_moments(
            DifferenceInMeans(), Design("crd", n, max(1, n // 2)), table, ATE
        )
        bias = report.expectation - estimand_value(ATE, table)
        assert report.mse_vs_estimand == pytest.approx(
            report.variance + bias**2, rel=1e-9, abs=1e-12
        )


def test_exact_moments_capacity():
    table = PotentialOutcomeTable(NoInterference(16), [[1.0, 2.0]] * 16)
    with pytest.raises(CapacityError):
        exact_moments(DifferenceInMeans(), Design("crd", 16, 8), table, ATE)


def test_neyman_constant_outcomes():
    table = PotentialOutcomeTable(NoInterference(2), [[1.0, 0.5]] * 2, m_upper=2.0)
    terms = neyman_variance_terms(table, n_a=1)
    assert terms.v_a == 0.0 and terms.v_b == 0.0 and terms.v_theta == 0.0
    assert terms.variance == 0.0
    assert terms.bound == pytest.approx(16.0)


def test_neyman_bound_value():
    table = PotentialOutcomeTable.random(NoInterference(5), 0.0, 1.0, seed=1)
    terms = neyman_variance_terms(table, n_a=2)
    assert terms.bound == pytest.approx(1.0)


@pytest.mark.parametrize("n,n_a,seed", [(6, 3, 0), (6, 2, 1), (8, 3, 2), (12, 5, 3), (12, 1, 4)])
def test_neyman_identity_matches_enumeration(n, n_a, seed):
    table = PotentialOutcomeTable.random(NoInterference(n), 0.0, 1.0, seed=seed)
    terms = neyman_variance_terms(table, n_a)
    report = exact_moments(DifferenceInMeans(), Design("crd", n, n_a), table, ATE)
    assert abs(report.variance - terms.variance) <= 1e-10
    assert report.variance <= terms.bound


def test_neyman_preconditions():
    table = PotentialOutcomeTable.random(NoInterference(4), 0.0, 1.0, seed=0)
    with pytest.raises(InvalidArgumentError):
        neyman_variance_terms(table, n_a=0)
    arb = PotentialOutcomeTable.random(Arbitrary(3), 0.0, 1.0, seed=0)
    with pytest.raises(InvalidArgumentError):
        neyman_variance_terms(arb, n_a=1)


def test_ht_closed_form_two_node_complete():
    graph = Graph.from_edges(2, combinations(range(2), 2))
    table = _constant_klocal_table(graph, 1, 1.0)
    terms = ht_variance_closed_form(graph, 1, table)
    assert (terms.v_a, terms.v_b, terms.cov, terms.total) == (3.0, 3.0, -1.0, 8.0)


def test_ht_closed_form_empty_graph_covariance():
    table = PotentialOutcomeTable(NoInterference(3), [[1.5, 1.5]] * 3)
    terms = ht_variance_closed_form(empty_graph(3), 1, table)
    assert terms.cov == pytest.approx(-(1.5**2) / 3)


def test_ht_closed_form_single_node():
    table = PotentialOutcomeTable(NoInterference(1), [[2.0, 3.0]])
    terms = ht_variance_closed_form(empty_graph(1), 1, table)
    assert terms.v_a == (2 - 1) * 4.0
    assert terms.total == pytest.approx((2.0 + 3.0) ** 2)


@pytest.mark.parametrize("seed", range(8))
def test_ht_closed_form_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    graph = sample_er_graph(ERSpec(n, float(rng.uniform(0.1, 0.7))), seed + 100)
    for k in (0, 1, 2):  # k = 0: every ball is the unit alone
        structure = KLocal(graph, k)
        table = PotentialOutcomeTable.random(structure, 0.0, 1.0, seed=seed + 200)
        terms = ht_variance_closed_form(graph, k, table)
        ht = HorvitzThompson(structure.index)
        report = exact_moments(ht, Design("bd", n), table, ATE)
        assert abs(terms.total - report.variance) <= 1e-10
        # unbiasedness rides along
        assert abs(report.expectation - estimand_value(ATE, table)) <= 1e-10


@pytest.mark.parametrize("n", [11, 12, 13, 14])
def test_ht_closed_form_matches_enumeration_above_ten(n):
    # the 1e-10 gates stop at n = 10; above it the two paths still agree
    # to a few ulps (6.3e-16 relative at worst over these 24 cases)
    for seed in range(3):
        graph = sample_er_graph(ERSpec(n, 1.5 / math.sqrt(n)), 10 * n + seed)
        for k in (1, 2):
            structure = KLocal(graph, k)
            table = PotentialOutcomeTable.random(structure, 0.0, 1.0, seed=20 * n + seed)
            closed = ht_variance_closed_form(graph, k, table).total
            report = exact_moments(HorvitzThompson(structure.index), Design("bd", n), table, ATE)
            assert abs(closed - report.variance) <= 1e-13 * report.variance


@pytest.mark.parametrize("rel,raises", [(1e-7, True), (1e-12, False)])
def test_moment_identity_tolerance(monkeypatch, rel, raises):
    # the MSE sum alone is perturbed: by 1e-7 it breaks mse = var + bias^2
    # beyond the 1e-9 relative slack, by 1e-12 it stays within it
    graph = sample_er_graph(ERSpec(6, 0.5), 7)
    structure = KLocal(graph, 1)
    table = PotentialOutcomeTable.random(structure, 0.0, 1.0, seed=7)
    args = (HorvitzThompson(structure.index), Design("bd", 6), table, ATE)
    mse = exact_moments(*args).mse_vs_estimand
    assert mse > 1.0  # so the slack is relative, not the absolute floor
    sums = []

    def perturbed(values, p, c):
        sums.append(_weighted_square_sum(values, p, c))
        # the variance is summed first, then the MSE
        return sums[-1] * (1.0 + rel) if len(sums) == 2 else sums[-1]

    monkeypatch.setattr(exact, "_weighted_square_sum", perturbed)
    if raises:
        with pytest.raises(IdentityViolationError, match="moment identity violated"):
            exact_moments(*args)
    else:
        assert exact_moments(*args).mse_vs_estimand == mse * (1.0 + rel)
    assert len(sums) == 2


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pure_arm_and_solo_rules_exactly_unbiased(n):
    from interference_lab import PureArmIPW

    table = PotentialOutcomeTable.random(Arbitrary(n), 0.0, 1.0, seed=n)
    rep = exact_moments(PureArmIPW(), Design("bd", n), table, ATE)
    assert abs(rep.expectation - estimand_value(ATE, table)) <= 1e-12
    solo = SoloTreatmentEffect()
    rep = exact_moments(SoloTreatedIPW(Design("bd", n)), Design("bd", n), table, solo)
    assert abs(rep.expectation - estimand_value(solo, table)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_solo_rule_is_unbiased_wherever_the_support_holds_the_solo_rows(n):
    # the rule weighs each solo row by |S| / n, its inverse probability; the
    # fair coin's 2^n / n would be biased by 2^n / (2^n - 2) under cbd
    solo = SoloTreatmentEffect()
    table = PotentialOutcomeTable.random(Arbitrary(n), 0.0, 1.0, seed=40 + n)
    for design in (Design("bd", n), Design("cbd", n), Design("crd", n, 1)):
        rep = exact_moments(SoloTreatedIPW(design), design, table, solo)
        assert abs(rep.expectation - estimand_value(solo, table)) <= 1e-10, design


def test_identity_holds_on_the_solo_rule_far_from_zero():
    # crd (5, 1) solo on the witness family over [1e15, 1e15 + 1]: the
    # summed values sit near 1e15, where a double's ulp is 0.125, so a
    # correct computation can read mse 0.1625 against var + bias^2 0.18125
    design, solo = Design("crd", 5, 1), SoloTreatmentEffect()
    reports = [
        exact_moments(SoloTreatedIPW(design), design, _column_table(column), solo)
        for column in default_witness_family(5, solo, (1e15, 1e15 + 1.0))
    ]
    assert len(reports) == 18
    assert max(abs(r.mse_vs_estimand - r.variance - (r.expectation - r.estimand_value) ** 2)
               for r in reports) > 1e-9


def _column_table(column):
    """The arbitrary-interference table whose units all read ``column``."""
    n = len(column).bit_length() - 1
    return PotentialOutcomeTable(Arbitrary(n), [column] * n)


@pytest.mark.parametrize("offset", [0.0, 1e15])
def test_identity_off_by_a_millionth_raises_at_every_scale(monkeypatch, offset):
    # the MSE sum alone is perturbed by 1e-6 max(1, mse), on outcomes in
    # (offset, offset + 1); the solo rule under bd sums values near 6.4
    # offset, yet the slack for their size stays far below the perturbation
    # (at crd (5, 1) above, mse 0.16 sits below the values' rounding, and
    # no check can see 1e-6 of it)
    design, solo = Design("bd", 5), SoloTreatmentEffect()
    outcomes = offset + np.random.default_rng(9).random((5, 32))
    table = PotentialOutcomeTable(Arbitrary(5), outcomes)
    args = (SoloTreatedIPW(design), design, table, solo)
    mse = exact_moments(*args).mse_vs_estimand
    sums = []

    def perturbed(values, p, c):
        sums.append(_weighted_square_sum(values, p, c))
        # the variance is summed first, then the MSE
        return sums[-1] + 1e-6 * max(1.0, sums[-1]) if len(sums) == 2 else sums[-1]

    monkeypatch.setattr(exact, "_weighted_square_sum", perturbed)
    with pytest.raises(IdentityViolationError, match="moment identity violated"):
        exact_moments(*args)
    assert len(sums) == 2 and sums[1] == mse


@pytest.mark.parametrize("m", [1.0, 2.5])
def test_pure_arm_variance_grows_as_two_to_the_n_without_structure(m):
    # the M-table of the unrestricted pair: every unit reads M at the all-A
    # code and 0 elsewhere, so the rule reads 2^n M there, -0.0 at all-B
    # and 0 elsewhere, and its variance is (2^n - 1) M^2, exact in doubles
    from interference_lab import PureArmIPW

    for n in range(1, 15):
        column = np.zeros(1 << n)
        column[0] = m
        rep = exact_moments(PureArmIPW(), Design("bd", n), _column_table(column), ATE)
        assert rep.estimand_value == m
        assert rep.expectation == m
        assert rep.variance == (2**n - 1) * m * m
        assert rep.mse_vs_estimand == rep.variance


def test_diff_means_biased_under_arbitrary_interference():
    # pure spillover: every unit's outcome is the share of units in arm A,
    # so the ATE is 1, while crd(4, 2) always puts two units in each arm
    # and the difference in means reads 0 at every support code
    spill = np.array([(4 - code.bit_count()) / 4 for code in range(16)])
    table = PotentialOutcomeTable(Arbitrary(4), [spill] * 4)
    report = exact_moments(DifferenceInMeans(), Design("crd", 4, 2), table, ATE)
    assert estimand_value(ATE, table) == 1.0
    assert report.expectation - estimand_value(ATE, table) == -1.0


# |v - c| stays below 2e300, so a deviation never overflows before it is
# squared; squares of deviations near 1e200 do, and fsum's sum can too.
_DOUBLES = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300))
# The largest deviation whose square (1.7976931348623155e308) is finite;
# the next double's square is inf.
_SQRT_MAX = math.sqrt(sys.float_info.max)


def _check_square_reduction(values, p, c):
    values = np.array(values, dtype=float)
    try:
        expected = math.fsum(p * ((v - c) * (v - c)) for v in values.tolist())
    except OverflowError:  # finite squares whose sum passes the double range
        expected = math.inf
    if expected == math.inf:  # or an infinite square
        with pytest.raises(OverflowError):
            _weighted_square_sum(values, p, c)
        return
    assert _weighted_square_sum(values, p, c) == expected


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    values=st.lists(_DOUBLES, min_size=1, max_size=40),
    p=st.sampled_from([1.0, 0.5**14, 1.0 / 3432, 1.0 / 62, 0.3]),
    c=_DOUBLES,
)
@example(values=[1e200, -3.0], p=0.5, c=0.0)
@example(values=[1.3e154, 1.3e154], p=1.0, c=0.0)
@example(values=[_SQRT_MAX], p=1.0, c=0.0)  # square 1.7976931348623155e308
@example(values=[math.nextafter(_SQRT_MAX, math.inf)], p=1.0, c=0.0)  # square inf
def test_square_reduction_matches_the_scalar_fsum(values, p, c):
    _check_square_reduction(values, p, c)


def test_square_reduction_matches_on_uniform_draws():
    # each square is the correctly rounded square of the rounded deviation,
    # and p = 2^-14 scales it exactly; CPython's (v - c) ** 2 (glibc pow on
    # x86-64) misses it on 14 of these 20,000 draws, a difference a long sum
    # rounds away, so each draw is reduced alone (about 1 s of tier-1)
    rng = np.random.default_rng(0)
    c = rng.uniform(-1.0, 1.0)
    for v in rng.uniform(-10.0, 10.0, 20000).tolist():
        want = float(Fraction(v - c) ** 2) * 2.0**-14
        assert _weighted_square_sum(np.array([v]), 0.5**14, c) == want


# Every finite double (subnormals, +-0.0 and +-max included), small values,
# and the extremes by name.
_SUMMANDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.0**1022, -(2.0**1023)]
    ),
)


@st.composite
def _summand_lists(draw):
    """A list of summands and, shuffled in, the negations of some of them."""
    values = draw(st.lists(_SUMMANDS, max_size=60))
    cancelled = values[: draw(st.integers(0, len(values)))]
    return draw(st.permutations(values + [-v for v in cancelled]))


def _check_exact_sum(values):
    array = np.array(values, dtype=float)
    try:
        expected = math.fsum(values)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            _exact_sum(array)
        return
    got = _exact_sum(array)
    if math.isnan(expected):
        assert math.isnan(got)
        return
    assert got == expected
    assert math.copysign(1.0, got) == math.copysign(1.0, expected)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(values=_summand_lists())
@example(values=[])
@example(values=[-0.0])
@example(values=[-0.0, -0.0])
@example(values=[5e-324] * 3)
@example(values=[1e308, 1e308, -1e308])  # fsum raises OverflowError
@example(values=[1.7976931348623157e308, -1.7976931348623157e308, 1.0])
@example(values=[math.inf, 1.0])
@example(values=[math.inf, -math.inf])
@example(values=[math.nan, 1.0])
def test_exact_sum_matches_fsum(values):
    _check_exact_sum(values)


@pytest.mark.parametrize("size", [2**14, 2**20])
def test_exact_sum_matches_fsum_on_seeded_arrays(size):
    rng = np.random.default_rng(size)
    spread = rng.uniform(-1.0, 1.0, size) * 2.0 ** rng.integers(-80, 80, size)
    for values in (rng.uniform(0.0, 3.0, size), spread):
        _check_exact_sum(values.tolist())


def test_exact_sum_matches_fsum_across_blocks(monkeypatch):
    # blocks of 2^8 values in passes of 2^4: every block's bucket sums go to
    # fsum on their own
    monkeypatch.setattr(exact, "_EXACT_BLOCK", 2**8)
    monkeypatch.setattr(exact, "_SUM_CHUNK", 2**4)
    rng = np.random.default_rng(3)
    values = rng.uniform(-1.0, 1.0, 5000) * 2.0 ** rng.integers(-1074, 1000, 5000)
    _check_exact_sum(values.tolist())
    _check_exact_sum(np.concatenate((values, -values[::-1])).tolist())
