"""Random-graph closed forms against exhaustive and Monte Carlo oracles.

Claims pinned here:
    - the three product-form moments equal the exhaustive oracle bit for
      bit at n in 2..10 on dyadic edge probabilities, and to 1e-12 off
      the dyadic grid
    - both oracles, which enumerate only the edges each term depends on,
      equal a plain-Python enumeration of every graph in exact rational
      arithmetic at n <= 5: bit for bit on dyadic edge probabilities, to
      1e-12 off the grid
    - the variance oracle equals the moment-based exact reference
      2c^2 [M1/n + (n-1)/n (M2 - P0)] up to n=10; n=11 is over the cap
    - the variance oracle, which scans unit 0 and pair (0, 1) once each,
      equals bit for bit a scan of every unit and every pair term, since
      ER nodes are exchangeable
    - the variance envelope: value 4 C^2/n at p=0, hand value at n=3,
      monotone non-decreasing in p, and sandwiching the exact
      graph-expected variance for separated outcome levels
    - sweep behavior: n * h bounded along p=1/n, strictly increasing lower
      bound along p=1/sqrt(n); a graph exactly on p=1/n classifies as
      sparse and one on p=1/sqrt(n) as dense
    - the expected effective-treatment count, which is the per-node moment
      under a second name, and the informative fraction hit their analytic
      limits
    - Monte Carlo replication is seed-deterministic, reproduces literal
      streams recorded from earlier versions, and lands within three
      standard errors of enumeration, and of the moment-based exact
      reference up to n = CODE_BITS, sparse and dense, with no replicate
      rejected; above it, Monte Carlo is refused before any graph is drawn
    - Monte Carlo evaluated in blocks of replicates equals a loop over one
      replicate at a time bit for bit, at every block size and seed chunk,
      for one-word and multiword seeds
    - the vectorized replicate seeding (``_pcg64.seed_states``) gives
      numpy's own PCG64 state of SeedSequence([seed, r]), for seeds of one
      to six 32-bit words and replicates on both sides of a seed-chunk
      boundary and up to 2^32 - 1;
      more than 2^32 replicates are refused before any graph is drawn
    - a Monte Carlo variance past the double range raises OverflowError
    - a graph draw past ``ER_DRAW_PAIR_CAP`` node pairs is refused before
      any pair is allocated, and one at the cap is not
    - each row of a block's neighborhood masks, built from the coin rows of
      the one coin draw, equals the BFS balls of the graph drawn from the
      same stream
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interference_lab import (
    CapacityError,
    NeighborhoodIndex,
    ConstantOutcomes,
    ERSpec,
    Graph,
    InvalidArgumentError,
    ORACLE_CAP,
    UniformOutcomes,
    classify_regime,
    dense_lower_bound,
    er,
    exhaustive_expected_variance,
    exhaustive_moments,
    expected_informative_fraction,
    h_bound,
    mc_expected_variance,
    moment_two_pow_nbhd,
    moment_two_pow_shared,
    prob_no_common,
    regime_report,
    sample_er_graph,
)
from interference_lab import _pcg64
from interference_lab._kernels import _mean, _pair_settings, ht_variance_terms
from interference_lab.designs import CODE_BITS
from graph_builders import empty_graph


def test_moment_values():
    spec = ERSpec(3, 0.5)
    assert moment_two_pow_nbhd(spec) == 4.5
    assert moment_two_pow_shared(spec) == 3.125
    assert prob_no_common(spec) == 0.375


def test_moment_edge_probabilities():
    assert moment_two_pow_nbhd(ERSpec(6, 0.0)) == 2.0
    assert moment_two_pow_nbhd(ERSpec(6, 1.0)) == 64.0
    assert moment_two_pow_shared(ERSpec(3, 0.0)) == 1.0
    assert moment_two_pow_shared(ERSpec(3, 1.0)) == 8.0
    assert prob_no_common(ERSpec(5, 0.0)) == 1.0
    assert prob_no_common(ERSpec(5, 1.0)) == 0.0


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_moments_match_enumeration_exactly(n, p):
    spec = ERSpec(n, p)
    oracle = exhaustive_moments(spec)
    assert moment_two_pow_nbhd(spec) == oracle.two_pow_nbhd
    assert moment_two_pow_shared(spec) == oracle.two_pow_shared
    assert prob_no_common(spec) == oracle.prob_no_common


@pytest.mark.parametrize("n", [3, 4, 5])
def test_moments_match_enumeration_off_dyadic(n):
    spec = ERSpec(n, 0.3)
    oracle = exhaustive_moments(spec)
    assert moment_two_pow_nbhd(spec) == pytest.approx(oracle.two_pow_nbhd, rel=1e-12)
    assert moment_two_pow_shared(spec) == pytest.approx(oracle.two_pow_shared, rel=1e-12)
    assert prob_no_common(spec) == pytest.approx(oracle.prob_no_common, rel=1e-12)


def _every_graph(n, p):
    """Moments of node 0 and pair (0, 1), and the graph-expected sum inside
    the constant-outcome closed-form variance, over every graph on n nodes
    with edge probability p, in exact rational arithmetic."""
    pairs = list(itertools.combinations(range(n), 2))
    m1 = m2 = p0 = total = Fraction(0)
    for present in itertools.product((False, True), repeat=len(pairs)):
        prob = Fraction(1)
        ball = [{i} for i in range(n)]
        for (u, v), on in zip(pairs, present):
            prob *= p if on else 1 - p
            if on:
                ball[u].add(v)
                ball[v].add(u)
        shared = ball[0] & ball[1]
        m1 += prob * 2 ** len(ball[0])
        m2 += prob * 2 ** len(shared)
        p0 += prob * (not shared)
        inner = n + sum(2 ** len(b) - 1 for b in ball)
        for i, j in itertools.permutations(range(n), 2):
            common = ball[i] & ball[j]
            inner += 2 ** len(common) - 1 + (1 if common else 0)
        total += prob * inner
    return m1, m2, p0, total


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "p", [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
)
def test_oracles_equal_every_graph_enumeration_on_dyadic_p(n, p):
    m1, m2, p0, total = _every_graph(n, p)
    c = Fraction(3, 2)
    spec = ERSpec(n, float(p))
    oracle = exhaustive_moments(spec)
    assert oracle.two_pow_nbhd == float(m1)
    assert oracle.two_pow_shared == float(m2)
    assert oracle.prob_no_common == float(p0)
    assert exhaustive_expected_variance(spec, float(c)) == float(total * 2 * c * c / n**2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_oracles_equal_every_graph_enumeration_off_dyadic(n):
    p = Fraction(3, 10)
    m1, m2, p0, total = _every_graph(n, p)
    spec = ERSpec(n, float(p))
    oracle = exhaustive_moments(spec)
    assert oracle.two_pow_nbhd == pytest.approx(float(m1), rel=1e-12)
    assert oracle.two_pow_shared == pytest.approx(float(m2), rel=1e-12)
    assert oracle.prob_no_common == pytest.approx(float(p0), rel=1e-12)
    want = float(total * 2 / n**2)
    assert exhaustive_expected_variance(spec, 1.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n, p", [(8, 0.3), (10, 0.25), (10, 0.3)])
def test_variance_oracle_matches_moment_reference(n, p):
    # linearity of expectation over the per-graph closed form, constant c
    spec = ERSpec(n, p)
    c = 1.3
    m1 = moment_two_pow_nbhd(spec)
    m2 = moment_two_pow_shared(spec)
    p0 = prob_no_common(spec)
    want = 2 * c * c * (m1 / n + (n - 1) / n * (m2 - p0))
    assert exhaustive_expected_variance(spec, c) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 1.0])
def test_variance_oracle_equals_every_term_scan(n, p):
    sizes = np.arange(n + 1)
    unit_term = np.ldexp(1.0, sizes) - 1.0
    pair_term = 2.0 * unit_term + 2.0 * (sizes > 0)
    terms = [float(n)]
    for i in range(n):
        for j in range(i, n):  # j == i scans the unit's own edges; N_i & N_i = N_i
            nbhd_i, nbhd_j, present, prob = _pair_settings(n, i, j, p)
            term = unit_term if i == j else pair_term
            terms.append(_mean(nbhd_i & nbhd_j, present, prob, term))
    for c in (1.0, 1.37, 1.5):
        want = math.fsum(terms) * 2.0 * c * c / (n * n)
        assert exhaustive_expected_variance(ERSpec(n, p), c) == want


def test_h_bound_values():
    assert h_bound(1.0, ERSpec(5, 0.0)) == pytest.approx(4.0 / 5)
    assert h_bound(1.0, ERSpec(3, 0.5)) == pytest.approx(8.5)
    assert h_bound(2.0, ERSpec(3, 0.5)) == pytest.approx(34.0)  # scales as C^2
    with pytest.raises(InvalidArgumentError):
        h_bound(0.0, ERSpec(3, 0.5))


@pytest.mark.parametrize("n", [4, 8, 16])
def test_h_bound_monotone_in_p(n):
    grid = [i * 0.05 for i in range(21)]
    values = [h_bound(1.0, ERSpec(n, p)) for p in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_h_bound_sandwiches_exact_value():
    # constant outcome level separated from both declared bounds
    k_lower, level, m_upper = 1.0, 2.0, 3.0
    for p in (0.1, 0.3, 0.6):
        exact = exhaustive_expected_variance(ERSpec(6, p), level)
        assert h_bound(k_lower, ERSpec(6, p)) <= exact <= h_bound(m_upper, ERSpec(6, p))


def test_exhaustive_variance_closed_form_at_p_zero():
    # empty graph surely: variance is 4 C^2 / n
    assert exhaustive_expected_variance(ERSpec(4, 0.0), 1.5) == pytest.approx(
        4 * 1.5**2 / 4
    )


def test_exhaustive_caps():
    assert ORACLE_CAP == 10
    with pytest.raises(CapacityError):
        exhaustive_expected_variance(ERSpec(11, 0.5), 1.0)
    with pytest.raises(CapacityError):
        exhaustive_moments(ERSpec(11, 0.5))
    assert exhaustive_expected_variance(ERSpec(8, 0.5), 1.0) > 0
    assert exhaustive_moments(ERSpec(8, 0.5)).two_pow_nbhd > 0


def test_regime_reports():
    sparse = regime_report(100, "sparse", 1.0, 1.0)
    assert sparse.p == pytest.approx(0.01)
    assert sparse.value == pytest.approx(h_bound(1.0, ERSpec(100, 0.01)))
    assert sparse.trend == "vanishing"
    dense = regime_report(100, "dense", 1.0, 1.0)
    assert dense.p == pytest.approx(0.1)
    assert dense.value == pytest.approx(797.2148175292118)
    assert dense.trend == "diverging"
    with pytest.raises(InvalidArgumentError):
        regime_report(2, "sparse", 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        regime_report(16, "cluster", 1.0, 1.0)


def test_sparse_sweep_stays_bounded():
    values = []
    n = 8
    while n <= 1024:
        values.append(n * regime_report(n, "sparse", 1.0, 1.0).value)
        n *= 2
    assert max(values) <= 3.0 * values[0]


def test_dense_sweep_strictly_increases():
    values = []
    n = 8
    while n <= 1024:
        values.append(regime_report(n, "dense", 1.0, 1.0).value)
        n *= 2
    assert all(b > a for a, b in zip(values, values[1:]))


def test_dense_lower_bound_overflow_guard():
    assert dense_lower_bound(10**6, 1.0) == math.inf
    assert expected_informative_fraction(ERSpec(10**6, 0.5)) == 0.0


def test_classify_regime():
    assert classify_regime(ERSpec(100, 0.001)) == "sparse"
    assert classify_regime(ERSpec(100, 0.5)) == "dense"
    assert classify_regime(ERSpec(100, 0.05)) == "intermediate"
    # the boundaries belong to the regimes, as in regime_report
    assert classify_regime(ERSpec(15, 1 / 15)) == "sparse"
    assert classify_regime(ERSpec(16, 1 / 4)) == "dense"


def test_effective_treatment_expectations():
    assert er.expected_effective_treatments is er.moment_two_pow_nbhd
    assert moment_two_pow_nbhd(ERSpec(10, 0.0)) == 2.0
    assert expected_informative_fraction(ERSpec(10, 0.0)) == 0.5
    assert moment_two_pow_nbhd(ERSpec(4, 1.0)) == 16.0
    assert expected_informative_fraction(ERSpec(4, 1.0)) == 0.5**4

    near = moment_two_pow_nbhd(ERSpec(200, 1 / 200))
    assert abs(near - 2 * math.e) / (2 * math.e) < 0.01
    frac = expected_informative_fraction(ERSpec(200, 1 / 200))
    limit = 0.5 * math.exp(-0.5)
    assert abs(frac - limit) / limit < 0.01
    assert expected_informative_fraction(ERSpec(400, 1 / 20)) < 1e-4


def test_expected_counts_match_graph_enumeration():
    spec = ERSpec(4, 0.25)
    oracle = exhaustive_moments(spec)
    assert moment_two_pow_nbhd(spec) == oracle.two_pow_nbhd


def test_moments_match_monte_carlo_at_n8():
    # beyond the exhaustive-scan range: sampled graphs, 4-standard-error gate
    spec = ERSpec(8, 0.35)
    reps = 3000
    nbhd, shared, disjoint = [], [], []
    for rep in range(reps):
        index = NeighborhoodIndex.build(sample_er_graph(spec, 40_000 + rep), 1)
        nbhd.append(2.0 ** len(index.closed[0]))
        inter = index.closed[0] & index.closed[1]
        shared.append(2.0 ** len(inter))
        disjoint.append(1.0 if not inter else 0.0)
    for values, closed in (
        (nbhd, moment_two_pow_nbhd(spec)),
        (shared, moment_two_pow_shared(spec)),
        (disjoint, prob_no_common(spec)),
    ):
        mean = float(np.mean(values))
        stderr = float(np.std(values, ddof=1)) / math.sqrt(reps)
        assert abs(mean - closed) <= 4 * stderr


def test_sample_er_graph_determinism_and_extremes():
    g1 = sample_er_graph(ERSpec(8, 0.4), seed=5)
    g2 = sample_er_graph(ERSpec(8, 0.4), seed=5)
    assert g1 == g2
    assert sample_er_graph(ERSpec(5, 0.0), seed=1) == empty_graph(5)
    complete = Graph.from_edges(5, itertools.combinations(range(5), 2))
    assert sample_er_graph(ERSpec(5, 1.0), seed=1) == complete


@pytest.mark.parametrize("n,refused", [(2896, False), (2897, True)])
def test_er_draw_cap_is_checked_before_any_pair_is_made(monkeypatch, n, refused):
    # n = 2896 is the largest size within 2^22 node pairs, so its draw goes
    # on to allocate them; one node more is refused before that
    class Allocated(Exception):
        pass

    def allocate(*args, **kwargs):
        raise Allocated

    assert (n * (n - 1) // 2 > er.ER_DRAW_PAIR_CAP) == refused
    monkeypatch.setattr(np, "triu_indices", allocate)
    with pytest.raises(CapacityError if refused else Allocated):
        sample_er_graph(ERSpec(n, 0.5), seed=0)


def test_mc_constant_at_p_zero_is_degenerate():
    mc = mc_expected_variance(ERSpec(5, 0.0), ConstantOutcomes(2.0), reps=10, seed=3)
    assert mc.mean == pytest.approx(4 * 2.0**2 / 5)
    assert mc.stderr == 0.0
    assert mc.reps_rejected == 0
    # degenerate sandwich: the envelope at the same level coincides
    assert mc.mean == pytest.approx(h_bound(2.0, ERSpec(5, 0.0)))


def test_mc_determinism():
    spec = ERSpec(6, 0.3)
    a = mc_expected_variance(spec, ConstantOutcomes(1.0), reps=64, seed=9)
    b = mc_expected_variance(spec, ConstantOutcomes(1.0), reps=64, seed=9)
    assert a == b
    c = mc_expected_variance(spec, UniformOutcomes(0.5, 1.0), reps=64, seed=9)
    d = mc_expected_variance(spec, UniformOutcomes(0.5, 1.0), reps=64, seed=9)
    assert c == d


def test_random_streams_pinned_across_versions():
    # One scalar draw per node pair in lexicographic order is the reference
    # stream; the literals below were recorded from it, so a change to the
    # sampler cannot shift the graphs, or the outcome draws that follow them,
    # without failing here.
    for n in (2, 5, 15):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            loop = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
            assert sample_er_graph(ERSpec(n, 0.3), seed).edges == loop
    edges = sorted(sample_er_graph(ERSpec(8, 0.4), 5).edges)
    assert edges == [
        (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 6),
        (2, 6), (3, 5), (3, 7), (4, 6), (5, 7),
    ]
    mc = mc_expected_variance(
        ERSpec(30, 1 / 30), UniformOutcomes(0.5, 1.0), reps=50, seed=7
    )
    assert mc.mean == 0.41600951264508884
    assert mc.stderr == 0.016305635265719376
    assert (mc.reps_used, mc.reps_rejected) == (50, 0)


def test_mc_within_three_stderr_of_enumeration():
    spec = ERSpec(6, 0.3)
    exact = exhaustive_expected_variance(spec, 1.0)
    mc = mc_expected_variance(spec, ConstantOutcomes(1.0), reps=500, seed=12)
    assert abs(mc.mean - exact) <= 3 * mc.stderr


CODE_WIDTH_SPECS = [ERSpec(CODE_BITS, 1 / CODE_BITS), ERSpec(40, 0.6), ERSpec(CODE_BITS, 0.5)]
POLICIES = [ConstantOutcomes(1.37), UniformOutcomes(0.5, 1.0)]


@pytest.mark.parametrize("spec", CODE_WIDTH_SPECS, ids=["sparse-63", "dense-40", "dense-63"])
def test_mc_at_the_code_width_matches_the_moment_reference(spec):
    # the dense cases carry balls of up to CODE_BITS nodes; every replicate
    # must count, or the average leaves the ER law
    n = spec.n
    m1 = moment_two_pow_nbhd(spec)
    m2 = moment_two_pow_shared(spec)
    p0 = prob_no_common(spec)
    want = 2 * (m1 / n + (n - 1) / n * (m2 - p0))  # c = 1
    mc = mc_expected_variance(spec, ConstantOutcomes(1.0), reps=400, seed=7)
    assert (mc.reps_used, mc.reps_rejected) == (400, 0)
    assert abs(mc.mean - want) <= 3 * mc.stderr


def _mc_one_replicate_at_a_time(spec, policy, reps, seed):
    """Monte Carlo as a loop over replicates: each graph built from its own
    coin draw, its masks from the BFS balls, and its closed form evaluated
    as a one-graph block."""
    n = spec.n
    left, right = np.triu_indices(n, 1)
    values = []
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
        keep = er._draw_edges(spec, rng, np.empty(left.size, dtype=bool))
        graph = Graph.from_edges(n, zip(left[keep].tolist(), right[keep].tolist()))
        masks = NeighborhoodIndex.build(graph, 1).masks()
        if isinstance(policy, ConstantOutcomes):
            y_a = y_b = np.full(n, policy.value)
        else:
            y_a = rng.uniform(policy.k_lower, policy.m_upper, size=n)
            y_b = rng.uniform(policy.k_lower, policy.m_upper, size=n)
        terms = ht_variance_terms(masks[None], y_a[None], y_b[None])
        v_a, v_b, cov = (float(t[0]) for t in terms)
        values.append(v_a + v_b - 2.0 * cov)
    mean = math.fsum(values) / reps
    sample_var = math.fsum((v - mean) ** 2 for v in values) / (reps - 1)
    return er.MCVariance(mean, math.sqrt(sample_var / reps), reps, 0)


@pytest.mark.parametrize("policy", POLICIES, ids=["constant", "uniform"])
@pytest.mark.parametrize("spec", CODE_WIDTH_SPECS, ids=["sparse-63", "dense-40", "dense-63"])
def test_mc_blocks_equal_one_replicate_at_a_time(spec, policy, monkeypatch):
    # 23 reps fill no whole number of blocks (4 at n = 63, 10 at n = 40)
    # nor of 5-replicate seed chunks; 2^64 + 5 is a three-word seed
    reps = 23
    assert reps % max(1, er.MC_BLOCK_PAIRS // spec.n**2) != 0
    for seed in (5, 2**64 + 5):
        want = _mc_one_replicate_at_a_time(spec, policy, reps, seed)
        with monkeypatch.context() as patch:
            assert mc_expected_variance(spec, policy, reps, seed) == want
            # one replicate per block, the whole run in one
            for pairs in (1, reps * spec.n**2):
                patch.setattr(er, "MC_BLOCK_PAIRS", pairs)
                assert mc_expected_variance(spec, policy, reps, seed) == want
            patch.setattr(er, "SEED_CHUNK", 5)
            assert mc_expected_variance(spec, policy, reps, seed) == want


# seeds of 1, 1, 2, 3, 4 and 6 words: the last two carry entropy words past
# SeedSequence's 4-word pool
@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**200),
    start=st.integers(0, er.MAX_REPS - 4),
    count=st.integers(1, 4),
)
@example(seed=0, start=0, count=er.SEED_CHUNK + 1)
@example(seed=2**32 - 1, start=0, count=er.SEED_CHUNK + 1)
@example(seed=2**32, start=0, count=er.SEED_CHUNK + 1)
@example(seed=2**64 + 1, start=0, count=er.SEED_CHUNK + 1)
@example(seed=2**127, start=0, count=er.SEED_CHUNK + 1)
@example(seed=2**160 + 9, start=0, count=er.SEED_CHUNK + 1)
@example(seed=2**160 + 9, start=er.MAX_REPS - 2, count=2)
def test_replicate_states_equal_numpy_seeding(seed, start, count):
    want = []
    for r in range(start, start + count):
        state = np.random.PCG64(np.random.SeedSequence([seed, r])).state["state"]
        want.append((state["state"], state["inc"]))
    words = _pcg64.seed_words(seed, count) + [np.arange(start, start + count, dtype=np.uint32)]
    assert _pcg64.seed_states(words) == want


def test_mc_refuses_more_replicates_than_one_index_word(monkeypatch):
    drawn = []
    monkeypatch.setattr(er, "_draw_edges", lambda spec, rng, out: drawn.append(spec.n))
    with pytest.raises(CapacityError, match=r"reps <= 2\^32"):
        mc_expected_variance(ERSpec(6, 0.3), ConstantOutcomes(1.0), er.MAX_REPS + 1, seed=7)
    assert drawn == []


@pytest.mark.parametrize(
    "policy", [ConstantOutcomes(1e200), UniformOutcomes(1e200, 2e200)], ids=["constant", "uniform"]
)
def test_mc_past_the_double_range_raises_overflow(policy):
    with pytest.raises(OverflowError, match="Monte Carlo variance past the double range"):
        mc_expected_variance(ERSpec(15, 1 / 15), policy, reps=10, seed=7)


def test_mc_refuses_wide_graphs_before_drawing(monkeypatch):
    drawn = []
    draw_edges = er._draw_edges

    def counted_draw(spec, rng, out):
        drawn.append(spec.n)
        return draw_edges(spec, rng, out)

    monkeypatch.setattr(er, "_draw_edges", counted_draw)
    # positive control: at the code width, every replicate draws through it
    mc_expected_variance(ERSpec(CODE_BITS, 0.01), ConstantOutcomes(1.0), reps=10, seed=7)
    assert drawn == [CODE_BITS] * 10
    drawn.clear()
    for n in (CODE_BITS + 1, 100, 10**400):
        with pytest.raises(CapacityError):
            mc_expected_variance(ERSpec(n, 0.01), ConstantOutcomes(1.0), reps=10, seed=7)
    assert drawn == []


@pytest.mark.parametrize("n", [2, 5, 15, 62, CODE_BITS])
def test_masks_from_edges_equal_the_bfs_balls(n):
    # one block of graphs, one row per (p, seed), built from the coin rows
    draws = [(ERSpec(n, p), seed) for p in (0.0, 1 / n, 0.5, 1.0) for seed in range(4)]
    pairs = np.triu_indices(n, 1)
    keep = np.empty((len(draws), pairs[0].size), dtype=bool)
    for row, (spec, seed) in zip(keep, draws):
        er._draw_edges(spec, np.random.default_rng(seed), row)
    masks = er._block_masks(keep, pairs, np.empty((len(draws), n), dtype=np.int64))
    for row, (spec, seed) in zip(masks, draws):
        graph = sample_er_graph(spec, seed)
        want = NeighborhoodIndex.build(graph, 1).masks()
        assert row.dtype == want.dtype and (row == want).all()


def test_mc_validation():
    with pytest.raises(InvalidArgumentError):
        mc_expected_variance(ERSpec(6, 0.3), ConstantOutcomes(1.0), reps=1, seed=0)
    with pytest.raises(InvalidArgumentError):
        mc_expected_variance(ERSpec(6, 0.3), ConstantOutcomes(1.0), reps=2, seed=-1)


def test_erspec_validation():
    with pytest.raises(InvalidArgumentError):
        ERSpec(1, 0.5)
    with pytest.raises(InvalidArgumentError):
        ERSpec(5, 1.5)
