"""Array evaluation against per-assignment reference bodies.

Claims pinned here:
    - each estimator's ``evaluate`` equals the scalar rule written one
      assignment at a time (the references below) bit for bit, compared as
      int64 bit patterns so that the sign of a zero counts, on every support
      code in blocks of 7, 256 and ``SUPPORT_BLOCK`` codes and in one-row
      blocks (the one-assignment call), on a random table's outcomes and on
      hand-built blocks that hold negative values, zeros and -0.0.  So
      every row keeps its floating-point order: the difference in means
      with arms of 8 or more values, where numpy's pairwise sum and a
      sequential sum part ways, under bd, crd and cbd, up to n = 14 under
      bd and crd (14, 7); the exposure-weighted estimator on k = 0, 1 and 2
      graphs; the pure-arm rule; the solo-treated rule; and a tabular
      estimator
    - the exposure-weighted estimator adds its unit rows into the total
      with one ``+=`` each, in unit order, rather than reducing over the
      unit axis: numpy sums a one-row block's unit axis pairwise
      (``np.add.reduce`` or ``.sum(axis=0)``), which moves the bits of a
      row that a larger block sums in unit order
"""

import numpy as np
import pytest

from interference_lab import (
    Arbitrary,
    Assignment,
    Design,
    DifferenceInMeans,
    ERSpec,
    HorvitzThompson,
    KLocal,
    NeighborhoodIndex,
    PotentialOutcomeTable,
    PureArmIPW,
    SoloTreatedIPW,
    TabularEstimator,
    enumerate_support,
    observed_key,
    sample_er_graph,
)
from interference_lab.designs import SUPPORT_BLOCK

BLOCKS = (7, 256, SUPPORT_BLOCK)

# Per-assignment references: the estimators' bodies from before array
# evaluation, with ``est`` in place of ``self``.


def _ref_diff_in_means(est, z, y):
    mask_b = np.array([(z.code >> i) & 1 for i in range(z.n)], dtype=bool)
    n_b = int(mask_b.sum())
    n_a = z.n - n_b
    mean_a = float(y[~mask_b].sum() / n_a) if n_a else 0.0
    mean_b = float(y[mask_b].sum() / n_b) if n_b else 0.0
    return mean_a - mean_b


def _ref_horvitz_thompson(est, z, y):
    masks = [int(m) for m in est.index.masks()]
    weights = [2.0 ** len(ball) for ball in est.index.closed]
    total = 0.0
    for i in range(z.n):
        zi = z.code & masks[i]
        if zi == 0:
            total += weights[i] * y[i]
        elif zi == masks[i]:
            total -= weights[i] * y[i]
    return total / z.n


def _ref_pure_arm(est, z, y):
    if z.code == 0:
        return float(2.0**z.n) * float(np.mean(y))
    if z.code == (1 << z.n) - 1:
        return float(2.0**z.n) * -float(np.mean(y))
    return 0.0


def _ref_solo(est, z, y):
    if z.n - z.code.bit_count() != 1:
        return 0.0
    i = next(j for j in range(z.n) if not (z.code >> j) & 1)
    return (2.0**z.n / z.n) * float(y[i])


def _ref_tabular(est, z, y):
    return est.mapping[(z.code, observed_key(y))]


def _support_codes(design):
    return np.concatenate([codes for codes, _ in enumerate_support(design)])


def _hand_built(n, rows):
    """``rows`` outcome rows of n units that no random table reveals: normal
    draws, about a sixth of the cells 0.0 and a sixth -0.0, and every fifth
    row all -0.0."""
    rng = np.random.default_rng(n)
    y = rng.normal(scale=10.0, size=(rows, n))
    y[rng.random(y.shape) < 1 / 6] = 0.0
    y[rng.random(y.shape) < 1 / 6] = -0.0
    y[::5] = -0.0
    return y


def _dim(design):
    table = PotentialOutcomeTable.random(Arbitrary(design.n), 0.0, 100.0, seed=design.n)
    return DifferenceInMeans(), _ref_diff_in_means, design, table


def _ht(k):
    structure = KLocal(sample_er_graph(ERSpec(10, 0.25), seed=3), k)
    table = PotentialOutcomeTable.random(structure, 0.0, 1.0, seed=k)
    estimator = HorvitzThompson(NeighborhoodIndex.build(structure.graph, k))
    return estimator, _ref_horvitz_thompson, Design("bd", 10), table


def _pure_arm():
    estimator = PureArmIPW()
    table = PotentialOutcomeTable.random(Arbitrary(8), 0.0, 1.0, seed=5)
    return estimator, _ref_pure_arm, Design("bd", 8), table


def _solo():
    table = PotentialOutcomeTable.random(Arbitrary(8), 0.0, 1.0, seed=6)
    return SoloTreatedIPW(Design("bd", 8)), _ref_solo, Design("bd", 8), table


def _tabular():
    design = Design("bd", 6)
    table = PotentialOutcomeTable.random(Arbitrary(6), 0.0, 1.0, seed=7)
    rng = np.random.default_rng(7)
    codes = _support_codes(design)
    revealed = np.concatenate([table.observed(codes), _hand_built(6, len(codes))])
    mapping = {
        (code, observed_key(row)): float(rng.normal())
        for code, row in zip(np.tile(codes, 2).tolist(), revealed)
    }
    return TabularEstimator(mapping), _ref_tabular, design, table


CASES = {
    "dim-bd-12": lambda: _dim(Design("bd", 12)),
    "dim-crd-12-4": lambda: _dim(Design("crd", 12, 4)),
    "dim-cbd-11": lambda: _dim(Design("cbd", 11)),
    "dim-bd-14": lambda: _dim(Design("bd", 14)),
    "dim-crd-14-7": lambda: _dim(Design("crd", 14, 7)),
    "ht-k0": lambda: _ht(0),
    "ht-k1": lambda: _ht(1),
    "ht-k2": lambda: _ht(2),
    "pure-arm": _pure_arm,
    "solo": _solo,
    "tabular": _tabular,
}


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("case", sorted(CASES))
def test_evaluate_rows_equal_the_scalar_reference(case):
    estimator, reference, design, table = CASES[case]()
    codes = _support_codes(design)
    zs = [Assignment(code, design.n) for code in codes.tolist()]
    for y in (table.observed(codes), _hand_built(design.n, len(codes))):
        want = _bits([reference(estimator, z, row) for z, row in zip(zs, y)])
        for block in BLOCKS:
            starts = range(0, len(codes), block)
            got = [estimator.evaluate(codes[s : s + block], y[s : s + block]) for s in starts]
            assert np.array_equal(_bits(np.concatenate(got)), want), block
        assert np.array_equal(_bits([estimator(z, row) for z, row in zip(zs, y)]), want)
