"""Design laws: point masses, support enumeration, sampling, exposure events.

Claims pinned here:
    - pmf matches the closed forms for all three designs, zero off support
    - enumerated support probabilities sum to 1 within 1e-12
    - the conditional design kills the two pure vectors; the fixed-count
      design kills everything with the wrong arm count
    - sampling is deterministic given the seed, lands in the support, and
      passes a chi-square goodness-of-fit check against the pmf
    - fair-coin exposure probabilities equal enumeration frequencies exactly
    - the bit gather packs the same sub-codes from an int64 code array as
      from each code alone, and from one Python int at any n
"""

import math

import numpy as np
import pytest

from interference_lab import (
    Assignment,
    CapacityError,
    Design,
    InvalidArgumentError,
    UnsupportedDesignError,
    enumerate_support,
    exposure_probability,
    pmf,
    sample,
    support_size,
)
from interference_lab.designs import restrict_codes


def test_assignment_roundtrip():
    z = Assignment.from_arms("ABBA")
    assert z.labels == "ABBA"
    assert z.code == 0b0110
    assert z.n_a == 2 and z.n_b == 2
    assert z.arm(0) == "A" and z.arm(1) == "B"
    assert Assignment(z.code, 4) == z
    assert Assignment.all_a(3).labels == "AAA"
    assert Assignment.all_b(3).labels == "BBB"
    assert Assignment.solo_a(1, 3).labels == "BAB"
    assert list(z.bits()) == [0, 1, 1, 0]
    assert z.with_arm(0, "B").labels == "BBBA"


def test_assignment_validation():
    with pytest.raises(InvalidArgumentError):
        Assignment(8, 3)
    with pytest.raises(InvalidArgumentError):
        Assignment.from_arms("AXA")
    with pytest.raises(InvalidArgumentError):
        Assignment.from_arms("AB").arm(5)


def test_restrict_code_ascending_order():
    z = Assignment.from_arms("ABAB")
    # nodes {1, 3} are both B -> sub-code 0b11
    assert z.restrict_code([3, 1]) == 0b11
    assert z.restrict_code([0, 2]) == 0
    assert z.restrict_code([0, 1]) == 0b10


def test_restrict_codes_array_matches_scalar():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 15))
        nodes = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        codes = rng.integers(0, 1 << n, size=64, dtype=np.int64)
        packed = restrict_codes(codes, nodes)
        assert packed.dtype == np.int64
        assert packed.tolist() == [restrict_codes(int(c), nodes) for c in codes]
        assert packed.tolist() == [Assignment(int(c), n).restrict_code(nodes) for c in codes]
    wide = Assignment.from_arms("AB" * 50)  # n = 100, every odd unit in arm B
    assert restrict_codes(wide.code, [1, 2, 97, 99]) == 0b1101


def test_design_validation():
    with pytest.raises(InvalidArgumentError):
        Design.crd(4, 0)
    with pytest.raises(InvalidArgumentError):
        Design.crd(4, 4)
    with pytest.raises(InvalidArgumentError):
        Design("bd", 4, n_a=2)
    with pytest.raises(InvalidArgumentError):
        Design("cbd", 1)
    with pytest.raises(InvalidArgumentError):
        Design("stratified", 4)


def test_pmf_examples():
    assert pmf(Design.bd(3), Assignment.from_arms("ABA")) == 0.125
    assert pmf(Design.crd(4, 2), Assignment.from_arms("AABB")) == pytest.approx(1 / 6)
    assert pmf(Design.cbd(3), Assignment.all_a(3)) == 0.0
    assert pmf(Design.cbd(3), Assignment.all_b(3)) == 0.0
    assert pmf(Design.cbd(3), Assignment.from_arms("ABA")) == pytest.approx(1 / 6)
    assert pmf(Design.crd(4, 2), Assignment.from_arms("ABBB")) == 0.0


def test_pmf_dimension_mismatch():
    with pytest.raises(InvalidArgumentError):
        pmf(Design.bd(3), Assignment.from_arms("AB"))


def test_enumerate_support_examples():
    rows = list(enumerate_support(Design.bd(2)))
    assert len(rows) == 4
    assert all(p == 0.25 for _, p in rows)

    rows = list(enumerate_support(Design.cbd(2)))
    assert sorted(z.labels for z, _ in rows) == ["AB", "BA"]
    assert all(p == 0.5 for _, p in rows)

    rows = list(enumerate_support(Design.crd(3, 1)))
    assert len(rows) == 3
    assert all(z.n_a == 1 for z, _ in rows)
    assert all(p == pytest.approx(1 / 3) for _, p in rows)


@pytest.mark.parametrize(
    "design",
    [Design.bd(6), Design.cbd(6), Design.crd(6, 2), Design.bd(11), Design.crd(11, 4)],
)
def test_support_sums_to_one(design):
    total = math.fsum(p for _, p in enumerate_support(design))
    assert abs(total - 1.0) <= 1e-12
    assert len(list(enumerate_support(design))) == support_size(design)


@pytest.mark.parametrize("design", [Design.bd(4), Design.cbd(4), Design.crd(4, 1)])
def test_pmf_zero_exactly_off_support(design):
    in_support = {z.code for z, _ in enumerate_support(design)}
    for code in range(16):
        z = Assignment(code, 4)
        if code in in_support:
            assert pmf(design, z) > 0
        else:
            assert pmf(design, z) == 0.0


def test_pure_vectors_have_zero_mass_under_crd_and_cbd():
    for design in (Design.crd(5, 2), Design.cbd(5)):
        assert pmf(design, Assignment.all_a(5)) == 0.0
        assert pmf(design, Assignment.all_b(5)) == 0.0


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        list(enumerate_support(Design.bd(15)))


def test_sampling_determinism_and_support():
    for design in (Design.bd(5), Design.cbd(5), Design.crd(5, 2)):
        assert sample(design, seed=42) == sample(design, seed=42)
    for seed in range(50):
        z = sample(Design.crd(6, 2), seed)
        assert z.n_a == 2
    for seed in range(10_000):
        z = sample(Design.cbd(2), seed)
        assert z.labels in ("AB", "BA")


def _chi_square(design, n_samples, seed0):
    counts = {z.code: 0 for z, _ in enumerate_support(design)}
    for i in range(n_samples):
        counts[sample(design, seed0 + i).code] += 1
    stat = 0.0
    for z, p in enumerate_support(design):
        expected = p * n_samples
        stat += (counts[z.code] - expected) ** 2 / expected
    return stat


def test_sampling_matches_pmf_chi_square():
    # 99.9% chi-square critical values: df=7 -> 24.32, df=5 -> 20.52
    assert _chi_square(Design.bd(3), 8000, seed0=0) < 24.32
    assert _chi_square(Design.crd(4, 2), 6000, seed0=10_000) < 20.52
    assert _chi_square(Design.cbd(3), 6000, seed0=20_000) < 20.52


def test_exposure_probability_single():
    d = Design.bd(5)
    assert exposure_probability(d, {0, 1, 2}, "A") == 0.125
    assert exposure_probability(d, {4}, "B") == 0.5


def test_exposure_probability_joint():
    d = Design.bd(2)
    # same arm, fully overlapping neighborhoods: enumeration gives 1/4
    assert exposure_probability(d, {0, 1}, "A", {0, 1}, "A") == 0.25
    # opposite arms with intersecting neighborhoods cannot co-occur
    assert exposure_probability(d, {0, 1}, "A", {0, 1}, "B") == 0.0
    d5 = Design.bd(5)
    assert exposure_probability(d5, {0, 1}, "A", {2, 3, 4}, "B") == 0.25 * 0.125
    assert exposure_probability(d5, {0, 1}, "A", {1, 2}, "B") == 0.0
    assert exposure_probability(d5, {0, 1}, "A", {2, 3}, "A") == 0.0625


def test_exposure_probability_matches_enumeration_exactly():
    d = Design.bd(5)
    nbhd = {0, 2, 3}
    hits = sum(
        p for z, p in enumerate_support(d) if all(z.arm(i) == "A" for i in nbhd)
    )
    assert exposure_probability(d, nbhd, "A") == hits


def test_exposure_probability_rejects_other_designs():
    with pytest.raises(UnsupportedDesignError):
        exposure_probability(Design.crd(4, 2), {0, 1}, "A")
    with pytest.raises(UnsupportedDesignError):
        exposure_probability(Design.cbd(4), {0, 1}, "A")
