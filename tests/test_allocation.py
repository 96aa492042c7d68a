import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import tiny_config
from vodsim.allocation import (AllocationError, allocate_purely_random,
                               allocate_regular, load_allocation)
from vodsim.config import SystemConfig, homogeneous_config


def replicas_per_box(alloc):
    return np.bincount(alloc.placement.ravel(), minlength=alloc.n)


def test_regular_tiny_instance_fills_every_box():
    cfg = tiny_config(n=4, d=2, s=1, m=4, k=2)
    alloc = allocate_regular(cfg, seed=1)
    assert replicas_per_box(alloc).tolist() == [2] * 4
    for v in range(4):
        assert len(alloc.holders(v, 0)) == 2


def test_regular_reference_scale():
    cfg = homogeneous_config(n=100, u="1+1/15", d=32, c=15, s=15, k=10)
    assert cfg.m == 320
    alloc = allocate_regular(cfg, seed=0)
    assert replicas_per_box(alloc).tolist() == [480] * 100  # d*s
    assert alloc.placement.shape == (320, 15, 10)


def test_regular_is_deterministic_per_seed():
    cfg = tiny_config(n=4, d=2, s=1, m=4, k=2)
    a = allocate_regular(cfg, seed=42)
    b = allocate_regular(cfg, seed=42)
    c = allocate_regular(cfg, seed=43)
    assert np.array_equal(a.placement, b.placement)
    assert not np.array_equal(a.placement, c.placement)


def test_regular_rejects_slot_mismatch():
    cfg = tiny_config(n=4, d=2, s=1, m=3, k=2)  # 6 replicas vs 8 slots
    with pytest.raises(AllocationError):
        allocate_regular(cfg, seed=0)


def test_permutation_uniformity_against_enumeration():
    """Regular allocation must induce the exact uniform distribution over
    placement patterns; the expected frequencies come from enumerating all
    4! slot permutations."""
    cfg = tiny_config(n=4, d=1, s=1, m=2, k=2)
    # oracle: every permutation of the 4 slots gives a distinct pattern
    patterns = set()
    for perm in itertools.permutations(range(4)):
        patterns.add(tuple(perm))  # slot i belongs to box i when d_i*s = 1
    assert len(patterns) == 24
    runs = 10_000
    counts = Counter()
    for seed in range(runs):
        alloc = allocate_regular(cfg, seed)
        counts[tuple(int(x) for x in alloc.placement.reshape(-1))] += 1
    assert set(counts) <= patterns
    p = 1 / 24
    sigma = (runs * p * (1 - p)) ** 0.5
    lo, hi = runs * p - 4 * sigma, runs * p + 4 * sigma
    for pattern in patterns:
        assert lo <= counts[pattern] <= hi, (pattern, counts[pattern])


def test_purely_random_weight_frequencies():
    # box 0 has weight 3/4: empirical frequency over 10^5 single-replica
    # draws must sit within 3 sigma of the binomial expectation
    cfg = SystemConfig(n=2, upload=(Fraction(1),) * 2,
                       storage=(Fraction(3), Fraction(1)), c=1, s=1, k=1, m=1,
                       allocation_mode="purely_random")
    draws = 100_000
    hits = 0
    for seed in range(draws):
        alloc = allocate_purely_random(cfg, seed)
        hits += int(alloc.placement[0, 0, 0]) == 0
    p = 0.75
    sigma = (p * (1 - p) / draws) ** 0.5
    assert abs(hits / draws - p) <= 3 * sigma


def test_purely_random_respects_capacity():
    cfg = SystemConfig(n=3, upload=(Fraction(1),) * 3,
                       storage=(Fraction(2), Fraction(1), Fraction(1)),
                       c=2, s=2, k=2, m=2, allocation_mode="purely_random")
    alloc = allocate_purely_random(cfg, seed=5)
    for b, held in enumerate(replicas_per_box(alloc)):
        assert held <= cfg.storage_slots(b)
    for v in range(2):
        for j in range(2):
            assert len(alloc.holders(v, j)) == 2


def test_purely_random_exhaustion_reports_unplaced():
    cfg = SystemConfig(n=2, upload=(Fraction(1),) * 2,
                       storage=(Fraction(1), Fraction(1)), c=1, s=1, k=1, m=3,
                       allocation_mode="purely_random")
    with pytest.raises(AllocationError) as err:
        allocate_purely_random(cfg, seed=0)
    assert err.value.unplaced == 1


def test_single_replica_partitions_slots():
    cfg = tiny_config(n=4, d=1, s=1, m=4, k=1)
    alloc = allocate_regular(cfg, seed=2)
    holders = [alloc.holders(v, 0).tolist() for v in range(4)]
    assert all(len(h) == 1 for h in holders)
    assert sorted(h[0] for h in holders) == [0, 1, 2, 3]


def test_dump_and_load_roundtrip():
    cfg = tiny_config(n=4, d=2, s=2, m=4, k=2, c=2)
    alloc = allocate_regular(cfg, seed=3)
    again = load_allocation(alloc.dump())
    assert np.array_equal(alloc.placement, again.placement)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), d=st.integers(1, 3), s=st.integers(1, 3),
       k=st.integers(1, 3), seed=st.integers(0, 999))
def test_regular_regularity_property(n, d, s, k, seed):
    cfg = homogeneous_config(n=n, u=1, d=d, c=s, s=s, k=k)
    alloc = allocate_regular(cfg, seed)
    assert replicas_per_box(alloc).tolist() == [cfg.storage_slots(b)
                                                for b in range(n)]
    for v in range(cfg.m):
        for j in range(s):
            assert len(alloc.holders(v, j)) == k

