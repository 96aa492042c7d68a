from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import subset_balance_ratio, tiny_config
from vodsim.bounds import (balance_ratio, feasibility_report,
                           min_replication_k, realistic_replication_k)
from vodsim.cli import SWEEPS, config_for_k
from vodsim.config import SystemConfig


def test_replication_bound_reference_values():
    # 2*log_2(32) + 2*log_2(4e^2) + 1 = 20.77...
    assert min_replication_k(2, 32, 2) == 21
    # at u = 1+1/15 the bound is far looser than the empirical thresholds
    assert min_replication_k(Fraction(16, 15), 32, 15) == 214


def test_replication_bound_degenerate_storage():
    # log_u(1) = 0 leaves 2*log_2(4e^2) + 1 = 10.77...
    assert min_replication_k(2, 1, 2) == 11


def test_replication_bound_rejects_unit_upload():
    with pytest.raises(ValueError):
        min_replication_k(1, 32, 2)
    with pytest.raises(ValueError):
        min_replication_k(Fraction(1, 2), 32, 2)


def test_realistic_k_reference_value():
    # v_S=5, a=1, u=31/15, n=100, C=1 -> ceil(44.6) = 45
    assert realistic_replication_k(Fraction(31, 15), 5, 1, 100) == 45


@settings(max_examples=60, deadline=None)
@given(u1=st.fractions(Fraction(11, 10), Fraction(4), max_denominator=10),
       u2=st.fractions(Fraction(11, 10), Fraction(4), max_denominator=10),
       d1=st.integers(1, 64), d2=st.integers(1, 64))
def test_replication_bound_monotonicity(u1, u2, d1, d2):
    lo_u, hi_u = min(u1, u2), max(u1, u2)
    lo_d, hi_d = min(d1, d2), max(d1, d2)
    assert min_replication_k(hi_u, lo_d) <= min_replication_k(lo_u, lo_d)
    assert min_replication_k(lo_u, hi_d) >= min_replication_k(lo_u, lo_d)


def test_report_flags_scarce_upload():
    cfg = tiny_config(n=4, u=1, d=2, c=15, s=1, k=2, m=4)
    report = feasibility_report(cfg)
    assert any("below threshold 1+1/c" in f for f in report.flags)
    assert report.k_min is None
    assert report.upload_threshold == max(Fraction(16, 15), cfg.mu)


def test_catalog_cap_product():
    cfg = tiny_config(n=100, u=2, d=32, c=15, s=15, k=10, m=320, a=1)
    report = feasibility_report(cfg)
    assert report.catalog_cap == 3200  # a*d*n


def test_proportional_system_balance_is_exact_u():
    upload = (Fraction(1), Fraction(2), Fraction(3), Fraction(2))
    storage = tuple(2 * u for u in upload)  # d_i = (d/u) u_i
    cfg = SystemConfig(n=4, upload=upload, storage=storage, c=2, s=2, k=1,
                       m=8, allocation_mode="purely_random")
    assert balance_ratio(cfg) == cfg.avg_upload  # u' = u in the proportional case
    report = feasibility_report(cfg)
    assert report.balance_ratio == cfg.avg_upload


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 10), s=st.integers(1, 3))
def test_balance_ratio_matches_subset_enumeration(data, n, s):
    slots = st.lists(st.integers(0, 6), min_size=n, max_size=n)
    upload = [Fraction(x, s) for x in data.draw(slots)]
    storage = [Fraction(x, s) for x in data.draw(slots)]
    cfg = SystemConfig(n=n, upload=upload, storage=storage, c=s, s=s, k=1,
                       m=1, allocation_mode="purely_random")
    assert balance_ratio(cfg) == subset_balance_ratio(cfg)


# u' of systems too large for the enumeration reference: a homogeneous one
# (every subset gives u) and the k- and hetero-sweep base systems at n=100.
@pytest.mark.parametrize("cfg,expected", [
    (tiny_config(n=20, u=2, d=2, c=2, s=1, k=2, m=20), Fraction(2)),
    (config_for_k(10), Fraction(16, 15)),
    (SWEEPS["hetero-sweep"].axis(config_for_k(10), 1.0, 0)[0], Fraction(2, 15)),
], ids=["homogeneous-n20", "config_for_k-10", "config_hetero-1.0-0"])
def test_balance_ratio_reference_values(cfg, expected):
    assert balance_ratio(cfg) == expected


def test_report_renders_both_formats():
    cfg = tiny_config(n=4, u=2, d=2, c=2, s=2, k=2, m=4)
    report = feasibility_report(cfg)
    text = report.render()
    assert "asymptotic" in text
    kv = report.as_kv()
    assert any(line.startswith("catalog_cap=") for line in kv)
    assert any(line.startswith("k_min=") for line in kv)


def test_report_is_pure():
    cfg = tiny_config(n=6, u=2, d=2, c=2, s=2, k=2, m=6)
    assert feasibility_report(cfg) == feasibility_report(cfg)
