from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from vodsim.config import (SystemConfig, dump_config, errors_of, frac,
                           gaussian_upload, homogeneous_config, parse_config,
                           shave_storage, validate_config)


def test_frac_parsing():
    assert frac("16/15") == Fraction(16, 15)
    assert frac("1+1/15") == Fraction(16, 15)
    assert frac("0.5") == Fraction(1, 2)
    assert frac(2) == Fraction(2)
    assert frac(0.25) == Fraction(1, 4)


def test_reference_system_is_clean():
    # n=100, u=1+1/15, d=32, c=s=15, k=10, m=floor(100*32/10)=320
    cfg = homogeneous_config(n=100, u="1+1/15", d=32, c=15, s=15, k=10,
                             mu=Fraction(16, 15))
    assert cfg.m == 320
    assert validate_config(cfg) == []
    assert cfg.bandwidth_ceiling() == 106
    assert cfg.avg_upload == Fraction(16, 15)


def test_growth_bound_above_upload_is_flagged():
    cfg = homogeneous_config(n=100, u="1+1/15", d=32, c=15, s=15, k=10, mu=2)
    violations = validate_config(cfg)
    assert errors_of(violations) == []
    assert any("u < mu" in v.condition for v in violations)


def test_low_upload_is_warning_not_error():
    cfg = homogeneous_config(n=4, u=1, d=2, c=15, s=1, k=2, m=4)
    violations = validate_config(cfg)
    assert errors_of(violations) == []
    assert any("u < 1+1/c" in v.condition for v in violations)


def test_stripes_exceeding_connections_is_error():
    cfg = homogeneous_config(n=4, u=2, d=4, c=15, s=16, k=2, m=2)
    assert any("s > c" in v.condition for v in errors_of(validate_config(cfg)))


def test_non_integral_slots_rejected():
    cfg = SystemConfig(n=2, upload=(Fraction(1, 2),) * 2,
                       storage=(Fraction(1),) * 2, c=3, s=3, k=1, m=2)
    assert any("not an integer" in v.condition
               for v in errors_of(validate_config(cfg)))


def test_regular_mode_slot_exactness_checked():
    cfg = SystemConfig(n=2, upload=(Fraction(1),) * 2,
                       storage=(Fraction(2),) * 2, c=1, s=1, k=1, m=3)
    assert any("k*m*s" in v.condition for v in errors_of(validate_config(cfg)))


def test_shave_storage_sums_exactly():
    storage = shave_storage(n=100, d=Fraction(32), s=15, k=6, m=533)
    assert sum(int(d * 15) for d in storage) == 6 * 533 * 15
    assert max(storage) - min(storage) <= Fraction(1, 15)


def test_gaussian_upload_preserves_mean_and_bounds():
    mean = Fraction(16, 15)
    ups = gaussian_upload(100, mean, 0.4, 15, seed=3)
    assert sum(ups) == 100 * mean
    assert all(Fraction(1, 15) <= u <= 2 * mean for u in ups)
    assert all((u * 15).denominator == 1 for u in ups)
    assert gaussian_upload(100, mean, 0.4, 15, seed=3) == ups


def test_config_roundtrip():
    cfg = homogeneous_config(n=6, u="1+1/3", d=4, c=3, s=3, k=2, m=8,
                             v_s=4, mu=Fraction(3, 2))
    again = parse_config(dump_config(cfg))
    assert again == cfg


def test_config_file_with_gauss_spec():
    text = "n=10\nu=gauss(16/15, 0.3, 7)\nd=32\nc=15\ns=15\nk=4\nm=80\n"
    cfg = parse_config(text)
    assert cfg.n == 10
    assert sum(cfg.upload) == 10 * Fraction(16, 15)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_config("n=4\nu=1\n")  # missing keys
    with pytest.raises(ValueError):
        parse_config("nonsense line\n")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), d=st.integers(1, 4), s=st.integers(1, 4),
       k=st.integers(1, 3))
def test_homogeneous_config_always_slot_exact(n, d, s, k):
    assume(n * d >= k)  # otherwise the catalog is empty
    cfg = homogeneous_config(n=n, u=2, d=d, c=s, s=s, k=k)
    assert cfg.k * cfg.m * cfg.s == cfg.total_storage_slots
    assert errors_of(validate_config(cfg)) == []
