"""Closed-form feasibility and capacity formulas, evaluated so experiment
output can be annotated with theory lines. Asymptotic statements are labeled
as such: they are not desk-scale predictions. The balance ratio u' is exact."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .config import SystemConfig, frac


def min_replication_k(u, d, s: int = 2) -> int:
    """Smallest replica count strictly exceeding
    2*log_u(d) + 2*log_u(4e^2) + 1 (valid for s >= 2; loose at small u)."""
    u = float(frac(u))
    d = float(frac(d))
    if u <= 1:
        raise ValueError("u must exceed 1 (logarithm base)")
    if s < 2:
        raise ValueError("formula assumes s >= 2")
    if d < 1:
        raise ValueError("d must be >= 1")
    ln_u = math.log(u)
    x = 2 * math.log(d) / ln_u + 2 * math.log(4 * math.e ** 2) / ln_u + 1
    return math.floor(x) + 1


def realistic_replication_k(u, v_s: int, a, n: int, c_const: float = 1.0) -> int:
    """k ~ C*(v_S/a)*(u/(u-1))*ln n, the high-probability regime for the
    distributed scheduler. C is not pinned by theory; default C=1 is a knob,
    not a derived constant."""
    u = float(frac(u))
    a = float(frac(a))
    if u <= 1:
        raise ValueError("u must exceed 1")
    x = c_const * (v_s / a) * (u / (u - 1)) * math.log(n)
    return max(1, math.ceil(x))


@dataclass
class BoundReport:
    catalog_cap: Fraction  # m <= a*d*n
    upload_threshold: Fraction  # max(1+1/c, mu)
    swarm_growth_threshold: Fraction  # max(2, mu), asymptotic
    scarce_catalog_exponent: str  # catalog O(n^(1/2+eps)) when u <= 1
    k_min: Optional[int]  # replica lower bound, None when u <= 1
    k_realistic: Optional[int]
    balance_ratio: Optional[Fraction]  # u' = d * min_E U_E/D_E, exact
    flags: list[str]

    def as_kv(self) -> list[str]:
        rows = [
            f"catalog_cap={self.catalog_cap}",
            f"upload_threshold={self.upload_threshold}",
            f"swarm_growth_threshold={self.swarm_growth_threshold} (asymptotic)",
            f"scarce_catalog={self.scarce_catalog_exponent} (asymptotic)",
            f"k_min={self.k_min if self.k_min is not None else 'undefined (u<=1)'}",
            f"k_realistic={self.k_realistic if self.k_realistic is not None else 'undefined (u<=1)'}",
            f"balance_ratio={self.balance_ratio}",
        ]
        for fl in self.flags:
            rows.append(f"flag={fl}")
        return rows

    def render(self) -> str:
        lines = ["feasibility report",
                 f"  trivial catalog cap:      m <= a*d*n = {self.catalog_cap}",
                 f"  upload threshold:         u >= max(1+1/c, mu) = {self.upload_threshold}",
                 f"  swarm-growth threshold:   u >= max(2, mu) = "
                 f"{self.swarm_growth_threshold}  [asymptotic - not a desk-scale prediction]",
                 f"  scarce-upload catalog:    m = {self.scarce_catalog_exponent}"
                 "  [asymptotic - not a desk-scale prediction]"]
        if self.k_min is not None:
            lines.append(f"  replica lower bound:      k > 2log_u(d)+2log_u(4e^2)+1 -> k >= {self.k_min}")
        else:
            lines.append("  replica lower bound:      undefined (u <= 1)")
        if self.k_realistic is not None:
            lines.append(f"  distributed-regime k:     ~ (v_S/a)(u/(u-1))ln n = "
                         f"{self.k_realistic}  [constant C=1 is a knob, not from theory]")
        lines.append(f"  balance ratio u':         {self.balance_ratio}")
        for fl in self.flags:
            lines.append(f"  flag: {fl}")
        return "\n".join(lines) + "\n"


def balance_ratio(cfg: SystemConfig) -> Optional[Fraction]:
    """u' = d * min over box subsets E of U_E/D_E, exact. U_E/D_E is the mean
    of the boxes' u_i/d_i weighted by d_i, so the minimum is at a single box:
    u' = d * min over d_i > 0 of u_i/d_i (boxes with d_i = 0 only raise U_E,
    since u_i >= 0). None when no box stores anything."""
    ratios = [u / d for u, d in zip(cfg.upload, cfg.storage) if d > 0]
    return cfg.avg_storage * min(ratios) if ratios else None


def feasibility_report(cfg: SystemConfig, c_const: float = 1.0) -> BoundReport:
    u = cfg.avg_upload
    threshold = max(Fraction(1) + Fraction(1, cfg.c), cfg.mu)
    flags = []
    if u < Fraction(1) + Fraction(1, cfg.c):
        flags.append(f"u = {u} below threshold 1+1/c = {Fraction(1) + Fraction(1, cfg.c)}")
    if u < cfg.mu:
        flags.append(f"u = {u} below swarm growth bound mu = {cfg.mu}")
    if cfg.m > cfg.a * cfg.avg_storage * cfg.n:
        flags.append(f"catalog m = {cfg.m} exceeds trivial cap a*d*n")
    k_min = k_real = None
    if u > 1:
        k_min = min_replication_k(u, cfg.avg_storage, max(2, cfg.s))
        k_real = realistic_replication_k(u, cfg.v_s, cfg.a, cfg.n, c_const)
    return BoundReport(
        catalog_cap=cfg.a * cfg.avg_storage * cfg.n,
        upload_threshold=threshold,
        swarm_growth_threshold=max(Fraction(2), cfg.mu),
        scarce_catalog_exponent="O(n^(1/2+eps)) when u <= 1",
        k_min=k_min, k_realistic=k_real,
        balance_ratio=balance_ratio(cfg), flags=flags)
