"""System parameters and their validation.

All bandwidth quantities are exact rationals: a box with upload u_i serves
u_i*s unit slots of rate 1/s each, so u_i*s (and d_i*s) must be integers.
No floating point is used for capacity accounting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


def frac(x) -> Fraction:
    """Parse a rational from int/float/str ('16/15', '1+1/15', '0.5')."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**6)
    s = str(x).strip()
    if "+" in s:
        return sum((frac(part) for part in s.split("+")), Fraction(0))
    return Fraction(s)


@dataclass(frozen=True)
class SystemConfig:
    """Parameters of an (n, u, d)-video system plus simulation knobs.

    upload/storage are per-box sequences (length n); averages are derived.
    Defaults for mu, v_s and a are simulator knobs, not values from any
    measured system.
    """

    n: int
    upload: tuple[Fraction, ...]
    storage: tuple[Fraction, ...]
    c: int
    s: int
    m: int
    k: int
    t_s: int = 1
    v_s: int = 5
    mu: Fraction = Fraction(2)
    a: Fraction = Fraction(1)
    video_duration: int = 60
    allocation_mode: str = "regular"  # regular | purely_random

    def __post_init__(self):
        object.__setattr__(self, "upload", tuple(frac(x) for x in self.upload))
        object.__setattr__(self, "storage", tuple(frac(x) for x in self.storage))
        object.__setattr__(self, "mu", frac(self.mu))
        object.__setattr__(self, "a", frac(self.a))

    @property
    def avg_upload(self) -> Fraction:
        return sum(self.upload, Fraction(0)) / self.n

    @property
    def avg_storage(self) -> Fraction:
        return sum(self.storage, Fraction(0)) / self.n

    def upload_slots(self, i: int) -> int:
        """Unit upload slots of box i (u_i * s)."""
        return int(self.upload[i] * self.s)

    def storage_slots(self, i: int) -> int:
        """Stripe storage slots of box i (d_i * s)."""
        return int(self.storage[i] * self.s)

    @property
    def total_upload_slots(self) -> int:
        return sum(self.upload_slots(i) for i in range(self.n))

    @property
    def total_storage_slots(self) -> int:
        return sum(self.storage_slots(i) for i in range(self.n))

    def bandwidth_ceiling(self) -> int:
        """Max concurrent full streams the total upload bandwidth supports."""
        return self.total_upload_slots // self.s


@dataclass(frozen=True)
class Violation:
    condition: str
    severity: str  # "error" | "warning"

    def __str__(self):
        return f"{self.severity}: {self.condition}"


def validate_config(cfg: SystemConfig) -> list[Violation]:
    """Check structural invariants and feasibility conditions.

    Structural breakage (wrong lengths, non-integral slots, s > c, ...) is an
    error. Feasibility conditions on average upload are warnings only: the
    simulator must be able to run infeasible regimes to demonstrate them.
    """
    out: list[Violation] = []
    err = lambda c: out.append(Violation(c, "error"))
    warn = lambda c: out.append(Violation(c, "warning"))

    if cfg.n <= 0:
        err("n <= 0")
        return out
    if len(cfg.upload) != cfg.n:
        err(f"len(upload) = {len(cfg.upload)} != n = {cfg.n}")
    if len(cfg.storage) != cfg.n:
        err(f"len(storage) = {len(cfg.storage)} != n = {cfg.n}")
    if out:
        return out

    if cfg.s > cfg.c:
        err(f"s > c ({cfg.s} > {cfg.c})")
    for name, lo in (("c", 1), ("s", 1), ("m", 1), ("k", 1), ("t_s", 1),
                     ("v_s", 1), ("video_duration", 1)):
        if getattr(cfg, name) < lo:
            err(f"{name} < {lo}")
    if not (0 < cfg.a <= 1):
        err(f"a = {cfg.a} not in (0, 1]")
    if cfg.mu <= 1:
        err(f"mu = {cfg.mu} must exceed 1")

    for i in range(cfg.n):
        if (cfg.upload[i] * cfg.s).denominator != 1:
            err(f"u_{i}*s = {cfg.upload[i] * cfg.s} not an integer")
        if (cfg.storage[i] * cfg.s).denominator != 1 or cfg.storage[i] < 0:
            err(f"d_{i}*s = {cfg.storage[i] * cfg.s} not a non-negative integer")
    if out:
        return out

    if cfg.allocation_mode == "regular":
        need = cfg.k * cfg.m * cfg.s
        have = cfg.total_storage_slots
        if need != have:
            err(f"k*m*s != sum(d_i*s) in regular mode ({need} != {have})")
    elif cfg.allocation_mode == "purely_random":
        if cfg.k * cfg.m * cfg.s > cfg.total_storage_slots:
            err("k*m*s exceeds total storage slots")
    else:
        err(f"unknown allocation_mode {cfg.allocation_mode!r}")

    u = cfg.avg_upload
    threshold = max(Fraction(1) + Fraction(1, cfg.c), cfg.mu)
    if u < Fraction(1) + Fraction(1, cfg.c):
        warn(f"u < 1+1/c ({u} < {Fraction(1) + Fraction(1, cfg.c)})")
    if u < cfg.mu:
        warn(f"u < mu ({u} < {cfg.mu})")
    if u < threshold:
        warn(f"u below scalability threshold max(1+1/c, mu) = {threshold}")
    return out


def errors_of(violations: Sequence[Violation]) -> list[Violation]:
    return [v for v in violations if v.severity == "error"]


def homogeneous_config(n: int, u, d, c: int, s: int, k: int, m: int | None = None,
                       **kw) -> SystemConfig:
    """Homogeneous system; m defaults to floor(n*d/k) with storage shaved so
    every slot is filled (regular-mode exactness)."""
    u = frac(u)
    d = frac(d)
    if m is None:
        m = int((n * d) / k)
    if kw.get("allocation_mode", "regular") == "regular":
        storage = shave_storage(n, d, s, k, m)
    else:
        storage = (d,) * n
    return SystemConfig(n=n, upload=(u,) * n, storage=storage, c=c, s=s, k=k,
                        m=m, **kw)


def shave_storage(n: int, d: Fraction, s: int, k: int, m: int) -> tuple[Fraction, ...]:
    """Per-box storage summing to exactly k*m*s slots, as close to d as possible.

    Needed when k does not divide n*d: the catalog of m = floor(n*d/k) videos
    leaves a few storage slots unused, which regular allocation forbids. The
    residue is shaved off the last boxes, one slot each.
    """
    d = frac(d)
    total_needed = k * m * s
    base = total_needed // n
    extra = total_needed - base * n  # this many boxes get base+1 slots
    if base + 1 > int(d * s) + s:  # sanity: never grow a box by a full video
        raise ValueError("catalog does not fit declared storage")
    slots = [base + 1] * extra + [base] * (n - extra)
    return tuple(Fraction(x, s) for x in slots)


def gaussian_upload(n: int, mean, std: float, s: int, seed: int,
                    lo=None, hi=None) -> tuple[Fraction, ...]:
    """Bounded-Gaussian per-box uploads, rounded to unit slots and repaired so
    the mean is preserved exactly.

    Bounds default to [1/s, 2*mean] (symmetric about the mean) and the sample
    is renormalized by moving single slots between boxes until the slot total
    equals n*mean*s.
    """
    mean = frac(mean)
    lo = Fraction(1, s) if lo is None else frac(lo)
    hi = 2 * mean if hi is None else frac(hi)
    target = mean * s * n
    if target.denominator != 1:
        raise ValueError("n*mean*s must be an integer")
    target = int(target)
    lo_slots, hi_slots = int(lo * s), int(hi * s)
    rng = random.Random(seed)
    slots = []
    for _ in range(n):
        x = rng.gauss(float(mean), std)
        slots.append(min(hi_slots, max(lo_slots, round(x * s))))
    total = sum(slots)
    idx = list(range(n))
    while total != target:
        rng.shuffle(idx)
        moved = False
        for i in idx:
            if total < target and slots[i] < hi_slots:
                slots[i] += 1
                total += 1
                moved = True
            elif total > target and slots[i] > lo_slots:
                slots[i] -= 1
                total -= 1
                moved = True
            if total == target:
                break
        if not moved:
            raise ValueError("cannot renormalize uploads within bounds")
    return tuple(Fraction(x, s) for x in slots)


# --- config file I/O: one "key = value" per line, keys mirror the parameter
# --- table (n, u, d, c, s, k, m, t_S, v_S, mu, a, video_duration).

_KEYMAP = {"t_s": "t_S", "v_s": "v_S"}


def dump_config(cfg: SystemConfig) -> str:
    lines = [f"n = {cfg.n}"]
    for key, seq in (("u", cfg.upload), ("d", cfg.storage)):
        if len(set(seq)) == 1:
            lines.append(f"{key} = {seq[0]}")
        else:
            lines.append(f"{key} = {','.join(str(x) for x in seq)}")
    for key in ("c", "s", "k", "m", "t_s", "v_s", "mu", "a", "video_duration"):
        lines.append(f"{_KEYMAP.get(key, key)} = {getattr(cfg, key)}")
    lines.append(f"allocation_mode = {cfg.allocation_mode}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> SystemConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        raw[key.strip().lower()] = val.strip()

    def need(key):
        if key not in raw:
            raise ValueError(f"missing config key {key!r}")
        return raw[key]

    n = int(need("n"))
    s = int(need("s"))

    def per_box(key) -> tuple[Fraction, ...]:
        val = need(key)
        if val.startswith("gauss("):
            inner = val[len("gauss("):].rstrip(")")
            mean_s, std_s, seed_s = [p.strip() for p in inner.split(",")]
            return gaussian_upload(n, frac(mean_s), float(std_s), s, int(seed_s))
        if "," in val:
            parts = [frac(p) for p in val.split(",")]
            if len(parts) != n:
                raise ValueError(f"{key}: got {len(parts)} values, need n={n}")
            return tuple(parts)
        return (frac(val),) * n

    kw = {}
    for key, cast in (("t_s", int), ("v_s", int), ("mu", frac), ("a", frac),
                      ("video_duration", int), ("allocation_mode", str)):
        if key in raw:
            kw[key] = cast(raw[key])
    return SystemConfig(n=n, upload=per_box("u"), storage=per_box("d"),
                        c=int(need("c")), s=s, k=int(need("k")),
                        m=int(need("m")), **kw)


def load_config(path) -> SystemConfig:
    with open(path) as f:
        return parse_config(f.read())
