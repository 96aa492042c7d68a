"""Replica placement: regular permutation and purely random schemes, plus the
poor-box upload reservation reduction for heterogeneous systems."""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import SystemConfig, frac
from .model import StripeId


class AllocationError(Exception):
    def __init__(self, msg: str, unplaced: int = 0):
        super().__init__(msg)
        self.unplaced = unplaced


@dataclass
class AllocationMap:
    """Which box holds which stripe replica.

    placement[v, j, r] is the box holding replica r of stripe j of video v;
    replica order is the order consumed by forward scans.
    """

    mode: str
    n: int
    m: int
    s: int
    k: int
    placement: np.ndarray  # int32, shape (m, s, k)

    def replicas_of(self, stripe: StripeId) -> list[int]:
        """The k holders of a stripe, in replica-index order."""
        v, j = stripe
        if not (0 <= v < self.m and 0 <= j < self.s):
            raise KeyError(f"unknown stripe {stripe}")
        return list(self.placement[v, j])

    def holders(self, video: int, stripe: int) -> np.ndarray:
        return self.placement[video, stripe]

    def holdings_of(self, box: int) -> list[StripeId]:
        """The stripes a box stores, one entry per replica (a box may hold
        several replicas of the same stripe), by video, stripe, replica."""
        vs, js, _ = np.nonzero(self.placement == box)
        return [StripeId(v, j) for v, j in zip(vs.tolist(), js.tolist())]

    def dump(self) -> str:
        """Text table, one 'video,stripe,replica,box' line per replica."""
        lines = []
        for v in range(self.m):
            for j in range(self.s):
                for r in range(self.k):
                    lines.append(f"{v},{j},{r},{self.placement[v, j, r]}")
        return "\n".join(lines) + "\n"


def load_allocation(text: str, mode: str = "regular") -> AllocationMap:
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(tuple(int(x) for x in line.split(",")))
    m = max(r[0] for r in rows) + 1
    s = max(r[1] for r in rows) + 1
    k = max(r[2] for r in rows) + 1
    n = max(r[3] for r in rows) + 1
    placement = np.full((m, s, k), -1, dtype=np.int32)
    for v, j, r, b in rows:
        placement[v, j, r] = b
    if (placement < 0).any():
        raise AllocationError("allocation table has missing replicas")
    return _finish(mode, n, m, s, k, placement)


def _finish(mode: str, n: int, m: int, s: int, k: int,
            placement: np.ndarray) -> AllocationMap:
    return AllocationMap(mode=mode, n=n, m=m, s=s, k=k, placement=placement)


def _slot_owners(cfg: SystemConfig) -> np.ndarray:
    """Box id owning each storage slot (slots 0..d_0*s-1 are box 0's, etc.)."""
    owners = np.empty(cfg.total_storage_slots, dtype=np.int32)
    pos = 0
    for i in range(cfg.n):
        cnt = cfg.storage_slots(i)
        owners[pos:pos + cnt] = i
        pos += cnt
    return owners


def allocate_regular(cfg: SystemConfig, seed: int) -> AllocationMap:
    """Uniform random permutation of the k*m*s replicas onto all storage
    slots; every box ends up exactly full (requires k*m*s == sum d_i*s)."""
    replicas = cfg.k * cfg.m * cfg.s
    slots = cfg.total_storage_slots
    if replicas != slots:
        raise AllocationError(
            f"regular allocation needs k*m*s == total slots ({replicas} != {slots})")
    owners = _slot_owners(cfg)
    rng = random.Random(seed)
    perm = list(range(slots))
    rng.shuffle(perm)  # Fisher-Yates: exactly uniform over permutations
    boxes = owners[np.asarray(perm, dtype=np.int64)]
    placement = boxes.reshape(cfg.m, cfg.s, cfg.k).astype(np.int32)
    return _finish("regular", cfg.n, cfg.m, cfg.s, cfg.k, placement)


def allocate_purely_random(cfg: SystemConfig, seed: int) -> AllocationMap:
    """Each replica independently lands on box i with probability d_i/(d*n);
    full boxes are rejected and the replica redrawn, which is equivalent to
    drawing among non-full boxes with the same relative weights."""
    rng = random.Random(seed)
    capacity = [cfg.storage_slots(i) for i in range(cfg.n)]
    weights = [float(cfg.storage[i]) for i in range(cfg.n)]
    free = capacity[:]
    placement = np.empty((cfg.m, cfg.s, cfg.k), dtype=np.int32)

    def rebuild():
        cum, acc = [], 0.0
        for i in range(cfg.n):
            if free[i] > 0:
                acc += weights[i]
            cum.append(acc)
        return cum, acc

    cum, total_w = rebuild()
    placed = 0
    need = cfg.m * cfg.s * cfg.k
    for v in range(cfg.m):
        for j in range(cfg.s):
            for r in range(cfg.k):
                if total_w <= 0.0:
                    raise AllocationError(
                        f"storage exhausted after {placed} placements",
                        unplaced=need - placed)
                x = rng.random() * total_w
                b = bisect_right(cum, x)
                b = min(b, cfg.n - 1)
                while free[b] == 0:  # guard against float edge cases
                    b = (b + 1) % cfg.n
                placement[v, j, r] = b
                free[b] -= 1
                placed += 1
                if free[b] == 0:
                    cum, total_w = rebuild()
    return _finish("purely_random", cfg.n, cfg.m, cfg.s, cfg.k, placement)


def allocate(cfg: SystemConfig, seed: int) -> AllocationMap:
    if cfg.allocation_mode == "regular":
        return allocate_regular(cfg, seed)
    return allocate_purely_random(cfg, seed)


@dataclass
class ReservationPlan:
    """Rich-box upload slots statically reserved for poor boxes (upload < mu).

    reserved[b] maps a poor box to [(rich box, slot count), ...] totalling
    mu*s - u_b*s unit slots. extra_cache[r] is the additional cache space
    (in videos) a rich box needs for the stripes it relays: s_r / (mu*s).
    """

    mu: Fraction
    s: int
    reserved: dict[int, list[tuple[int, int]]]
    extra_cache: dict[int, Fraction]

    @property
    def total_reserved(self) -> int:
        return sum(c for lst in self.reserved.values() for _, c in lst)

    def residual_upload(self, cfg: SystemConfig, box: int) -> Fraction:
        taken = sum(c for lst in self.reserved.values()
                    for r, c in lst if r == box)
        return cfg.upload[box] - Fraction(taken, self.s)


def reserve_poor_capacity(cfg: SystemConfig) -> ReservationPlan:
    """Assign each poor box (u_b < mu) its missing mu*s - u_b*s unit slots,
    drawn from rich boxes proportionally to their surplus u_b - mu, so every
    rich box keeps residual upload >= mu. Infeasible when u < mu."""
    mu, s = cfg.mu, cfg.s
    poor = [i for i in range(cfg.n) if cfg.upload[i] < mu]
    rich = [i for i in range(cfg.n) if cfg.upload[i] > mu]
    deficit = {i: int(mu * s - cfg.upload[i] * s) for i in poor}
    surplus = {i: int(cfg.upload[i] * s - mu * s) for i in rich}
    total_deficit = sum(deficit.values())
    total_surplus = sum(surplus.values())
    if total_deficit > total_surplus:
        raise AllocationError(
            f"reservation infeasible: deficit {total_deficit} slots > "
            f"rich surplus {total_surplus} (requires u >= mu)")
    if not poor:
        return ReservationPlan(mu=mu, s=s, reserved={}, extra_cache={})

    # Largest-remainder proportional split of the total deficit over surpluses.
    take = {i: 0 for i in rich}
    if total_deficit:
        shares = {i: total_deficit * surplus[i] / total_surplus for i in rich}
        take = {i: int(shares[i]) for i in rich}
        leftover = total_deficit - sum(take.values())
        by_fraction = sorted(rich, key=lambda i: (-(shares[i] - take[i]), i))
        for i in by_fraction:
            if leftover == 0:
                break
            if take[i] < surplus[i]:
                take[i] += 1
                leftover -= 1

    reserved: dict[int, list[tuple[int, int]]] = {}
    pool = [(i, take[i]) for i in sorted(rich, key=lambda i: (-surplus[i], i))
            if take[i] > 0]
    pi = 0
    for b in poor:
        need = deficit[b]
        grants = []
        while need > 0:
            r, avail = pool[pi]
            got = min(need, avail)
            grants.append((r, got))
            need -= got
            if got == avail:
                pi += 1
            else:
                pool[pi] = (r, avail - got)
        reserved[b] = grants

    extra_cache: dict[int, Fraction] = {}
    for grants in reserved.values():
        for r, c in grants:
            extra_cache[r] = extra_cache.get(r, Fraction(0)) + Fraction(c, int(mu * s))
    return ReservationPlan(mu=mu, s=s, reserved=reserved, extra_cache=extra_cache)
