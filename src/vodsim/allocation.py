"""Replica placement: regular permutation and purely random schemes."""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig


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

    def holders(self, video: int, stripe: int) -> np.ndarray:
        """The k holders of a stripe, in replica order."""
        return self.placement[video, stripe]

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

