"""Golden regression: greedy-adversary saturation probes in static mode.
The expected satisfied and issued counts and first refusals were recorded
from the scorer that dry-ran `select_static` on every stripe of every video
with connections, before scoring became one vectorized pass; any change to
which video the greedy adversary picks shows here."""

import pytest

from vodsim.cli import config_for_k, probe_point

# (n, k, seed) -> (satisfied, issued, first_failure)
EXPECTED = {
    (100, 4, 0): (97, 197, (69, 175)),
    (100, 4, 1): (100, 200, (1, 314)),
    (100, 4, 2): (98, 198, (67, 56)),
    (100, 6, 0): (102, 202, (25, 153)),
    (100, 6, 1): (102, 202, (21, 14)),
    (100, 6, 2): (102, 202, (50, 106)),
    (100, 10, 0): (103, 203, (87, 10)),
    (100, 10, 1): (102, 202, (21, 280)),
    (100, 10, 2): (103, 203, (81, 135)),
    (200, 10, 0): (205, 405, (74, 81)),
    (200, 10, 1): (205, 405, (175, 468)),
    (200, 10, 2): (203, 403, (145, 78)),
}


@pytest.mark.parametrize("n,k,seed", sorted(EXPECTED))
def test_greedy_probe_matches_recording(n, k, seed):
    res = probe_point(config_for_k(k, n), "greedy", "static", seed)
    assert (res.satisfied, res.issued, res.first_failure) == EXPECTED[(n, k, seed)]
