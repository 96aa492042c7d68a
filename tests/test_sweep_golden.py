"""Golden regression: sweep CSVs. The expected `run_sweep` output of the
k-, s-, hetero- and failure-sweeps under random and Zipf requests (two
values each, one run, seed 0) was recorded while each sweep still had its
own config builder and probe call; any change to a sweep's config, offline
boxes, adversary or probe shows here, as does a change to the
hetero-sweep's upload draw."""

import hashlib

import pytest

from vodsim.cli import config_hetero, run_sweep

VALUES = {"k-sweep": [2, 6], "s-sweep": [2, 15], "hetero-sweep": [0.5, 1.0],
          "failure-sweep": [0.2, 0.5]}

EXPECTED = {
    ("k-sweep", "random"): """\
# experiment=k-sweep adversary=random mode=static
# seeds=0 runs=1
# reproduce: vodsim experiment --name k-sweep --adversary random --mode static --seed 0 --runs 1
value,runs,mean,stddev,min,max,ceiling,target,blocked_runs,satisfied_per_seed
2,1,103.000,0.000,103,103,106,100,0,103
6,1,105.000,0.000,105,105,106,100,0,105
""",
    ("k-sweep", "zipf"): """\
# experiment=k-sweep adversary=zipf mode=static
# seeds=0 runs=1
# reproduce: vodsim experiment --name k-sweep --adversary zipf --mode static --seed 0 --runs 1
value,runs,mean,stddev,min,max,ceiling,target,blocked_runs,satisfied_per_seed
2,1,98.000,0.000,98,98,106,100,1,98
6,1,105.000,0.000,105,105,106,100,0,105
""",
    ("s-sweep", "random"): """\
# experiment=s-sweep adversary=random mode=static
# seeds=0 runs=1
# reproduce: vodsim experiment --name s-sweep --adversary random --mode static --seed 0 --runs 1
value,runs,mean,stddev,min,max,ceiling,target,blocked_runs,satisfied_per_seed
2,1,150.000,0.000,150,150,150,100,0,150
15,1,106.000,0.000,106,106,106,100,0,106
""",
    ("s-sweep", "zipf"): """\
# experiment=s-sweep adversary=zipf mode=static
# seeds=0 runs=1
# reproduce: vodsim experiment --name s-sweep --adversary zipf --mode static --seed 0 --runs 1
value,runs,mean,stddev,min,max,ceiling,target,blocked_runs,satisfied_per_seed
2,1,146.000,0.000,146,146,150,100,0,146
15,1,106.000,0.000,106,106,106,100,0,106
""",
    ("hetero-sweep", "random"): """\
# experiment=hetero-sweep adversary=random mode=static
# seeds=0 runs=1
# reproduce: vodsim experiment --name hetero-sweep --adversary random --mode static --seed 0 --runs 1
# upload ~ Gaussian(mean=1+1/s, sd=value) truncated to [1/s, 2+2/s], slot-rounded, renormalized to the exact mean
value,runs,mean,stddev,min,max,ceiling,target,blocked_runs,satisfied_per_seed
0.5,1,106.000,0.000,106,106,106,100,0,106
1.0,1,106.000,0.000,106,106,106,100,0,106
""",
    ("hetero-sweep", "zipf"): """\
# experiment=hetero-sweep adversary=zipf mode=static
# seeds=0 runs=1
# reproduce: vodsim experiment --name hetero-sweep --adversary zipf --mode static --seed 0 --runs 1
# upload ~ Gaussian(mean=1+1/s, sd=value) truncated to [1/s, 2+2/s], slot-rounded, renormalized to the exact mean
value,runs,mean,stddev,min,max,ceiling,target,blocked_runs,satisfied_per_seed
0.5,1,106.000,0.000,106,106,106,100,0,106
1.0,1,106.000,0.000,106,106,106,100,0,106
""",
    ("failure-sweep", "random"): """\
# experiment=failure-sweep adversary=random mode=static
# seeds=0 runs=1
# reproduce: vodsim experiment --name failure-sweep --adversary random --mode static --seed 0 --runs 1
value,runs,mean,stddev,min,max,ceiling,target,blocked_runs,satisfied_per_seed
0.2,1,85.000,0.000,85,85,106,80,0,85
0.5,1,53.000,0.000,53,53,106,50,0,53
""",
    ("failure-sweep", "zipf"): """\
# experiment=failure-sweep adversary=zipf mode=static
# seeds=0 runs=1
# reproduce: vodsim experiment --name failure-sweep --adversary zipf --mode static --seed 0 --runs 1
value,runs,mean,stddev,min,max,ceiling,target,blocked_runs,satisfied_per_seed
0.2,1,84.000,0.000,84,84,106,80,0,84
0.5,1,53.000,0.000,53,53,106,50,0,53
""",
}

# sha256 of repr() of config_hetero(variance, 0)'s per-box upload slots: the
# hetero-sweep saturates at the ceiling, so its CSV alone does not show a
# change to the draw or to its [1/s, 2+2/s] bounds
UPLOAD_SLOTS_SHA256 = {
    0.5: "728d90e470db15803b0aac8ace40779a4bcea4abcb2429067ae923ca32c7026b",
    1.0: "dddcafaf3cc2a4904e20200998e57fea5c76e653ff9189d7fe52f77f6315cc41",
}


@pytest.mark.parametrize("name,kind", sorted(EXPECTED))
def test_sweep_csv_matches_recording(name, kind, tmp_path):
    path = run_sweep(name, kind, "static", seed=0, runs=1,
                     outdir=str(tmp_path), values=VALUES[name])
    assert open(path).read() == EXPECTED[(name, kind)]


@pytest.mark.parametrize("variance", sorted(UPLOAD_SLOTS_SHA256))
def test_hetero_uploads_match_recording(variance):
    cfg = config_hetero(variance, 0)
    slots = [cfg.upload_slots(i) for i in range(cfg.n)]
    digest = hashlib.sha256(repr(slots).encode()).hexdigest()
    assert digest == UPLOAD_SLOTS_SHA256[variance]
