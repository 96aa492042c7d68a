import numpy as np
import pytest

from helpers import load_allocation, load_events
from vodsim.cli import SWEEPS, config_for_k, main, offline_boxes, run_sweep
from vodsim.config import dump_config, errors_of, load_config, validate_config


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text(dump_config(config_for_k(10)))
    return str(path)


def test_sweep_config_builders_are_valid():
    for k in (1, 3, 6, 7, 10, 20):
        assert errors_of(validate_config(config_for_k(k))) == []
    for s in (1, 2, 15, 30):
        assert errors_of(validate_config(config_for_k(10, s=s))) == []
    for var in (0.0, 0.5, 1.0):
        for k in (3, 10):
            cfg, _ = SWEEPS["hetero-sweep"].axis(config_for_k(k), var, 3)
            assert errors_of(validate_config(cfg)) == []
            assert cfg.total_upload_slots == 100 * 16


def test_offline_sample_is_fixed_per_seed():
    cfg = config_for_k(10)
    assert offline_boxes(cfg, 0.2, 7) == offline_boxes(cfg, 0.2, 7)
    assert len(offline_boxes(cfg, 0.2, 7)) == 20


def test_validate_command(cfg_file, tmp_path, capsys):
    assert main(["validate", "--config", cfg_file]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("n=4\nu=1\nd=2\nc=1\ns=2\nk=2\nm=4\n")  # s > c
    assert main(["validate", "--config", str(bad)]) == 1
    assert "s > c" in capsys.readouterr().out


def test_bounds_command(cfg_file, capsys):
    assert main(["bounds", "--config", cfg_file]) == 0
    out = capsys.readouterr().out
    assert "catalog cap" in out
    assert main(["bounds", "--config", cfg_file, "--kv"]) == 0
    out = capsys.readouterr().out
    assert any(line.startswith("k_min=") for line in out.splitlines())


def test_bounds_command_rejects_negative_upload(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n=2\nu=-1,3\nd=0,2\nc=1\ns=1\nk=1\nm=1\n"
                   "allocation_mode=purely_random\n")
    assert main(["bounds", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "u_0 = -1 is negative" in captured.err
    assert "balance ratio" not in captured.out


def test_allocate_command_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n=4\nu=1\nd=2\nc=1\ns=1\nk=2\nm=4\n")
    out_path = tmp_path / "alloc.txt"
    assert main(["allocate", "--config", str(cfg), "--seed", "5",
                 "--output", str(out_path)]) == 0
    table = load_allocation(out_path.read_text())
    assert table.placement.shape == (4, 1, 2)
    from vodsim.allocation import allocate_regular
    from vodsim.config import load_config
    direct = allocate_regular(load_config(str(cfg)), 5)
    assert np.array_equal(table.placement, direct.placement)


def test_stressless_command(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n=8\nu=2\nd=2\nc=2\ns=2\nk=2\nm=8\nv_S=4\n")
    out_path = tmp_path / "events.txt"
    rc = main(["stressless", "--config", str(cfg), "--events", "30",
               "--seed", "2", "--p-f", "0.2", "--output", str(out_path)])
    assert rc == 0
    events = load_events(out_path.read_text())
    assert events


def test_single_experiment_writes_metrics(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n=8\nu=2\nd=2\nc=2\ns=2\nk=2\nm=8\nvideo_duration=6\n")
    rc = main(["experiment", "--name", "single", "--config", str(cfg),
               "--adversary", "random", "--seed", "1", "--ticks", "20",
               "--output", str(tmp_path / "out")])
    assert rc == 0
    path = tmp_path / "out" / "single_random_static.csv"
    text = path.read_text()
    assert "# schema=vodsim-metrics-v1" in text
    assert "# config: n = 8" in text
    assert text.strip().splitlines()[-1].startswith("summary,")


def test_sweep_axes_rebuild_the_reference_points():
    base = config_for_k(10)
    for k in SWEEPS["k-sweep"].values:
        assert SWEEPS["k-sweep"].axis(base, k, 0) == (config_for_k(k), [])
    for s in SWEEPS["s-sweep"].values:
        assert SWEEPS["s-sweep"].axis(base, s, 0) == (config_for_k(10, s=s), [])


def test_sweeps_run_on_a_config_file(tmp_path):
    # at the file's own k and s, sd 0 and no offline box each sweep's point
    # is the file's system (u = mu = 1+1/s for the s-sweep), so ceiling and
    # target are the file's: 8*3 slots // s = 12, and 8 boxes or 6 at 25 %
    cfg = tmp_path / "small.cfg"
    cfg.write_text("n=8\nu=3/2\nd=2\nc=2\ns=2\nk=2\nm=8\nmu=3/2\n")
    dumped = dump_config(load_config(str(cfg))).splitlines()
    out = tmp_path / "out"
    for name, values, targets in (("k-sweep", "2", [8]), ("s-sweep", "2", [8]),
                                  ("hetero-sweep", "0", [8]),
                                  ("failure-sweep", "0,0.25", [8, 6])):
        assert main(["experiment", "--name", name, "--config", str(cfg),
                     "--values", values, "--runs", "2",
                     "--output", str(out)]) == 0
        lines = (out / f"{name}_random.csv").read_text().splitlines()
        assert lines[2].endswith(f"--config {cfg}")
        assert [l for l in lines if l.startswith("# config: ")] == [
            f"# config: {l}" for l in dumped]
        rows = [l.split(",") for l in lines if l[0].isdigit()]
        assert [(r[6], r[7]) for r in rows] == [("12", str(t)) for t in targets]
    hetero = (out / "hetero-sweep_random.csv").read_text()
    assert "Gaussian(mean=3/2, sd=value) truncated to [1/s, 3]" in hetero


def test_reproduce_line_names_options_off_their_defaults(tmp_path):
    assert main(["experiment", "--name", "k-sweep", "--adversary", "zipf",
                 "--gamma", "1.0", "--values", "3", "--runs", "1",
                 "--output", str(tmp_path)]) == 0
    lines = (tmp_path / "k-sweep_zipf.csv").read_text().splitlines()
    assert lines[2] == ("# reproduce: vodsim experiment --name k-sweep "
                        "--adversary zipf --mode static --seed 0 --runs 1 "
                        "--gamma 1.0")
    assert lines[-1].startswith("3,1,104.000,")


@pytest.mark.parametrize("name,values,why", [
    ("k-sweep", "6,6", "repeats a value"),
    ("k-sweep", "2.5", "2.5 is not int"),
    ("s-sweep", "0", "0.0 is not int"),
    ("failure-sweep", "1.5", "1.5 is not float in [0, 1]"),
    ("failure-sweep", "-0.1", "-0.1 is not float"),
    ("hetero-sweep", "inf", "inf is not float"),
    ("k-sweep", "4000", "k-sweep at 4000: error: m < 1"),
])
def test_sweep_values_are_checked_before_any_probe(name, values, why,
                                                   tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["experiment", "--name", name, "--values", values,
               "--runs", "1", "--output", str(out)])
    assert rc == 1
    assert why in capsys.readouterr().err
    assert not out.exists()


def test_small_sweep_output_format(tmp_path):
    path = run_sweep("k-sweep", "random", "static", seed=0, runs=2,
                     outdir=str(tmp_path), values=[10, 12])
    text = open(path).read()
    lines = text.splitlines()
    assert lines[0].startswith("# experiment=k-sweep")
    assert any(line.startswith("# reproduce:") for line in lines)
    header = [l for l in lines if l.startswith("value,")][0]
    assert "satisfied_per_seed" in header
    rows = [l for l in lines if not l.startswith("#") and not l.startswith("value")]
    assert len(rows) == 2
    first = rows[0].split(",")
    assert first[0] == "10" and first[1] == "2"
    assert int(first[6]) == 106  # ceiling column
    # deterministic re-run produces identical bytes
    path2 = run_sweep("k-sweep", "random", "static", seed=0, runs=2,
                      outdir=str(tmp_path), values=[10, 12])
    assert open(path2).read() == text


def test_sweep_workers_match_serial(tmp_path):
    serial = run_sweep("failure-sweep", "random", "static", seed=0, runs=2,
                       outdir=str(tmp_path / "a"), values=[0.0, 0.2])
    parallel = run_sweep("failure-sweep", "random", "static", seed=0, runs=2,
                         outdir=str(tmp_path / "b"), values=[0.0, 0.2],
                         workers=2)
    assert open(serial).read() == open(parallel).read()


def test_unknown_experiment_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "--name", "nope"])
