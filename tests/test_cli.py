import os

import pytest

from grushin.cli import main

RIESZ_GRID = ["--set", "d1=1", "--set", "d2=1",
              "--set", "x1_extent=28", "--set", "x1_count=56",
              "--set", "x2_count=128",
              "--set", "lambda_min=0.015625", "--set", "lambda_max=0.5",
              "--set", "lambda_count=32"]


def _assert_plain_float_rows(path, columns):
    """Every data cell parses with float(): no ``np.float64(...)`` text."""
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("#")]
    assert len(lines) > 1
    for line in lines[1:]:
        assert len([float(v) for v in line.split(",")]) == columns


def test_grid_command_and_missing_key(tmp_path):
    out = tmp_path / "g.cfg"
    rc = main(["grid"] + RIESZ_GRID + ["--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("# config_hash=")
    assert "lambda_count=32" in text

    cfg = tmp_path / "broken.cfg"
    cfg.write_text("d2=1\n")
    with pytest.raises(SystemExit) as err:
        main(["grid", "--config", str(cfg), "--out", str(out)])
    assert "d1" in str(err.value)


def test_field_and_riesz_commands(tmp_path):
    os.chdir(tmp_path)
    rc = main(["field"] + RIESZ_GRID + ["--set", "seed=1",
                                        "--out", str(tmp_path / "f")])
    assert rc == 0
    assert (tmp_path / "f.grsh").exists()
    assert (tmp_path / "f.csv").read_text().startswith("# config_hash=")
    _assert_plain_float_rows(tmp_path / "f.csv", 4)

    rc = main(["riesz"] + RIESZ_GRID
              + ["--set", "alpha=1.0", "--set", "j=3",
                 "--set", "band_lo=0.34", "--set", "band_hi=0.495",
                 "--out", str(tmp_path / "r")])
    assert rc == 0
    manifest = (tmp_path / "r.manifest").read_text()
    assert "verdict_separation_rel_l2=" in manifest
    dev = float([line.split("=", 1)[1] for line in manifest.splitlines()
                 if line.startswith("verdict_separation_rel_l2=")][0])
    assert dev <= 1e-6
    _assert_plain_float_rows(tmp_path / "r.csv", 4)


def test_kernel_command(tmp_path):
    out = tmp_path / "k.csv"
    rc = main(["kernel"] + RIESZ_GRID
              + ["--set", "symbol=dyadic", "--set", "symbol.j=2",
                 "--set", "symbol.alpha=1.0", "--set", "n_points=4",
                 "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "x1,x2,y1,y2,z1,z2,re,im"
    assert len(lines) == 6
    for line in lines[2:]:
        assert len([float(v) for v in line.split(",")]) == 8

    # linear path: a 1-D symbol name
    rc = main(["kernel"] + RIESZ_GRID
              + ["--set", "symbol=bump", "--set", "n_points=3",
                 "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "x1,x2,y1,y2,re,im"
    assert len(lines) == 5
    for line in lines[2:]:
        assert len([float(v) for v in line.split(",")]) == 6


def test_thresholds_command_corners(tmp_path):
    out = tmp_path / "thr.csv"
    rc = main(["thresholds", "--set", "d1=1", "--set", "d2=1",
               "--set", "resolution=2", "--out", str(out)])
    assert rc == 0
    rows = {}
    for line in out.read_text().splitlines()[2:]:
        u, v, region, alpha, variant = line.split(",")
        rows[(u, v)] = float(alpha)
    assert rows[("0.0", "0.0")] == pytest.approx(1.5)
    assert rows[("1.0", "1.0")] == pytest.approx(2.0)
    assert len(rows) == 9

    rc = main(["thresholds", "--set", "d1=1", "--set", "d2=1",
               "--set", "variant=restricted", "--set", "resolution=2",
               "--out", str(out)])
    assert rc == 0
    rows = {tuple(line.split(",")[:2]): line.split(",")[3]
            for line in out.read_text().splitlines()[2:]}
    assert float(rows[("1.0", "1.0")]) == pytest.approx(2.0)
    assert float(rows[("1.0", "0.0")]) == pytest.approx(1.0)


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--set", "suite=bogus"])
    assert "core" in str(err.value)


def test_probe_dilation_and_replay(tmp_path):
    out = tmp_path / "dil.csv"
    rc = main(["probe", "--probe", "dilation", "--set", "t=2.0",
               "--out", str(out)])
    assert rc == 0
    first = out.read_bytes()

    replay_out = tmp_path / "dil2.csv"
    rc = main(["replay", str(out) + ".manifest", "--out", str(replay_out)])
    assert rc == 0
    second = replay_out.read_bytes()
    assert first == second


def test_verify_core_suite(tmp_path):
    outdir = tmp_path / "verify"
    rc = main(["verify", "--suite", "core", "--out", str(outdir)])
    assert rc == 0
    verdicts = (outdir / "verdicts.csv").read_text()
    assert "aggregate,PASS" in verdicts
    assert (outdir / "manifest.txt").exists()
    for name in ("core_partition.csv", "core_roundtrip.csv"):
        _assert_plain_float_rows(outdir / name, 4)


def test_workers_env_override(tmp_path, monkeypatch):
    from grushin.reductions import default_workers
    monkeypatch.setenv("GRUSHIN_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("GRUSHIN_WORKERS", "junk")
    assert default_workers() == 1
