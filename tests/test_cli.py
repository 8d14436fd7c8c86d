import os

import pytest

from grushin import cli
from grushin.cli import main
from grushin.fields import SpectralField
from grushin.geometry import Point
from grushin.grid import Grid
from grushin.report import ProbeReport
from grushin.symbols import RieszParams
from grushin.verifier import DecayProbeSpec

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


@pytest.mark.parametrize("bad", ["x1_extent=nan", "lambda_max=inf",
                                 "x1_count=4.0"])
def test_bad_grid_values_stop_before_anything_is_written(tmp_path, bad):
    out = tmp_path / "g.cfg"
    with pytest.raises(SystemExit, match=bad.split("=")[0]):
        main(["grid", "--set", "d1=1", "--set", "d2=1", "--set", bad,
              "--out", str(out)])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [["alpha=nan"], ["R=nan"], ["alpha=inf"],
                                 ["j=2", "alpha=nan"]])
def test_non_finite_riesz_parameters_stop_before_anything_is_written(
        tmp_path, bad):
    sets = [a for item in bad for a in ("--set", item)]
    name = bad[-1].split("=")[0]
    with pytest.raises(SystemExit, match=f"{name} must be finite"):
        main(["riesz"] + RIESZ_GRID + sets + ["--out", str(tmp_path / "r")])
    assert list(tmp_path.iterdir()) == []


def test_decay_probe_rejects_a_nan_alpha_before_writing(tmp_path):
    with pytest.raises(SystemExit,
                       match="^bad probe config: alpha must be finite"):
        main(["probe", "--probe", "decay", "--set", "alpha=nan",
              "--out", str(tmp_path / "p.csv")])
    assert list(tmp_path.iterdir()) == []


def test_verify_rejects_a_nan_alpha_before_writing(tmp_path):
    with pytest.raises(SystemExit,
                       match="^bad probe config: alpha must be finite"):
        main(["verify", "--suite", "decay", "--set", "alpha=nan",
              "--out", str(tmp_path / "v")])
    assert list(tmp_path.iterdir()) == []


def test_unknown_probe_kind_is_a_typed_error(tmp_path):
    with pytest.raises(SystemExit, match="^bad probe config: unknown kind"):
        main(["probe", "--probe", "plancherel", "--set", "kind=none",
              "--out", str(tmp_path / "p.csv")])
    assert list(tmp_path.iterdir()) == []


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


def test_field_at_its_defaults_writes_the_most_resolved_degree(tmp_path):
    # The default grid resolves degree <= 2 on the default band, so the
    # default degree is 2 there; where degree 4 resolves it stays 4.
    def field(grid, *sets):
        out = tmp_path / f"f{len(list(tmp_path.iterdir()))}"
        assert main(["field", *grid, *_sets(*sets), "--out", str(out)]) == 0
        csv = out.with_suffix(".csv")
        _assert_plain_float_rows(csv, 4)
        # the field's bytes, without the config hash line
        return (csv.read_bytes().split(b"\n", 1)[1],
                out.with_suffix(".grsh").read_bytes())

    default = _sets("d1=1", "d2=1")
    assert field(default) == field(default, "max_degree=2")
    assert field(default) != field(default, "max_degree=1")
    assert field(RIESZ_GRID) == field(RIESZ_GRID, "max_degree=4")


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


def test_kernel_command_rejects_an_unknown_symbol_before_writing(tmp_path):
    out = tmp_path / "k.csv"
    with pytest.raises(SystemExit) as err:
        main(["kernel"] + RIESZ_GRID + ["--set", "symbol=nope",
                                        "--out", str(out)])
    for name in ("riesz", "dyadic", "tensor-bump", "indicator", "gaussian",
                 "bump"):
        assert repr(name) in str(err.value)
    assert not out.exists()

    # riesz names the bilinear symbol, not the 1-D one
    assert main(["kernel"] + RIESZ_GRID + ["--set", "n_points=2",
                                           "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "x1,x2,y1,y2,z1,z2,re,im"


def test_kernel_command_rejects_no_points_before_writing(tmp_path):
    out = tmp_path / "k.csv"
    for n in ("0", "-1"):
        with pytest.raises(SystemExit, match="n_points"):
            main(["kernel"] + RIESZ_GRID + ["--set", f"n_points={n}",
                                            "--out", str(out)])
    assert not out.exists()
    assert not (tmp_path / "k.csv.manifest").exists()


@pytest.mark.parametrize("argv, name, error", [
    pytest.param(["kernel"] + RIESZ_GRID + ["--set", "symbol=dyadic"],
                 "bilinear_kernel_batch", KeyError("inside the kernel batch"),
                 id="kernel"),
    pytest.param(["probe", "--probe", "decay"], "dyadic_decay_probe",
                 ValueError("inside the decay probe"), id="probe-decay"),
])
def test_a_library_error_stays_a_traceback(tmp_path, monkeypatch, argv, name,
                                           error):
    """Only a ConfigError becomes a one-line message: a plain KeyError or
    ValueError from inside the library propagates unchanged."""
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, name, fail)
    with pytest.raises(type(error)) as err:
        main(argv + ["--out", str(tmp_path / "out")])
    assert err.value is error


def _sets(*items):
    return [a for item in items for a in ("--set", item)]


# case -> (argv without --out, start of the message); "{config}" is a
# config file whose second line has no "=", "{binary}" one whose third line
# is not UTF-8, "{missing}" a path with no file
BAD_CONFIGS = {
    "field-degree": (["field"] + _sets("d1=1", "d2=1", "max_degree=4"),
                     "bad field config: degree 4 unresolvable"),
    "field-family": (["field"] + RIESZ_GRID + _sets("family=nope"),
                     "bad field config: unknown family 'nope'"),
    "field-seed": (["field"] + RIESZ_GRID + _sets("seed=abc"),
                   "bad field config: seed must parse as int"),
    "field-max-degree": (["field"] + RIESZ_GRID + _sets("max_degree=-1"),
                         "bad field config: max_degree must be >= 0"),
    "thresholds-variant": (["thresholds"] + _sets("variant=nope"),
                           "bad thresholds config: unknown variant 'nope'; "
                           "available: ('general', 'restricted')"),
    "thresholds-resolution": (["thresholds"] + _sets("resolution=abc"),
                              "bad thresholds config: resolution must parse"),
    "riesz-band": (["riesz"] + RIESZ_GRID + _sets("band_lo=5", "band_hi=6"),
                   "bad riesz config: family band (5.0, 6.0) misses"),
    "kernel-symbol-param": (["kernel"] + RIESZ_GRID
                            + _sets("symbol=bump", "symbol.lo=abc"),
                            "bad kernel config: symbol.lo must parse as float"),
    "verify-workers": (["verify"] + _sets("workers=abc"),
                       "bad probe config: workers must parse as int"),
    "verify-workers-zero": (["verify"] + _sets("workers=0"),
                            "bad probe config: workers must be >= 1"),
    "probe-workers-negative": (["probe"] + _sets("workers=-2"),
                               "bad probe config: workers must be >= 1"),
    "config-file-line": (["grid", "--config", "{config}"],
                         "bad grid config: line 2: expected key=value"),
    "config-file-not-utf8": (["grid", "--config", "{binary}"],
                             "bad grid config: cannot read {binary}: not UTF-8"),
    "replay-missing": (["replay", "{missing}"],
                       "bad replay config: cannot read "),
    "probe-decay-alpha": (["probe", "--probe", "decay"] + _sets("alpha=abc"),
                          "bad probe config: alpha must parse as float"),
    "probe-kernel-variant": (["probe", "--probe", "kernel"]
                             + _sets("variant=zz"),
                             "bad probe config: unknown variant 'zz'"),
    "probe-dilation-t": (["probe", "--probe", "dilation"] + _sets("t=-1"),
                         "bad probe config: dilation ratio must be positive"),
    "probe-plancherel-gamma": (["probe", "--probe", "plancherel"]
                               + _sets("gamma1=0.9"),
                               "bad probe config: gamma exponents must lie"),
    "probe-weight-layer": (["probe", "--probe", "weight-integral"]
                           + _sets("layer=nope"),
                           "bad probe config: unknown layer 'nope'; "
                           "available: ('first', 'second')"),
    "probe-name": (["probe"] + _sets("probe=bogus"),
                   "bad probe config: unknown probe 'bogus'; "
                   "available: ('partition', 'roundtrip', "),
    "set-without-value": (["grid", "--set", "d1"],
                          "bad grid config: --set expects key=value, "
                          "got 'd1'"),
}


@pytest.mark.parametrize("case", BAD_CONFIGS)
def test_a_bad_config_stops_with_one_line_and_writes_nothing(
        tmp_path, tmp_path_factory, case):
    argv, start = BAD_CONFIGS[case]
    config = tmp_path_factory.mktemp("config") / "bad.cfg"
    config.write_text("d1=1\nd2\n")
    binary = config.with_name("binary.cfg")
    binary.write_bytes(b"d1=1\nd2=1\nx1_count=\xff\xfe\n")
    paths = {"config": str(config), "binary": str(binary),
             "missing": str(tmp_path / "no.manifest")}
    with pytest.raises(SystemExit) as err:
        main([a.format(**paths) for a in argv]
             + ["--out", str(tmp_path / "out")])
    message = str(err.value)
    assert message.startswith(start.format(**paths))
    assert "\n" not in message
    assert list(tmp_path.iterdir()) == []


def test_replay_of_a_manifest_with_no_command_stops(tmp_path):
    manifest = tmp_path / "bare.manifest"
    manifest.write_text("d1=1\nd2=1\n")
    with pytest.raises(SystemExit) as err:
        main(["replay", str(manifest), "--out", str(tmp_path / "out")])
    assert str(err.value) == ("bad replay config: manifest has no "
                              "replayable command: None")
    assert list(tmp_path.iterdir()) == [manifest]


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


def test_the_environment_sets_no_worker_count(monkeypatch):
    """Only the ``workers`` config key sets the thread count: with no
    count given, ``parallel_map`` starts no thread whatever the
    environment."""
    import threading

    from grushin.reductions import parallel_map

    def no_thread(self):
        raise AssertionError("parallel_map started a thread")

    monkeypatch.setenv("GRUSHIN_WORKERS", "3")
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert parallel_map(lambda x: x * x, range(5)) == [0, 1, 4, 9, 16]


# The probe functions the table in grushin.cli calls, by module-global name.
PROBE_FUNCTIONS = ("partition_probe", "roundtrip_probe",
                   "pointwise_kernel_probe", "weighted_plancherel_probe",
                   "restriction_probe", "coefficient_decay_probe",
                   "dyadic_decay_probe", "mixed_norm_decay_probe",
                   "dilation_covariance_check", "weight_integral_check")


def _plain(value):
    """Call arguments in comparable form; fields and grids by type name."""
    if isinstance(value, Point):
        return ("Point", value.x1.tolist(), value.x2.tolist())
    if isinstance(value, (SpectralField, Grid)):
        return type(value).__name__
    return value


@pytest.fixture
def probe_calls(monkeypatch):
    """Stub every probe on grushin.cli; the list records each call."""
    calls = []
    for name in PROBE_FUNCTIONS:
        def stub(*args, _name=name, **kwargs):
            calls.append((_name, tuple(_plain(a) for a in args),
                          {k: _plain(v) for k, v in kwargs.items()}))
            return ProbeReport.deviation(0.0, 1.0)
        monkeypatch.setattr(cli, name, stub)
    return calls


def _suite_calls(seed, workers, alpha, alpha_mixed):
    kernel = {"seed": seed, "workers": workers}
    plancherel = {"gamma1": 0.25, "gamma2": 0.25, "n1": 1.0, "n2": 0.0,
                  "workers": workers}
    return [
        ("partition_probe", (), {}),
        ("roundtrip_probe", (), {}),
        ("pointwise_kernel_probe", (1.0, 0.0, 0.0), {"variant": "xx", **kernel}),
        ("pointwise_kernel_probe", (1.0, 0.0, 0.0), {"variant": "yz", **kernel}),
        ("pointwise_kernel_probe", (1.0, 1.0, 0.0), {"variant": "xx", **kernel}),
        ("pointwise_kernel_probe", (1.0, 1.0, 0.0), {"variant": "yz", **kernel}),
        ("pointwise_kernel_probe", (1.0, 1.0, 1.0), {"variant": "xx", **kernel}),
        ("pointwise_kernel_probe", (1.0, 1.0, 1.0), {"variant": "yz", **kernel}),
        ("weighted_plancherel_probe", ("linear_first_layer",), plancherel),
        ("weighted_plancherel_probe", ("bilinear",), plancherel),
        ("weighted_plancherel_probe", ("second_layer",),
         {**plancherel, "gamma2": 0.4}),
        ("weighted_plancherel_probe", ("truncated",), plancherel),
        ("restriction_probe", (0.0,), {}),
        ("coefficient_decay_probe", (1.0, 0.05), {"workers": workers}),
        ("dyadic_decay_probe",
         (DecayProbeSpec(alpha=alpha, p1=2.0, p2=2.0, seed=seed),),
         {"workers": workers}),
        ("mixed_norm_decay_probe", (alpha_mixed,),
         {"seed": seed, "workers": workers}),
    ]


def test_verify_suite_calls_each_probe_with_its_keys(tmp_path, probe_calls):
    assert main(["verify", "--suite", "all", "--out",
                 str(tmp_path / "a")]) == 0
    assert probe_calls == _suite_calls(0, None, 0.5, 1.6)

    probe_calls.clear()
    assert main(["verify", "--suite", "all", "--set", "alpha=0.7",
                 "--set", "alpha_mixed=2.0", "--set", "seed=3",
                 "--set", "workers=2", "--out", str(tmp_path / "b")]) == 0
    assert probe_calls == _suite_calls(3, 2, 0.7, 2.0)

    probe_calls.clear()
    assert main(["verify", "--suite", "decay", "--out",
                 str(tmp_path / "c")]) == 0
    assert probe_calls == _suite_calls(0, None, 0.5, 1.6)[-3:]


PROBE_DEFAULT_CALLS = {
    "partition": ("partition_probe", (), {}),
    "roundtrip": ("roundtrip_probe", (), {}),
    "kernel": ("pointwise_kernel_probe", (1.0, 0.0, 0.0),
               {"variant": "xx", "seed": 0, "workers": None}),
    "plancherel": ("weighted_plancherel_probe", ("second_layer",),
                   {"gamma1": 0.25, "gamma2": 0.25, "n1": 1.0, "n2": 0.0,
                    "workers": None}),
    "restriction": ("restriction_probe", (0.0,), {}),
    "coefficient": ("coefficient_decay_probe", (1.0, 0.05), {"workers": None}),
    "decay": ("dyadic_decay_probe",
              (DecayProbeSpec(alpha=0.5, p1=2.0, p2=2.0, seed=0),),
              {"workers": None}),
    "mixed": ("mixed_norm_decay_probe", (1.6,), {"seed": 0, "workers": None}),
    "dilation": ("dilation_covariance_check",
                 (RieszParams(1.0, 4.0), "SpectralField",
                  "SpectralField", 2.0, "Grid"), {}),
    "weight-integral": ("weight_integral_check",
                        (("Point", [0.0], [0.0]), [0.25, 0.5, 1.0, 2.0, 4.0],
                         0.5, "first"), {}),
}


def test_probe_defaults_match_the_table(tmp_path, probe_calls):
    assert list(cli.PROBES) == list(PROBE_DEFAULT_CALLS)
    with pytest.raises(SystemExit):
        main(["probe", "--probe", "bogus"])
    for name, call in PROBE_DEFAULT_CALLS.items():
        probe_calls.clear()
        assert main(["probe", "--probe", name,
                     "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert probe_calls == [call]


def test_probe_partition_and_replay(tmp_path):
    out = tmp_path / "part.csv"
    assert main(["probe", "--probe", "partition", "--out", str(out)]) == 0
    replay_out = tmp_path / "part2.csv"
    assert main(["replay", str(out) + ".manifest",
                 "--out", str(replay_out)]) == 0
    assert out.read_bytes() == replay_out.read_bytes()
