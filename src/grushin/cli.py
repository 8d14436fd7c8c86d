"""Command-line experiment runner.

Subcommands build grids and fields, run the bilinear means and the
verification probes, and emit CSV/plot data plus a run manifest.  Every
run is replayable: the manifest records the fully resolved flat
key-value configuration, and replaying it reproduces bit-identical
outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .calculus import bilinear_kernel_batch, linear_kernel_batch
from .dims import ConfigError, Dims, config_value, in_range, known_name
from .fields import (analyze, lp_norm, support_degree, synthesize,
                     write_field_binary, write_field_csv)
from .geometry import Point, weight_integral_check
from .grid import GRID_KEYS, GridSpec, format_flat_config, make_grid, \
    parse_flat_config
from .report import ProbeReport, csv_row
from .riesz import (bilinear_apply_direct, bilinear_apply_separated,
                    build_expansion, dilation_covariance_check)
from .symbols import (DyadicPiece, RieszParams, Symbol2D, builtin_symbol,
                      dyadic_piece_symbol, riesz_symbol, truncated_power)
from .thresholds import threshold_table
from .verifier import (DecayProbeSpec, coefficient_decay_probe,
                       dyadic_decay_probe, family_fields, live_eigenvalues,
                       mixed_norm_decay_probe, pointwise_kernel_probe,
                       probe_grid, restriction_probe,
                       weighted_plancherel_probe)


def _read_config_file(path: str) -> dict:
    """The flat config in the file at ``path`` (a config or a manifest)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"cannot read {path}: not UTF-8 text "
                          f"(byte {err.start})") from None
    return parse_flat_config(text)


def _resolve_config(args) -> tuple[str, dict]:
    """The command and its config: a manifest's, or --config then --set's;
    an --out in a missing directory stops it here (verify makes its own)."""
    command, cfg = args.command, {}
    if command == "replay":
        record = _read_config_file(args.manifest)
        command = record.get("command")
        if command not in _COMMANDS:
            raise ConfigError(f"manifest has no replayable command: {command!r}")
        drop = {"command", "config_hash", "library_version", "wall_clock_s",
                "outputs"}
        cfg = {k: v for k, v in record.items() if k not in drop
               and not k.startswith(("verdict_", "detail_"))}
    elif args.config:
        cfg = _read_config_file(args.config)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        cfg[key.strip()] = val.strip()
    for key in ("suite", "probe"):
        if getattr(args, key, None):
            cfg.setdefault(key, getattr(args, key))
    folder = os.path.dirname(args.out or "") or "."
    if command != "verify" and not os.path.isdir(folder):
        raise ConfigError(f"cannot write {args.out}: no directory {folder}")
    return command, cfg


def config_hash(cfg: dict) -> str:
    canon = format_flat_config({k: str(v) for k, v in sorted(cfg.items())})
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _grid_from_config(cfg: dict):
    missing = [k for k in ("d1", "d2") if k not in cfg]
    if missing:
        raise ConfigError(f"missing required config key: {missing[0]}")
    spec = GridSpec.from_mapping(cfg)
    return make_grid(Dims(spec.d1, spec.d2), spec)


def _write_manifest(path: str, command: str, cfg: dict, outputs: list[str],
                    verdicts: dict, started: float):
    """A verdict may be a probe report: its details are written too."""
    record = {**cfg, "command": command, "config_hash": config_hash(cfg),
              "library_version": __version__,
              "wall_clock_s": f"{time.time() - started:.3f}",
              "outputs": ";".join(outputs)}
    for name, v in verdicts.items():
        if isinstance(v, ProbeReport):
            record.update({f"detail_{name}.{key}": repr(d)
                           for key, d in v.details.items()})
            v = v.verdict
        record[f"verdict_{name}"] = v
    with open(path, "w") as fh:
        fh.write(format_flat_config({k: str(v) for k, v in record.items()}))


def _write_field_pair(h, out: str, cfg: dict) -> list[str]:
    """Write ``h`` to ``out``.grsh and ``out``.csv; the two paths."""
    write_field_binary(h, out + ".grsh")
    write_field_csv(h, out + ".csv", [f"config_hash={config_hash(cfg)}"])
    return [out + ".grsh", out + ".csv"]


def _write_output(path: str, cfg: dict, text: str):
    """Write ``text`` to ``path`` under the ``# config_hash=`` line of ``cfg``."""
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash(cfg)}\n{text}")


# ---------------------------------------------------------------------------
# subcommands: each takes the resolved config and --out, and returns
# (manifest path, outputs, verdicts, message, exit status)

def cmd_grid(cfg: dict, out: str | None):
    grid = _grid_from_config(cfg)
    out = out or "grid.cfg"
    _write_output(out, cfg, format_flat_config(
        {k: str(getattr(grid.resolved, k)) for k in GRID_KEYS}))
    return (out + ".manifest", [out], {},
            f"grid written to {out} "
            f"({grid.n_x1} x {grid.resolved.x2_count} spatial nodes, "
            f"{grid.n_lambda} frequency nodes)", 0)


def cmd_field(cfg: dict, out: str | None):
    grid = _grid_from_config(cfg)
    family, seed = cfg.get("family", "hermite-bump"), _seed(cfg)
    # by default degree 4, or the most the grid resolves on the family's band
    band = family_fields(family, grid, seed, max_degree=0).lambda_abs
    f = family_fields(family, grid, seed, max_degree=config_value(
        cfg, "max_degree", max(0, min(4, support_degree(band, grid)))))
    out = out or "field"
    return (out + ".manifest", _write_field_pair(synthesize(f, grid), out, cfg),
            {}, f"field ({family}, seed {seed}) written to "
            f"{out}.grsh / {out}.csv", 0)


def cmd_riesz(cfg: dict, out: str | None):
    grid = _grid_from_config(cfg)
    alpha = config_value(cfg, "alpha", 1.0)
    piece = DyadicPiece(config_value(cfg, "j", 0), alpha) if "j" in cfg else None
    sym = (dyadic_piece_symbol(piece) if piece else
           riesz_symbol(RieszParams(alpha, config_value(cfg, "R", 1.0))))
    family, seed = cfg.get("family", "hermite-bump"), _seed(cfg)
    band = (in_range("band_lo", config_value(cfg, "band_lo", 1.0 / 8.0), 0),
            in_range("band_hi", config_value(cfg, "band_hi", 0.45), 0))
    f = family_fields(family, grid, seed, band=band)
    g = family_fields(family, grid, seed + 1, band=band)
    out = out or "riesz_out"
    verdicts = {}
    result = bilinear_apply_direct(sym, f, g, grid)
    if piece:
        exp = build_expansion(piece, eta1_samples=live_eigenvalues(f))
        sep = bilinear_apply_separated(exp, f, g, grid)
        den = math.sqrt(float(np.sum(np.abs(result.values) ** 2))) or 1.0
        dev = math.sqrt(float(np.sum(np.abs(sep.values - result.values) ** 2)))
        verdicts["separation_rel_l2"] = repr(dev / den)
        verdicts["separation_truncation"] = str(exp.truncation)
        verdicts["separation_tail"] = repr(exp.tail_bound)
        verdicts["separation_converged"] = str(exp.converged)
    return (out + ".manifest", _write_field_pair(result, out, cfg), verdicts,
            f"bilinear mean written to {out}.grsh; "
            + (f"separated-path deviation {verdicts['separation_rel_l2']}"
               if verdicts else f"norm {lp_norm(result, 2.0):.6e}"), 0)


def cmd_kernel(cfg: dict, out: str | None):
    grid = _grid_from_config(cfg)
    params = {k.split(".", 1)[1]: v for k, v in cfg.items()
              if k.startswith("symbol.")}
    sym = builtin_symbol(cfg.get("symbol", "riesz"), **params)
    n = in_range("n_points", config_value(cfg, "n_points", 16), 1)
    out = out or "kernel.csv"
    rng = np.random.default_rng(_seed(cfg))
    pts = [tuple((rng.uniform(-2, 2, grid.dims.d1),
                  rng.uniform(-4, 4, grid.dims.d2)) for _ in "xyz")
           for _ in range(n)]
    # a bilinear kernel is sampled at (x, y, z), a linear one at (x, y)
    layers = 3 if isinstance(sym, Symbol2D) else 2
    batch = bilinear_kernel_batch if layers == 3 else linear_kernel_batch
    vals = batch(sym, *([p[k] for p in pts] for k in range(layers)), grid)
    header = ",".join(f"{v}{k}" for v in "xyz"[:layers] for k in (1, 2))
    _write_output(out, cfg, header + ",re,im\n" + "".join(
        csv_row(*(c[0] for point in p[:layers] for c in point), v.real, v.imag)
        for p, v in zip(pts, vals)))
    return out + ".manifest", [out], {}, f"kernel samples written to {out}", 0


def cmd_thresholds(cfg: dict, out: str | None):
    dims = Dims(config_value(cfg, "d1", 1), config_value(cfg, "d2", 1))
    variant = cfg.get("variant", "general")
    resolution = config_value(cfg, "resolution", 20)
    out = out or "thresholds.csv"
    _write_output(out, cfg, threshold_table(dims, variant, resolution))
    return (out + ".manifest", [out], {},
            f"threshold table ({variant}, resolution {resolution}) "
            f"written to {out}", 0)


# ---------------------------------------------------------------------------
# probes

def partition_probe() -> ProbeReport:
    """The dyadic pieces sum to the truncated power away from its edge."""
    E1, E2 = np.meshgrid(np.linspace(0, 1, 201), np.linspace(0, 1, 199),
                         indexing="ij")
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        total = np.zeros_like(E1, dtype=complex)
        for j in range(13):
            total += dyadic_piece_symbol(DyadicPiece(j, alpha))(E1, E2)
        target = truncated_power(1.0 - E1 - E2, alpha)
        s = 1.0 - E1 - E2
        mask = (s >= 2.0 ** -12) | (s <= 0)
        worst = max(worst, float(np.max(np.abs(total - target)[mask])))
    return ProbeReport.deviation(worst, 1e-10)


def roundtrip_probe() -> ProbeReport:
    """analyze(synthesize(f)) recovers f's coefficients."""
    grid = probe_grid("default")
    f = family_fields("hermite-bump", grid, 0, band=(1.25, 2.0), max_degree=16)
    back = analyze(synthesize(f, grid), 16, lambda_support=f.lambda_support)
    return ProbeReport.deviation(
        float(np.max(np.abs(back.coeffs - f.coeffs))), 1e-6,
        reference=float(np.max(np.abs(f.coeffs))))


def _dilation_probe_run(cfg: dict, seed: int, workers):
    t = in_range("t", config_value(cfg, "t", 2.0), 0, lo_open=True)
    grid = probe_grid("dilation")
    f, g = (family_fields("hermite-bump", grid, s, band=(0.25, 0.75),
                          max_degree=2) for s in (seed, seed + 1))
    return dilation_covariance_check(
        RieszParams(config_value(cfg, "alpha", 1.0), t * t), f, g, t, grid)


# name -> run(cfg, seed, workers), with the defaults of `grushin probe`.
# Each run looks its probe up by module-global name when it is called, so
# a wrapper installed on this module's attribute sees every call.
PROBES = {
    "partition": lambda cfg, seed, workers: partition_probe(),
    "roundtrip": lambda cfg, seed, workers: roundtrip_probe(),
    "kernel": lambda cfg, seed, workers: pointwise_kernel_probe(
        config_value(cfg, "alpha", 1.0), config_value(cfg, "beta1", 0.0),
        config_value(cfg, "beta2", 0.0), variant=cfg.get("variant", "xx"),
        seed=seed, workers=workers),
    "plancherel": lambda cfg, seed, workers: weighted_plancherel_probe(
        cfg.get("kind", "second_layer"),
        gamma1=config_value(cfg, "gamma1", 0.25),
        gamma2=config_value(cfg, "gamma2", 0.25),
        n1=config_value(cfg, "N1", 1.0), n2=config_value(cfg, "N2", 0.0),
        workers=workers),
    "restriction": lambda cfg, seed, workers: restriction_probe(
        config_value(cfg, "gamma", 0.0)),
    "coefficient": lambda cfg, seed, workers: coefficient_decay_probe(
        config_value(cfg, "alpha", 1.0), config_value(cfg, "beta", 0.05),
        workers=workers),
    "decay": lambda cfg, seed, workers: dyadic_decay_probe(DecayProbeSpec(
        alpha=config_value(cfg, "alpha", 0.5), p1=config_value(cfg, "p1", 2.0),
        p2=config_value(cfg, "p2", 2.0), seed=seed), workers=workers),
    "mixed": lambda cfg, seed, workers: mixed_norm_decay_probe(
        config_value(cfg, "alpha", 1.6), seed=seed, workers=workers),
    "dilation": _dilation_probe_run,
    "weight-integral": lambda cfg, seed, workers: weight_integral_check(
        Point(*([in_range(a, config_value(cfg, a, 0.0), -math.inf,
                          lo_open=True)] for a in ("a1", "a2"))),
        [0.25, 0.5, 1.0, 2.0, 4.0], config_value(cfg, "gamma", 0.5),
        cfg.get("layer", "first")),
}

# (report name, probe, fixed keys): the entries of `grushin verify`.
SUITE = [
    ("core/partition", "partition", {}),
    ("core/roundtrip", "roundtrip", {}),
    *((f"kernel/b{b1:g}-{b2:g}-{variant}", "kernel",
       {"beta1": b1, "beta2": b2, "variant": variant})
      for b1, b2 in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
      for variant in ("xx", "yz")),
    ("plancherel/first-layer", "plancherel", {"kind": "linear_first_layer"}),
    ("plancherel/bilinear", "plancherel", {"kind": "bilinear"}),
    ("plancherel/second-layer", "plancherel",
     {"kind": "second_layer", "gamma2": 0.4}),
    ("plancherel/truncated", "plancherel", {"kind": "truncated"}),
    ("plancherel/restriction", "restriction", {}),
    ("decay/coefficient", "coefficient", {}),
    ("decay/2-2-1", "decay", {}),
    ("decay/mixed", "mixed", {}),
]
SUITES = ("core", "kernel", "plancherel", "decay", "all")
# The config key verify passes to one suite entry as its probe's alpha.
_SUITE_ALPHA = {"decay/2-2-1": "alpha", "decay/mixed": "alpha_mixed"}


def _workers(cfg: dict):
    """The ``workers`` key (at least 1), or None, one worker, if absent."""
    return (in_range("workers", config_value(cfg, "workers", 1), 1)
            if "workers" in cfg else None)


def _seed(cfg: dict) -> int:
    """The ``seed`` key (at least 0, as numpy asks), or 0 if absent."""
    return in_range("seed", config_value(cfg, "seed", 0), 0)


def cmd_verify(cfg: dict, out: str | None):
    suite = known_name("suite", cfg.setdefault("suite", "core"), SUITES)
    seed, workers = _seed(cfg), _workers(cfg)
    reports = {}
    for name, probe, keys in SUITE:
        if suite == "all" or name.startswith(suite + "/"):
            key = _SUITE_ALPHA.get(name)
            if key in cfg:   # read here, so that an error names the key typed
                keys = {**keys, "alpha": in_range(
                    key, config_value(cfg, key, 1.0), 0)}
            reports[name] = PROBES[probe](keys, seed, workers)
    out = out or f"verify_{suite}"
    os.makedirs(out, exist_ok=True)
    verdicts = {}
    lines = []
    for name, rep in sorted(reports.items()):
        safe = name.replace("/", "_")
        _write_output(os.path.join(out, safe + ".csv"), cfg, rep.to_csv())
        verdicts[safe] = rep
        lines.append(f"{name},{rep.verdict},{rep.slope!r},{rep.max_ratio!r}")
    agg = "PASS" if all(rep.passed for rep in reports.values()) else "FAIL"
    _write_output(os.path.join(out, "verdicts.csv"), cfg,
                  "probe,verdict,slope,max_ratio\n" + "\n".join(lines)
                  + f"\naggregate,{agg},,\n")
    message = "".join(f"{name}: {rep.verdict}\n"
                      for name, rep in sorted(reports.items()))
    return (os.path.join(out, "manifest.txt"), [out], verdicts,
            message + f"aggregate: {agg}", 0 if agg == "PASS" else 1)


def cmd_probe(cfg: dict, out: str | None):
    name = known_name("probe", cfg.setdefault("probe", "decay"), PROBES)
    rep = PROBES[name](cfg, _seed(cfg), _workers(cfg))
    out = out or f"probe_{name}.csv"
    _write_output(out, cfg, rep.to_csv())
    return (out + ".manifest", [out], {name: rep},
            f"{name}: {rep.verdict} (slope {rep.slope!r}, "
            f"max_ratio {rep.max_ratio!r})", 0 if rep.passed else 1)


# command -> (run, help); `replay` re-runs any of them from a manifest
_COMMANDS = {
    "grid": (cmd_grid, "build and validate a grid from a flat config"),
    "field": (cmd_field, "generate a family field and write it out"),
    "riesz": (cmd_riesz, "apply the bilinear mean (direct and separated)"),
    "kernel": (cmd_kernel, "sample multiplier kernels at random points"),
    "verify": (cmd_verify, "run a named probe suite"),
    "thresholds": (cmd_thresholds, "emit the smoothness-threshold table"),
    "probe": (cmd_probe, "run a single probe"),
}


def _run(command: str, cfg: dict, out: str | None, started: float) -> int:
    manifest, outputs, verdicts, message, status = _COMMANDS[command][0](cfg, out)
    _write_manifest(manifest, command, cfg, outputs, verdicts, started)
    print(message)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grushin",
        description="Spectral calculus and bilinear summability experiments "
                    "for the degenerate two-layer operator")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {name: text for name, (_, text) in _COMMANDS.items()}
    helps["replay"] = "re-run a recorded manifest"
    for name, helptext in helps.items():
        p = sub.add_parser(name, help=helptext)
        if name == "replay":
            p.add_argument("manifest")
        else:
            p.add_argument("--config", help="flat key=value config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a config key")
        if name == "verify":
            p.add_argument("--suite", choices=SUITES)
        if name == "probe":
            p.add_argument("--probe", choices=PROBES)
        p.add_argument("--out", help="output path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(*_resolve_config(args), args.out, time.time())
    except ConfigError as err:
        # verify's errors are its probes'; args[0], as str() quotes a KeyError
        topic = "probe" if args.command == "verify" else args.command
        raise SystemExit(f"bad {topic} config: {err.args[0]}") from None


if __name__ == "__main__":
    sys.exit(main())
