"""Per-layer timings of the separated path's coefficient, expansion,
symbol, contraction and binning layers, of the Sobolev norm, of the
weighted kernel norms, the gridded multiplier and the truncated probe's
forms, and of the pointwise kernel batches, on fixed configurations.

    python scripts/layer_bench.py --out BENCH.json \
        --run parent=../parent/src --run change=src

Each ``--run LABEL=SRC`` names the ``src`` directory of a checkout to
measure.  The labels are measured in ``REPEATS`` rounds, their order
alternating from round to round, so drift of the machine's speed shows
on every label alike.  Each round runs each label in a fresh interpreter
with one BLAS thread, and each layer of ``ALONE`` in a fresh interpreter
of its own, so that no layer timed before it sets its page faults: every
layer is called once to warm up, then timed once, then called once more,
untimed, under ``tracemalloc`` for its peak traced allocation.  The
median, the minimum and every sample of each layer, with the first
round's peak (``peak_mb``) and a checksum of its output (the sum of its
absolute values), are merged into the JSON file under its label, next
to the sha256 of the measured ``grushin`` sources and the numpy version.
Labels already in the file are kept.

The configurations are those of ``grushin verify --suite decay`` on the
``decay`` probe grid (library seed 0):

* ``fourier_coeff_batch``: the piece (j, alpha = 1) at l = 0..2048 and at
  the live eigenvalues of the first decay field, j = 1, 3, 6; and the
  coefficient probe's largest call, j = 8 at l = 0..512 and 257 eta1
  samples on [0, 1];
* ``build_expansion``: the decay probes' expansion of the piece, at the
  live eigenvalues of the first decay field with ``l_cap = 2048``,
  j = 1, 3, 6;
* ``truncated_series_symbol``: truncation 2048 at the distinct
  eigenvalues of both decay fields, j = 1, 3, 6, computed afresh, and
  (``carried``) from that expansion, which reads the coefficient table
  the expansion carries where the library keeps one; and (``shared``,
  j = 1) with the series trig tables made once beforehand
  (``riesz.series_trig``), as the decay probes share them among their
  pieces, where the library has them;
* ``_bilinear_contract``: that symbol on the distinct eigenvalue pairs,
  contracted against the atoms of the two decay fields (as
  ``bilinear_apply_separated`` does), j = 1, 3, 6;
* ``x2_inverse``: a random x'-fastest (64 x 45,796) array binned to the
  pair frequencies of the two fields, the shape of the bilinear
  contraction's output;
* ``sobolev_product_norm``: the piece j = 4 at s = (0.4, 0), 2048
  samples, pad 2 (in ``ALONE``).

and those of ``grushin verify --suite plancherel`` on the refined
``weighted`` grid (``probe_grid("weighted", 2)``), base point x' = 5,
with the probes' bump profile on (0.05, 0.45):

* ``second_layer_channel_l2`` at u-exponent 0.25, and at 1.0 with the
  frequency cutoff ``DyadicCutoff(3)``, each with its own channel sums
  (``channel_sums``);
* ``channel_sums`` of that profile alone, with the base point's atom
  profiles built in every call: a library that caches them
  (``calculus._base_point_bank``) has that cache cleared first;
* ``bilinear_weighted_l2`` of the tensor symbol at exponents (0, 0);
* ``linear_first_layer_weighted_l2`` of the first-layer probe's
  indicator symbol on [0, 0.45] at y' = 5, gamma = 0.25;
* ``apply_linear_multiplier_gridded`` of that indicator to the
  restriction probe's bump at x' = 4, width 1, and ``restriction_apply_l2``
  of the same pair at gamma = 0 (the restriction probe's weighted norm);
* ``lp_norm`` of that (448 x 2,048) bump field at p = 1 (the restriction
  probe's input norm) and ``mixed_norm`` of it at (p, q) = (2/3, 1) (the
  mixed decay probe's output norm);
* the whole restriction probe, ``restriction_probe(0)``, on the
  ``weighted`` grid and its refinement, with the grids' profile banks
  warm from the warm-up call;
* ``_power_cos_moments`` at p = 0.5 and k_max = 460, the u-weight moment
  table of the second-layer forms on that grid, computed afresh through
  its ``__wrapped__`` (the cache would answer every timed call);

and the whole truncated Plancherel probe on the (unrefined) ``weighted``
grid with one worker, ``weighted_plancherel_probe("truncated")``: its
channel sums at five base points and its 25 cutoff forms.  A library
that caches the grid's profile bank (``calculus._grid_bank``) reads it
from the cache after the warm-up call, as a probe does after its first
call on a grid;

and the field CSV of the README ``grushin riesz`` example (its grid,
alpha = 1, library seed 3):

* ``write_field_csv``: the bilinear mean of the piece j = 3, and of the
  piece j = 6, which is zero on that grid, each written to a temporary
  file; the checksum is the sum of the file's bytes;

and those of ``grushin verify --suite kernel`` on the ``decay`` grid,
alpha = 1:

* ``bilinear_kernel_batch``: the piece j at the 40 stratified triples of
  library seed 0, j = 1..6, warm (after the warm-up call, as the pieces
  after the first of a pass find them) and ``cold``: a library that
  caches the triples' projection tables (``calculus._pair_projections``)
  has that cache cleared first;
* ``kernel suite[j=1..6,cold]``: the six pieces in turn from a cleared
  cache, the kernel batches of one ``grushin verify --suite kernel`` pass;
* ``dyadic_piece_symbol``: the piece j at every pair of atom eigenvalues
  up to 1 (730 x 730 pairs, the cost of evaluating a symbol on every
  atom pair rather than once per distinct eigenvalue pair), j = 1, 3, 6.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

REPEATS = 5


def _layers():
    """(name, zero-argument callable) for every timed configuration."""
    import numpy as np
    from grushin import calculus, riesz
    from grushin.calculus import (apply_linear_multiplier_gridded,
                                  bilinear_kernel_batch, bilinear_weighted_l2,
                                  build_atoms, linear_first_layer_weighted_l2,
                                  restriction_apply_l2,
                                  second_layer_channel_l2)
    from grushin.dims import Dims
    from grushin.fields import (GriddedField, lp_norm, mixed_norm,
                                write_field_csv)
    from grushin.grid import GridSpec, make_grid
    from grushin.riesz import (FourierSeriesExpansion, _bilinear_contract,
                               bilinear_apply_direct, build_expansion,
                               fourier_coeff_batch, truncated_series_symbol)
    from grushin.symbols import (DyadicCutoff, DyadicPiece, bump_symbol_1d,
                                 dyadic_piece_symbol, indicator_symbol_1d,
                                 tensor_symbol)
    from grushin.verifier import (_stratified_triples, family_fields,
                                  live_eigenvalues, probe_grid,
                                  restriction_probe,
                                  weighted_plancherel_probe)

    grid = probe_grid("decay")
    band = (1.0 / 8.0, 0.96)
    f = family_fields("hermite-bump", grid, 0, band=band)
    g = family_fields("hermite-bump", grid, 1, band=band)
    live = live_eigenvalues(f)
    uniq_f, inv_f = np.unique(f.eigenvalues.reshape(-1), return_inverse=True)
    uniq_g, inv_g = np.unique(g.eigenvalues.reshape(-1), return_inverse=True)
    inv_f = inv_f.reshape(f.eigenvalues.shape)
    inv_g = inv_g.reshape(g.eigenvalues.shape)
    ls = np.arange(0, 2049)

    shared = ({"trig": riesz.series_trig(2048, uniq_g)}
              if hasattr(riesz, "series_trig") else {})

    out = []
    for j in (1, 3, 6):
        piece = DyadicPiece(j, 1.0)
        exp = FourierSeriesExpansion(piece, truncation=2048)
        out.append((f"fourier_coeff_batch[j={j}]",
                    lambda p=piece: fourier_coeff_batch(p, ls, live)))
        out.append((f"build_expansion[j={j}]",
                    lambda p=piece: build_expansion(p, eta1_samples=live,
                                                    l_cap=2048).tail_bound))
        out.append((f"truncated_series_symbol[j={j}]",
                    lambda e=exp: truncated_series_symbol(e, uniq_f, uniq_g)))
        if j == 1:
            out.append(("truncated_series_symbol[j=1,shared]",
                        lambda e=exp: truncated_series_symbol(
                            e, uniq_f, uniq_g, **shared)))
        built = build_expansion(piece, eta1_samples=live, l_cap=2048)
        out.append((f"truncated_series_symbol[j={j},carried]",
                    lambda e=built: truncated_series_symbol(e, uniq_f,
                                                            uniq_g)))
        table = truncated_series_symbol(exp, uniq_f, uniq_g)
        out.append((f"_bilinear_contract[j={j}]",
                    lambda t=table: _bilinear_contract(t, inv_f, inv_g, f, g,
                                                       grid).values))

    piece8 = DyadicPiece(8, 1.0)
    eta1 = np.linspace(0.0, 1.0, 257)
    out.append(("fourier_coeff_batch[j=8,coefficient]",
                lambda: fourier_coeff_batch(piece8, np.arange(0, 513), eta1)))

    nu = (f.lambda_support[:, None, :]
          + g.lambda_support[None, :, :]).reshape(-1, grid.dims.d2)
    rng = np.random.default_rng(0)
    coeffs = (rng.standard_normal((nu.shape[0], grid.n_x1))
              + 1j * rng.standard_normal((nu.shape[0], grid.n_x1))).T
    out.append((f"x2_inverse[{grid.n_x1}x{nu.shape[0]},F]",
                lambda: grid.x2_inverse(coeffs, nu)))

    wgrid = probe_grid("weighted", 2)
    prof = bump_symbol_1d(0.05, 0.45)
    x1 = np.array([5.0])

    def channel(exponent, cutoff=None):
        sums = calculus.channel_sums(prof, wgrid, x1)
        return second_layer_channel_l2(sums, exponent, cutoff)

    def fresh_channel_sums():
        cached = getattr(calculus, "_base_point_bank", None)
        if cached is not None:
            cached.cache_clear()
        return calculus.channel_sums(prof, wgrid, x1)[1]

    out.append(("channel_sums[prof,x1=5]", fresh_channel_sums))
    out.append(("second_layer_channel_l2[0.25]", lambda: channel(0.25)))
    out.append(("second_layer_channel_l2[1.0,cutoff3]",
                lambda: channel(1.0, DyadicCutoff(3))))
    out.append(("bilinear_weighted_l2[tensor,0,0]",
                lambda: bilinear_weighted_l2(tensor_symbol(prof, prof),
                                             (x1, np.zeros(1)), wgrid,
                                             0.0, 0.0)))
    ind = indicator_symbol_1d(0.0, 0.45)
    out.append(("linear_first_layer_weighted_l2[indicator,y=5,0.25]",
                lambda: linear_first_layer_weighted_l2(
                    ind, (x1, np.zeros(1)), wgrid, 0.25)))
    bump = GriddedField(grid=wgrid, values=(
        np.exp(-0.5 * (wgrid.x1_points[:, 0] - 4.0) ** 2)[:, None]
        * np.exp(-0.5 * (wgrid.x2_points[:, 0] / 4.0) ** 2)[None, :]
    ).astype(complex))
    out.append(("apply_linear_multiplier_gridded[indicator,bump x=4]",
                lambda: apply_linear_multiplier_gridded(ind, bump).values))
    out.append(("restriction_apply_l2[indicator,bump x=4,0]",
                lambda: restriction_apply_l2(ind, bump, 0.0)))
    out.append(("lp_norm[bump x=4,1]", lambda: lp_norm(bump, 1.0)))
    out.append(("mixed_norm[bump x=4,2/3,1]",
                lambda: mixed_norm(bump, 2.0 / 3.0, 1.0)))
    out.append(("restriction_probe[0,warm]",
                lambda: np.array(restriction_probe(0.0).details["ratios"])))
    out.append(("_power_cos_moments[p=0.5,460]",
                lambda: calculus._power_cos_moments.__wrapped__(0.5, 460)))
    out.append(("weighted_plancherel_probe[truncated]",
                lambda: np.array(weighted_plancherel_probe(
                    "truncated", workers=1).details["channel_values"])))

    triples = tuple(zip(*_stratified_triples(0)))
    pieces = [dyadic_piece_symbol(DyadicPiece(j, 1.0)) for j in range(1, 7)]

    def cold_batches(syms):
        cached = getattr(calculus, "_pair_projections", None)
        if cached is not None:
            cached.cache_clear()
        return np.concatenate([bilinear_kernel_batch(s, *triples, grid)
                               for s in syms])

    for j, sym in enumerate(pieces, 1):
        out.append((f"bilinear_kernel_batch[j={j}]",
                    lambda s=sym: bilinear_kernel_batch(s, *triples, grid)))
        out.append((f"bilinear_kernel_batch[j={j},cold]",
                    lambda s=sym: cold_batches([s])))
    out.append(("kernel suite[j=1..6,cold]", lambda: cold_batches(pieces)))
    eigen = build_atoms(grid, 1.0).eigen
    for j in (1, 3, 6):
        sym = dyadic_piece_symbol(DyadicPiece(j, 1.0))
        out.append((f"dyadic_piece_symbol[j={j}]",
                    lambda s=sym: s(eigen[:, None], eigen[None, :])))

    readme = GridSpec(x1_extent=28.0, x1_count=56, x2_count=128,
                      lambda_min=0.015625, lambda_max=0.5, lambda_count=32)
    rgrid = make_grid(Dims(1, 1), readme)
    rf, rg = (family_fields("hermite-bump", rgrid, s, band=(0.34, 0.495))
              for s in (3, 4))
    tmp = tempfile.TemporaryDirectory()     # removed when the child exits

    def written(h):
        path = os.path.join(tmp.name, "field.csv")
        write_field_csv(h, path, ["config_hash=0"])
        with open(path, "rb") as fh:
            return np.frombuffer(fh.read(), np.uint8)

    for j in (3, 6):
        h = bilinear_apply_direct(dyadic_piece_symbol(DyadicPiece(j, 1.0)),
                                  rf, rg, rgrid)
        out.append((f"write_field_csv[readme,j={j}]",
                    lambda h=h: written(h)))
    return out


def _sobolev_j4():
    from grushin.calculus import sobolev_product_norm
    from grushin.symbols import DyadicPiece, dyadic_piece_symbol
    piece = dyadic_piece_symbol(DyadicPiece(4, 1.0))
    return lambda: sobolev_product_norm(piece, 0.4, 0.0, samples=2048, pad=2)


# name -> a function that makes its call, for each layer timed in a
# child of its own: a transient of hundreds of MB takes the page faults
# that the layers timed before it in one interpreter would set.
ALONE = {"sobolev_product_norm[j=4,2048,pad2]": _sobolev_j4}


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "grushin").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _child(src: Path, alone: str | None) -> dict:
    """One round of one checkout: every layer, or the one ``alone`` layer,
    warmed up, timed once, then called once more under ``tracemalloc`` for
    its traced peak."""
    sys.path.insert(0, str(src))
    import numpy as np

    calls = _layers() if alone is None else [(alone, ALONE[alone]())]
    layers = {}
    for name, call in calls:
        call()
        t0 = time.perf_counter()
        value = call()
        seconds = time.perf_counter() - t0
        tracemalloc.start()
        call()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        layers[name] = {"s": seconds, "peak_mb": peak_mb,
                        "checksum": float(np.sum(np.abs(value)))}
    return {"numpy": np.__version__, "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    parser.add_argument("--run", action="append", metavar="LABEL=SRC",
                        help="a checkout's src directory, under a label")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--alone", choices=ALONE, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(Path(args.child), args.alone)))
        return 0
    if not args.out or not args.run:
        parser.error("--out and at least one --run are required")

    runs = [(label, Path(src).resolve())
            for label, src in (r.split("=", 1) for r in args.run)]
    # one BLAS thread, fixed before numpy loads in each child
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    rounds = {label: [] for label, _ in runs}
    for r in range(REPEATS):
        for label, src in (runs if r % 2 == 0 else runs[::-1]):
            children = []
            for alone in (None, *ALONE):
                done = subprocess.run(
                    [sys.executable, __file__, "--child", str(src)]
                    + (["--alone", alone] if alone else []), env=env,
                    check=True, capture_output=True, text=True)
                children.append(json.loads(done.stdout.splitlines()[-1]))
            for child in children[1:]:
                children[0]["layers"].update(child["layers"])
            rounds[label].append(children[0])
            print(f"round {r + 1}/{REPEATS}: {label}", flush=True)

    path = Path(args.out)
    record = json.loads(path.read_text()) if path.exists() else {}
    for label, src in runs:
        first = rounds[label][0]
        layers = {}
        for name, probe in first["layers"].items():
            samples = [rnd["layers"][name]["s"] for rnd in rounds[label]]
            layers[name] = {"median_s": statistics.median(samples),
                            "min_s": min(samples), "samples_s": samples,
                            "peak_mb": probe["peak_mb"],
                            "checksum": probe["checksum"]}
            print(f"{label} {name}: median {layers[name]['median_s']:.4f} s, "
                  f"min {layers[name]['min_s']:.4f} s, "
                  f"peak {probe['peak_mb']:.1f} MB")
        record.setdefault("runs", {})[label] = {
            "source_sha256": _source_digest(src), "numpy": first["numpy"],
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "repeats": REPEATS, "interleaved_with": [lb for lb, _ in runs],
            "layers": layers}
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
