"""Per-layer timings of the separated path's coefficient, symbol,
contraction and binning layers, of the Sobolev norm, of the weighted
kernel norms, the gridded multiplier and the truncated probe's forms,
and of the pointwise kernel batches, on fixed configurations.

    python scripts/layer_bench.py --label change --out BENCH.json
    python scripts/layer_bench.py --label parent --src ../parent/src \
        --out BENCH.json

``--src`` is the ``src`` directory of the checkout to measure (default:
this checkout's).  Each layer is called once to warm up, then timed
``REPEATS`` times with one BLAS thread, then called once more, untimed,
under ``tracemalloc`` for its peak traced allocation (``peak_mb``); the
median, the minimum, every sample, the peak and a checksum of the output
(the sum of its absolute values) are merged into the JSON file under
``--label``, next to the sha256 of the measured ``grushin`` sources and
the numpy version.  Labels already in the file are kept, so before and
after land in one file.

The configurations are those of ``grushin verify --suite decay`` on the
``decay`` probe grid (library seed 0):

* ``fourier_coeff_batch``: the piece (j, alpha = 1) at l = 0..2048 and at
  the live eigenvalues of the first decay field, j = 1, 3, 6; and the
  coefficient probe's largest call, j = 8 at l = 0..512 and 257 eta1
  samples on [0, 1];
* ``truncated_series_symbol``: truncation 2048 at the distinct
  eigenvalues of both decay fields, j = 1, 3, 6;
* ``_bilinear_contract``: that symbol gathered onto the atom pairs of
  the two decay fields (as ``bilinear_apply_separated`` does) and
  contracted against them, j = 1, 3, 6;
* ``x2_inverse``: a random x'-fastest (64 x 45,796) array binned to the
  pair frequencies of the two fields, the shape of the bilinear
  contraction's output;
* ``sobolev_product_norm``: the piece j = 4 at s = (0.4, 0), 2048
  samples, pad 2.

and those of ``grushin verify --suite plancherel`` on the refined
``weighted`` grid (``probe_grid("weighted", 2)``), base point x' = 5,
with the probes' bump profile on (0.05, 0.45):

* ``second_layer_channel_l2`` at u-exponent 0.25, and at 1.0 with the
  frequency cutoff ``DyadicCutoff(3)``, each with its own channel sums
  (``channel_sums``);
* ``bilinear_weighted_l2`` of the tensor symbol at exponents (0, 0);
* ``linear_first_layer_weighted_l2`` of the first-layer probe's
  indicator symbol on [0, 0.45] at y' = 5, gamma = 0.25;
* ``apply_linear_multiplier_gridded`` of that indicator to the
  restriction probe's bump at x' = 4, width 1;

and the whole truncated Plancherel probe on the (unrefined) ``weighted``
grid with one worker, ``weighted_plancherel_probe("truncated")``: its
channel sums at five base points and its 25 cutoff forms.  A library
that caches the grid's profile bank (``calculus._grid_bank``) reads it
from the cache after the warm-up call, as a probe does after its first
call on a grid;

and those of ``grushin verify --suite kernel`` on the ``decay`` grid,
alpha = 1:

* ``bilinear_kernel_batch``: the piece j at the 40 stratified triples of
  library seed 0, j = 1..6;
* ``dyadic_piece_symbol``: the piece j at every pair of atom eigenvalues
  up to 1 (730 x 730 pairs), j = 1, 3, 6.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5


def _layers():
    """(name, zero-argument callable) for every timed configuration."""
    import numpy as np
    from grushin import calculus
    from grushin.calculus import (apply_linear_multiplier_gridded,
                                  bilinear_kernel_batch, bilinear_weighted_l2,
                                  build_atoms, linear_first_layer_weighted_l2,
                                  second_layer_channel_l2,
                                  sobolev_product_norm)
    from grushin.fields import GriddedField
    from grushin.riesz import (FourierSeriesExpansion, _bilinear_contract,
                               fourier_coeff_batch, truncated_series_symbol)
    from grushin.symbols import (DyadicCutoff, DyadicPiece, bump_symbol_1d,
                                 dyadic_piece_symbol, indicator_symbol_1d,
                                 tensor_symbol)
    from grushin.verifier import (_stratified_triples, family_fields,
                                  live_eigenvalues, probe_grid,
                                  weighted_plancherel_probe)

    grid = probe_grid("decay")
    band = (1.0 / 8.0, 0.96)
    f = family_fields("hermite-bump", grid, 0, band=band)
    g = family_fields("hermite-bump", grid, 1, band=band)
    live = live_eigenvalues(f)
    uniq_f, inv_f = np.unique(f.eigenvalues.reshape(-1), return_inverse=True)
    uniq_g, inv_g = np.unique(g.eigenvalues.reshape(-1), return_inverse=True)
    ls = np.arange(0, 2049)

    out = []
    for j in (1, 3, 6):
        piece = DyadicPiece(j, 1.0)
        exp = FourierSeriesExpansion(piece, truncation=2048)
        out.append((f"fourier_coeff_batch[j={j}]",
                    lambda p=piece: fourier_coeff_batch(p, ls, live)))
        out.append((f"truncated_series_symbol[j={j}]",
                    lambda e=exp: truncated_series_symbol(e, uniq_f, uniq_g)))
        mt = truncated_series_symbol(exp, uniq_f, uniq_g)[
            np.ix_(inv_f, inv_g)].reshape(f.eigenvalues.shape
                                          + g.eigenvalues.shape)
        out.append((f"_bilinear_contract[j={j}]",
                    lambda m=mt: _bilinear_contract(m, f, g, grid).values))

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

    piece4 = dyadic_piece_symbol(DyadicPiece(4, 1.0))
    out.append(("sobolev_product_norm[j=4,2048,pad2]",
                lambda: sobolev_product_norm(piece4, 0.4, 0.0,
                                             samples=2048, pad=2)))

    wgrid = probe_grid("weighted", 2)
    prof = bump_symbol_1d(0.05, 0.45)
    x1 = np.array([5.0])

    def channel(exponent, cutoff=None):
        sums = calculus.channel_sums(prof, wgrid, x1)
        return second_layer_channel_l2(sums, exponent, cutoff)

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
    out.append(("weighted_plancherel_probe[truncated]",
                lambda: np.array(weighted_plancherel_probe(
                    "truncated", workers=1).details["channel_values"])))

    triples = tuple(zip(*_stratified_triples(0)))
    for j in range(1, 7):
        sym = dyadic_piece_symbol(DyadicPiece(j, 1.0))
        out.append((f"bilinear_kernel_batch[j={j}]",
                    lambda s=sym: bilinear_kernel_batch(s, *triples, grid)))
    eigen = build_atoms(grid, 1.0).eigen
    for j in (1, 3, 6):
        sym = dyadic_piece_symbol(DyadicPiece(j, 1.0))
        out.append((f"dyadic_piece_symbol[j={j}]",
                    lambda s=sym: s(eigen[:, None], eigen[None, :])))
    return out


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "grushin").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)

    # one BLAS thread, fixed before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    layers = {}
    for name, call in _layers():
        value = call()
        samples = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            value = call()
            samples.append(time.perf_counter() - t0)
        tracemalloc.start()
        call()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        layers[name] = {"median_s": statistics.median(samples),
                        "min_s": min(samples), "samples_s": samples,
                        "peak_mb": peak_mb,
                        "checksum": float(np.sum(np.abs(value)))}
        print(f"{name}: median {layers[name]['median_s']:.4f} s, "
              f"min {layers[name]['min_s']:.4f} s, peak {peak_mb:.1f} MB",
              flush=True)

    path = Path(args.out)
    record = json.loads(path.read_text()) if path.exists() else {}
    record.setdefault("runs", {})[args.label] = {
        "source_sha256": _source_digest(src), "numpy": np.__version__,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "repeats": REPEATS, "layers": layers}
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
