"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR \
        --record FILE [--setup-only] [--trace]

Set-up (import, probe-grid construction, family-field generation) runs
first and is timed from the top of this file.  The pass then drives the
library through ``grushin.cli.main``, exactly as the ``grushin`` command
does, and writes its outputs under DIR.  Timings, peak memory, the BLAS
environment and, with ``--trace``, the layer trace go to FILE as JSON.

A fresh interpreter per pass matters: the verifier keeps module-level
caches (probe grids, kernel samples), so a second pass in one process
would skip most of its work, which no command-line user ever does.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import ctypes
import json
import os
import resource
import sys
import traceback

WORKLOADS = ("verify-kernel", "verify-decay", "verify-plancherel",
             "riesz-readme")

SUITES = {"verify-kernel": "kernel", "verify-decay": "decay",
          "verify-plancherel": "plancherel"}

# The README ``grushin riesz`` example, run for every dyadic piece.
README_RIESZ = {"d1": "1", "d2": "1", "x1_extent": "28", "x1_count": "56",
                "x2_count": "128", "lambda_min": "0.015625",
                "lambda_max": "0.5", "lambda_count": "32", "alpha": "1.0",
                "band_lo": "0.34", "band_hi": "0.495"}
RIESZ_PIECES = tuple(range(1, 7))

# Band used by the decay probes' field families (verifier._decay_fields).
DECAY_BAND = (1.0 / 8.0, 0.96)


def setup(workload: str, seed: int):
    """Build what the pass needs before its first timed call.

    The probe grids land in the verifier's grid cache and are reused by
    the pass; family fields are regenerated inside the pass, so set-up
    measures their cost without removing it from the pass.
    """
    from grushin import verifier
    from grushin.dims import Dims
    from grushin.grid import GridSpec, make_grid

    if workload in ("verify-kernel", "verify-decay"):
        grid = verifier.probe_grid("decay")
        if workload == "verify-decay":
            for s in (seed, seed + 1):
                verifier.family_fields("hermite-bump", grid, s,
                                       band=DECAY_BAND)
    elif workload == "verify-plancherel":
        verifier.probe_grid("weighted", 1)
        verifier.probe_grid("weighted", 2)
    else:
        spec = GridSpec.from_mapping(README_RIESZ)
        grid = make_grid(Dims(spec.d1, spec.d2), spec)
        band = (float(README_RIESZ["band_lo"]), float(README_RIESZ["band_hi"]))
        for s in (seed, seed + 1):
            verifier.family_fields("hermite-bump", grid, s, band=band)


def run_pass(workload: str, seed: int, out: str):
    from grushin import cli

    if workload in SUITES:
        cli.main(["verify", "--suite", SUITES[workload],
                  "--set", f"seed={seed}", "--out", out])
        return
    os.makedirs(out, exist_ok=True)
    sets = [a for k, v in README_RIESZ.items() for a in ("--set", f"{k}={v}")]
    for j in RIESZ_PIECES:
        cli.main(["riesz", *sets, "--set", f"j={j}", "--set", f"seed={seed}",
                  "--out", os.path.join(out, f"piece{j}")])


def blas_threads():
    """Thread count OpenBLAS reports, or None when no known symbol exists."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:
        from numpy.core import _multiarray_umath as core
    lib = ctypes.CDLL(core.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def numpy_env() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name,
            "blas_threads": blas_threads(),
            "grushin_workers": os.environ.get("GRUSHIN_WORKERS"),
            "python": sys.version.split()[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    record = {"error": None}
    try:
        import grushin.cli
        record["grushin_file"] = grushin.cli.__file__
        tracer = None
        if args.trace:
            from layertrace import LayerTrace
            tracer = LayerTrace()
            record["untraced"] = tracer.install()
        setup(args.workload, args.seed)
        record["setup_s"] = time.perf_counter() - STARTED
        if not args.setup_only:
            c0 = time.process_time()
            t0 = time.perf_counter()
            run_pass(args.workload, args.seed, args.out)
            record["wall_s"] = time.perf_counter() - t0
            record["cpu_s"] = time.process_time() - c0
        record["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["env"] = numpy_env()
        if tracer is not None:
            record["trace"] = tracer.snapshot()
    except Exception:  # reported to the caller, which counts the failure
        record["error"] = traceback.format_exc()
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return 1 if record["error"] else 0


if __name__ == "__main__":
    sys.exit(main())
