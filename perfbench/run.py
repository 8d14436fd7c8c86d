"""Benchmark of the grushin library: four workloads through its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(``worker.py``) with one library worker and one BLAS thread, and its
outputs are checked against ``reference.json``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` makes one untraced and one traced
pass, checks that their outputs are identical, and reports the per-layer
metrics.  The last line of standard output is the JSON result; the line
before it records the environment and the per-pass samples.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".perfbench_runs"

SETUP_REPEATS = 8        # set-up-only interpreters per timed run
RUN_LIMIT_S = 170.0      # a run stops starting passes past this
BLAS_THREADS = 1         # fixed on both sides of every comparison
REFERENCE_SEEDS = 16     # library seeds recorded in reference.json
FINGERPRINT_PROBES = 4   # random projections kept per written field
FINGERPRINT_SEED = 20250518

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}

# Work every pass must do, counted at public entry points; a pass that
# skipped its work fails instead of reading fast.
EXPECTED_CALLS = {
    "verify-kernel": {"verifier.pointwise_kernel_probe": 6,
                      "calculus.kernel_batch": 6},
    "verify-decay": {"verifier.coefficient_decay_probe": 1,
                     "verifier.dyadic_decay_probe": 1,
                     "verifier.mixed_norm_decay_probe": 1},
    "verify-plancherel": {"verifier.weighted_plancherel_probe": 4,
                          "verifier.restriction_probe": 1},
    "riesz-readme": {"cli.main": len(worker.RIESZ_PIECES),
                     "riesz.direct": len(worker.RIESZ_PIECES),
                     "fields.write": 2 * len(worker.RIESZ_PIECES)},
}
EXPECTED_COUNTS = {
    "verify-kernel": {"kernel_triples": 6 * 40},
    "verify-decay": {"parallel_map_items": 7 + 6 + 6},
    "verify-plancherel": {"parallel_map_items": 4},
    "riesz-readme": {},
}

# Per-layer metric -> (trace table, key, unit).  "calls" and "self_s" are
# keyed by layertrace timer, "counts" by counter.
LAYER_METRICS = {
    "hermite.profile_calls": ("calls", "hermite.profile", "count"),
    "hermite.profile_s": ("self_s", "hermite.profile", "s"),
    "hermite.profile_points": ("counts", "profile_points", "count"),
    "calculus.atom_projection_calls":
        ("calls", "calculus.atom_projection", "count"),
    "calculus.atom_projection_s": ("self_s", "calculus.atom_projection", "s"),
    "calculus.atoms": ("counts", "atoms", "count"),
    "calculus.kernel_batch_s": ("self_s", "calculus.kernel_batch", "s"),
    "calculus.kernel_triples": ("counts", "kernel_triples", "count"),
    "calculus.build_atoms_s": ("self_s", "calculus.build_atoms", "s"),
    "calculus.gram_s": ("self_s", "calculus.gram", "s"),
    "calculus.gridded_apply_s": ("self_s", "calculus.gridded_apply", "s"),
    "riesz.coeff_calls": ("calls", "riesz.coeff", "count"),
    "riesz.coeff_s": ("self_s", "riesz.coeff", "s"),
    "riesz.coeff_terms": ("counts", "coeff_terms", "count"),
    "riesz.expansions": ("calls", "riesz.expansion", "count"),
    "riesz.expansion_s": ("self_s", "riesz.expansion", "s"),
    "riesz.truncation_sum": ("counts", "truncation_sum", "count"),
    "riesz.expansion_cap_hits": ("counts", "expansion_cap_hits", "count"),
    "riesz.series_symbol_s": ("self_s", "riesz.series_symbol", "s"),
    "riesz.separated_s": ("self_s", "riesz.separated", "s"),
    "riesz.direct_s": ("self_s", "riesz.direct", "s"),
    "riesz.contract_calls": ("calls", "riesz.contract", "count"),
    "riesz.contract_s": ("self_s", "riesz.contract", "s"),
    "riesz.contract_pairs": ("counts", "contract_pairs", "count"),
    "fields.synthesize_s": ("self_s", "fields.synthesize", "s"),
    "fields.analyze_s": ("self_s", "fields.analyze", "s"),
    "fields.norm_s": ("self_s", "fields.norm", "s"),
    "fields.write_s": ("self_s", "fields.write", "s"),
    "fields.write_bytes": ("counts", "write_bytes", "B"),
    "grid.make_grid_calls": ("calls", "grid.make_grid", "count"),
    "grid.make_grid_s": ("self_s", "grid.make_grid", "s"),
    "reductions.parallel_map_items": ("counts", "parallel_map_items", "count"),
    "reductions.parallel_map_s": ("self_s", "reductions.parallel_map", "s"),
    **{f"verifier.{probe}_s": ("self_s", f"verifier.{probe}", "s")
       for probe in ("pointwise_kernel_probe", "weighted_plancherel_probe",
                     "restriction_probe", "coefficient_decay_probe",
                     "dyadic_decay_probe", "mixed_norm_decay_probe")},
    "cli.main_s": ("self_s", "cli.main", "s"),
}


def layer_metrics(trace: dict, separation_max: float,
                  overhead_s: float) -> dict:
    """Per-layer metrics, name -> (value, unit), from one traced pass."""
    m = {name: (trace[table].get(key, 0), unit)
         for name, (table, key, unit) in LAYER_METRICS.items()}
    expansions = trace["calls"].get("riesz.expansion", 0)
    converged = trace["counts"].get("expansion_converged", 0)
    m["riesz.expansion_converged_frac"] = (
        converged / expansions if expansions else 1.0, "frac")
    m["riesz.separation_rel_l2_max"] = (separation_max, "ratio")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


# ---------------------------------------------------------------------------
# environment

def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """sha256 of the library sources, naming the code in any checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "grushin").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(GRUSHIN_WORKERS="1", OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS))
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# ---------------------------------------------------------------------------
# one interpreter

class PassError(RuntimeError):
    pass


def spawn(workload: str, seed: int, work: Path, deadline: float, *,
          setup_only: bool = False, trace: bool = False) -> dict:
    """Run worker.py once and return its record.  Raises PassError when
    the pass did not complete."""
    work.mkdir(parents=True)
    record_path = work / "record.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", "out",
           "--record", str(record_path)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if trace else []
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("run time limit reached before the pass started")
    t_spawn = time.monotonic()
    try:
        # outputs go to a relative path, so manifests name the same files
        # whichever directory a pass ran in
        proc = subprocess.run(cmd, env=child_env(), cwd=work,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassError(f"pass exceeded the run time limit ({timeout:.0f} s)")
    duration = time.monotonic() - t_spawn
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        raise PassError(f"worker exited {proc.returncode} without a record:\n"
                        + proc.stderr[-2000:])
    if record.get("error"):
        raise PassError(record["error"])
    if not Path(record["grushin_file"]).resolve().is_relative_to(SRC):
        raise PassError(f"imported grushin from {record['grushin_file']}, "
                        f"not from {SRC}")
    # an unknown count (a BLAS other than OpenBLAS) fails too
    threads = record["env"]["blas_threads"]
    if threads != BLAS_THREADS:
        raise PassError(f"BLAS thread count read back as {threads}, "
                        f"expected {BLAS_THREADS}")
    record["duration_s"] = duration
    return record


# ---------------------------------------------------------------------------
# outputs and the correctness gate; files are read here, not through the
# library under test, so a broken reader cannot hide a broken writer

def read_field(path: Path) -> tuple[list, np.ndarray]:
    """Axis counts and values of a GRSH1 binary field."""
    raw = path.read_bytes()
    if raw[:5] != b"GRSH1":
        raise ValueError(f"{path.name}: bad magic {raw[:5]!r}")
    d1, d2 = struct.unpack("<2i", raw[5:13])
    head = 13 + 4 * (d1 + d2)
    counts = list(struct.unpack(f"<{d1 + d2}i", raw[13:head]))
    values = np.frombuffer(raw[head:], dtype=np.complex64).astype(complex)
    return counts, values


def field_fingerprint(path: Path) -> dict:
    """Norm and a few fixed random projections of a written field."""
    counts, values = read_field(path)
    rng = np.random.default_rng(FINGERPRINT_SEED)
    probes = (rng.normal(size=(FINGERPRINT_PROBES, values.size))
              + 1j * rng.normal(size=(FINGERPRINT_PROBES, values.size)))
    proj = probes @ values
    return {"counts": counts, "l2": float(np.linalg.norm(values)),
            "proj": [[float(p.real), float(p.imag)] for p in proj]}


def read_manifest(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def observe(workload: str, out: Path) -> dict:
    """The outputs of one pass, in the shape reference.json stores."""
    if workload in worker.SUITES:
        probes = {}
        with open(out / "verdicts.csv") as fh:
            rows = csv.DictReader(line for line in fh
                                  if not line.startswith("#"))
            for row in rows:
                if row["probe"] != "aggregate":
                    probes[row["probe"]] = {
                        "verdict": row["verdict"],
                        "slope": float(row["slope"]),
                        "max_ratio": float(row["max_ratio"])}
        return {"probes": probes}
    pieces = {}
    for j in worker.RIESZ_PIECES:
        stem = out / f"piece{j}"
        piece = field_fingerprint(stem.with_suffix(".grsh"))
        with open(stem.with_suffix(".csv")) as fh:
            piece["csv_rows"] = sum(1 for line in fh
                                    if not line.startswith("#")) - 1
        manifest = read_manifest(stem.with_suffix(".manifest"))
        piece["separation_rel_l2"] = float(
            manifest["verdict_separation_rel_l2"])
        piece["separation_truncation"] = int(
            manifest["verdict_separation_truncation"])
        piece["separation_tail"] = float(manifest["verdict_separation_tail"])
        pieces[str(j)] = piece
    return {"pieces": pieces}


def _close(a: float, b: float, rtol: float, atol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def compare(observed: dict, expected: dict, ref: dict) -> list[str]:
    """One message per operation (probe or riesz piece) that failed.

    Probes must keep their verdict, slope and max_ratio; pieces must keep
    the written direct-path field (norm and projections) and the CSV row
    count.  The separated-path figures in the manifests are quality
    measures, reported as metrics, not gated.
    """
    failures = []
    rtol, ftol = ref["rtol"], ref["field_rtol"]
    for name, want in expected.get("probes", {}).items():
        got = observed.get("probes", {}).get(name)
        if got is None:
            failures.append(f"{name}: no result")
        elif (got["verdict"] != want["verdict"]
              or not _close(got["slope"], want["slope"], rtol)
              or not _close(got["max_ratio"], want["max_ratio"], rtol)):
            failures.append(f"{name}: got {got}, reference {want}")
    for j, want in expected.get("pieces", {}).items():
        got = observed.get("pieces", {}).get(j)
        if got is None:
            failures.append(f"piece {j}: no result")
            continue
        # a projection on a standard complex normal probe has size of
        # order sqrt(2) |field|
        scale = math.sqrt(2.0) * want["l2"]
        ok = (got["counts"] == want["counts"]
              and got["csv_rows"] == want["csv_rows"]
              and _close(got["l2"], want["l2"], ftol, atol=0.0)
              and all(abs(complex(*g) - complex(*w)) <= ftol * scale
                      for g, w in zip(got["proj"], want["proj"])))
        if not ok:
            failures.append(f"piece {j}: written field differs from the "
                            f"reference (l2 {got['l2']!r} vs {want['l2']!r})")
    return failures


def output_differences(a: Path, b: Path) -> list[str]:
    """Files that differ between two output trees; manifests are compared
    without their wall-clock line."""
    def tree(root):
        return {p.relative_to(root): p for p in root.rglob("*") if p.is_file()}

    ta, tb = tree(a), tree(b)
    diffs = sorted(str(p) for p in set(ta) ^ set(tb))
    for rel in sorted(set(ta) & set(tb)):
        da, db = ta[rel].read_bytes(), tb[rel].read_bytes()
        if rel.name.endswith("manifest") or rel.name == "manifest.txt":
            da, db = (b"\n".join(line for line in d.splitlines()
                                 if not line.startswith(b"wall_clock_s="))
                      for d in (da, db))
        if da != db:
            diffs.append(str(rel))
    return diffs


def check_pass(workload: str, out: Path, expected: dict, ref: dict):
    """Observed outputs of a pass and its failed operations."""
    try:
        observed = observe(workload, out)
    except (OSError, ValueError, KeyError) as exc:
        return {}, [f"unreadable outputs: {exc!r}"] * operations(expected)
    return observed, compare(observed, expected, ref)


def load_reference(workload: str, seed: int) -> tuple[dict, dict, int]:
    """Reference entry for a benchmark seed.  The library seed is the
    benchmark seed modulo REFERENCE_SEEDS."""
    ref = json.loads(REFERENCE.read_text())
    lib_seed = seed % REFERENCE_SEEDS
    entries = ref["workloads"][workload]
    expected = entries.get(str(lib_seed), entries.get("*"))
    if expected is None:
        raise PassError(f"reference.json has no {workload} entry for "
                        f"library seed {lib_seed}")
    return ref, expected, lib_seed


def operations(expected: dict) -> int:
    return len(expected.get("probes", {})) + len(expected.get("pieces", {}))


# ---------------------------------------------------------------------------
# runs

def upper_percentile(samples: list[float]) -> dict:
    """The highest percentile with ten samples beyond it, if any."""
    n = len(samples)
    if n <= 10:
        return {}
    pct = math.floor(100.0 * (n - 10) / n)
    return {f"wall_s_p{pct}": sorted(samples)[n - 11]}


def setup_samples(args, lib_seed, work, deadline, tag) -> list[float]:
    return [spawn(args.workload, lib_seed, work / f"setup-{tag}{i}", deadline,
                  setup_only=True)["setup_s"]
            for i in range(SETUP_REPEATS // 2)]


def timed_run(args, lib_seed, expected, ref, work, deadline, state):
    # Half the set-up samples come before the passes and half after, so
    # their median spans the run rather than its first second.
    setups = setup_samples(args, lib_seed, work, deadline, "a")
    records = []
    t_measure = time.monotonic()
    while True:
        state["attempted"] += operations(expected)
        out = work / f"pass{len(records)}"
        try:
            rec = spawn(args.workload, lib_seed, out, deadline)
        except PassError as exc:
            state["failed"] += operations(expected)
            state["messages"].append(f"pass raised: {exc}")
            break
        records.append(rec)
        failures = check_pass(args.workload, out / "out", expected, ref)[1]
        state["failed"] += len(failures)
        state["messages"] += failures
        elapsed = time.monotonic() - t_measure
        typical = statistics.median(r["duration_s"] for r in records)
        if (elapsed + typical > args.seconds
                or time.monotonic() + typical > deadline):
            break
    if not records:
        raise PassError(state["messages"][-1])
    setups += setup_samples(args, lib_seed, work, deadline, "b")
    setups += [r["setup_s"] for r in records]
    walls = [r["wall_s"] for r in records]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "setup_s": statistics.median(setups),
    }
    state["summary"].update(passes=len(records), wall_s_samples=walls,
                            setup_s_samples=setups, env=records[0]["env"],
                            **upper_percentile(walls))
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def traced_run(args, lib_seed, expected, ref, work, deadline, state):
    recs, observed, failures = {}, {}, {}
    for label, trace in (("untraced", False), ("traced", True)):
        recs[label] = spawn(args.workload, lib_seed, work / label, deadline,
                            trace=trace)
        observed[label], failures[label] = check_pass(
            args.workload, work / label / "out", expected, ref)
        state["messages"] += [f"{label} {msg}" for msg in failures[label]]
    diffs = output_differences(work / "untraced" / "out",
                               work / "traced" / "out")
    if diffs:
        state["messages"].append(f"tracing changed outputs: {diffs}")
    trace = recs["traced"]["trace"]
    work_done = [
        f"{name}: {got.get(name, 0)}, expected {want}"
        for got, wanted in ((trace["calls"], EXPECTED_CALLS[args.workload]),
                            (trace["counts"], EXPECTED_COUNTS[args.workload]))
        for name, want in wanted.items() if got.get(name, 0) != want]
    state["messages"] += work_done
    # a traced function the library no longer defines would read 0
    missing = recs["traced"]["untraced"]
    state["messages"] += [f"traced function {name} not found"
                          for name in missing]
    # outputs that differ from the untraced pass, work not done, or a
    # layer not traced fail every operation of the traced pass
    ops = operations(expected)
    state["attempted"] += 2 * ops
    state["failed"] += len(failures["untraced"]) + (
        ops if diffs or work_done or missing else len(failures["traced"]))
    separation = max((p["separation_rel_l2"] for p in
                      observed["traced"].get("pieces", {}).values()),
                     default=0.0)
    overhead = recs["traced"]["wall_s"] - recs["untraced"]["wall_s"]
    state["summary"].update(
        passes=2, untraced_wall_s=recs["untraced"]["wall_s"],
        traced_wall_s=recs["traced"]["wall_s"], env=recs["traced"]["env"])
    return {name: {"value": v, "unit": unit} for name, (v, unit) in
            layer_metrics(trace, separation, overhead).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=worker.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    if not (SRC / "grushin" / "__init__.py").is_file():
        print(f"no library sources under {SRC}", file=sys.stderr)
        return 2
    try:
        ref, expected, lib_seed = load_reference(args.workload, args.seed)
    except PassError as exc:
        print(exc, file=sys.stderr)
        return 2
    state = {"attempted": 0, "failed": 0, "messages": [], "summary": {}}
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        run = traced_run if args.trace else timed_run
        try:
            metrics = run(args, lib_seed, expected, ref, work, deadline, state)
        except PassError as exc:
            print(f"pass failed: {exc}", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when other runs use it
            SCRATCH.rmdir()

    for msg in state["messages"]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    summary = {
        "workload": args.workload, "seed": args.seed, "library_seed": lib_seed,
        "trace": args.trace, "fail_frac": state["failed"] / state["attempted"],
        "git_revision": git_revision(), "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_set": BLAS_THREADS,
        "run_s": time.monotonic() - started, **state["summary"]}
    print(json.dumps({"summary": summary}))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not state["messages"],
                      "attempted": state["attempted"],
                      "failed": state["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
