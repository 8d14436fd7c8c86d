"""Record the benchmark's correctness reference from the current code.

    python3 perfbench/record_reference.py [--workload NAME ...]

Runs one pass per workload and library seed (0 up to
``run.REFERENCE_SEEDS``) exactly as the benchmark does and stores the
outputs that ``run.py`` gates on in ``reference.json``: each probe's
verdict, slope and max_ratio, and for each ``grushin riesz`` piece a
fingerprint of the written direct-path field.  The plancherel suite takes no seed, so it is recorded once, and
a second seed is run to confirm that its outputs do not change.
Re-record only for a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import tempfile
import time
from pathlib import Path

import run
import worker

RTOL = 1e-6        # probe slope and max_ratio (float64 results)
FIELD_RTOL = 1e-5  # written fields, stored as complex64


def record(workload: str, seed: int, scratch: Path) -> dict:
    work = scratch / f"{workload}-{seed}"
    run.spawn(workload, seed, work, time.monotonic() + 3600.0)
    observed = run.observe(workload, work / "out")
    shutil.rmtree(work)
    return observed


def dump(ref: dict) -> str:
    """JSON with one line per recorded workload and seed."""
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)},"
             for k, v in sorted(ref.items()) if k != "workloads"]
    lines.append(' "workloads": {')
    for workload, entries in sorted(ref["workloads"].items()):
        lines.append(f"  {json.dumps(workload)}: {{")
        for seed in sorted(entries, key=lambda s: s.zfill(8)):
            entry = json.dumps(entries[seed], sort_keys=True)
            lines.append(f"   {json.dumps(seed)}: {entry},")
        lines[-1] = lines[-1].rstrip(",")
        lines.append("  },")
    lines[-1] = lines[-1].rstrip(",")
    return "{\n" + "\n".join(lines) + "\n }\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=worker.WORKLOADS)
    args = parser.parse_args(argv)

    recorded = {}
    run.SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=run.SCRATCH))
    try:
        for workload in args.workload or worker.WORKLOADS:
            if workload == "verify-plancherel":
                first = record(workload, 0, scratch)
                if record(workload, 1, scratch) != first:
                    raise SystemExit("plancherel outputs depend on the seed")
                entries = {"*": first}
            else:
                entries = {str(s): record(workload, s, scratch)
                           for s in range(run.REFERENCE_SEEDS)}
            recorded[workload] = entries
            print(f"recorded {workload}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when other runs use it
            run.SCRATCH.rmdir()
    # merge at the end, so recordings of different workloads can overlap
    if run.REFERENCE.exists():
        ref = json.loads(run.REFERENCE.read_text())
    else:
        ref = {"workloads": {}}
    ref["workloads"].update(recorded)
    ref.update(rtol=RTOL, field_rtol=FIELD_RTOL,
               source_sha256=run.source_digest(),
               git_revision=run.git_revision())
    run.REFERENCE.write_text(dump(ref))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
