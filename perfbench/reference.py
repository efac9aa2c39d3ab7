"""Record each workload's final effect per seed, the reference of the output check.

    python3 perfbench/reference.py

Runs one set-up and one unit of every workload for each of the seeds 0-39,
at one BLAS thread, in this process, and writes ``results/references.json``.
``worker.py`` requires the final effect of every timed unit at one thread to
lie within ``REFERENCE_TOLERANCE`` x |unweighted ground truth| of the
reference for its workload and seed.  Regenerate it only when a change to the
program is meant to change its results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from run import BLAS_THREAD_VARIABLES  # noqa: E402

for variable in BLAS_THREAD_VARIABLES:  # before numpy loads
    os.environ[variable] = "1"

import worker  # noqa: E402

SEEDS = range(40)


def main() -> int:
    workdir = HERE / ".work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    effects = {}
    try:
        for name, make in worker.WORKLOADS.items():
            effects[name] = {}
            for seed in SEEDS:
                workload = make()
                workload.setup(seed, workdir)
                _, _, _, effect = workload.unit()
                effects[name][str(seed)] = effect
                print(f"{name} seed {seed}: effect {effect:.6f}, "
                      f"oracle {workload.oracle:.6f}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    environment = worker.fingerprint(None, 1)
    del environment["seed"]
    record = {"environment": environment, "effects": effects}
    worker.REFERENCES.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
