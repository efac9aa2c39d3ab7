"""fairweigh benchmark: one run of one workload.

    python3 perfbench/run.py --workload critic-bound --seed 1 --seconds 30 --trace 0

Run from the root of a fairweigh checkout; the benchmark imports the package
from ``src``.  The work itself happens in a child process (``worker.py``)
whose BLAS thread count is set in its own environment.  This script prints
every metric with its unit, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics.
``--out FILE`` also writes the full record: every unit's timing, the layer
table and the environment fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("critic-bound", "fit-bound", "cli-audit")
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
CHILD_TIMEOUT_S = 170


def end_to_end(record: dict) -> dict:
    untraced = record["units"]["untraced"]
    return {
        "setup_s": statistics.median(record["setup_s"]),
        "run_s": statistics.median(t for t, _, _ in untraced),
        "train_rows_per_s": statistics.median(rows / t for _, t, rows in untraced),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(record: dict) -> dict:
    metrics = dict(record["layers"])
    traced = statistics.median(t for t, _, _ in record["units"]["traced"])
    untraced = statistics.median(t for t, _, _ in record["units"]["untraced"])
    metrics["trace.run_s"] = traced
    metrics["trace.untraced_run_s"] = untraced
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    metrics["effects.abs_effect"] = abs(record["effect"])
    if record["workload"] == "critic-bound":
        focus = metrics["trainer.critic_interleaved_s"] + metrics["trainer.critic_refine_s"]
    elif record["workload"] == "fit-bound":
        focus = (
            metrics["trainer.fit_s"] + metrics["trainer.full_pair_s"] + metrics["trainer.effect_s"]
        )
    else:
        focus = metrics["effects.wasserstein_s"]
    metrics["trace.focus_frac"] = focus / traced
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1, help="BLAS threads in the child")
    parser.add_argument("--out", help="also write the full run record to this JSON file")
    args = parser.parse_args(argv)

    source = ROOT / "src" / "fairweigh" / "__init__.py"
    if not source.is_file():
        print(f"error: no fairweigh source at {source.parent}", file=sys.stderr)
        return 2
    if not 1 <= args.threads <= (os.cpu_count() or 1):
        print(f"error: --threads must be between 1 and {os.cpu_count()}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    catalogue = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    for variable in BLAS_THREAD_VARIABLES:
        env[variable] = str(args.threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--threads", str(args.threads), "--workdir", str(workdir),
    ]
    try:
        child = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # missing, or another run still uses it
            pass
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: worker exited {child.returncode}", file=sys.stderr)
        return 3
    record = json.loads(lines[-1])
    passed = record["attempted"] - record["failed"]
    if not record["units"]["untraced"] or (args.trace and not record["units"]["traced"]):
        print(f"error: {record['failed']} of {record['attempted']} units failed", file=sys.stderr)
        return 1

    values = per_layer(record) if args.trace else end_to_end(record)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in catalogue}
    if args.out:
        record["metrics"] = metrics
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    env_line = ", ".join(f"{k}={v}" for k, v in record["environment"].items())
    print(f"{args.workload}: {passed} of {record['attempted']} units passed ({env_line})")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
