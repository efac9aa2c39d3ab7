"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload fit-bound

Runs ``run.py`` once for each of the seeds 1-10, one run at a time, for
BENCHMARK.json's ``run_seconds`` at the default of one BLAS thread, and
reports for each end-to-end metric the median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A metric is
steady when that share stays under a third of its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", help="write the runs and spreads to this JSON file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    runs = []
    record_path = HERE / ".work" / f"spread-{args.workload}.json"
    record_path.parent.mkdir(exist_ok=True)
    # Created now, so run.py, which removes the directory once it is empty,
    # leaves it in place for the record it writes.
    record_path.touch()
    for seed in SEEDS:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
             "--out", str(record_path)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(child.stdout.strip().splitlines()[-1])
        record = json.loads(record_path.read_text(encoding="utf-8"))
        runs.append({"seed": seed, **result, "units": record["units"],
                     "setup_s": record["setup_s"], "effect": record["effect"],
                     "oracle_effect": record["oracle_effect"],
                     "environment": record["environment"]})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {result['failed']} of {result['attempted']} failed, {values}",
              flush=True)
    record_path.unlink()
    try:
        record_path.parent.rmdir()
    except OSError:  # another run still uses it
        pass

    spreads = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spreads[name] = {
            "median": median,
            "iqr_over_median": (q3 - q1) / median,
            "bound": bound,
            "min": min(values),
            "max": max(values),
        }
        print(f"{name:18s} median {median:12.6g}  iqr/median {(q3 - q1) / median:.4f}  "
              f"bound {bound}")
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {"workload": args.workload, "seconds": seconds, "threads": 1,
                 "runs": runs, "spreads": spreads},
                indent=1,
            ) + "\n",
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
