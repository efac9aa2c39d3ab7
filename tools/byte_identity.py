"""Check that two checkouts of fairweigh write the same outputs.

Usage::

    python3 tools/byte_identity.py PARENT CHANGE [--rows N] [--epochs E]
        [--steps S] [--oracle-samples K] [--work DIR]

From each checkout's ``src`` it runs, in a directory of its own and with the
same relative paths: ``gen-synth`` on the benchmark SCM with the condition
``x2=1``; ``reweigh`` in total, indirect, ``paths: "all"`` and counterfactual
(``x2=1``) mode, two repetitions each with the distance on; and ``effects``
three ways per mode (fitted with ``weights_mean.csv``, from repetition 0's
checkpoint with it, and from the checkpoint without weights); and, in total
mode, ``evaluate`` unweighted, with ``weights_mean.csv``, and on repetition
1's split with it.  Then it diffs
every file both sides wrote, each command's stdout and exit code.  Files
compare byte for byte, except ``train_log.jsonl`` (equal apart from each
record's ``wall_time``) and ``manifest.json`` (equal apart from the config's
paths and ``config_hash``).  It prints each difference, then ``identical``
(exit 0) or ``different`` (exit 1).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SCHEMA = [
    {"name": "x1", "kind": "continuous"},
    {"name": "x2", "kind": "categorical", "levels": ["0", "1"]},
    {"name": "s", "kind": "categorical", "levels": ["0", "1"]},
    {"name": "med", "kind": "continuous"},
    {"name": "aux1", "kind": "continuous"},
    {"name": "aux2", "kind": "continuous"},
    {"name": "aux3", "kind": "continuous"},
    {"name": "aux4", "kind": "continuous"},
    {"name": "aux5", "kind": "continuous"},
    {"name": "y", "kind": "categorical", "levels": ["0", "1"]},
]

MODES = {
    "total": {"mode": "total"},
    "indirect": {"mode": "path_specific", "paths": "indirect"},
    "all": {"mode": "path_specific", "paths": "all"},
    "counterfactual": {"mode": "counterfactual", "condition": [["x2", "1"]]},
}

PATH_FIELDS = ("data", "graph", "out")


def run_side(checkout: Path, work: Path, args) -> dict:
    """Run every command from ``checkout``'s ``src`` in ``work``; returns
    {command label: (exit code, stdout)}."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}

    def fairweigh(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "fairweigh.cli", *argv],
            cwd=work, env=env, capture_output=True, text=True,
        )
        return done.returncode, done.stdout

    work.mkdir(parents=True)
    document = subprocess.run(
        [sys.executable, "-c",
         "from fairweigh.synth import benchmark_document; print(benchmark_document(), end='')"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    (work / "scm.txt").write_text(document, encoding="utf-8")
    (work / "graph.txt").write_text(document.split("[functions]")[0], encoding="utf-8")
    results = {
        "gen-synth": fairweigh(
            "gen-synth", "--scm", "scm.txt", "--n", str(args.rows), "--out", "data.csv",
            "--seed", "5", "--condition", "x2=1", "--oracle-samples", str(args.oracle_samples),
        )
    }
    for name, mode in MODES.items():
        config = {
            "data": "data.csv",
            "graph": "graph.txt",
            "out": f"reweigh_{name}",
            "schema": SCHEMA,
            "tau": 0.05,
            "repeats": 2,
            "wasserstein": True,
            "wasserstein_steps": args.steps,
            "train": {
                "epochs": args.epochs,
                "batch_size": 256,
                "eta0": 0.02,
                "seed": 11,
                "critic_steps_at_weight_solve": 5,
            },
            **mode,
        }
        (work / f"{name}.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
        results[f"reweigh {name}"] = fairweigh("reweigh", "--config", f"{name}.json")
        weights = ["--weights", f"reweigh_{name}/weights_mean.csv"]
        checkpoint = ["--checkpoint", f"reweigh_{name}/rep_0/checkpoint.npz"]
        for way, extra in (
            ("fitted", weights), ("checkpoint-weighted", checkpoint + weights),
            ("checkpoint", checkpoint),
        ):
            results[f"effects {name} {way}"] = fairweigh(
                "effects", "--config", f"{name}.json", "--out", f"effects_{name}_{way}", *extra
            )
    mean = ["--weights", "reweigh_total/weights_mean.csv"]
    for way, extra in (
        ("unweighted", []), ("weighted", mean), ("repetition 1", ["--repetition", "1", *mean]),
    ):
        results[f"evaluate total {way}"] = fairweigh("evaluate", "--config", "total.json", *extra)
    return results


def _comparable(path: Path):
    """The content of ``path`` that must agree across the two sides."""
    if path.name == "train_log.jsonl":
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        return [{k: v for k, v in record.items() if k != "wall_time"} for record in records]
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest.pop("config_hash", None)
        for key in PATH_FIELDS:
            manifest.get("config", {}).pop(key, None)
        return manifest
    return path.read_bytes()


def differences(parent: Path, change: Path, ran: tuple[dict, dict]) -> list[str]:
    found = []
    for label in sorted(set(ran[0]) | set(ran[1])):
        a, b = ran[0].get(label), ran[1].get(label)
        if a is None or b is None or a[0] != b[0]:
            found.append(f"{label}: exit code {a and a[0]} != {b and b[0]}")
        elif a[1] != b[1]:
            found.append(f"{label}: stdout differs")
    files = [{p.relative_to(side) for p in side.rglob("*") if p.is_file()}
             for side in (parent, change)]
    for name in sorted(files[0] ^ files[1]):
        found.append(f"{name}: written by one side only")
    for name in sorted(files[0] & files[1]):
        if _comparable(parent / name) != _comparable(change / name):
            found.append(f"{name}: differs")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout under test")
    parser.add_argument("--rows", type=int, default=3000)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--steps", type=int, default=100, help="distance critic steps")
    parser.add_argument("--oracle-samples", type=int, default=50_000)
    parser.add_argument("--work", type=Path, help="directory for both runs (a temporary one)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="byte-identity-") as scratch:
        work = args.work or Path(scratch)
        sides = (work / "parent", work / "change")
        with ThreadPoolExecutor(2) as pool:  # one process per side at a time
            ran = tuple(pool.map(run_side, (args.parent, args.change), sides, (args, args)))
        found = differences(*sides, ran)
        files = sum(1 for p in sides[1].rglob("*") if p.is_file())
    for line in found:
        print(line)
    codes = " ".join(str(code) for code, _ in ran[1].values())
    print(f"{len(ran[1])} commands (exit codes {codes}), {files} files")
    print("different" if found else "identical")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
