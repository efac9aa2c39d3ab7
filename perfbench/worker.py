"""One benchmark run of one workload, in its own process.

``run.py`` starts this script with the BLAS thread count already set in the
environment (it must be set before numpy loads) and ``src`` on the import
path.  The last line of standard output is one JSON object with the run's
timings, counts, output checks and environment fingerprint.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import fairweigh
from fairweigh import cli, synth, trainer
from fairweigh.data import Encoder
from fairweigh.graph import indirect_path_set, total_path_set
from fairweigh.model import StructuredModel
from fairweigh.reweighter import check_feasibility

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer, summarize  # noqa: E402

BATCH = 640
TRAIN_FRACTION = 0.8  # reweigh's default training split
MIN_ITERATIONS = 3
ORACLE_SAMPLES = 200_000
# |final effect| may not exceed the mode's unweighted ground truth by more
# than this share: reweighting exists to shrink the effect.
EFFECT_SLACK = 0.5
# The final effect may differ from its recorded reference by at most this
# share of |unweighted ground truth|.
REFERENCE_TOLERANCE = 0.02
# The solved weights must reach at least this share of the balance ball
# sum((w - 1)^2) <= balance * m: a solve that leaves them at one fails.  The
# ball need not bind: in counterfactual mode the rows outside the condition
# tie, and the solve stops at a simplex vertex inside it (0.4 of the ball).
MIN_BALL_SHARE = 0.1
# Seconds on one CPU before the run moves to the next (see cpu_rotation).
CPU_TURN_S = 0.2
REFERENCES = Path(__file__).resolve().parent / "results" / "references.json"

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


class CheckFailed(Exception):
    """A timed unit produced output that fails the benchmark's check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_weights(weights: np.ndarray, balance: float, trained_rows: int) -> None:
    report = check_feasibility(weights, balance)
    _require(report.feasible, f"weights infeasible: {report.describe()}")
    deviation = float(np.sum((weights - 1.0) ** 2))
    _require(
        deviation >= MIN_BALL_SHARE * balance * trained_rows,
        f"weight deviation {deviation:.1f} is under {MIN_BALL_SHARE:.0%} of the "
        f"balance ball {balance * trained_rows:.1f}",
    )


def _check_effect(effect: float, oracle: float, reference: float | None,
                  first: float | None) -> None:
    _require(np.isfinite(effect), f"effect {effect} is not finite")
    _require(
        abs(effect) <= (1.0 + EFFECT_SLACK) * abs(oracle),
        f"|effect| {abs(effect):.4f} exceeds the unweighted truth {abs(oracle):.4f} "
        f"by more than {EFFECT_SLACK:.0%}",
    )
    if reference is not None:
        _require(
            abs(effect - reference) <= REFERENCE_TOLERANCE * abs(oracle),
            f"effect {effect:.6f} is more than {REFERENCE_TOLERANCE:.0%} of "
            f"|{oracle:.4f}| from its reference {reference:.6f}",
        )
    # Every unit of a run trains on the same inputs from the same seed.
    _require(first is None or effect == first, f"effect {effect!r} differs from {first!r}")


def reference_effect(workload: str, seed: int, threads: int) -> float | None:
    """The recorded final effect for this workload and seed, if there is one.

    References are recorded at one BLAS thread; final weights may differ at
    other thread counts, so those runs have none."""
    if threads != 1 or not REFERENCES.is_file():
        return None
    recorded = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return recorded["effects"].get(workload, {}).get(str(seed))


@contextlib.contextmanager
def train_timer(spent: list[float]):
    """Add the wall time of every ``train()`` call to ``spent`` while active.

    Wraps ``train`` where its two callers look it up (``repeat_protocol`` in
    the trainer, ``effects`` in the CLI) and puts the originals back."""
    saved = [(trainer, trainer.train), (cli, cli.train)]

    def timed(original):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent.append(time.perf_counter() - started)
        return wrapper

    for module, original in saved:
        module.train = timed(original)
    try:
        yield spent
    finally:
        for module, original in saved:
            module.train = original


@contextlib.contextmanager
def cpu_rotation(threads: int):
    """Move this process to the next CPU every ``CPU_TURN_S`` while active.

    The host's vCPUs can run at speeds 25% apart for tens of seconds, and a
    process that stays on one times only that one, so runs made at different
    times disagree.  Taking turns gives every unit an equal share of each
    CPU.  With more than one BLAS thread the process needs every CPU at once
    and stays unpinned."""
    cpus = sorted(os.sched_getaffinity(0))
    if threads != 1 or len(cpus) < 2:
        yield
        return
    turns = itertools.count(1)

    def move(signum, frame):
        os.sched_setaffinity(0, {cpus[next(turns) % len(cpus)]})

    previous = signal.signal(signal.SIGALRM, move)
    os.sched_setaffinity(0, {cpus[0]})
    signal.setitimer(signal.ITIMER_REAL, CPU_TURN_S, CPU_TURN_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        os.sched_setaffinity(0, cpus)


class TrainWorkload:
    """``train()`` on ``benchmark_scm(seed)`` data, called from Python."""

    def __init__(self, path_set, m: int, epochs: int):
        self.path_set = path_set
        self.m = m
        self.epochs = epochs
        self.reference = None
        self.first_effect = None

    def setup(self, seed: int, workdir: Path) -> None:
        scm = synth.benchmark_scm(seed=seed)
        self.ds = synth.generate(scm, self.m)
        mode = self.path_set(scm.graph)
        self.oracle, _ = synth.oracle_effect(scm, mode, n=ORACLE_SAMPLES, seed=seed)
        encoder = Encoder().fit(self.ds)
        self.model = StructuredModel(scm.graph, encoder, mode, seed=seed)
        self.initial = self.model.params.snapshot()
        self.config = trainer.TrainConfig(epochs=self.epochs, batch_size=BATCH, seed=seed)

    def unit(self) -> tuple[float, float, int, float]:
        """Train once from the set-up parameters.

        Returns (seconds, seconds in train(), fit-step rows, final effect)."""
        self.model.params.restore(self.initial)
        started = time.perf_counter()
        _, weights, log = trainer.train(self.model, self.ds, self.config)
        elapsed = time.perf_counter() - started
        _check_weights(weights.values, self.config.balance, self.m)
        effect = log[-1].effect
        _check_effect(effect, self.oracle, self.reference, self.first_effect)
        self.first_effect = effect
        return elapsed, elapsed, self.m * self.epochs, effect


class CliWorkload:
    """``gen-synth`` in set-up, then ``reweigh`` and ``effects`` in-process."""

    def __init__(self, m: int, epochs: int, wasserstein_steps: int):
        self.m = m
        self.epochs = epochs
        self.wasserstein_steps = wasserstein_steps
        self.reference = None
        self.first_effect = None

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        document = synth.benchmark_document()
        (workdir / "scm.txt").write_text(document, encoding="utf-8")
        (workdir / "graph.txt").write_text(document.split("[functions]")[0], encoding="utf-8")
        data = workdir / "data.csv"
        code = _quiet(
            cli.main,
            [
                "gen-synth", "--scm", str(workdir / "scm.txt"), "--n", str(self.m),
                "--out", str(data), "--seed", str(seed), "--condition", "x2=1",
                "--oracle-samples", str(ORACLE_SAMPLES),
            ],
        )
        _require(code == 0, f"gen-synth exited {code}")
        config = {
            "data": str(data),
            "graph": str(workdir / "graph.txt"),
            "out": str(workdir / "out"),
            "schema": SCHEMA,
            "mode": "counterfactual",
            "condition": [["x2", "1"]],
            "repeats": 1,
            "wasserstein_steps": self.wasserstein_steps,
            "train": {"epochs": self.epochs, "batch_size": BATCH, "seed": seed},
        }
        (workdir / "run.json").write_text(json.dumps(config), encoding="utf-8")
        oracle = json.loads((workdir / "data.csv.oracle.json").read_text(encoding="utf-8"))
        self.oracle = oracle["counterfactual_effect"]["value"]
        self.balance = trainer.TrainConfig().balance

    def unit(self) -> tuple[float, float, int, float]:
        """Run reweigh, then effects on its mean weights.

        Returns (seconds, seconds in train(), fit-step rows, final effect)."""
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        config = str(self.workdir / "run.json")
        with train_timer([]) as train_times:
            started = time.perf_counter()
            reweigh = _quiet(cli.main, ["reweigh", "--config", config])
            effects = _quiet(
                cli.main,
                ["effects", "--config", config, "--weights", str(out / "weights_mean.csv"),
                 "--out", str(out / "effects")],
            )
            elapsed = time.perf_counter() - started
        _require(reweigh in (0, 1), f"reweigh exited {reweigh}")
        _require(effects in (0, 1), f"effects exited {effects}")
        _require(len(train_times) == 2, f"{len(train_times)} train() calls, expected 2")
        with open(out / "weights_mean.csv", newline="", encoding="utf-8") as fh:
            weights = np.array([float(row["weight"]) for row in csv.DictReader(fh)])
        _require(weights.size == self.m, f"{weights.size} weights for {self.m} rows")
        # One repetition: rows outside reweigh's training split keep weight one.
        split_rows = round(TRAIN_FRACTION * self.m)
        _check_weights(weights, self.balance, split_rows)
        result = json.loads((out / "effects" / "report.json").read_text(encoding="utf-8"))
        effect = result["effect"]["mean"]
        _check_effect(effect, self.oracle, self.reference, self.first_effect)
        self.first_effect = effect
        train_rows = split_rows + self.m  # reweigh's training split, effects' fit
        return elapsed, sum(train_times), train_rows * self.epochs, effect


WORKLOADS = {
    "critic-bound": lambda: TrainWorkload(total_path_set, 2_000, epochs=2),
    "fit-bound": lambda: TrainWorkload(indirect_path_set, 100_000, epochs=1),
    "cli-audit": lambda: CliWorkload(20_000, epochs=1, wasserstein_steps=600),
}


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def fingerprint(seed: int, threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fairweigh": fairweigh.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, threads: int,
        workdir: Path) -> dict:
    workload = WORKLOADS[workload_name]()
    workload.reference = reference_effect(workload_name, seed, threads)
    tracer = Tracer()
    setup_times = []
    units = {"untraced": [], "traced": []}
    effects = []
    counts = {"attempted": 0, "failed": 0, "traced": 0}

    def iteration(traced: bool, timed: bool = True) -> None:
        """One set-up, then one unit on it.  Set-ups and units alternate
        through the whole run, so both see the same machine state."""
        counts["attempted"] += 1
        counts["traced"] += traced
        # Start every unit from the same collector state: garbage left by the
        # previous unit would otherwise be collected at a random point in this one.
        gc.collect()
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                started = time.perf_counter()
                workload.setup(seed, workdir)
                setup_s = time.perf_counter() - started
                gc.collect()
                elapsed, train_s, rows, effect = workload.unit()
        except Exception:  # a failing iteration is counted and adds no timing
            counts["failed"] += 1
            traceback.print_exc()
            return
        effects.append(effect)
        if timed:
            units["traced" if traced else "untraced"].append((elapsed, train_s, rows))
            if not traced:
                setup_times.append(setup_s)

    started = time.perf_counter()
    with cpu_rotation(threads):
        if trace:
            # Untimed warm-up, so neither side of the overhead comparison pays
            # first-run costs; then untraced and traced iterations alternate, so
            # the two medians see the same machine state.
            iteration(traced=False, timed=False)
        durations = []
        while True:
            begun = time.perf_counter()
            iteration(traced=trace and counts["attempted"] % 2 == 0)
            durations.append(time.perf_counter() - begun)
            spent = time.perf_counter() - started
            # a traced run needs two traced and two untraced units at least
            enough = len(durations) >= MIN_ITERATIONS + trace
            if enough and spent + statistics.median(durations) > seconds:
                break

    result = {
        "workload": workload_name,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "setup_s": setup_times,
        "units": units,
        "effect": effects[0] if effects else None,
        "reference_effect": workload.reference,
        "oracle_effect": workload.oracle,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": fingerprint(seed, threads),
    }
    if trace and units["traced"]:
        # every traced iteration ran one set-up and one unit
        metrics, details = summarize(tracer, counts["traced"], counts["traced"])
        result["layers"] = metrics
        result["trace_details"] = details
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.threads,
                 workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
