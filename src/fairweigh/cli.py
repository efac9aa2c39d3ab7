"""Command-line surface: reweigh, effects, gen-synth, evaluate.

A run is driven by a JSON config document; command-line flags override single
fields, and :class:`~fairweigh.config.RunConfig` checks every field before
any input file is read.  Every reweigh run writes a manifest capturing the
configuration as given plus the overrides, content hashes and the numpy, BLAS
and BLAS thread setting it ran under; feeding that manifest back through
``--config`` reproduces the weight files byte for byte on the same numpy and
BLAS build with the same BLAS thread setting.

Exit codes: 0 success and fair (|effect| < tau), 1 success but the effect
exceeds tau, 2 configuration/input errors, 3 runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, TrainConfig, number, resolve
from .data import (
    ColumnarDataset,
    DataError,
    Encoder,
    SplitPlan,
    export_weights,
    load_csv,
    split,
    write_csv,
)
from .effects import (
    MetricSummary,
    EffectReport,
    discriminator_gap,
    downstream_accuracy,
    estimate_effect,
    statistical_parity,
    wasserstein_distance,
)
from .graph import (
    CausalGraph,
    GraphError,
    PathSet,
    counterfactual_path_set,
    direct_path_set,
    graph_fingerprint,
    indirect_path_set,
    parse_graph,
    total_path_set,
)
from .model import ModelError, StructuredModel, check_inputs
from .reweighter import SolverError
from .synth import (
    LABELS,
    generate,
    oracle_effect,  # not called here; perfbench/tracing.py wraps this lookup
    oracle_effects,
    parse_scm,
)
from .trainer import TrainingError, repeat_protocol, write_log
from .trainer import train as _train

# The environment variables that set the BLAS thread count.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _input_file(path, kind: str) -> Path:
    """``path`` as a Path, refused unless it names an existing file."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"{kind} path is a directory, not a file: {path}")
    if not path.is_file():
        raise ConfigError(f"{kind} file not found: {path}")
    return path


def read_config(args: argparse.Namespace) -> tuple[dict, RunConfig]:
    """The run config of ``--config`` (a reweigh manifest is unwrapped) with
    the command-line overrides, and its fields checked and resolved, before
    any input file is read."""
    try:
        with open(_input_file(args.config, "config"), encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config must be an object, got {config!r}")
    config = config["config"] if isinstance(config.get("config"), dict) else config
    overrides = {"seed": args.seed, "balance": args.t_balance}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if overrides and isinstance(config.get("train", {}), dict):  # resolve refuses the rest
        config["train"] = {**config.get("train", {}), **overrides}
    for key in ("mode", "tau", "out", "repeats"):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    train = resolve(TrainConfig, config.get("train", {}), "train")
    return config, resolve(RunConfig, {**config, "train": train}, "config")


def parse_condition(entries: list[str]) -> list[tuple[str, str]]:
    """(node, value) pairs from ``NODE=VALUE`` strings, the ``--condition`` flags."""
    for entry in entries:
        if "=" not in entry:
            raise ConfigError(f"condition entry {entry!r} is not NODE=VALUE")
    return [tuple(entry.split("=", 1)) for entry in entries]


def load_inputs(run: RunConfig) -> tuple[ColumnarDataset, CausalGraph, dict]:
    graph = parse_graph(_input_file(run.graph, "graph").read_text(encoding="utf-8"))
    ds = load_csv(_input_file(run.data, "data"), [(c["name"], c["kind"]) for c in run.schema])
    for spec in graph.nodes:
        if spec.name not in ds.names:
            raise ConfigError(f"graph node {spec.name!r} has no column in the data file")
        kind = ds.column(spec.name).kind
        if kind != spec.kind:
            raise ConfigError(f"node {spec.name!r}: graph kind {spec.kind} != schema kind {kind}")
    declared_levels = {
        c["name"]: [str(v) for v in c["levels"]] for c in run.schema if "levels" in c
    }
    return ds, graph, declared_levels


def check_against_data(
    run: RunConfig, graph: CausalGraph, mode: PathSet, ds: ColumnarDataset,
    encoder: Encoder, where: str, trains: bool,
) -> None:
    """Refuse ``ds`` (which ``where`` names), with ``encoder`` fitted on it,
    unless it passes what only the graph and the data can judge
    (:func:`fairweigh.model.check_inputs`, refused naming the field), has at
    least a batch of rows when it ``trains``, and holds a row of each level
    of the sensitive node."""
    try:
        check_inputs(graph, encoder, mode, run.critic_context_nodes)
    except ModelError as exc:
        raise ConfigError(str(exc)) from None
    if trains and run.train.batch_size > ds.m:
        raise ConfigError(
            f"batch_size must be at most the {ds.m} rows that training batches, "
            f"got {run.train.batch_size}"
        )
    s_values = ds.column(graph.sensitive).values
    for level in encoder.levels(graph.sensitive):
        if not (s_values == level).any():
            raise DataError(f"{where} has no row with {graph.sensitive}={level}")


def build_mode(run: RunConfig, graph: CausalGraph) -> PathSet:
    if run.mode == "total":
        return total_path_set(graph)
    if run.mode == "counterfactual":
        return counterfactual_path_set(graph, run.condition)
    if run.paths == "all":
        return PathSet("path_specific", total_path_set(graph).on_pi_edges)
    return (direct_path_set if run.paths == "direct" else indirect_path_set)(graph)


def _environment() -> dict:
    """numpy's version, the BLAS it was built with, and the BLAS thread
    variables that are set: the weight files reproduce byte for byte only
    under the same ones."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy that only prints its build
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_variables": {
            name: os.environ[name] for name in BLAS_THREAD_VARIABLES if name in os.environ
        },
    }


def write_manifest(out_dir: Path, config: dict, seed: int, graph: CausalGraph) -> None:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "config": config,
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "environment": _environment(),
        "graph_hash": graph_fingerprint(graph),
        "seed": seed,
        "version": __version__,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _write_report(out_dir: Path, report: EffectReport) -> None:
    (out_dir / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / "report.txt").write_text(report.render_table() + "\n", encoding="utf-8")


def cmd_reweigh(args) -> int:
    config, run = read_config(args)
    ds, graph, declared_levels = load_inputs(run)
    mode = build_mode(run, graph)
    encoder = Encoder().fit(ds, declared_levels)
    check_against_data(run, graph, mode, ds, encoder, f"data file {run.data}", False)
    splits = []  # each split once, checked before the manifest
    for rep in range(run.repeats):
        part = split(ds, SplitPlan(run.train.seed, run.train_fraction, rep), declared_levels)
        where = f"repetition {rep} of {run.data}"
        training = f"the training split of {where}"
        check_against_data(run, graph, mode, part.train, part.encoder, training, True)
        try:
            part.encoder.transform(part.test)
        except DataError as exc:
            raise DataError(f"{exc} in the held-out rows of {where}") from None
        splits.append(part)
    out_dir = Path(run.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("rep_*"):  # left by an earlier run with more repeats
        index = stale.name[len("rep_"):]
        if stale.is_dir() and index.isdecimal() and int(index) >= run.repeats:
            shutil.rmtree(stale)
    write_manifest(out_dir, config, run.train.seed, graph)

    report, artifacts = repeat_protocol(
        splits,
        graph,
        mode,
        run.train,
        tau=float(run.tau),
        compute_wasserstein=run.wasserstein,
        wasserstein_steps=run.wasserstein_steps,
        critic_context_nodes=run.critic_context_nodes,
    )

    mean_weights = np.zeros(ds.m)
    counts = np.zeros(ds.m)
    for part, art in zip(splits, artifacts):
        rep_dir = out_dir / f"rep_{art['repetition']}"
        rep_dir.mkdir(exist_ok=True)
        export_weights(part.train, art["weights"], rep_dir / "weights.csv")
        write_log(art["log"], rep_dir / "train_log.jsonl")
        art["model"].save(rep_dir / "checkpoint.npz")
        mean_weights[part.train_rows] += art["weights"]
        counts[part.train_rows] += 1.0
    averaged = np.where(counts > 0, mean_weights / np.maximum(counts, 1.0), 1.0)
    export_weights(ds, averaged, out_dir / "weights_mean.csv")
    _write_report(out_dir, report)
    print(report.render_table())
    return 0 if report.passed else 1


def _read_weights(path, m: int, uses=((None, "any row"),)) -> np.ndarray:
    """The weights file at ``path`` over ``m`` rows, refused unless it puts
    positive mass on each set of ``rows`` (all when None) that the command
    uses, given in ``uses`` as ``(rows, where)`` with ``where`` naming them."""
    with open(_input_file(path, "weights"), newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"index", "weight"} <= set(reader.fieldnames):
            raise ConfigError("weights file needs 'index' and 'weight' columns")
        w = np.full(m, np.nan)
        for row in reader:
            line = f"weights file line {reader.line_num}"
            try:
                i = int(row["index"])
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{line}: index {row['index']!r} is not an integer"
                ) from None
            if not 0 <= i < m:
                raise ConfigError(f"{line}: weight index {i} outside dataset of {m} rows")
            if not np.isnan(w[i]):
                raise ConfigError(f"{line}: index {i} appears twice")
            try:
                w[i] = float(row["weight"])
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{line}: weight at index {i} is {row['weight']!r}, not a number"
                ) from None
            if not (np.isfinite(w[i]) and w[i] >= 0):
                raise ConfigError(
                    f"{line}: weight at index {i} is {row['weight']!r}; weights must be "
                    "finite and non-negative"
                )
    if np.isnan(w).any():
        missing = int(np.isnan(w).sum())
        raise ConfigError(f"weights file covers {m - missing} of {m} rows")
    for rows, where in uses:
        if not (w if rows is None else w[rows]).sum() > 0:
            raise ConfigError(f"weights file {path} puts no weight on {where}")
    return w


def train(model: StructuredModel, ds: ColumnarDataset, config: TrainConfig):
    """The fit of ``effects`` without a checkpoint: the causal model alone,
    :func:`fairweigh.trainer.train` with ``fit_only=True``.  It keeps this
    name and three-argument form because perfbench times and traces that
    fit at the lookup ``fairweigh.cli.train``."""
    return _train(model, ds, config, fit_only=True)


def cmd_effects(args) -> int:
    _, run = read_config(args)
    ds, graph, declared_levels = load_inputs(run)
    mode = build_mode(run, graph)
    encoder = Encoder().fit(ds, declared_levels)
    where = f"data file {run.data}"
    check_against_data(run, graph, mode, ds, encoder, where, not args.checkpoint)

    model = StructuredModel(
        graph,
        encoder,
        mode,
        seed=run.train.seed,
        hidden=run.train.hidden,
        critic_hidden=run.train.critic_hidden,
        critic_context_nodes=run.critic_context_nodes,
    )
    mask = model.pair_mask(ds)
    weights = None
    if args.weights:  # the effect reads the pair's rows, the parity each sensitive group
        matching = ", ".join(f"{name}={value}" for name, value in mode.condition)
        s_values = ds.column(graph.sensitive).values
        uses = [(mask, "any row" if mask is None else f"a row matching {matching}")] + [
            (s_values == level, f"a row with {graph.sensitive}={level}")
            for level in encoder.levels(graph.sensitive)
        ]
        weights = _read_weights(args.weights, ds.m, uses)
    if args.checkpoint:
        checkpoint = _input_file(args.checkpoint, "checkpoint")
        try:
            model.restore(checkpoint)
        except ValueError as exc:  # unreadable, or written for another model
            raise ConfigError(f"checkpoint {args.checkpoint}: {exc}") from None
    else:  # the causal model alone: no trained critic, so no critic gap
        model, _, _ = train(model, ds, run.train)

    pair = model.interventional_pair(encoder.transform(ds), mask)
    effect = estimate_effect(model, ds, weights=weights, pair=pair)
    gap = None
    if args.checkpoint:
        gap = MetricSummary.of([discriminator_gap(model, ds, weights, pair=pair)])
    parity = statistical_parity(ds, graph.sensitive, graph.outcome, weights, encoder)
    distance = None
    if weights is not None and run.wasserstein:
        distance = wasserstein_distance(
            ds, weights, encoder, seed=run.train.seed, steps=run.wasserstein_steps
        )
    report = EffectReport(
        mode=mode.mode,
        effect=MetricSummary.of([effect]),
        critic_gap=gap,
        wasserstein=None if distance is None else MetricSummary.of([distance]),
        parity=MetricSummary.of([parity]),
        accuracy=None,
        threshold=float(run.tau),
    )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_report(out_dir, report)
    print(report.render_table())
    return 0 if report.passed else 1


def cmd_gen_synth(args) -> int:
    out = Path(args.out)
    if out.is_dir():
        raise ConfigError(f"output path is a directory, not a file: {out}")
    scm = parse_scm(_input_file(args.scm, "scm").read_text(encoding="utf-8"), seed=args.seed)
    condition = parse_condition(args.condition or [])
    contrasts = {"total_effect": total_path_set(scm.graph)}
    try:
        contrasts["indirect_effect"] = indirect_path_set(scm.graph)
    except GraphError:
        pass
    if condition:
        contrasts["counterfactual_effect"] = counterfactual_path_set(
            scm.graph, condition, lambda _: list(LABELS)
        )
    ds = generate(scm, args.n)
    sidecar: dict = {"n": args.n, "seed": args.seed, "oracle_samples": args.oracle_samples}
    effects = oracle_effects(
        scm, list(contrasts.values()), n=args.oracle_samples, seed=args.seed
    )
    for key, (value, stderr) in zip(contrasts, effects):
        sidecar[key] = {"value": value, "stderr": stderr}
    if condition:
        sidecar["counterfactual_effect"]["condition"] = [list(c) for c in condition]
    out.parent.mkdir(parents=True, exist_ok=True)  # written only once the oracle has run
    write_csv(ds, out)
    Path(str(out) + ".oracle.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {ds.m} rows to {out}")
    return 0


def cmd_evaluate(args) -> int:
    _, run = read_config(args)
    ds, graph, declared_levels = load_inputs(run)
    plan = SplitPlan(run.train.seed, run.train_fraction, args.repetition)
    part = split(ds, plan, declared_levels)
    weights = None
    if args.weights:
        uses = [(part.train_rows, "the training split")]
        weights = _read_weights(args.weights, ds.m, uses)[part.train_rows]
    accuracy = downstream_accuracy(part, graph.outcome, weights)
    print(f"weighted logistic regression accuracy: {accuracy:.4f}")
    return 0


def _non_negative(text: str) -> int:
    """The argparse type of ``--seed`` and ``--repetition``, a seed's rule."""
    rule = number(0, whole=True)
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be {rule.requirement}, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairweigh",
        description="causal-fairness-guided sample reweighting for tabular data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run config JSON (or manifest)")
        p.add_argument("--seed", type=_non_negative, help="override training seed")
        p.add_argument("--mode", help="override the fairness mode")
        p.add_argument("--t-balance", type=float, dest="t_balance",
                       help="override the balance parameter")
        p.add_argument("--tau", type=float, help="fairness threshold")
        p.add_argument("--out", help="output directory")
        p.add_argument("--repeats", type=int, help="number of repetitions")

    p_reweigh = sub.add_parser("reweigh", help="train and export fair sample weights")
    add_common(p_reweigh)
    p_reweigh.set_defaults(func=cmd_reweigh)

    p_effects = sub.add_parser("effects", help="estimate causal effects on a dataset")
    add_common(p_effects)
    p_effects.add_argument("--weights", help="weights CSV (index,weight columns)")
    p_effects.add_argument("--checkpoint", help="model checkpoint instead of fitting")
    p_effects.set_defaults(func=cmd_effects)

    p_gen = sub.add_parser("gen-synth", help="sample a dataset from an SCM document")
    p_gen.add_argument("--scm", required=True, help="SCM description file")
    p_gen.add_argument("--n", type=int, required=True, help="number of rows")
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.add_argument("--seed", type=_non_negative, default=0)
    p_gen.add_argument("--oracle-samples", type=int, default=1_000_000)
    p_gen.add_argument(
        "--condition",
        action="append",
        metavar="NODE=VALUE",
        help="also compute the conditioned oracle effect (repeatable)",
    )
    p_gen.set_defaults(func=cmd_gen_synth)

    p_eval = sub.add_parser("evaluate", help="downstream weighted-regression accuracy")
    add_common(p_eval)
    p_eval.add_argument("--weights", help="weights CSV over the full dataset")
    p_eval.add_argument("--repetition", type=_non_negative, default=0, help="split index")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, DataError) as exc:
        kind = "graph" if isinstance(exc, GraphError) else "data"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, ModelError, SolverError, FloatingPointError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a crash must not exit 1, the code for "unfair"
        message = " ".join(str(exc).split())
        print(f"runtime error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
