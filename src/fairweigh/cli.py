"""Command-line surface: reweigh, effects, gen-synth, evaluate.

A run is driven by a JSON config document; command-line flags override single
fields.  Every reweigh run writes a manifest capturing the fully resolved
configuration plus content hashes and the numpy, BLAS and BLAS thread
setting it ran under; feeding that manifest back through ``--config``
reproduces the weight files byte for byte on the same numpy and BLAS build
with the same BLAS thread setting.

Exit codes: 0 success and fair (|effect| < tau), 1 success but the effect
exceeds tau, 2 configuration/input errors, 3 runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    ColumnarDataset,
    DataError,
    Encoder,
    SplitPlan,
    export_weights,
    load_csv,
    split_indices,
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
    validate_path_set,
)
from .model import ModelError, StructuredModel
from .reweighter import SolverError
from .synth import (
    LABELS,
    generate,
    oracle_effect,  # not called here; perfbench/tracing.py wraps this lookup
    oracle_effects,
    parse_scm,
)
from .trainer import TrainConfig, TrainingError, repeat_protocol, write_log
from .trainer import train as _train

CONFIG_KEYS = {
    "data",
    "graph",
    "out",
    "schema",
    "mode",
    "paths",
    "condition",
    "tau",
    "repeats",
    "train",
    "train_fraction",
    "wasserstein",
    "wasserstein_steps",
    "critic_context_nodes",
}


# The environment variables that set the BLAS thread count.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class ConfigError(ValueError):
    """Unusable run configuration or missing input file."""


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _hash(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode("utf-8")).hexdigest()


def _input_file(path, kind: str) -> Path:
    """``path`` as a Path, refused unless it names an existing file."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"{kind} path is a directory, not a file: {path}")
    if not path.is_file():
        raise ConfigError(f"{kind} file not found: {path}")
    return path


def load_config(path) -> dict:
    """Read a run config; a reweigh manifest is accepted and unwrapped."""
    try:
        with open(_input_file(path, "config"), encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if "config" in raw and isinstance(raw["config"], dict):
        raw = raw["config"]
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config field {sorted(unknown)[0]!r}")
    for required in ("data", "graph", "schema"):
        if required not in raw:
            raise ConfigError(f"config lacks required field {required!r}")
    return raw


def read_config(args: argparse.Namespace) -> dict:
    """The run config of ``--config`` with the command-line overrides, its
    numbers checked."""
    config = apply_overrides(load_config(args.config), args)
    for name, types, in_range, requirement in (
        ("tau", (int, float), lambda v: v >= 0, "a number >= 0"),
        ("repeats", (int,), lambda v: v >= 1, "an integer >= 1"),
        ("train_fraction", (int, float), lambda v: 0 < v < 1, "a number strictly between 0 and 1"),
        ("wasserstein_steps", (int,), lambda v: v >= 1, "an integer >= 1"),
    ):
        value = config.get(name)
        if value is not None and (
            isinstance(value, bool)
            or not isinstance(value, types)
            or not (math.isfinite(value) and in_range(value))
        ):
            raise ConfigError(f"{name} must be {requirement}, got {value!r}")
    return config


def _wants_wasserstein(config: dict) -> bool:
    """The run config's ``wasserstein`` switch, a JSON boolean (default true)."""
    value = config.get("wasserstein", True)
    if not isinstance(value, bool):
        raise ConfigError(f"wasserstein must be true or false, got {value!r}")
    return value


def parse_condition(entries) -> list[tuple]:
    """(node, value) pairs from a list of ``NODE=VALUE`` strings (the
    ``--condition`` flags) or of [node, value] pairs (a run config)."""
    if not isinstance(entries, list):
        raise ConfigError(f"condition must be a list of [node, value] pairs, got {entries!r}")
    pairs = [entry.split("=", 1) if isinstance(entry, str) else entry for entry in entries]
    for entry, pair in zip(entries, pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(
                f"condition entry {entry!r} is neither NODE=VALUE nor a [node, value] pair"
            )
    return [tuple(pair) for pair in pairs]


def apply_overrides(config: dict, args: argparse.Namespace) -> dict:
    config = dict(config)
    train_section = dict(config.get("train", {}))
    if getattr(args, "seed", None) is not None:
        train_section["seed"] = args.seed
    if getattr(args, "t_balance", None) is not None:
        train_section["balance"] = args.t_balance
    if train_section:
        config["train"] = train_section
    for key in ("mode", "tau", "out", "repeats"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def parse_schema(config: dict):
    schema = []
    declared_levels: dict[str, list[str]] = {}
    for entry in config["schema"]:
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise ConfigError(f"bad schema entry: {entry!r}")
        schema.append((entry["name"], entry["kind"]))
        if "levels" in entry:
            declared_levels[entry["name"]] = [str(v) for v in entry["levels"]]
    return schema, declared_levels


def load_inputs(config: dict) -> tuple[ColumnarDataset, CausalGraph, dict]:
    schema, declared_levels = parse_schema(config)
    graph = parse_graph(_input_file(config["graph"], "graph").read_text(encoding="utf-8"))
    ds = load_csv(_input_file(config["data"], "data"), schema)
    for spec in graph.nodes:
        try:
            column = ds.column(spec.name)
        except DataError:
            raise ConfigError(
                f"graph node {spec.name!r} has no column in the data file"
            ) from None
        if column.kind != spec.kind:
            raise ConfigError(
                f"node {spec.name!r}: graph kind {spec.kind} != schema kind {column.kind}"
            )
    return ds, graph, declared_levels


def build_mode(config: dict, graph: CausalGraph) -> PathSet:
    mode = config.get("mode", "total")
    if mode == "total":
        return total_path_set(graph)
    if mode == "path_specific":
        selection = config.get("paths", "indirect")
        if selection == "indirect":
            return indirect_path_set(graph)
        if selection == "direct":
            return direct_path_set(graph)
        if selection == "all":
            return PathSet("path_specific", total_path_set(graph).on_pi_edges)
        raise ConfigError(f"unknown path selection {selection!r}")
    if mode == "counterfactual":
        condition = config.get("condition")
        if not condition:
            raise ConfigError("counterfactual mode requires a condition")
        return counterfactual_path_set(graph, parse_condition(condition))
    raise ConfigError(f"unknown fairness mode {mode!r}")


def build_train_config(config: dict) -> TrainConfig:
    section = dict(config.get("train", {}))
    known = {f.name for f in dataclass_fields(TrainConfig)}
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"unknown train field {sorted(unknown)[0]!r}")
    for tuple_field in ("hidden", "critic_hidden"):
        if tuple_field in section:
            section[tuple_field] = tuple(section[tuple_field])
    try:
        return TrainConfig(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train config: {exc}") from None


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


def write_manifest(out_dir: Path, config: dict, graph: CausalGraph) -> None:
    manifest = {
        "config": config,
        "config_hash": _hash(config),
        "environment": _environment(),
        "graph_hash": graph_fingerprint(graph),
        "seed": config.get("train", {}).get("seed", TrainConfig().seed),
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
    config = read_config(args)
    compute_wasserstein = _wants_wasserstein(config)
    ds, graph, declared_levels = load_inputs(config)
    mode = build_mode(config, graph)
    # a condition value must be a declared or observed level of its node
    validate_path_set(graph, mode, Encoder().fit(ds, declared_levels).levels)
    train_config = build_train_config(config)
    tau = float(config.get("tau", 0.05))
    repeats = int(config.get("repeats", 5))
    out_dir = Path(config.get("out", "fairweigh-out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(out_dir, config, graph)

    report, artifacts = repeat_protocol(
        ds,
        graph,
        mode,
        train_config,
        repeats=repeats,
        tau=tau,
        train_fraction=float(config.get("train_fraction", 0.8)),
        declared_levels=declared_levels,
        compute_wasserstein=compute_wasserstein,
        wasserstein_steps=int(config.get("wasserstein_steps", 2000)),
        critic_context_nodes=tuple(config.get("critic_context_nodes", ())),
    )

    mean_weights = np.zeros(ds.m)
    counts = np.zeros(ds.m)
    for art in artifacts:
        rep_dir = out_dir / f"rep_{art['repetition']}"
        rep_dir.mkdir(exist_ok=True)
        export_weights(
            art["train"].replace_weights(art["weights"]), rep_dir / "weights.csv"
        )
        write_log(art["log"], rep_dir / "train_log.jsonl")
        art["model"].save(rep_dir / "checkpoint.npz")
        mean_weights[art["train_rows"]] += art["weights"]
        counts[art["train_rows"]] += 1.0
    averaged = np.where(counts > 0, mean_weights / np.maximum(counts, 1.0), 1.0)
    export_weights(ds.replace_weights(averaged), out_dir / "weights_mean.csv")
    _write_report(out_dir, report)
    print(report.render_table())
    return 0 if report.passed else 1


def _read_weights(path, m: int) -> np.ndarray:
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
    return w


def train(model: StructuredModel, ds: ColumnarDataset, config: TrainConfig):
    """The fit of ``effects`` without a checkpoint: the causal model alone,
    :func:`fairweigh.trainer.train` with ``fit_only=True``.  It keeps this
    name and three-argument form because perfbench times and traces that
    fit at the lookup ``fairweigh.cli.train``."""
    return _train(model, ds, config, fit_only=True)


def cmd_effects(args) -> int:
    config = read_config(args)
    compute_wasserstein = _wants_wasserstein(config)
    ds, graph, declared_levels = load_inputs(config)
    mode = build_mode(config, graph)
    encoder = Encoder().fit(ds, declared_levels)
    validate_path_set(graph, mode, encoder.levels)
    train_config = build_train_config(config)
    tau = float(config.get("tau", 0.05))
    weights = _read_weights(args.weights, ds.m) if args.weights else None

    model = StructuredModel(
        graph,
        encoder,
        mode,
        seed=train_config.seed,
        hidden=train_config.hidden,
        critic_hidden=train_config.critic_hidden,
        critic_context_nodes=tuple(config.get("critic_context_nodes", ())),
    )
    if args.checkpoint:
        checkpoint = _input_file(args.checkpoint, "checkpoint")
        try:
            model.restore(checkpoint)
        except ValueError as exc:  # unreadable, or written for another model
            raise ConfigError(f"checkpoint {args.checkpoint}: {exc}") from None
    else:  # the causal model alone: no trained critic, so no critic gap
        model, _, _ = train(model, ds, train_config)

    pair = model.interventional_pair(encoder.transform(ds), model.pair_mask(ds))
    effect = estimate_effect(model, ds, weights=weights, pair=pair)
    gap = None
    if args.checkpoint:
        gap = MetricSummary.of([discriminator_gap(model, ds, weights, pair=pair)])
    parity = statistical_parity(
        ds, graph.sensitive, graph.outcome, weights, declared_levels
    )
    distance = None
    if weights is not None and compute_wasserstein:
        distance = wasserstein_distance(
            ds,
            ds.replace_weights(weights),
            encoder,
            seed=train_config.seed,
            steps=int(config.get("wasserstein_steps", 2000)),
        )
    report = EffectReport(
        mode=mode.mode,
        effect=MetricSummary.of([effect]),
        critic_gap=gap,
        wasserstein=None if distance is None else MetricSummary.of([distance]),
        parity=MetricSummary.of([parity]),
        accuracy=None,
        threshold=tau,
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
    config = read_config(args)
    ds, graph, declared_levels = load_inputs(config)
    plan = SplitPlan(
        config.get("train", {}).get("seed", TrainConfig().seed),
        float(config.get("train_fraction", 0.8)),
        args.repetition,
    )
    train_idx, test_idx = split_indices(ds.m, plan)
    train_ds, test_ds = ds.take(train_idx), ds.take(test_idx)
    weights = None
    if args.weights:
        weights = _read_weights(args.weights, ds.m)[train_idx]
    encoder = Encoder().fit(train_ds, declared_levels)
    accuracy = downstream_accuracy(train_ds, test_ds, graph.outcome, weights, encoder)
    print(f"weighted logistic regression accuracy: {accuracy:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairweigh",
        description="causal-fairness-guided sample reweighting for tabular data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run config JSON (or manifest)")
        p.add_argument("--seed", type=int, help="override training seed")
        p.add_argument("--mode", choices=["total", "path_specific", "counterfactual"])
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
    p_gen.add_argument("--seed", type=int, default=0)
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
    p_eval.add_argument("--repetition", type=int, default=0, help="split index")
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
