import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairweigh import cli, trainer
from fairweigh.cli import BLAS_THREAD_VARIABLES, _read_weights, main
from fairweigh.data import Encoder, SplitPlan, load_csv, split_indices
from fairweigh.graph import parse_graph, total_path_set
from fairweigh.model import StructuredModel
from fairweigh.reweighter import SolverError
from fairweigh.synth import benchmark_document, generate, parse_scm

from conftest import NO_PATH_DOC, all_groups_checkpoint

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

FAST_TRAIN = {
    "epochs": 3,
    "batch_size": 128,
    "eta0": 0.02,
    "seed": 11,
    "critic_steps_at_weight_solve": 5,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scm_path = root / "scm.txt"
    scm_path.write_text(benchmark_document(), encoding="utf-8")
    graph_path = root / "graph.txt"
    graph_path.write_text(
        benchmark_document().split("[functions]")[0], encoding="utf-8"
    )
    data_path = root / "data.csv"
    code = main(
        [
            "gen-synth",
            "--scm",
            str(scm_path),
            "--n",
            "600",
            "--out",
            str(data_path),
            "--seed",
            "3",
            "--oracle-samples",
            "20000",
        ]
    )
    assert code == 0
    return root


def config_for(workspace, out_name, **overrides):
    config = {
        "data": str(workspace / "data.csv"),
        "graph": str(workspace / "graph.txt"),
        "out": str(workspace / out_name),
        "schema": SCHEMA,
        "mode": "total",
        "tau": 0.05,
        "repeats": 1,
        "wasserstein": False,
        "train": dict(FAST_TRAIN),
    }
    config.update(overrides)
    path = workspace / f"{out_name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_gen_synth_is_byte_deterministic(workspace, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code = main(
            [
                "gen-synth",
                "--scm",
                str(workspace / "scm.txt"),
                "--n",
                "200",
                "--out",
                str(out),
                "--seed",
                "5",
                "--oracle-samples",
                "5000",
            ]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (
        Path(str(a) + ".oracle.json").read_bytes()
        == Path(str(b) + ".oracle.json").read_bytes()
    )
    sidecar = json.loads(Path(str(a) + ".oracle.json").read_text())
    assert "total_effect" in sidecar and "indirect_effect" in sidecar


def test_gen_synth_file_reads_back_the_generated_values(workspace, tmp_path):
    """1,500 rows span two write blocks of 1,024."""
    out = tmp_path / "g.csv"
    args = ["gen-synth", "--scm", str(workspace / "scm.txt"), "--n", "1500",
            "--out", str(out), "--seed", "5", "--oracle-samples", "2000"]
    assert main(args) == 0
    scm = parse_scm((workspace / "scm.txt").read_text(encoding="utf-8"), seed=5)
    generated = generate(scm, 1500)
    loaded = load_csv(out, [(entry["name"], entry["kind"]) for entry in SCHEMA])
    assert loaded.names == generated.names
    for want, got in zip(generated.columns, loaded.columns):
        assert want.kind == got.kind
        assert np.array_equal(want.values, got.values), want.name


def test_gen_synth_without_a_path_to_the_outcome_writes_zero_effects(tmp_path):
    """No path runs from s to y: the total and counterfactual effects are
    exactly zero and the indirect effect, undefined, is left out."""
    scm_path = tmp_path / "scm.txt"
    functions = ["a = normal(0, 1)", "s = bernoulli(logistic(a))", "y = bernoulli(logistic(a))"]
    scm_path.write_text(NO_PATH_DOC + "\n".join(["[functions]", *functions, ""]), encoding="utf-8")
    out = tmp_path / "g.csv"
    args = ["gen-synth", "--scm", str(scm_path), "--n", "50", "--out", str(out),
            "--oracle-samples", "3000"]
    # without a condition no contrast reads the outcome's noise
    for condition, keys in [([], ["total_effect"]),
                            (["--condition", "y=1"], ["counterfactual_effect", "total_effect"])]:
        assert main(args + condition) == 0
        sidecar = json.loads(Path(str(out) + ".oracle.json").read_text())
        assert "indirect_effect" not in sidecar
        assert sorted(k for k in sidecar if k.endswith("_effect")) == keys
        for key in keys:
            assert (sidecar[key]["value"], sidecar[key]["stderr"]) == (0.0, 0.0)


def test_reweigh_writes_outputs_and_exit_code(workspace):
    config = config_for(workspace, "run1")
    code = main(["reweigh", "--config", str(config)])
    out = workspace / "run1"
    assert code in (0, 1)  # fairness depends on the tiny budget; files must exist
    assert (out / "manifest.json").exists()
    assert (out / "report.json").exists()
    assert (out / "report.txt").exists()
    assert (out / "weights_mean.csv").exists()
    assert (out / "rep_0" / "weights.csv").exists()
    assert (out / "rep_0" / "train_log.jsonl").exists()
    assert (out / "rep_0" / "checkpoint.npz").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "total"
    assert (code == 0) == report["passed"]


def test_manifest_rerun_reproduces_weights_bitwise(workspace):
    config = config_for(workspace, "run2")
    assert main(["reweigh", "--config", str(config)]) in (0, 1)
    manifest = workspace / "run2" / "manifest.json"
    rerun_out = workspace / "run2_rerun"
    assert main(
        ["reweigh", "--config", str(manifest), "--out", str(rerun_out)]
    ) in (0, 1)
    first = (workspace / "run2" / "rep_0" / "weights.csv").read_bytes()
    second = (rerun_out / "rep_0" / "weights.csv").read_bytes()
    assert first == second
    assert (workspace / "run2" / "weights_mean.csv").read_bytes() == (
        rerun_out / "weights_mean.csv"
    ).read_bytes()


def test_missing_graph_file_is_config_error(workspace):
    config = config_for(workspace, "run3", graph=str(workspace / "nope.txt"))
    assert main(["reweigh", "--config", str(config)]) == 2


def test_unknown_config_field_rejected(workspace):
    path = workspace / "bad.json"
    payload = json.loads(config_for(workspace, "run4").read_text())
    payload["tyop"] = True
    path.write_text(json.dumps(payload))
    assert main(["reweigh", "--config", str(path)]) == 2
    config = config_for(workspace, "run4", train={**FAST_TRAIN, "cascade": True})
    assert main(["reweigh", "--config", str(config)]) == 2


def test_effects_with_wrong_length_weights(workspace):
    config = config_for(workspace, "run5")
    weights = workspace / "short.csv"
    weights.write_text("index,weight\n0,1.0\n1,1.0\n", encoding="utf-8")
    assert main(["effects", "--config", str(config), "--weights", str(weights)]) == 2


@pytest.mark.parametrize(
    "row, expected",
    [
        *(
            pytest.param(f"4,{cell}", ("index 4", "finite and non-negative"), id=cell)
            for cell in ("nan", "inf", "-0.5")
        ),
        # row 4 is line 6 of the file
        pytest.param("4,abc", ("line 6", "'abc'", "not a number"), id="abc"),
        pytest.param("1.5,1.0", ("line 6", "'1.5'", "not an integer"), id="index-1.5"),
        pytest.param("3,1.0", ("line 6", "index 3 appears twice"), id="repeated-index"),
    ],
)
def test_effects_rejects_a_bad_weight_naming_its_row(workspace, capsys, row, expected):
    config = config_for(workspace, "run5")
    m = len((workspace / "data.csv").read_text(encoding="utf-8").splitlines()) - 1
    rows = [row if i == 4 else f"{i},1.0" for i in range(m)]
    weights = workspace / "bad_weight.csv"
    weights.write_text("index,weight\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert main(["effects", "--config", str(config), "--weights", str(weights)]) == 2
    err = capsys.readouterr().err
    assert all(part in err for part in expected), err


def test_effects_fit_and_checkpoint_round(workspace):
    run_dir = workspace / "run6"
    config = config_for(workspace, "run6")
    code = main(["reweigh", "--config", str(config)])
    assert code in (0, 1)
    checkpoint = run_dir / "rep_0" / "checkpoint.npz"
    out = workspace / "effects_out"
    code = main(
        [
            "effects",
            "--config",
            str(config),
            "--checkpoint",
            str(checkpoint),
            "--out",
            str(out),
        ]
    )
    assert code in (0, 1)
    report = json.loads((out / "report.json").read_text())
    assert "effect" in report and report["accuracy"] is None
    assert report["critic_gap"]["values"] == [report["critic_gap"]["mean"]]


def test_effects_without_a_checkpoint_only_fits_and_reports_no_critic_gap(
    workspace, monkeypatch, capsys
):
    def forbidden(*args, **kwargs):
        raise AssertionError("effects without a checkpoint ran the critic")

    for name in ("critic_step", "full_split_pair"):
        monkeypatch.setattr(trainer._Loop, name, forbidden)
    monkeypatch.setattr(trainer, "solve_weights", forbidden)
    monkeypatch.setattr(cli, "discriminator_gap", forbidden)
    config = config_for(workspace, "run_fit_only")
    out = workspace / "effects_fit_only"
    assert main(["effects", "--config", str(config), "--out", str(out)]) in (0, 1)
    report = json.loads((out / "report.json").read_text())
    assert report["critic_gap"] is None and report["effect"] is not None
    assert "critic gap          -\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, flag, kind",
    [("effects", "--checkpoint", "checkpoint"), ("effects", "--weights", "weights"),
     ("evaluate", "--weights", "weights")],
)
def test_a_missing_input_file_exits_2_and_names_it(workspace, capsys, command, flag, kind):
    config = config_for(workspace, "run_missing")
    missing = workspace / "missing.file"
    assert main([command, "--config", str(config), flag, str(missing)]) == 2
    assert f"{kind} file not found: {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["config", "graph", "data", "scm", "weights", "checkpoint"])
def test_a_directory_given_as_an_input_file_exits_2_and_names_it(
    workspace, tmp_path, capsys, kind
):
    directory = tmp_path / "a-directory"
    directory.mkdir()
    if kind == "config":
        args = ["reweigh", "--config", str(directory)]
    elif kind in ("graph", "data"):
        config = config_for(workspace, f"run_dir_{kind}", **{kind: str(directory)})
        args = ["reweigh", "--config", str(config)]
    elif kind == "scm":
        args = ["gen-synth", "--scm", str(directory), "--n", "50", "--out", str(tmp_path / "g.csv")]
    else:
        config = config_for(workspace, "run_dir")
        args = ["effects", "--config", str(config), f"--{kind}", str(directory)]
    assert main(args) == 2
    assert f"{kind} path is a directory, not a file: {directory}" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"index,weight\n0,1.0\n", b""], ids=["text", "empty"])
def test_a_checkpoint_that_is_not_an_archive_exits_2_and_names_it(
    workspace, tmp_path, capsys, content
):
    checkpoint = tmp_path / "checkpoint.npz"
    checkpoint.write_bytes(content)
    config = config_for(workspace, "run_not_archive")
    assert main(["effects", "--config", str(config), "--checkpoint", str(checkpoint)]) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {checkpoint}: not a parameter archive" in err, err


@pytest.mark.parametrize(
    "graph_edit, context, expected",
    [
        (("s -> aux5\n", ""), [], "checkpoint was written for a different graph"),
        (("", ""), ["x1"], "snapshot shape mismatch in group 'critic': (1, 32) vs (2, 32)"),
    ],
    ids=["other-graph", "other-critic-layout"],
)
def test_a_checkpoint_of_another_model_exits_2(
    workspace, tmp_path, capsys, graph_edit, context, expected
):
    """A checkpoint saved for another graph, or for the same graph with
    another critic input layout, is an input error naming what differs."""
    graph = parse_graph((workspace / "graph.txt").read_text().replace(*graph_edit))
    ds = load_csv(workspace / "data.csv", [(entry["name"], entry["kind"]) for entry in SCHEMA])
    encoder = Encoder().fit(ds, {e["name"]: e["levels"] for e in SCHEMA if "levels" in e})
    checkpoint = tmp_path / "checkpoint.npz"
    StructuredModel(graph, encoder, total_path_set(graph), seed=0).save(checkpoint)
    config = config_for(workspace, "run_other_model", critic_context_nodes=context)
    assert main(["effects", "--config", str(config), "--checkpoint", str(checkpoint)]) == 2
    assert expected in capsys.readouterr().err


def test_a_checkpoint_of_another_fairness_mode_exits_2_and_names_both(
    workspace, tmp_path, capsys
):
    """A total-mode critic does not stand in for a path-specific one."""
    graph = parse_graph((workspace / "graph.txt").read_text())
    ds = load_csv(workspace / "data.csv", [(entry["name"], entry["kind"]) for entry in SCHEMA])
    encoder = Encoder().fit(ds, {e["name"]: e["levels"] for e in SCHEMA if "levels" in e})
    checkpoint = tmp_path / "checkpoint.npz"
    StructuredModel(graph, encoder, total_path_set(graph), seed=0).save(checkpoint)
    config = config_for(workspace, "run_other_mode", mode="path_specific", paths="indirect")
    assert main(["effects", "--config", str(config), "--checkpoint", str(checkpoint)]) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {checkpoint}: checkpoint was written for total mode" in err, err
    assert "the model is in path_specific mode" in err, err


def test_a_checkpoint_holding_sub_networks_the_model_does_not_fit_exits_2(
    workspace, tmp_path, capsys
):
    """A checkpoint that holds a sub-network for every non-root node, as
    every node had one once, is refused and the message says why."""
    graph = parse_graph((workspace / "graph.txt").read_text())
    ds = load_csv(workspace / "data.csv", [(entry["name"], entry["kind"]) for entry in SCHEMA])
    encoder = Encoder().fit(ds, {e["name"]: e["levels"] for e in SCHEMA if "levels" in e})
    checkpoint = tmp_path / "checkpoint.npz"
    all_groups_checkpoint(StructuredModel(graph, encoder, total_path_set(graph), seed=0), checkpoint)
    config = config_for(workspace, "run_all_groups")
    assert main(["effects", "--config", str(config), "--checkpoint", str(checkpoint)]) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {checkpoint}: checkpoint holds sub-networks this model does not fit" in err


def test_manifest_records_the_environment_and_still_reproduces_the_weights(workspace):
    config = config_for(workspace, "run_env")
    assert main(["reweigh", "--config", str(config)]) in (0, 1)
    manifest = json.loads((workspace / "run_env" / "manifest.json").read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["environment"] == {
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "blas_thread_variables": {
            name: os.environ[name] for name in BLAS_THREAD_VARIABLES if name in os.environ
        },
    }
    rerun = workspace / "run_env_rerun"
    manifest_path = workspace / "run_env" / "manifest.json"
    assert main(["reweigh", "--config", str(manifest_path), "--out", str(rerun)]) in (0, 1)
    assert (workspace / "run_env" / "weights_mean.csv").read_bytes() == (
        rerun / "weights_mean.csv"
    ).read_bytes()
    assert json.loads((rerun / "manifest.json").read_text())["environment"] == (
        manifest["environment"]
    )


def test_effects_weights_flow(workspace):
    config = config_for(workspace, "run7", repeats=1)
    assert main(["reweigh", "--config", str(config)]) in (0, 1)
    # weights_mean covers the full dataset and feeds back into effects
    weights = workspace / "run7" / "weights_mean.csv"
    code = main(["effects", "--config", str(config), "--weights", str(weights)])
    assert code in (0, 1)


def test_evaluate_prints_accuracy(workspace, capsys):
    config = config_for(workspace, "run8")
    assert main(["evaluate", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out


def test_counterfactual_mode_requires_condition(workspace):
    config = config_for(workspace, "run9", mode="counterfactual")
    assert main(["reweigh", "--config", str(config)]) == 2
    config2 = config_for(
        workspace, "run10", mode="counterfactual", condition=[["x2", "1"]]
    )
    assert main(["reweigh", "--config", str(config2)]) in (0, 1)


def test_condition_on_a_continuous_node_exits_2(workspace, tmp_path, capsys):
    config = config_for(
        workspace, "run12", mode="counterfactual", condition=[["x1", "0.5"]]
    )
    assert main(["reweigh", "--config", str(config)]) == 2
    assert "'x1' is not categorical" in capsys.readouterr().err
    args = ["gen-synth", "--scm", str(workspace / "scm.txt"), "--n", "50",
            "--out", str(tmp_path / "g.csv"), "--oracle-samples", "500"]
    assert main(args + ["--condition", "x1=0"]) == 2
    assert "'x1' is not categorical" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "1.0"])
def test_condition_value_must_be_a_level_of_its_node(workspace, tmp_path, capsys, value):
    """A value that is no declared or observed label exits 2 and names the
    node, the value and the levels, in every command that takes one."""
    message = f"condition value {value!r} is none of the levels"
    config = config_for(
        workspace, f"run_level_{value}", mode="counterfactual", condition=[["x2", value]]
    )
    for command in ("reweigh", "effects"):
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert message in err and "['0', '1'] of 'x2'" in err
    args = ["gen-synth", "--scm", str(workspace / "scm.txt"), "--n", "50",
            "--out", str(tmp_path / "g.csv"), "--oracle-samples", "500"]
    assert main(args + ["--condition", f"x2={value}"]) == 2
    err = capsys.readouterr().err
    assert message in err and "['0', '1'] of 'x2'" in err
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize(
    "source, condition, entry",
    [
        ("flag", "x2", "'x2'"),
        ("config", "x2=1", "'x2=1'"),
        ("config", [["x2"]], "['x2']"),
        ("config", [["x2", "1", "extra"]], "['x2', '1', 'extra']"),
        ("config", ["x2"], "'x2'"),
    ],
    ids=["flag-without-value", "config-string", "short-pair", "long-pair", "bare-node"],
)
def test_a_malformed_condition_exits_2_and_names_the_entry(
    workspace, tmp_path, capsys, source, condition, entry
):
    """A ``--condition`` flag must read NODE=VALUE, and a config condition
    must be a list of [node, value] pairs."""
    if source == "flag":
        args = ["gen-synth", "--scm", str(workspace / "scm.txt"), "--n", "50",
                "--out", str(tmp_path / "g.csv"), "--oracle-samples", "500"]
        assert main(args + ["--condition", condition]) == 2
        assert not (tmp_path / "g.csv").exists()
    else:
        out = tmp_path / "run"
        config = config_for(
            workspace, "run_condition", out=str(out), mode="counterfactual", condition=condition
        )
        assert main(["reweigh", "--config", str(config)]) == 2
        assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("configuration error: condition") and entry in err


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_gen_synth_rejects_oracle_samples_below_one(workspace, tmp_path, capsys, samples):
    args = ["gen-synth", "--scm", str(workspace / "scm.txt"), "--n", "50",
            "--out", str(tmp_path / "g.csv"), "--oracle-samples", samples]
    assert main(args) == 2
    assert "sample count must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "field, value",
    [("repeats", 0), ("repeats", "x"), ("repeats", 1.5), ("tau", "abc"), ("tau", True),
     ("tau", -0.1), ("train_fraction", 1.0), ("wasserstein_steps", 0)],
)
def test_a_bad_run_config_number_exits_2_and_names_its_field(
    workspace, tmp_path, capsys, field, value
):
    out = tmp_path / "run"
    config = config_for(workspace, "run_numbers", out=str(out), **{field: value})
    for command in ("reweigh", "effects", "evaluate"):
        assert main([command, "--config", str(config)]) == 2
        assert f"configuration error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("balance", float("nan"), id="balance-nan"),
        pytest.param("critic_lr", -1.0, id="critic_lr-negative"),
        pytest.param("eta0", float("inf"), id="eta0-inf"),
        pytest.param("penalty_coef", -0.5, id="penalty_coef-negative"),
        pytest.param("hidden", [0], id="hidden-zero"),
        pytest.param("critic_hidden", [32, 0], id="critic_hidden-zero"),
        pytest.param("wasserstein", "no", id="wasserstein-string"),
    ],
)
def test_a_bad_training_setting_exits_2_and_names_its_field(
    workspace, tmp_path, capsys, field, value
):
    """Each once exited 3 (a NaN balance) or ran to exit 0 or 1 (a negative
    critic rate or a zero width trained a constant critic; any non-empty
    string switched the distance critic on)."""
    out = tmp_path / "run"
    overrides = {"train": {**FAST_TRAIN, field: value}}
    if field == "wasserstein":
        overrides = {field: value}
    config = config_for(workspace, "run_settings", out=str(out), **overrides)
    for command in ("reweigh", "effects"):
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and field in err, err
    assert not out.exists()


def test_a_bad_repeats_override_exits_2(workspace, capsys):
    config = config_for(workspace, "run_repeats_flag")
    assert main(["reweigh", "--config", str(config), "--repeats", "0"]) == 2
    assert "repeats must be an integer >= 1, got 0" in capsys.readouterr().err


def test_gen_synth_refuses_a_directory_as_out_before_sampling(
    workspace, tmp_path, capsys, monkeypatch
):
    def sample(*args, **kwargs):
        raise AssertionError("sampled before the output path was checked")

    monkeypatch.setattr(cli, "generate", sample)
    monkeypatch.setattr(cli, "oracle_effects", sample)
    args = ["gen-synth", "--scm", str(workspace / "scm.txt"), "--n", "50",
            "--out", str(tmp_path), "--oracle-samples", "500"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"configuration error: output path is a directory, not a file: {tmp_path}" in err
    assert list(tmp_path.iterdir()) == []


def test_an_unexpected_exception_exits_3_with_one_line_and_no_traceback(
    workspace, tmp_path, capsys
):
    """An ``out`` that names an existing file fails in ``mkdir`` with an
    OSError, which no check expects: exit 3 ("runtime error"), never 1,
    which means "finished but unfair"."""
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    config = config_for(workspace, "run_out_is_a_file", out=str(taken))
    assert main(["reweigh", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: FileExistsError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_gen_synth_rejects_a_non_numeric_noise_std(workspace, tmp_path, capsys):
    doc = benchmark_document().replace("x1 = normal(0, 1)", "x1 = normal(0, abc)")
    (tmp_path / "scm.txt").write_text(doc, encoding="utf-8")
    args = ["gen-synth", "--scm", str(tmp_path / "scm.txt"), "--n", "50",
            "--out", str(tmp_path / "g.csv"), "--oracle-samples", "500"]
    assert main(args) == 2
    assert "bad noise std" in capsys.readouterr().err


def test_weights_mean_averages_each_repetition_over_its_training_rows(workspace):
    config = config_for(workspace, "run14", repeats=2, train={**FAST_TRAIN, "epochs": 1})
    assert main(["reweigh", "--config", str(config)]) in (0, 1)
    out = workspace / "run14"
    m = 600
    total, counts = np.zeros(m), np.zeros(m)
    for rep in range(2):
        rows, _ = split_indices(m, SplitPlan(FAST_TRAIN["seed"], 0.8, rep))
        total[rows] += _read_weights(out / f"rep_{rep}" / "weights.csv", rows.size)
        counts[rows] += 1.0
    assert counts.min() == 0.0 and counts.max() == 2.0
    expected = np.where(counts > 0, total / np.maximum(counts, 1.0), 1.0)
    assert np.array_equal(_read_weights(out / "weights_mean.csv", m), expected)


def test_path_specific_mode_runs(workspace):
    config = config_for(workspace, "run11", mode="path_specific", paths="indirect")
    assert main(["reweigh", "--config", str(config)]) in (0, 1)
    report = json.loads((workspace / "run11" / "report.json").read_text())
    assert report["mode"] == "path_specific"


def test_failed_weight_solve_exits_3(workspace, monkeypatch):
    def fail(d, balance):
        raise SolverError("non-finite critic gap")

    monkeypatch.setattr(trainer, "solve_weights", fail)
    assert main(["reweigh", "--config", str(config_for(workspace, "solve_fails"))]) == 3


def test_package_imports_only_numpy_and_the_standard_library():
    """numpy is the only runtime dependency: a fresh interpreter importing the
    package and its CLI loads no other third-party module."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import fairweigh, fairweigh.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
        check=True,
    )
    loaded = {name.split(".")[0] for name in result.stdout.split()}
    assert "fairweigh" in loaded
    allowed = set(sys.stdlib_module_names) | {"numpy", "fairweigh"}
    assert loaded <= allowed, sorted(loaded - allowed)
