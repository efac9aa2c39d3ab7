import json
from pathlib import Path

import pytest

from fairweigh import trainer
from fairweigh.cli import main
from fairweigh.reweighter import SolverError
from fairweigh.synth import benchmark_document

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


def test_effects_with_wrong_length_weights(workspace):
    config = config_for(workspace, "run5")
    weights = workspace / "short.csv"
    weights.write_text("index,weight\n0,1.0\n1,1.0\n", encoding="utf-8")
    assert main(["effects", "--config", str(config), "--weights", str(weights)]) == 2


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
