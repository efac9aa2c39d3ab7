import numpy as np
import pytest

from fairweigh.config import ConfigError, RunConfig
from fairweigh.data import (
    Column,
    ColumnarDataset,
    DataError,
    Encoder,
    SplitPlan,
    export_weights,
    load_csv,
    split,
    split_indices,
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_small_csv(tmp_path):
    path = write_csv(tmp_path / "d.csv", "age,grade\n1.5,a\n2.5,b\n3.5,a\n")
    ds = load_csv(path, [("age", "continuous"), ("grade", "categorical")])
    assert ds.m == 3
    enc = Encoder().fit(ds)
    assert enc.width == 3  # one continuous + two one-hot columns
    x = enc.transform(ds)
    assert x.shape == (3, 3)


def test_load_csv_ignores_extra_columns(tmp_path):
    path = write_csv(tmp_path / "d.csv", "x,junk,y\n1.0,q,a\n2.0,w,b\n")
    ds = load_csv(path, [("x", "continuous"), ("y", "categorical")])
    assert ds.names == ["x", "y"]


def test_load_csv_bad_cell_names_row_and_column(tmp_path):
    path = write_csv(tmp_path / "d.csv", "x,y\n1.0,a\nabc,b\n")
    with pytest.raises(DataError, match=r"row 3.*'x'"):
        load_csv(path, [("x", "continuous"), ("y", "categorical")])


def test_load_csv_missing_value_rejected(tmp_path):
    path = write_csv(tmp_path / "d.csv", "x,y\n1.0,a\n,b\n")
    with pytest.raises(DataError, match="missing value"):
        load_csv(path, [("x", "continuous"), ("y", "categorical")])


def test_load_csv_row_length_mismatch(tmp_path):
    path = write_csv(tmp_path / "d.csv", "x,y\n1.0,a\n2.0\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(path, [("x", "continuous"), ("y", "categorical")])


def test_load_csv_missing_header_column(tmp_path):
    path = write_csv(tmp_path / "d.csv", "x\n1.0\n")
    with pytest.raises(DataError, match="header"):
        load_csv(path, [("x", "continuous"), ("y", "categorical")])


@pytest.mark.parametrize(
    "schema, message",
    [
        ([("x", "continous"), ("y", "categorical")], "column 'x': unknown kind 'continous'"),
        ([("x", "continuous"), ("x", "categorical")], "column 'x' appears twice"),
    ],
    ids=["misspelt-kind", "column-twice"],
)
def test_load_csv_refuses_a_bad_schema_naming_the_column(tmp_path, schema, message):
    """A misspelt kind was read as categorical, and a column named twice
    failed with "columns have differing lengths"."""
    path = write_csv(tmp_path / "d.csv", "x,y\n1.0,a\n")
    with pytest.raises(DataError, match=message):
        load_csv(path, schema)


def test_zscore_values_and_inverse():
    ds = ColumnarDataset([Column("v", "continuous", np.array([1.0, 2.0, 3.0]))])
    enc = Encoder().fit(ds)
    x = enc.transform(ds)
    # population std of (1,2,3) is sqrt(2/3)
    expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
    assert np.allclose(x[:, 0], expected, atol=1e-12)
    assert abs(x[:, 0].mean()) < 1e-9
    assert abs(x[:, 0].std() - 1.0) < 1e-9


def test_zscore_of_standardized_column_is_identity():
    values = np.array([-1.2247448713915892, 0.0, 1.2247448713915892])
    ds = ColumnarDataset([Column("v", "continuous", values)])
    x = Encoder().fit(ds).transform(ds)
    assert np.allclose(x[:, 0], values, atol=1e-9)


def test_one_hot_layout_lexicographic():
    ds = ColumnarDataset([Column("g", "categorical", np.array(["b", "a", "b"]))])
    enc = Encoder().fit(ds)
    assert enc.levels("g") == ["a", "b"]
    x = enc.transform(ds)
    assert np.array_equal(x, [[0, 1], [1, 0], [0, 1]])
    assert np.allclose(x.sum(axis=1), 1.0)


def test_zero_variance_continuous_rejected():
    ds = ColumnarDataset([Column("v", "continuous", np.full(4, 2.0))])
    with pytest.raises(DataError, match="zero variance"):
        Encoder().fit(ds)


@pytest.mark.parametrize(
    "values",
    [[1.7e308, -1.7e308, 1.0], [1.0, float("nan"), 2.0], [1.0, float("inf"), 2.0]],
    ids=["variance-overflows", "nan-cell", "inf-cell"],
)
def test_non_finite_continuous_statistics_rejected(values):
    ds = ColumnarDataset([Column("v", "continuous", np.array(values))])
    with pytest.raises(DataError, match="column 'v' has mean .* cannot z-score"):
        Encoder().fit(ds)


def test_load_csv_rejects_nul_in_categorical_cell(tmp_path):
    """A str array drops a trailing NUL, which would merge the level x + NUL
    with the level x."""
    path = write_csv(tmp_path / "d.csv", "g,v\nx,1\nx\x00,2\n")
    with pytest.raises(DataError, match=r"NUL .* row 3, column 'g'"):
        load_csv(path, [("g", "categorical"), ("v", "continuous")])


def test_unseen_level_rejected_at_transform():
    train = ColumnarDataset([Column("g", "categorical", np.array(["a", "b"]))])
    test = ColumnarDataset([Column("g", "categorical", np.array(["c"]))])
    enc = Encoder().fit(train)
    with pytest.raises(DataError) as info:
        enc.transform(test)
    assert str(info.value) == "column 'g': unseen categorical level 'c'"  # not np.str_('c')


def test_declared_levels_extend_the_level_set():
    train = ColumnarDataset([Column("g", "categorical", np.array(["a", "a"]))])
    enc = Encoder().fit(train, {"g": ["a", "b"]})
    assert enc.levels("g") == ["a", "b"]
    test = ColumnarDataset([Column("g", "categorical", np.array(["b"]))])
    assert np.array_equal(enc.transform(test), [[0, 1]])
    with pytest.raises(DataError, match="declared"):
        Encoder().fit(
            ColumnarDataset([Column("g", "categorical", np.array(["z"]))]), {"g": ["a"]}
        )


def test_split_sizes_and_determinism():
    plan = SplitPlan(seed=5, train_fraction=0.8, repetition_index=0)
    train_idx, test_idx = split_indices(10, plan)
    assert len(train_idx) == 8 and len(test_idx) == 2
    again_train, again_test = split_indices(10, plan)
    assert np.array_equal(train_idx, again_train)
    assert np.array_equal(test_idx, again_test)
    # partition property
    assert sorted(np.concatenate([train_idx, test_idx]).tolist()) == list(range(10))


@pytest.mark.parametrize("fraction", [0, 1, 1.5, -0.2, float("nan"), True, "0.8"])
def test_split_plan_refuses_a_train_fraction_by_the_run_config_rule(fraction):
    """The plan takes the run config's rule and default for train_fraction."""
    assert SplitPlan(seed=0).train_fraction == RunConfig.train_fraction == 0.8
    with pytest.raises(ConfigError, match="train_fraction must be a finite number > 0 and < 1"):
        SplitPlan(seed=0, train_fraction=fraction)


def test_different_seeds_differ():
    a, _ = split_indices(200, SplitPlan(seed=1))
    b, _ = split_indices(200, SplitPlan(seed=2))
    assert not np.array_equal(a, b)
    c, _ = split_indices(200, SplitPlan(seed=1, repetition_index=1))
    assert not np.array_equal(a, c)


def test_encoding_fit_on_train_only_no_leakage():
    rng = np.random.default_rng(0)
    values = rng.normal(3.0, 2.0, 50)
    ds = ColumnarDataset([Column("v", "continuous", values)])
    part = split(ds, SplitPlan(seed=3))
    assert np.array_equal(part.train_rows, split_indices(ds.m, SplitPlan(seed=3))[0])
    assert np.array_equal(part.train.columns[0].values, values[part.train_rows])
    train_values = part.train.columns[0].values
    assert part.encoder.transform(part.train)[:, 0] == pytest.approx(
        (train_values - train_values.mean()) / train_values.std()
    )
    x_test = part.encoder.transform(part.test)
    # perturbing a test row must not change the transform of other rows
    bumped = part.test.columns[0].values.copy()
    bumped[0] += 100.0
    test2 = ColumnarDataset([Column("v", "continuous", bumped)])
    x_test2 = split(ds, SplitPlan(seed=3)).encoder.transform(test2)
    assert np.array_equal(x_test[1:], x_test2[1:])


def test_export_weights_sorted_with_stable_ties(tmp_path):
    ds = ColumnarDataset([Column("v", "continuous", np.array([10.0, 20.0, 30.0]))])
    out = tmp_path / "w.csv"
    export_weights(ds, np.array([2.0, 0.5, 0.5]), out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,weight,v"
    order = [int(line.split(",")[0]) for line in lines[1:]]
    assert order == [0, 1, 2]  # highest weight first, ties by index

    export_weights(ds, np.ones(3), out)
    lines = out.read_text().strip().splitlines()
    assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 1, 2]


def test_export_weights_pins_the_exact_bytes(tmp_path):
    ds = ColumnarDataset(
        [
            Column("v", "continuous", np.array([1e-05, 2.5, -3.0, 0.1])),
            Column("g", "categorical", np.array(["b", "a,c", "a", "b"])),
        ]
    )
    out = tmp_path / "w.csv"
    export_weights(ds, np.array([0.5, 1e-05, 2.0, 0.5]), out)
    assert out.read_bytes() == (
        b"index,weight,v,g\r\n"
        b"2,2.0,-3.0,a\r\n"
        b"0,0.5,1e-05,b\r\n"
        b"3,0.5,0.1,b\r\n"
        b'1,1e-05,2.5,"a,c"\r\n'
    )


def test_export_refuses_weights_of_another_length(tmp_path):
    ds = ColumnarDataset([Column("v", "continuous", np.array([1.0, 2.0]))])
    for weights, shown in ((np.ones(3), r"\(3,\)"), (np.ones((2, 1)), r"\(2, 1\)")):
        with pytest.raises(DataError, match=rf"weights of shape {shown} for a dataset of 2 rows"):
            export_weights(ds, weights, tmp_path / "w.csv")
    assert not (tmp_path / "w.csv").exists()


def test_take_does_not_mutate():
    ds = ColumnarDataset([Column("v", "continuous", np.array([1.0, 2.0, 3.0]))])
    sub = ds.take([2, 0])
    assert np.array_equal(sub.column("v").values, [3.0, 1.0])
    assert np.array_equal(ds.column("v").values, [1.0, 2.0, 3.0])
