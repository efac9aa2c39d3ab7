"""Property tests: ``write_csv`` output reads back exactly through
``load_csv``, and the ``Encoder`` lays out its blocks as documented."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from fairweigh.data import (  # noqa: E402
    CATEGORICAL,
    CONTINUOUS,
    Column,
    ColumnarDataset,
    Encoder,
    load_csv,
    write_csv,
)

# Finite float64 values, the extremes and -0.0 among them.
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308]
)
# Labels load_csv can hold: non-empty, no surrounding whitespace (cells are
# stripped), no NUL; commas, quotes and inner line breaks are quoted.
LABELS = (
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), max_size=8)
    | st.sampled_from(['a,b', '"', 'say "hi"', '","', "x\ny", "'"])
).filter(lambda label: label != "" and label == label.strip())


@st.composite
def datasets(draw, floats=FLOATS):
    """1-4 columns of either kind, in any order, over 1-20 rows."""
    rows = draw(st.integers(1, 20))
    kinds = draw(st.lists(st.sampled_from([CONTINUOUS, CATEGORICAL]), min_size=1, max_size=4))
    columns = []
    for i, kind in enumerate(kinds):
        if kind == CONTINUOUS:
            values = np.array(draw(st.lists(floats, min_size=rows, max_size=rows)))
        else:
            levels = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
            values = np.array(
                draw(st.lists(st.sampled_from(levels), min_size=rows, max_size=rows)),
                dtype=str,
            )
        columns.append(Column(f"c{i}", kind, values))
    return ColumnarDataset(columns)


@settings(max_examples=150)
@given(datasets())
def test_write_csv_then_load_csv_is_exact(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    write_csv(ds, path)
    loaded = load_csv(path, [(c.name, c.kind) for c in ds.columns])
    assert loaded.names == ds.names and loaded.m == ds.m
    for written, read in zip(ds.columns, loaded.columns):
        if written.kind == CONTINUOUS:
            # bit for bit, so -0.0 stays -0.0
            assert read.values.dtype == np.float64
            assert np.array_equal(read.values.view(np.int64), written.values.view(np.int64))
        else:
            assert read.values.tolist() == written.values.tolist()


@settings(max_examples=150)
@given(datasets(floats=st.floats(-1e6, 1e6)))
def test_encoder_block_layout(ds):
    """Continuous columns first, then categorical ones, each group in schema
    order, the blocks tiling [0, width); a continuous block is one z-scored
    column, a categorical one a one-hot over the sorted levels."""
    continuous = [c for c in ds.columns if c.kind == CONTINUOUS]
    assume(all(np.std(c.values) > 0.0 for c in continuous))  # z-scoring needs it
    enc = Encoder().fit(ds)
    ordered = continuous + [c for c in ds.columns if c.kind == CATEGORICAL]
    x = enc.transform(ds)
    assert x.shape == (ds.m, enc.width)
    start = 0
    for col in ordered:
        block = enc.block(col.name)
        assert block.start == start
        start = block.stop
        if col.kind == CONTINUOUS:
            assert enc.block_width(col.name) == 1
            mean, std = np.mean(col.values), np.std(col.values)
            assert np.array_equal(x[:, block.start], (col.values - mean) / std)
        else:
            levels = sorted(set(col.values.tolist()))
            assert enc.levels(col.name) == levels
            one_hot = x[:, block]
            assert one_hot.shape[1] == len(levels)
            assert np.array_equal(one_hot.sum(axis=1), np.ones(ds.m))
            assert enc.decode_categorical(col.name, one_hot).tolist() == col.values.tolist()
    assert start == enc.width
