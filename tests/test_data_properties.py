"""Property tests: ``write_csv`` output reads back exactly through
``load_csv`` and is byte for byte what ``csv.writer`` writes, and the
``Encoder`` lays out its blocks as documented."""

import csv
import io

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
    export_weights,
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


# Any float64 value: nan, the infinities, -0.0, subnormals and huge ones.
ANY_FLOATS = FLOATS | st.floats() | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 1e300, -1e300, 1e-310, -4e-320]
)
# Labels write_csv must write as csv.writer does, also those load_csv
# refuses (empty, surrounding spaces): commas, quotes, CR, LF, spaces and
# non-ASCII text.  A numpy str array drops trailing NULs, so none has one.
RAW_LABELS = st.text(
    st.sampled_from([",", '"', "\r", "\n", " ", "a", "é", "中", "\t", "'"])
    | st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
    max_size=6,
)


@st.composite
def datasets(draw, floats=FLOATS, labels=LABELS):
    """1-4 columns of either kind, in any order, over 1-20 rows."""
    rows = draw(st.integers(1, 20))
    kinds = draw(st.lists(st.sampled_from([CONTINUOUS, CATEGORICAL]), min_size=1, max_size=4))
    columns = []
    for i, kind in enumerate(kinds):
        if kind == CONTINUOUS:
            values = np.array(draw(st.lists(floats, min_size=rows, max_size=rows)))
        else:
            levels = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
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


def csv_writer_bytes(ds, order=None, lead=()):
    """The file ``write_csv`` writes, cell by cell through ``csv.writer``."""
    order = np.arange(ds.m) if order is None else order
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow([*(name for name, _ in lead), *ds.names])
    lead_values = [values.tolist() for _, values in lead]
    for position, row in enumerate(order.tolist()):
        cells = [repr(values[position]) for values in lead_values]
        for col in ds.columns:
            value = col.values[row]
            cells.append(repr(float(value)) if col.kind == CONTINUOUS else str(value))
        writer.writerow(cells)
    return out.getvalue().encode("utf-8")


@settings(max_examples=200)
@given(datasets(floats=ANY_FLOATS, labels=RAW_LABELS), st.data())
def test_write_csv_and_export_weights_write_the_bytes_of_csv_writer(
    tmp_path_factory, ds, data
):
    folder = tmp_path_factory.mktemp("csv")
    write_csv(ds, folder / "data.csv")
    assert (folder / "data.csv").read_bytes() == csv_writer_bytes(ds)

    weights = np.array(data.draw(st.lists(
        st.floats(0.0, 4.0) | st.sampled_from([0.0, 1.0, 5e-324]),
        min_size=ds.m, max_size=ds.m,
    )))
    export_weights(ds.replace_weights(weights), folder / "weights.csv")
    order = np.lexsort((np.arange(ds.m), -weights))
    lead = (("index", order), ("weight", weights[order]))
    assert (folder / "weights.csv").read_bytes() == csv_writer_bytes(ds, order, lead)


@pytest.mark.parametrize("labels", [["", "a", ""], [""], ["a,b", "", '"']])
def test_a_lone_empty_label_is_quoted_as_csv_writer_quotes_it(tmp_path, labels):
    """csv.writer quotes an empty field only when it is its row's only one."""
    ds = ColumnarDataset([Column("c", CATEGORICAL, np.array(labels, dtype=str))])
    write_csv(ds, tmp_path / "data.csv")
    assert (tmp_path / "data.csv").read_bytes() == csv_writer_bytes(ds)
    assert b'\r\n""\r\n' in (tmp_path / "data.csv").read_bytes()


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
