"""Tabular data handling: typed columns, encoding, splits, weight export.

Continuous columns are z-scored with the population standard deviation and
categorical columns are one-hot encoded against lexicographically sorted
levels, so the encoded layout is reproducible across runs.  A :class:`Split`
carries the encoder fitted on its training side, so encoding statistics
always come from a training split and are applied unchanged to held-out rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .config import CATEGORICAL, CONTINUOUS, RunConfig, check_fields, setting

__all__ = [
    "DataError",
    "Column",
    "ColumnarDataset",
    "SplitPlan",
    "Split",
    "Encoder",
    "load_csv",
    "split_indices",
    "split",
    "write_csv",
    "export_weights",
]

_WRITE_BLOCK = 1024  # rows per block of write_csv


class DataError(ValueError):
    """Malformed input data or an encoding request the data cannot satisfy."""


@dataclass(frozen=True)
class Column:
    name: str
    kind: str
    values: np.ndarray  # float64 for continuous, str array for categorical

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")


class ColumnarDataset:
    """Immutable set of equal-length columns."""

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise DataError("dataset needs at least one column")
        self._by_name = {c.name: c for c in columns}
        if len(self._by_name) != len(columns):
            names = [c.name for c in columns]
            raise DataError(f"column {max(names, key=names.count)!r} appears twice")
        lengths = {len(c.values) for c in columns}
        if len(lengths) != 1:
            raise DataError(f"columns have differing lengths: {sorted(lengths)}")
        self.columns: tuple[Column, ...] = tuple(columns)
        self.m = lengths.pop()

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        if name not in self._by_name:
            raise DataError(f"no column named {name!r}")
        return self._by_name[name]

    def take(self, indices) -> "ColumnarDataset":
        idx = np.asarray(indices)
        return ColumnarDataset([Column(c.name, c.kind, c.values[idx]) for c in self.columns])

    def __repr__(self):
        return f"ColumnarDataset(m={self.m}, columns={self.names})"


_TRAIN_FRACTION = next(row for row in fields(RunConfig) if row.name == "train_fraction")


@dataclass(frozen=True)
class SplitPlan:
    """Deterministic shuffled split: same (seed, repetition) -> same indices.
    ``train_fraction`` has the run config's rule and default."""

    seed: int
    train_fraction: float = setting(_TRAIN_FRACTION.metadata["rule"], _TRAIN_FRACTION.default)
    repetition_index: int = 0

    __post_init__ = check_fields


def load_csv(path, schema: Sequence[tuple[str, str]]) -> ColumnarDataset:
    """Read a CSV file against a declared (name, kind) schema.

    The header must contain every schema column; extra file columns are
    ignored.  Cells are parsed strictly: a non-numeric value in a continuous
    column, a NUL character in a categorical one or an empty cell fails with
    the offending row and column named, and so does a schema column named
    twice or of an unknown kind.
    """
    names = [n for n, _ in schema]
    kinds = dict(schema)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        missing = [n for n in names if n not in header]
        if missing:
            raise DataError(f"{path}: header lacks schema column {missing[0]!r}")
        positions = {n: header.index(n) for n in names}
        raw: dict[str, list] = {n: [] for n in names}
        for row_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {row_number} has {len(row)} cells, expected {len(header)}"
                )
            for name in names:
                cell = row[positions[name]].strip()
                if cell == "":
                    raise DataError(
                        f"{path}: missing value at row {row_number}, column {name!r}"
                    )
                if kinds[name] == CONTINUOUS:
                    try:
                        raw[name].append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"{path}: cannot parse {cell!r} as number at row "
                            f"{row_number}, column {name!r}"
                        ) from None
                elif "\x00" in cell:  # a str array would drop a trailing NUL
                    raise DataError(
                        f"{path}: NUL character in categorical value at row "
                        f"{row_number}, column {name!r}"
                    )
                else:
                    raw[name].append(cell)

    # Column refuses an unknown kind, and ColumnarDataset a column named twice
    return ColumnarDataset([
        Column(n, kinds[n], np.asarray(raw[n], np.float64 if kinds[n] == CONTINUOUS else str))
        for n in names
    ])


class Encoder:
    """Fitted per-column transform with a deterministic encoded layout.

    Continuous columns come first in schema order, then one-hot blocks in
    schema order.  ``block(name)`` returns the column slice of a node in the
    encoded matrix.
    """

    def __init__(self):
        self._stats: dict[str, tuple[float, float]] = {}
        self._levels: dict[str, list[str]] = {}
        self._blocks: dict[str, slice] = {}
        self._order: list[str] = []
        self.width = 0
        self.fitted = False

    def fit(
        self,
        ds: ColumnarDataset,
        declared_levels: dict[str, Sequence[str]] | None = None,
    ) -> "Encoder":
        """Fit transform parameters; ``declared_levels`` may widen a
        categorical column's level set beyond what this split observed."""
        declared_levels = declared_levels or {}
        offset = 0
        continuous = [c for c in ds.columns if c.kind == CONTINUOUS]
        categorical = [c for c in ds.columns if c.kind == CATEGORICAL]
        for col in continuous:
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                mean = float(np.mean(col.values))
                std = float(np.std(col.values))  # population convention
            if not (np.isfinite(mean) and np.isfinite(std)):
                raise DataError(
                    f"column {col.name!r} has mean {mean} and standard deviation {std}; "
                    "cannot z-score a nan or inf value or a variance that overflows"
                )
            if std == 0.0:
                raise DataError(f"column {col.name!r} has zero variance; cannot z-score")
            self._stats[col.name] = (mean, std)
            self._blocks[col.name] = slice(offset, offset + 1)
            self._order.append(col.name)
            offset += 1
        for col in categorical:
            observed = set(col.values.tolist())
            declared = set(map(str, declared_levels.get(col.name, ())))
            stray = observed - declared if declared else set()
            if stray:
                raise DataError(
                    f"column {col.name!r}: level {sorted(stray)[0]!r} missing from "
                    "the declared level set"
                )
            levels = sorted(observed | declared)
            self._levels[col.name] = levels
            self._blocks[col.name] = slice(offset, offset + len(levels))
            self._order.append(col.name)
            offset += len(levels)
        self.width = offset
        self.fitted = True
        return self

    def _require_fitted(self):
        if not self.fitted:
            raise DataError("encoder used before fit()")

    def block(self, name: str) -> slice:
        self._require_fitted()
        return self._blocks[name]

    def block_width(self, name: str) -> int:
        blk = self.block(name)
        return blk.stop - blk.start

    def levels(self, name: str) -> list[str]:
        self._require_fitted()
        return list(self._levels[name])

    def transform(self, ds: ColumnarDataset) -> np.ndarray:
        self._require_fitted()
        out = np.zeros((ds.m, self.width), dtype=np.float64)
        for name in self._order:
            col = ds.column(name)
            blk = self._blocks[name]
            if name in self._stats:
                mean, std = self._stats[name]
                out[:, blk.start] = (col.values - mean) / std
            else:
                levels = np.asarray(self._levels[name])
                pos = np.searchsorted(levels, col.values)
                clipped = np.minimum(pos, len(levels) - 1)
                unseen = levels[clipped] != col.values
                if unseen.any():
                    value = str(col.values[unseen][0])
                    raise DataError(f"column {name!r}: unseen categorical level {value!r}")
                out[np.arange(ds.m), blk.start + clipped] = 1.0
        return out


def split_indices(m: int, plan: SplitPlan) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([plan.seed, plan.repetition_index])
    perm = rng.permutation(m)
    n_train = int(round(plan.train_fraction * m))
    n_train = min(max(n_train, 1), m - 1)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


class Split(NamedTuple):
    """A train/test split: the training rows, both sides, the training side's encoder."""

    train_rows: np.ndarray
    train: ColumnarDataset
    test: ColumnarDataset
    encoder: Encoder


def split(ds: ColumnarDataset, plan: SplitPlan, declared_levels: dict | None = None) -> Split:
    """``plan``'s split of ``ds``, its encoder fitted on the training side
    (``declared_levels`` as in :meth:`Encoder.fit`)."""
    train_rows, test_rows = split_indices(ds.m, plan)
    train = ds.take(train_rows)
    return Split(train_rows, train, ds.take(test_rows), Encoder().fit(train, declared_levels))


def _quoted(label: str, alone: bool) -> str:
    """``label`` as :mod:`csv`'s default (QUOTE_MINIMAL) writer writes it: in
    quotes, its quotes doubled, when it holds a comma, a quote, CR or LF, or
    when it is empty and ``alone`` in its row."""
    if any(c in label for c in ',"\r\n') or (alone and label == ""):
        return '"' + label.replace('"', '""') + '"'
    return label


def write_csv(ds: ColumnarDataset, path, order=None, lead=()) -> None:
    """Write the raw columns of ``ds`` to ``path`` as CSV, header first.

    ``order`` selects and orders the rows (all rows, in order, by default);
    ``lead`` holds ``(name, values)`` columns written first, their values
    aligned with ``order``.  Cells are ``repr`` of the value for lead columns
    and of the float64 value for continuous ones, and ``str`` for categorical
    ones, so :func:`load_csv` reads the values back exactly.  The bytes are
    those of :func:`csv.writer` with its default dialect, but each column is
    formatted on its own, in blocks of rows that bound the cells held at
    once: numbers through ``repr`` (which never needs quotes) and each
    distinct categorical label quoted once, and a block's rows go out in one
    write.
    """
    order = np.arange(ds.m) if order is None else order
    alone = not lead and len(ds.columns) == 1  # csv quotes an empty lone field
    labels = {}
    for col in ds.columns:
        if col.kind == CATEGORICAL:
            distinct, codes = np.unique(col.values, return_inverse=True)
            quoted = np.array([_quoted(str(v), alone) for v in distinct.tolist()], dtype=object)
            labels[col.name] = (quoted, codes)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([*(name for name, _ in lead), *ds.names])
        for start in range(0, order.size, _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            cells = [list(map(repr, values[block].tolist())) for _, values in lead]
            for col in ds.columns:
                if col.kind == CONTINUOUS:
                    values = col.values[order[block]].astype(np.float64)
                    cells.append(list(map(repr, values.tolist())))
                else:
                    quoted, codes = labels[col.name]
                    cells.append(quoted[codes[order[block]]].tolist())
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def export_weights(ds: ColumnarDataset, weights: np.ndarray, path) -> None:
    """Write the rows of ``ds`` sorted by descending weight (stable by
    original index), ``weights`` holding one weight per row.

    Output columns: original row index, weight, then every raw column, which
    supports inspecting the most and least up-weighted sub-populations.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (ds.m,):
        raise DataError(f"weights of shape {weights.shape} for a dataset of {ds.m} rows")
    order = np.lexsort((np.arange(ds.m), -weights))
    write_csv(ds, path, order, lead=(("index", order), ("weight", weights[order])))

