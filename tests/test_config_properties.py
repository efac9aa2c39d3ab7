"""Property test: a run config with one top-level or ``train`` field set to a
value of the wrong JSON type, or to a number out of its range, exits 2 with
a message naming that field."""

import contextlib
import io
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fairweigh.cli import main  # noqa: E402

SCHEMA = [
    {"name": "a", "kind": "continuous"},
    {"name": "s", "kind": "categorical", "levels": ["0", "1"]},
    {"name": "y", "kind": "categorical", "levels": ["0", "1"]},
]

# Each field's JSON type and its values out of range: numbers, the least
# integer, and the choices of a string.  The input files need not exist,
# since nothing is read before the check.
NUMBERS = {
    "tau": st.floats(max_value=-1e-9),
    "train_fraction": st.floats(max_value=0) | st.floats(min_value=1),
    "eta0": st.floats(max_value=0),
    "critic_lr": st.floats(max_value=0),
    "balance": st.floats(max_value=0),
    "momentum": st.floats(max_value=-1e-9) | st.floats(min_value=1),
    "penalty_coef": st.floats(max_value=-1e-9),
}
CHOICES = {
    "mode": ("total", "path_specific", "counterfactual"),
    "paths": ("indirect", "direct", "all"),
}
INTEGERS = {
    "repeats": 1, "wasserstein_steps": 1, "epochs": 1, "batch_size": 1,
    "fit_steps_per_critic_step": 1, "critic_steps_at_weight_solve": 0, "seed": 0,
}
TOP_LEVEL = {
    "data": "string", "graph": "string", "out": "string", "schema": "list",
    "mode": "choice", "paths": "choice", "condition": "list", "tau": "number",
    "repeats": "integer", "train_fraction": "number", "wasserstein": "boolean",
    "wasserstein_steps": "integer", "critic_context_nodes": "list", "train": "object",
}
TRAIN = {
    "epochs": "integer", "batch_size": "integer", "eta0": "number", "critic_lr": "number",
    "momentum": "number", "fit_steps_per_critic_step": "integer",
    "critic_steps_at_weight_solve": "integer", "balance": "number",
    "penalty_coef": "number", "seed": "integer", "hidden": "list", "critic_hidden": "list",
}
# Lists of the right type whose items are wrong.
BAD_ITEMS = {
    "schema": [
        [5], [{"name": "a"}], [{"name": "a", "kind": "discrete"}],
        [{"name": 1, "kind": "continuous"}], [{**SCHEMA[1], "levels": "01"}], SCHEMA + SCHEMA[:1],
    ],
    "condition": [["s=1"], [["s"]], [["s", "1", "x"]], [[1, "1"]], "s=1"],
    "critic_context_nodes": [[5], [None], [["a"]]],
    "hidden": [[0], [1.5], ["32"], [True], [None]],
    "critic_hidden": [[32, 0], [-1], [[32]]],
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
RIGHT_TYPE = {
    "string": lambda v: isinstance(v, str),
    "choice": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    and math.isfinite(v),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "list": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def bad_values(field: str, kind: str):
    """Values of another JSON type than ``kind``, and out-of-range values."""
    wrong = JSON_VALUES.filter(lambda v: not RIGHT_TYPE[kind](v))
    wrong |= st.sampled_from([math.nan, math.inf, -math.inf, [[1]], {"a": {}}])
    if kind == "number":  # an integer beyond the float range is no finite number
        wrong |= NUMBERS[field] | st.just(10**400)
    elif kind == "integer":
        wrong |= st.integers(max_value=INTEGERS[field] - 1) | st.floats()
    elif kind == "choice":
        wrong |= st.text(max_size=12).filter(lambda v: v not in CHOICES[field])
    elif kind == "list":
        wrong |= st.sampled_from(BAD_ITEMS[field])
    return wrong


@st.composite
def broken_fields(draw):
    """(field name, config section, value): one field of a valid config
    changed to a value its rule refuses."""
    section = draw(st.sampled_from(["config", "train"]))
    fields = TOP_LEVEL if section == "config" else TRAIN
    field = draw(st.sampled_from(sorted(fields)))
    return field, section, draw(bad_values(field, fields[field]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_properties")


@settings(max_examples=300, deadline=None)
@given(broken=broken_fields(), command=st.sampled_from(["reweigh", "effects", "evaluate"]))
def test_a_field_of_the_wrong_type_or_out_of_range_exits_2_naming_it(
    workdir, broken, command
):
    field, section, value = broken
    out = workdir / "run"
    config = {"data": str(workdir / "data.csv"), "graph": str(workdir / "graph.txt"),
              "schema": SCHEMA, "out": str(out), "train": {"epochs": 1}}
    if section == "train":
        config["train"][field] = value
    else:
        config[field] = value
    path = workdir / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path)])
    assert code == 2, (field, value, err.getvalue())
    assert f"configuration error: {field} must be " in err.getvalue(), err.getvalue()
    assert not out.exists()
