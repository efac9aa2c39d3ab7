"""The run config as one table: every field's rule and default.

Each field of a settings dataclass carries its rule, the JSON type and range
a value must have with the requirement text an error shows, and its default.
:func:`check_fields` checks the rows on construction, so library callers
meet the same rules as the command line; ``docs/config-reference.md`` lists
the same rows.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, NamedTuple

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


class ConfigError(ValueError):
    """Unusable run configuration or missing input file."""


class Rule(NamedTuple):
    """What a setting's value must be, in words and as a test."""

    requirement: str
    test: Callable[[Any], bool]


def number(low: float, high: float = math.inf, *, above=False, whole=False) -> Rule:
    """A finite number, an integer when ``whole``, >= ``low`` (> ``low``
    when ``above``) and < ``high``; a boolean (JSON true or false) is not one."""
    kind = numbers.Integral if whole else numbers.Real
    bound = f"{'>' if above else '>='} {low}" + (f" and < {high}" if high < math.inf else "")
    return Rule(
        f"{'an integer' if whole else 'a finite number'} {bound}",
        lambda v: isinstance(v, kind) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
        and (v > low if above else v >= low) and v < high,
    )


def one_of(*options: str) -> Rule:
    return Rule(f"one of {', '.join(map(repr, options))}", lambda v: v in options)


def list_of(items: str, test: Callable[[Any], bool]) -> Rule:
    """A JSON list (or, from a library caller, a tuple) of ``items``."""
    return Rule(f"a list of {items}", lambda v: isinstance(v, (list, tuple)) and all(map(test, v)))


def setting(rule: Rule, default=MISSING):
    """A settings field checked against ``rule``; without a default it is required."""
    return field(default=default, metadata={"rule": rule})


def check_fields(settings) -> None:
    """Refuse the first field of ``settings`` that breaks its rule, naming it."""
    for row in fields(settings):
        value = getattr(settings, row.name)
        rule = row.metadata.get("rule")
        if rule is not None and not rule.test(value):
            raise ConfigError(f"{row.name} must be {rule.requirement}, got {value!r}")


def resolve(cls, given, name: str):
    """``cls`` built from the JSON object ``given``, refusing an unknown or a
    missing required field and any value that breaks its rule."""
    if not isinstance(given, dict):
        raise ConfigError(f"{name} must be an object, got {given!r}")
    unknown = sorted(set(given) - {row.name for row in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {name} field {unknown[0]!r}")
    missing = [row.name for row in fields(cls) if row.default is MISSING and row.name not in given]
    if missing:
        raise ConfigError(f"{name} lacks required field {missing[0]!r}")
    return cls(**given)


_WIDTHS = list_of("integers >= 1", number(1, whole=True).test)  # hidden layer widths


@dataclass(frozen=True)
class TrainConfig:
    """Training settings.  ``hidden`` and ``critic_hidden`` take a list or a
    tuple and hold a tuple."""

    epochs: int = setting(number(1, whole=True), 30)
    batch_size: int = setting(number(1, whole=True), 640)
    eta0: float = setting(number(0, above=True), 0.001)
    critic_lr: float = setting(number(0, above=True), 1e-4)
    momentum: float = setting(number(0, 1), 0.9)
    fit_steps_per_critic_step: int = setting(number(1, whole=True), 2)
    critic_steps_at_weight_solve: int = setting(number(0, whole=True), 50)
    balance: float = setting(number(0, above=True), 1.5)
    penalty_coef: float = setting(number(0), 10.0)
    seed: int = setting(number(0, whole=True), 0)
    hidden: tuple[int, ...] = setting(_WIDTHS, (32, 32))
    critic_hidden: tuple[int, ...] = setting(_WIDTHS, (32, 32, 32))

    def __post_init__(self):
        check_fields(self)
        for name in ("hidden", "critic_hidden"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


def _is_schema(columns) -> bool:
    """Column objects with distinct names, each kind known, each levels a list."""
    return isinstance(columns, list) and all(
        isinstance(c, dict)
        and isinstance(c.get("name"), str)
        and c.get("kind") in (CONTINUOUS, CATEGORICAL)
        and isinstance(c.get("levels", []), list)
        for c in columns
    ) and len({c["name"] for c in columns}) == len(columns)


@dataclass(frozen=True)
class RunConfig:
    """The run config of ``reweigh``, ``effects`` and ``evaluate``: each
    field resolved to the value given or to its default.  The protocol's
    library entry points take their defaults from here too."""

    data: str = setting(Rule("a path", lambda v: isinstance(v, str)))
    graph: str = setting(Rule("a path", lambda v: isinstance(v, str)))
    schema: list = setting(Rule(
        'a list of columns, each {"name": a string, "kind": "continuous" or "categorical", '
        'optional "levels": a list}, with distinct names', _is_schema))
    out: str = setting(Rule(
        "a directory path that is not a file or under one",
        lambda v: isinstance(v, str) and not any(p.is_file() for p in (Path(v), *Path(v).parents)),
    ), "fairweigh-out")
    mode: str = setting(one_of("total", "path_specific", "counterfactual"), "total")
    paths: str = setting(one_of("indirect", "direct", "all"), "indirect")
    condition: list = setting(list_of(
        "[node, value] pairs",
        lambda p: isinstance(p, list) and len(p) == 2 and isinstance(p[0], str),
    ), ())
    tau: float = setting(number(0), 0.05)
    repeats: int = setting(number(1, whole=True), 5)
    train_fraction: float = setting(number(0, 1, above=True), 0.8)
    wasserstein: bool = setting(Rule("true or false", lambda v: isinstance(v, bool)), True)
    wasserstein_steps: int = setting(number(1, whole=True), 2000)
    critic_context_nodes: list = setting(list_of("node names", lambda v: isinstance(v, str)), ())
    train: TrainConfig = TrainConfig()  # resolved from its own JSON object

    __post_init__ = check_fields
