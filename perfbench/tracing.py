"""Outside-in tracing of a fairweigh run.

The tracer records spans only from the benchmark's side: it replaces public
callables at the place where their caller looks them up (a module global such
as ``fairweigh.trainer.solve_weights``, or a method on a public class), and
puts the originals back on :meth:`Tracer.uninstall`.  The program's source is
never touched.

Every span records its name, start, end, parent span and the running count of
``Tensor`` objects at both ends.  The private training phases (fit step,
critic step, full-split pair, weight solve, effect) are not callables the
tracer can wrap; :func:`phases` recovers them from the order of the public
calls made inside each ``train`` span.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

__all__ = ["Tracer", "phases", "summarize"]


class Span:
    __slots__ = ("name", "parent", "info", "start", "end", "t0", "t1")

    def __init__(self, name, parent, info, start, tensors):
        self.name = name
        self.parent = parent
        self.info = info
        self.start = start
        self.end = start
        self.t0 = tensors
        self.t1 = tensors

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(position):
    return lambda *args, **kwargs: {"rows": int(args[position].shape[0])}


# (module, owner within the module or None, attribute, span name, info).
# Each entry is the lookup its caller performs, so a function used from two
# modules is listed once per caller.
TARGETS = [
    ("fairweigh.trainer", None, "train", "train", lambda model, ds, config: {"rows": ds.m}),
    ("fairweigh.cli", None, "train", "train", lambda model, ds, config: {"rows": ds.m}),
    ("fairweigh.trainer", None, "backward", "backward", None),
    ("fairweigh.effects", None, "backward", "backward", None),
    ("fairweigh.trainer", None, "solve_weights", "solve_weights", None),
    ("fairweigh.trainer", None, "estimate_effect", "estimate_effect", None),
    ("fairweigh.cli", None, "estimate_effect", "estimate_effect", None),
    ("fairweigh.trainer", None, "discriminator_gap", "discriminator_gap", None),
    ("fairweigh.cli", None, "discriminator_gap", "discriminator_gap", None),
    ("fairweigh.trainer", None, "downstream_accuracy", "downstream_accuracy", None),
    ("fairweigh.trainer", None, "wasserstein_distance", "wasserstein", None),
    ("fairweigh.cli", None, "wasserstein_distance", "wasserstein", None),
    ("fairweigh.model", "StructuredModel", "fit_loss", "fit_loss", None),
    ("fairweigh.model", "StructuredModel", "interventional_pair", "interventional_pair", _rows(1)),
    ("fairweigh.model", "StructuredModel", "intervene_total", "cascade", _rows(1)),
    ("fairweigh.model", "StructuredModel", "intervene_path_specific", "cascade", _rows(1)),
    ("fairweigh.model", "StructuredModel", "critic_value", "critic_forward", None),
    ("fairweigh.model", "StructuredModel", "critic_values", "critic_values", None),
    ("fairweigh.model", "StructuredModel", "gradient_penalty", "gradient_penalty", None),
    ("fairweigh.model", None, "mlp_forward", "mlp_forward", _rows(1)),
    ("fairweigh.effects", None, "mlp_forward", "mlp_forward", _rows(1)),
    ("fairweigh.nn", "MomentumSGD", "step", "optimizer", None),
    ("fairweigh.nn", "Adam", "step", "optimizer", None),
    ("fairweigh.reweighter", None, "project_scaled_simplex", "projection", None),
    ("fairweigh.data", "Encoder", "transform", "transform", None),
    ("fairweigh.cli", None, "load_csv", "load_csv", None),
    ("fairweigh.cli", None, "export_weights", "export_weights", None),
    ("fairweigh.cli", None, "cmd_reweigh", "cli.reweigh", None),
    ("fairweigh.cli", None, "cmd_effects", "cli.effects", None),
    ("fairweigh.cli", None, "generate", "generate", None),
    ("fairweigh.cli", None, "oracle_effect", "oracle", None),
    ("fairweigh.synth", None, "generate", "generate", None),
    ("fairweigh.synth", None, "oracle_effect", "oracle", None),
]


class Tracer:
    """In-memory span recorder; install it, run, uninstall, then summarize."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tensors = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # id(list) -> (kind, list); the list is kept so its id is never reused
        self._param_lists: dict[int, tuple[str, list]] = {}

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, info) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, info, time.perf_counter(), self.tensors)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.t1 = self.tensors
        self._stack.pop()

    def _wrap(self, original, name, info):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name, info(*args, **kwargs) if info else None)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def _backward_kind(self, output, wrt, *args, **kwargs) -> dict:
        """Which parameter list a ``backward`` call differentiates."""
        return {"kind": self._param_lists.get(id(wrt), ("other",))[0]}

    def _wrap_parameters(self, original):
        @functools.wraps(original)
        def wrapper(store, names=None):
            params = original(store, names)
            kind = "critic" if names is not None and list(names) == ["critic"] else "fit"
            self._param_lists[id(params)] = (kind, params)
            return params

        return wrapper

    def _wrap_init(self, original):
        @functools.wraps(original)
        def wrapper(tensor, *args, **kwargs):
            self.tensors += 1
            original(tensor, *args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        autodiff = importlib.import_module("fairweigh.autodiff")
        nn = importlib.import_module("fairweigh.nn")
        self._patch(autodiff.Tensor, "__init__", self._wrap_init(autodiff.Tensor.__init__))
        self._patch(
            nn.ParamStore, "parameters", self._wrap_parameters(nn.ParamStore.parameters)
        )
        for module_name, owner_name, attr, name, info in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            if name == "backward":
                info = self._backward_kind
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], name, info))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# -- analysis -----------------------------------------------------------------


class Phase:
    __slots__ = ("kind", "start", "end", "t0", "t1")

    def __init__(self, kind: str, span: Span):
        self.kind = kind
        self.start, self.end = span.start, span.end
        self.t0, self.t1 = span.t0, span.t1

    def add(self, span: Span) -> None:
        self.end, self.t1 = span.end, span.t1

    @property
    def duration(self) -> float:
        return self.end - self.start


def phases(tracer: Tracer) -> list[Phase]:
    """Private training phases, rebuilt from the public calls of each train().

    Inside an epoch the loop calls, in order: ``fit_loss`` to open each fit
    step, a batch-sized ``interventional_pair`` to open each critic step, one
    full-size ``interventional_pair`` (the full-split pair; two
    ``critic_values`` calls orient the critic), more batch-sized critic steps
    (refinement), two ``critic_values`` plus ``solve_weights`` (the solve), and
    ``estimate_effect``.  The full-size call is what separates interleaved
    from refinement critic steps.
    """
    children: dict[int, list[Span]] = {}
    for span in tracer.spans:
        children.setdefault(span.parent, []).append(span)
    result: list[Phase] = []
    for index, train in enumerate(tracer.spans):
        if train.name != "train":
            continue
        m = train.info["rows"]
        current: Phase | None = None
        full_seen = False
        orient_calls = 0

        def begin(kind: str, span: Span) -> Phase:
            phase = Phase(kind, span)
            result.append(phase)
            return phase

        for span in children.get(index, ()):
            kind = current.kind if current else None
            if span.name == "fit_loss":
                current = begin("fit", span)
            elif span.name == "interventional_pair":
                if span.info["rows"] == m:
                    full_seen, orient_calls = True, 0
                    current = begin("full_pair", span)
                else:
                    step = "critic_refine" if full_seen else "critic_interleaved"
                    current = begin(step, span)
            elif span.name == "critic_values" and kind == "full_pair" and orient_calls < 2:
                orient_calls += 1
                current.add(span)
            elif span.name in ("critic_values", "solve_weights") and kind != "solve":
                current = begin("solve", span)
            elif span.name == "estimate_effect":
                full_seen = False
                current = begin("effect", span)
            elif current is not None:
                current.add(span)
    return result


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(n: int) -> float:
    """Highest of p50/p90/p99/p99.9 that leaves at least ten samples above it."""
    best = 0.5
    for q in (0.9, 0.99, 0.999):
        if n * (1.0 - q) >= 10:
            best = q
    return best


def _outermost(tracer: Tracer, names: set[str]) -> list[Span]:
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    spans = tracer.spans
    result = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            result.append(span)
    return result


def _inside(tracer: Tracer, span_index: int, names: set[str]) -> bool:
    parent = tracer.spans[span_index].parent
    while parent >= 0:
        if tracer.spans[parent].name in names:
            return True
        parent = tracer.spans[parent].parent
    return False


def layer_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls, inclusive and self seconds per span name.

    Self time is a span's duration minus the part covered by its children;
    spans on one thread nest, so that part is the sum of child durations.
    """
    covered = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    table: dict[str, dict[str, float]] = {}
    for span, child_time in zip(tracer.spans, covered):
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += span.duration - child_time
    return table


def summarize(tracer: Tracer, units: int, setups: int) -> tuple[dict[str, float], dict]:
    """Per-layer metrics per timed unit (per set-up for set-up layers), plus
    details (step percentiles used, layer table) for the result file."""
    phase_list = phases(tracer)

    def phase_sum(*kinds):
        return sum(p.duration for p in phase_list if p.kind in kinds)

    def total(*names):
        return sum(s.duration for s in _outermost(tracer, set(names)))

    def count(name):
        return sum(1 for s in tracer.spans if s.name == name)

    fit_steps = [p.duration for p in phase_list if p.kind == "fit"]
    critic_steps = [
        p.duration for p in phase_list if p.kind in ("critic_interleaved", "critic_refine")
    ]

    def tensors_per(kinds):
        selected = [p for p in phase_list if p.kind in kinds]
        return sum(p.t1 - p.t0 for p in selected) / len(selected) if selected else 0.0

    # Cascade rows inside train(): those computed after the epoch's full-split
    # pair and before the next fit step repeat rows the pair already holds.
    cascades = [s for s in tracer.spans if s.name == "cascade"]
    cascade_rows = 0
    repeat_rows = 0
    i = 0
    for phase in phase_list:
        while i < len(cascades) and cascades[i].start < phase.start:
            i += 1
        while i < len(cascades) and cascades[i].start < phase.end:
            cascade_rows += cascades[i].info["rows"]
            if phase.kind in ("critic_refine", "solve", "effect"):
                repeat_rows += cascades[i].info["rows"]
            i += 1
    backward_spans = [s for s in tracer.spans if s.name == "backward"]
    wasserstein_steps = sum(
        1
        for i, s in enumerate(tracer.spans)
        if s.name == "optimizer" and _inside(tracer, i, {"wasserstein"})
    )
    solves = count("solve_weights")
    projections = count("projection")
    per_unit = {
        "trainer.fit_s": phase_sum("fit"),
        "trainer.fit_steps": len(fit_steps),
        "trainer.critic_interleaved_s": phase_sum("critic_interleaved"),
        "trainer.critic_refine_s": phase_sum("critic_refine"),
        "trainer.critic_steps": len(critic_steps),
        "trainer.full_pair_s": phase_sum("full_pair"),
        "trainer.solve_s": phase_sum("solve"),
        "trainer.effect_s": phase_sum("effect"),
        "model.cascade_s": total("cascade"),
        "model.cascade_calls": len(cascades),
        "model.cascade_rows": sum(s.info["rows"] for s in cascades),
        "model.fit_loss_s": total("fit_loss"),
        "model.penalty_s": total("gradient_penalty"),
        "model.critic_forward_s": total("critic_forward", "critic_values"),
        "autodiff.backward_fit_s": sum(
            s.duration for s in backward_spans if s.info["kind"] == "fit"
        ),
        "autodiff.backward_critic_s": sum(
            s.duration for s in backward_spans if s.info["kind"] == "critic"
        ),
        "nn.optimizer_s": total("optimizer"),
        "nn.mlp_rows": sum(s.info["rows"] for s in tracer.spans if s.name == "mlp_forward"),
        "reweighter.solve_s": total("solve_weights"),
        "effects.estimate_s": total("estimate_effect"),
        "effects.gap_s": total("discriminator_gap"),
        "effects.wasserstein_s": total("wasserstein"),
        "effects.wasserstein_steps": wasserstein_steps,
        "effects.accuracy_s": total("downstream_accuracy"),
        "data.transform_s": total("transform"),
        "data.load_csv_s": total("load_csv"),
        "data.export_weights_s": total("export_weights"),
        "cli.reweigh_s": total("cli.reweigh"),
        "cli.effects_s": total("cli.effects"),
    }
    metrics = {name: value / units for name, value in per_unit.items()}
    metrics.update(
        {
            "synth.generate_s": total("generate") / setups,
            "synth.oracle_s": total("oracle") / setups,
            "trainer.fit_step_p50_ms": _ms(fit_steps, 0.5),
            "trainer.fit_step_tail_ms": _ms(fit_steps, tail_percentile(len(fit_steps))),
            "trainer.critic_step_p50_ms": _ms(critic_steps, 0.5),
            "trainer.critic_step_tail_ms": _ms(
                critic_steps, tail_percentile(len(critic_steps))
            ),
            "model.cascade_repeat_frac": repeat_rows / cascade_rows if cascade_rows else 0.0,
            "autodiff.tensors_per_fit_step": tensors_per(("fit",)),
            "autodiff.tensors_per_critic_step": tensors_per(
                ("critic_interleaved", "critic_refine")
            ),
            "reweighter.projections": projections / solves if solves else 0.0,
        }
    )
    details = {
        "fit_step_samples": len(fit_steps),
        "fit_step_tail_percentile": tail_percentile(len(fit_steps)),
        "critic_step_samples": len(critic_steps),
        "critic_step_tail_percentile": tail_percentile(len(critic_steps)),
        "solves": solves,
        "layers": layer_table(tracer),
    }
    return metrics, details


def _ms(values: list[float], q: float) -> float:
    return 1000.0 * _percentile(values, q) if values else 0.0
