"""Spans recorded around mek's public functions, and the per-layer metrics.

The tracer replaces every public function of the mek layer modules with a
wrapper for the duration of a traced pass, then restores it; nothing inside
mek changes. Calls inside mek that go through a module attribute (as the CLI
does, and as each module does for its own functions) are seen; a name a
module imported from another module with ``from ... import`` is not, and its
time counts as self time of the caller.

Self time is a span's duration minus the durations of its direct child spans.
Spans are kept in memory, with a cap, and written out when the run ends.
"""

import functools
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("fockspace", "spectra", "analytic", "thermo", "cli")
MAX_SPANS = 200_000
USEFUL_EIG_RTOL = 1e-16

BUILD_EXTRA = ("apply_two_mode_displacement",)
CLOSED_FORMS = ("renyi_squeezed", "renyi_sh", "sh_spectrum", "squeezed_spectrum")
THERMAL_MODELS = ("oscillator_model_from_squeezing", "two_level_model_from_sh")
CLI_COMMANDS = ("run_sweep", "run_thermo_table")

# (name, unit) of each per-layer metric, in output order. Times are self
# seconds and counts are calls, both per grid point of the traced passes.
PER_LAYER = (
    ("fockspace.operator_exponential_s", "s/point"),
    ("fockspace.operator_exponential_calls", "calls/point"),
    ("fockspace.operator_exponential_max_dim", "count"),
    ("fockspace.build_s", "s/point"),
    ("fockspace.build_calls", "calls/point"),
    ("fockspace.mode_dim_max", "count"),
    ("fockspace.errors", "errors/point"),
    ("fockspace.self_s", "s/point"),
    ("spectra.partial_trace_s", "s/point"),
    ("spectra.partial_trace_calls", "calls/point"),
    ("spectra.hermitian_eigenvalues_s", "s/point"),
    ("spectra.hermitian_eigenvalues_calls", "calls/point"),
    ("spectra.eig_dim_max", "count"),
    ("spectra.useful_eig_frac", "ratio"),
    ("spectra.max_abs_dev", "nat"),
    ("spectra.errors", "errors/point"),
    ("spectra.self_s", "s/point"),
    ("analytic.renyi_general_s", "s/point"),
    ("analytic.renyi_general_calls", "calls/point"),
    ("analytic.closed_form_s", "s/point"),
    ("analytic.closed_form_calls", "calls/point"),
    ("analytic.errors", "errors/point"),
    ("analytic.self_s", "s/point"),
    ("thermo.model_s", "s/point"),
    ("thermo.model_calls", "calls/point"),
    ("thermo.errors", "errors/point"),
    ("thermo.self_s", "s/point"),
    ("cli.driver_self_s", "s/point"),
    ("cli.render_output_s", "s/point"),
    ("cli.render_bytes", "bytes/point"),
    ("cli.errors", "errors/point"),
    ("cli.self_s", "s/point"),
    ("bench.trace_overhead_frac", "ratio"),
)


class FunctionStats:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Records one span per wrapped call; single-threaded."""

    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self.spans = []  # (span id, name, start, end, parent span id, point id)
        self.dropped = 0
        self.stats = defaultdict(FunctionStats)
        self.point = None
        self.generator_dim_max = 0
        self.mode_dim_max = 0
        self.eig_dim_max = 0
        self.eig_returned = 0
        self.eig_useful = 0
        self.render_bytes = 0
        self._stack = []  # [span id, seconds covered by direct children]
        self._next_id = 0
        self._raised = {}  # id -> exception, kept alive so ids stay unique

    def wrap(self, name: str, func):
        layer, function = name.split(".", 1)
        observe = _OBSERVERS.get(name)
        if observe is None and layer == "fockspace" and _is_build(function):
            observe = _observe_state

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                if id(exc) not in self._raised:  # count where it was raised
                    self._raised[id(exc)] = exc
                    self.stats[name].errors += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                stats = self.stats[name]
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id, name, start, end, parent, self.point))
                else:
                    self.dropped += 1
            if observe is not None:
                observe(self, result)
            return result

        return traced

    @contextmanager
    def installed(self, modules):
        """Wrap the public functions of each module; restore them on exit."""
        saved = []
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    saved.append((module, attr, obj))
                    setattr(module, attr, self.wrap(f"{layer}.{attr}", obj))
        try:
            yield self
        finally:
            for module, attr, obj in saved:
                setattr(module, attr, obj)

    def total_self_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def layer_self_s(self) -> dict:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, stats in self.stats.items():
            totals[name.split(".", 1)[0]] += stats.self_s
        return totals


def _observe_generator(tracer, result):
    tracer.generator_dim_max = max(tracer.generator_dim_max, int(result.shape[0]))


def _observe_state(tracer, result):
    tracer.mode_dim_max = max(tracer.mode_dim_max, max(result.mode_dims))


def _observe_spectrum(tracer, result):
    probs = result.probabilities
    tracer.eig_dim_max = max(tracer.eig_dim_max, probs.size)
    tracer.eig_returned += probs.size
    if probs.size:
        tracer.eig_useful += int((probs > USEFUL_EIG_RTOL * probs.max()).sum())


def _observe_render(tracer, result):
    tracer.render_bytes += len(result.encode())


def _is_build(function: str) -> bool:
    return function.startswith("build_") or function in BUILD_EXTRA


_OBSERVERS = {
    "fockspace.operator_exponential": _observe_generator,
    "spectra.hermitian_eigenvalues": _observe_spectrum,
    "cli.render_output": _observe_render,
}


def layer_metrics(tracer: Tracer, points: int, max_abs_dev: float, overhead_frac: float) -> dict:
    """Per-layer metric values, keyed by the names in PER_LAYER."""

    def total(layer, select, field):
        return sum(
            getattr(stats, field)
            for name, stats in tracer.stats.items()
            if name.split(".", 1)[0] == layer and select(name.split(".", 1)[1])
        )

    def per_point(value):
        return value / points if points else 0.0

    def group(prefix, layer, select):
        return {
            f"{prefix}_s": per_point(total(layer, select, "self_s")),
            f"{prefix}_calls": per_point(total(layer, select, "calls")),
        }

    def layer_totals(layer):
        return {
            f"{layer}.errors": per_point(total(layer, lambda f: True, "errors")),
            f"{layer}.self_s": per_point(total(layer, lambda f: True, "self_s")),
        }

    values = {
        **group("fockspace.operator_exponential", "fockspace", lambda f: f == "operator_exponential"),
        "fockspace.operator_exponential_max_dim": tracer.generator_dim_max,
        **group("fockspace.build", "fockspace", _is_build),
        "fockspace.mode_dim_max": tracer.mode_dim_max,
        **layer_totals("fockspace"),
        **group("spectra.partial_trace", "spectra", lambda f: f == "partial_trace"),
        **group("spectra.hermitian_eigenvalues", "spectra", lambda f: f == "hermitian_eigenvalues"),
        "spectra.eig_dim_max": tracer.eig_dim_max,
        "spectra.useful_eig_frac": (
            tracer.eig_useful / tracer.eig_returned if tracer.eig_returned else 0.0
        ),
        "spectra.max_abs_dev": max_abs_dev,
        **layer_totals("spectra"),
        **group("analytic.renyi_general", "analytic", lambda f: f == "renyi_general"),
        **group("analytic.closed_form", "analytic", lambda f: f in CLOSED_FORMS),
        **layer_totals("analytic"),
        **group("thermo.model", "thermo", lambda f: f in THERMAL_MODELS),
        **layer_totals("thermo"),
        "cli.driver_self_s": per_point(total("cli", lambda f: f in CLI_COMMANDS, "self_s")),
        "cli.render_output_s": per_point(total("cli", lambda f: f == "render_output", "self_s")),
        "cli.render_bytes": per_point(tracer.render_bytes),
        **layer_totals("cli"),
        "bench.trace_overhead_frac": overhead_frac,
    }
    return {name: float(values[name]) for name, _ in PER_LAYER}


def dominant_layer(tracer: Tracer) -> str:
    totals = tracer.layer_self_s()
    return max(totals, key=totals.get)
