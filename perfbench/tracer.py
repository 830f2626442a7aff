"""Span tracing of ``dispersim`` layers from outside the package.

:class:`Tracer` wraps chosen functions of the ``dispersim`` modules and rebinds
each wrapper at every module attribute that holds the original function, so
``from .compensator import compensate`` in another module is traced too. A
wrapper records one span (name, start, end, parent, op id) per call; spans are
kept in memory and written out once, when the run ends. A target that no
longer exists is skipped, and the metrics built on it read 0.
"""

import inspect
import sys
import warnings
from collections import defaultdict
from functools import wraps
from time import perf_counter

#: (module, function) -> span name. Module names are relative to the package.
TARGETS = {
    ("cli", "main"): "cli.main",
    ("config", "load_config"): "config.load_config",
    ("experiments", "run_sweep"): "experiments.run_sweep",
    ("experiments", "run_scenario"): "experiments.run_scenario",
    ("experiments", "run_propagate"): "experiments.run_propagate",
    ("experiments", "_sweep_pair_rows"): "experiments.sweep_pair_rows",
    ("experiments", "_write_text"): "experiments.emit",
    ("experiments", "write_meta"): "experiments.emit",
    ("experiments", "_envelope_csv"): "experiments.emit",
    ("signal", "fft"): "signal.fft",
    ("signal", "ifft"): "signal.fft",
    ("signal", "_as_complex_grid_array"): "signal.validate",
    ("signal", "apply_tf"): "signal.apply_tf",
    ("signal", "check_wraparound"): "signal.check_wraparound",
    ("signal", "intensity_fwhm"): "signal.intensity_fwhm",
    ("signal", "occupied_bandwidth"): "signal.occupied_bandwidth",
    ("signal", "linear_phase_tf"): "signal.linear_phase_tf",
    ("signal", "make_sinc_pulse"): "signal.make_sinc_pulse",
    ("signal", "broadening_factor"): "signal.broadening_factor",
    ("fiber", "dispersion_tf"): "fiber.dispersion_tf",
    ("fiber", "propagate"): "fiber.propagate",
    ("iterative", "neumann_sum_tf"): "iterative.neumann_sum_tf",
    ("iterative", "error_tf"): "iterative.error_tf",
    ("compensator", "compensate"): "compensator.compensate",
    ("compensator", "compensator_tf"): "compensator.compensator_tf",
    ("compensator", "band_residual"): "compensator.band_residual",
    ("compensator", "match_pcf"): "compensator.match_pcf",
    ("compensator", "subsystem_error_tf"): "compensator.subsystem_error_tf",
    ("convergence", "stable"): "convergence.stable",
}

LAYERS = (
    "cli", "config", "experiments", "signal", "fiber", "iterative",
    "compensator", "convergence",
)

PACKAGE = "dispersim"
MULTILOBE_WARNING = "multiple lobes"


class Tracer:
    """Installs span wrappers into a package and collects spans and counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counters = defaultdict(float)  # (op id, counter name) -> value
        self.dispersion_args = defaultdict(set)  # op id -> distinct arguments
        self.op_id = None
        self._stack = []
        self._restore = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for (module_name, attr), span_name in TARGETS.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                continue
            wrapper = self._wrap(span_name, original)
            for m in modules:
                for bound_name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, bound_name, wrapper)
                        self._restore.append((m, bound_name, original))

    def uninstall(self) -> None:
        for m, bound_name, original in reversed(self._restore):
            setattr(m, bound_name, original)
        self._restore.clear()

    def _wrap(self, span_name: str, fn):
        observe = _OBSERVERS.get(span_name)
        signature = inspect.signature(fn) if observe is not None else None
        if span_name == "signal.intensity_fwhm":
            fn = self._count_multilobe(fn)
        spans = self.spans
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(record)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                record[1] = start
                stack.pop()
            if observe is not None:
                try:
                    observe(self, signature.bind(*args, **kwargs).arguments, result)
                except (TypeError, KeyError, AttributeError):
                    pass  # the signature changed; the counter reads 0, the op runs on
            return result

        return wrapper

    def _count_multilobe(self, fn):
        """Count the width metric's multi-lobe warnings instead of printing them."""

        @wraps(fn)
        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            self.count(
                "signal.fwhm_multilobe_warnings",
                sum(MULTILOBE_WARNING in str(w.message) for w in caught),
            )
            return result

        return counted

    def count(self, name: str, amount: float) -> None:
        self.counters[(self.op_id, name)] += amount

    # -- results ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# name start_s end_s parent op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name} {start:.9f} {end:.9f} {parent} {op}\n")

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op means of the layer metrics over ``n_ops`` traced ops."""
        calls, self_s = span_totals(self.spans)
        totals = defaultdict(float)
        for (_, name), value in self.counters.items():
            totals[name] += value
        distinct = {}
        for op, args in self.dispersion_args.items():
            op_calls = self.counters.get((op, "fiber.dispersion_tf.calls"), 0.0)
            if op_calls:
                distinct[op] = len(args) / op_calls

        def per_op(value):
            return value / n_ops if n_ops else 0.0

        out = {}
        for name in (
            "fiber.dispersion_tf", "iterative.neumann_sum_tf",
            "signal.linear_phase_tf", "signal.fft", "signal.validate",
            "signal.check_wraparound", "signal.intensity_fwhm",
            "compensator.compensate", "compensator.band_residual",
            "convergence.stable",
        ):
            out[f"{name}.calls"] = per_op(calls.get(name, 0))
            out[f"{name}.self_s"] = per_op(self_s.get(name, 0.0))
        for name in (
            "signal.apply_tf", "compensator.compensator_tf", "experiments.emit",
            "config.load_config", "cli.main",
        ):
            out[f"{name}.self_s"] = per_op(self_s.get(name, 0.0))
        for layer in LAYERS:
            out[f"{layer}.self_s"] = per_op(
                sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            )
        out["fiber.dispersion_tf.distinct_ratio"] = (
            sum(distinct.values()) / len(distinct) if distinct else 0.0
        )
        for name in (
            "iterative.neumann_terms", "signal.fft.bytes_computed",
            "signal.fwhm_multilobe_warnings", "experiments.bytes_written",
        ):
            out[name] = per_op(totals.get(name, 0.0))
        return out


def span_totals(spans) -> tuple[dict, dict]:
    """Calls and self time per span name.

    Self time is a span's duration minus the time its child spans cover;
    spans nest, so that cover is the sum of the direct children's durations.
    """
    child_cover = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_cover[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_cover[i]
    return dict(calls), dict(self_s)


def _observe_dispersion(tracer, arguments, result):
    fiber, grid = arguments["fiber"], arguments["grid"]
    low = bool(arguments.get("include_low_orders", False))
    tracer.count("fiber.dispersion_tf.calls", 1)
    tracer.dispersion_args[tracer.op_id].add(
        (fiber.betas, fiber.length_m, grid.n_samples, grid.dt, low)
    )


def _observe_neumann(tracer, arguments, result):
    n_samples = arguments["h"].grid.n_samples
    tracer.count("iterative.neumann_terms", arguments["spec"].k_terms * n_samples)


def _observe_fft(tracer, arguments, result):
    nbytes = getattr(arguments["x"], "nbytes", 0) + result.nbytes
    tracer.count("signal.fft.bytes_computed", nbytes)


_OBSERVERS = {
    "fiber.dispersion_tf": _observe_dispersion,
    "iterative.neumann_sum_tf": _observe_neumann,
    "signal.fft": _observe_fft,
}
