"""Spans around the package's public functions, aggregated per layer.

`install(tracer)` replaces every binding of each traced function, in every
loaded `impurity_chain` module and in the package namespace, by a wrapper that
opens a span on entry and closes it on exit.  The package imports these names
into other modules, so wrapping only the defining module would miss most
calls.  Spans are folded into per-name totals as they close, so a traced
run's memory does not grow with its length: a span's self time is its
duration minus the durations of its direct child spans.

Besides time, the tracer counts what the finders evaluate: every call of
`impurity_density_matrix` made under a finder span is one state evaluation,
and the distinct (parameter point, impurity) keys among them are the useful
ones.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs that get a span; names are "<module>.<function>"
TRACED = (
    ("model", "dimer_spectrum"),
    ("model", "boltzmann_weights"),
    ("xfer", "impurity_density_matrix"),
    ("xfer", "finite_n_density_matrix"),
    ("xfer", "partition_function"),
    ("measures", "qfi"),
    ("measures", "qfi_field_derivative"),
    ("measures", "spin_correlators"),
    ("teleport", "teleport_output"),
    ("cli", "run_point"),
    ("cli", "run_sweep"),
    ("cli", "find_threshold_temperature"),
    ("cli", "find_critical_field"),
    ("cli", "concurrence_sign_brackets"),
)
FINDERS = ("cli.find_threshold_temperature", "cli.find_critical_field",
           "cli.concurrence_sign_brackets")
SOLVERS = ("cli.find_threshold_temperature", "cli.find_critical_field")
POOL = "cli.pool"


class Stats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Per-name call counts and total and self times, plus finder counters."""

    def __init__(self):
        self.stats: dict[str, Stats] = {}
        self._stack: list[list] = []      # [name, start, child_time]
        self._finder_depth = 0
        self.finder_evals = 0
        self.unique_evals = 0
        self._op_keys: set = set()
        self.sweep_rows = 0

    def next_op(self) -> None:
        """Close the current workload operation: distinct finder evaluations
        are counted per operation."""
        self.unique_evals += len(self._op_keys)
        self._op_keys = set()

    def enter(self, name: str) -> None:
        if name in FINDERS:
            self._finder_depth += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def leave(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stats()
        st.calls += 1
        st.total += duration
        st.self_time += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if name in FINDERS:
            self._finder_depth -= 1

    def note_state(self, p, impurity) -> None:
        if self._finder_depth:
            self.finder_evals += 1
            self._op_keys.add((p, bool(impurity)))

    def wrap(self, name: str, fn):
        tracer = self
        if name == "xfer.impurity_density_matrix":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                impurity = kwargs.get("impurity", args[1] if len(args) > 1 else True)
                tracer.note_state(args[0], impurity)
                tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.leave()
        elif name == "cli.run_sweep":
            @functools.wraps(fn)
            def traced(cfg, *args, **kwargs):
                rows = 1
                for axis in cfg.axes:
                    rows *= axis[3]
                tracer.sweep_rows += rows
                tracer.enter(name)
                try:
                    return fn(cfg, *args, **kwargs)
                finally:
                    tracer.leave()
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.leave()
        return traced

    def pool_class(self, base):
        """A ProcessPoolExecutor whose lifetime, from creation to shutdown, is a span."""
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                tracer.enter(POOL)
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.leave()

        return TracedPool


def install(tracer: Tracer, package_name: str = "impurity_chain") -> None:
    """Wrap every binding of the traced functions in all loaded package modules."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package_name or n.startswith(package_name + "."))]
    for mod_name, fn_name in TRACED:
        original = getattr(sys.modules[f"{package_name}.{mod_name}"], fn_name)
        wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    cli = sys.modules[f"{package_name}.cli"]
    futures = cli.concurrent.futures
    # cli reaches the pool as concurrent.futures.ProcessPoolExecutor
    futures.ProcessPoolExecutor = tracer.pool_class(futures.ProcessPoolExecutor)


def layer_metrics(tracer: Tracer, results: int) -> dict:
    """The per-layer metrics, keyed by name, as (value, unit)."""
    def st(name):
        return tracer.stats.get(name, Stats())

    def per_result(name):
        return st(name).calls / results if results else 0.0

    def self_us(name):
        s = st(name)
        return 1e6 * s.self_time / s.calls if s.calls else 0.0

    solves = sum(st(n).calls for n in SOLVERS)
    pool = st(POOL)
    out = {
        "model.dimer_spectrum.calls_per_result": (per_result("model.dimer_spectrum"), "calls/result"),
        "model.dimer_spectrum.self_us": (self_us("model.dimer_spectrum"), "us"),
        "model.boltzmann_weights.calls_per_result": (per_result("model.boltzmann_weights"), "calls/result"),
        "model.boltzmann_weights.self_us": (self_us("model.boltzmann_weights"), "us"),
        "xfer.impurity_density_matrix.calls_per_result":
            (per_result("xfer.impurity_density_matrix"), "calls/result"),
        "xfer.impurity_density_matrix.self_us": (self_us("xfer.impurity_density_matrix"), "us"),
        "xfer.finite_n_density_matrix.self_us": (self_us("xfer.finite_n_density_matrix"), "us"),
        "xfer.partition_function.self_us": (self_us("xfer.partition_function"), "us"),
        "measures.qfi.calls_per_result": (per_result("measures.qfi"), "calls/result"),
        "measures.qfi.self_us": (self_us("measures.qfi"), "us"),
        "measures.qfi_field_derivative.self_us": (self_us("measures.qfi_field_derivative"), "us"),
        "measures.spin_correlators.self_us": (self_us("measures.spin_correlators"), "us"),
        "teleport.teleport_output.self_us": (self_us("teleport.teleport_output"), "us"),
        "cli.run_point.self_us": (self_us("cli.run_point"), "us"),
        "cli.run_sweep.self_us_per_row": (
            1e6 * st("cli.run_sweep").self_time / tracer.sweep_rows if tracer.sweep_rows else 0.0,
            "us/row"),
        "cli.run_sweep.pool_wait_ms": (1e3 * pool.total / pool.calls if pool.calls else 0.0, "ms"),
        "cli.finder.evals_per_solve": (tracer.finder_evals / solves if solves else 0.0, "evals/solve"),
        "cli.finder.unique_eval_ratio": (
            tracer.unique_evals / tracer.finder_evals if tracer.finder_evals else 0.0, "ratio"),
    }
    return out
