"""Span tracing from outside the program.

The tracer rebinds selected liftgap functions, in every liftgap module
namespace that holds them, to wrappers that record a span per call:
(id, parent id, job id, name, start, end).  Spans stay in memory until
the run ends.  A span's self time is its duration minus the time its
child spans cover; the per-layer metrics sum self times by function and
by module.  Counters are taken at the same boundaries: simplex pivots
from the per-pivot DEBUG records of the ``liftgap.lp`` logger, slack
table entries and peak-RSS growth around ``slack.slack_functions``, and
restriction trials from ``restriction.find_good_restriction``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import logging
import resource
import sys
import time
import weakref
from collections import defaultdict

MODULES = ("csp", "sa", "lp", "slack", "boolfn", "restriction", "cli")

# functions whose self time is a per-layer metric
LAYER_FUNCTIONS = (
    "lp.solve_lp", "lp.farkas_feasibility",
    "sa.build_sa_lp", "sa.build_edge_sa_lp",
    "slack.slack_functions", "slack.lp_value", "slack.farkas_decompose",
    "slack.verify_decomposition",
    "boolfn.Density", "boolfn.fourier_transform", "boolfn.chang_junta",
    "restriction.find_good_restriction", "restriction.main_inequality_experiment",
    "restriction.verify_symmetry_closure", "restriction.symmetric_contradiction_check",
    "csp.parse_edge_list", "cli.main",
)

# further boundaries, so that time is charged to the module that spends it
SPLIT_FUNCTIONS = (
    "csp.instance_polynomial", "csp.graph_instance", "csp.plant", "csp.dummy_extend",
    "sa.sa_value", "sa.edge_sa_solve", "sa.pe_apply", "sa.pe_plant",
    "slack.metric_maxcut", "slack.universal",
    "boolfn.inverse_transform", "boolfn.junta_support",
    "restriction.antidiagonal_restriction",
)

COUNTERS = {
    "lp.pivots": "count",
    "slack.slack_functions.entries": "count",
    "slack.slack_functions.rss_growth_mb": "MiB",
    "restriction.trials": "count",
}


def per_layer_metric_units() -> dict[str, str]:
    """Every metric a traced run reports, with its unit."""
    units = {f"{name}.self_s": "s" for name in LAYER_FUNCTIONS}
    units.update({f"module.{m}.self_s": "s" for m in MODULES})
    units.update(COUNTERS)
    units["traced.jobs_per_s"] = "jobs/s"
    return units


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _PivotCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, job, name, start, end)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._next_id = 0
        self._job_id: int | None = None
        self._restore: list[tuple] = []
        self._built = weakref.WeakSet()  # relaxations whose tables were built
        self._pivots = _PivotCounter()

    # -- spans -------------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((span_id, parent, self._job_id, name, start, end))

    @contextlib.contextmanager
    def job(self, name: str):
        """The root span of one job; the spans inside it carry its id."""
        self._job_id = self._next_id
        ids = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(*ids, f"job:{name}", start)
            self._job_id = None

    def _wrap(self, name: str, fn):
        tracer = self
        hook = {"slack.slack_functions": self._count_slack_tables,
                "restriction.find_good_restriction": self._count_trials}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = tracer._open()
            rss = _maxrss_mb() if hook else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, name, start)
            if hook:
                hook(args, result, rss)
            return result

        return traced

    # -- counters ----------------------------------------------------------

    def _count_slack_tables(self, args, tables, rss_before):
        rel = args[0]
        if rel not in self._built:  # later calls return the cached tables
            self._built.add(rel)
            self.counters["slack.slack_functions.entries"] += sum(
                len(q.values) for q in tables)
        self.counters["slack.slack_functions.rss_growth_mb"] += _maxrss_mb() - rss_before

    def _count_trials(self, args, result, rss_before):
        self.counters["restriction.trials"] += result[1].trials_used

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "liftgap" or key.startswith("liftgap.")]
        for name in LAYER_FUNCTIONS + SPLIT_FUNCTIONS:
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"liftgap.{module}"), attr)
            if isinstance(original, type):
                init = original.__init__
                self._restore.append((original, "__init__", init))
                original.__init__ = self._wrap(name, init)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        logger = logging.getLogger("liftgap.lp")
        self._logger_state = (logger.level, logger.propagate)
        logger.setLevel(logging.DEBUG)
        logger.propagate = False
        logger.addHandler(self._pivots)

    def uninstall(self) -> None:
        logger = logging.getLogger("liftgap.lp")
        logger.removeHandler(self._pivots)
        logger.setLevel(self._logger_state[0])
        logger.propagate = self._logger_state[1]
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()
        self.counters["lp.pivots"] = self._pivots.count

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time by span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            totals[name] += end - start - child_time[span_id]
        return totals

    def metrics(self, jobs_per_s: float) -> dict[str, float]:
        totals = self.self_times()
        out = {f"{name}.self_s": totals.get(name, 0.0) for name in LAYER_FUNCTIONS}
        for m in MODULES:
            out[f"module.{m}.self_s"] = sum(
                (t for name, t in totals.items() if name.split(".")[0] == m), 0.0)
        out.update(self.counters)
        out["traced.jobs_per_s"] = jobs_per_s
        return out

