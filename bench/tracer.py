"""Out-of-program tracing: wrap skyfade's public functions from outside.

A ``from .x import f`` statement binds ``f`` a second time in the
importing module, so wrapping only ``skyfade.x.f`` would miss every call
made through the other name.  :meth:`Tracer.install` therefore replaces
the original function object at *every* attribute of every loaded
``skyfade`` module that holds it.  A function a later version of the
package removes or renames is reported as missing and skipped.

Spans (name, start, end, parent span, run id) are kept in memory.  Calls
made once per row (``PER_ROW``) are aggregated into counts and totals
instead of being stored one by one.  Self time is a span's duration minus
the time covered by its traced children.  Computed counts come from the
observed argument shapes and return values, never from timing; a count
whose function changed its signature or return shape is reported as
unobserved instead of failing the command.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

import numpy as np

CLOCK = time.CLOCK_MONOTONIC


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(CLOCK)


# (layer, home module, function name).  The layer is the package module
# that defines the function.
TRACED = (
    ("cli", "skyfade.cli", "main"),
    ("dataio", "skyfade.dataio", "load_config"),
    ("dataio", "skyfade.dataio", "ingest_csv"),
    ("dataio", "skyfade.dataio", "load_targets_csv"),
    ("dataio", "skyfade.dataio", "write_dataset_csv"),
    ("dataio", "skyfade.dataio", "write_geometry_csv"),
    ("dataio", "skyfade.dataio", "write_predictions_csv"),
    ("dataio", "skyfade.dataio", "write_profile_csv"),
    ("dataio", "skyfade.dataio", "write_correlogram_csv"),
    ("dataio", "skyfade.dataio", "write_coverage_report"),
    ("dataio", "skyfade.dataio", "write_trials_csv"),
    ("dataio", "skyfade.dataio", "write_summary_json"),
    ("geometry", "skyfade.geometry", "compute_tilt"),
    ("propagation", "skyfade.propagation", "link_geometry"),
    ("propagation", "skyfade.propagation", "decompose_sf"),
    ("propagation", "skyfade.propagation", "two_ray_rsrp"),
    ("correlation", "skyfade.correlation", "load_model"),
    ("correlation", "skyfade.correlation", "save_model"),
    ("correlation", "skyfade.correlation", "fit_correlation_model"),
    ("correlation", "skyfade.correlation", "fit_dedm"),
    ("correlation", "skyfade.correlation", "empirical_correlogram"),
    ("correlation", "skyfade.correlation", "estimate_tilt_profile"),
    ("correlation", "skyfade.correlation", "estimate_elev_profile"),
    ("correlation", "skyfade.correlation", "correlation_matrix"),
    ("kriging", "skyfade.kriging", "dedup_training"),
    ("kriging", "skyfade.kriging", "predict_sf_batch"),
    ("evaluation", "skyfade.evaluation", "run_evaluation"),
    ("fieldsim", "skyfade.fieldsim", "generate_trajectory"),
    ("fieldsim", "skyfade.fieldsim", "sample_sf_field"),
    ("fieldsim", "skyfade.fieldsim", "synthesize_dataset"),
    ("fieldsim", "skyfade.fieldsim", "truth_sidecar"),
)

# Called once per row: aggregated, not stored as individual spans.
PER_ROW = {
    "geometry.compute_tilt",
    "propagation.link_geometry",
    "propagation.decompose_sf",
    "propagation.two_ray_rsrp",
}

# The first call into one of these ends a command's set-up: everything
# before it (interpreter start, imports, argument parsing, config and model
# load) is fixed cost.
WORK_ENTRIES = (
    ("skyfade.dataio", "ingest_csv"),
    ("skyfade.dataio", "load_targets_csv"),
    ("skyfade.fieldsim", "synthesize_dataset"),
)


def _bind_sites(module_name: str, attr: str, make_wrapper) -> list[str] | None:
    """Replace ``module.attr`` at every skyfade module that binds it.

    Returns the module names rebound, or None when the function is absent.
    """
    home = sys.modules.get(module_name)
    original = getattr(home, attr, None) if home is not None else None
    if not callable(original):
        return None
    wrapper = make_wrapper(original)
    sites = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "skyfade" or name.startswith("skyfade.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                sites.append(f"{name}.{key}")
    return sorted(sites)


class SetupMarker:
    """Records the clock at the first call into any work entry point."""

    def __init__(self):
        self.first_call: float | None = None
        self.missing: list[str] = []

    def install(self) -> None:
        for module_name, attr in WORK_ENTRIES:
            if _bind_sites(module_name, attr, self._wrap) is None:
                self.missing.append(f"{module_name}.{attr}")

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.first_call is None:
                self.first_call = now()
            return fn(*args, **kwargs)

        return wrapper


class Tracer(SetupMarker):
    """Span recorder plus per-function statistics and computed counts."""

    def __init__(self, run_id: str):
        super().__init__()
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.sites: dict[str, list[str]] = {}
        self.unobserved: set[str] = set()
        self._stack: list[list] = []  # [start, child_s, span index or None]
        self._dedup_m: int | None = None

    def install(self) -> None:
        for layer, module_name, attr in TRACED:
            name = f"{layer}.{attr}"
            self.stats[name] = [0, 0.0, 0.0]
            observe = getattr(self, f"_observe_{attr}", None)
            sites = _bind_sites(
                module_name,
                attr,
                lambda fn, name=name, observe=observe: self._wrap_traced(
                    name, fn, observe
                ),
            )
            if sites is None:
                self.missing.append(f"{module_name}.{attr}")
            else:
                self.sites[name] = sites
        # The set-up marker wraps the already traced entry points.
        super().install()

    def bump(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + float(amount)

    def _wrap_traced(self, name, fn, observe):
        stored = name not in PER_ROW
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = None
            for frame in reversed(self._stack):
                if frame[2] is not None:
                    parent = frame[2]
                    break
            index = None
            if stored:
                index = len(self.spans)
                self.spans.append(None)
            frame = [now(), 0.0, index]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                self._stack.pop()
                duration = end - frame[0]
                stat = self.stats[name]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                if stored:
                    self.spans[index] = (name, frame[0], end, parent, self.run_id)
            if observe is not None:
                try:
                    observe(signature.bind(*args, **kwargs).arguments, result)
                except Exception as exc:  # changed signature or return shape
                    self.unobserved.add(f"{name}: {exc!r}")
            return result

        return wrapper

    # -- computed counts ---------------------------------------------------

    def _observe_ingest_csv(self, _args, result):
        self.bump("dataio.rows_read", result.n_rows)
        self.bump("dataio.rows_skipped", len(result.skipped))

    def _observe_load_targets_csv(self, _args, result):
        self.bump("dataio.rows_read", len(result[0]))

    def _observe_correlation_matrix(self, _args, result):
        self.bump("correlation.correlation_matrix.entries", np.size(result))

    def _observe_empirical_correlogram(self, args, result):
        n = len(args["samples"])
        self.bump("correlation.correlogram.pairs_scanned", n * (n - 1) // 2)
        self.bump("correlation.correlogram.pairs_in_range", int(np.sum(result.counts)))

    def _observe_dedup_training(self, _args, result):
        self._dedup_m = len(result[0])

    def _observe_predict_sf_batch(self, args, result):
        _w_hat, variance, nugget_used = result
        model = args["model"]
        k = len(args["targets"])
        m = self._dedup_m if self._dedup_m is not None else len(args["training"])
        self._dedup_m = None
        escalated = nugget_used > model.nugget
        steps = 0
        if escalated and model.nugget > 0.0:
            steps = max(1, round(math.log10(nugget_used / model.nugget)))
        elif escalated:
            steps = 1
        # Dense path per attempt: LU of the (m+1)-square augmented matrix,
        # forward/back substitution for k right-hand sides, and the
        # explicit residual product a @ x.
        n = m + 1
        flops = (2.0 / 3.0) * n**3 + 2.0 * n * n * k + 2.0 * n * n * k
        self.bump("kriging.solve_gflop", (1 + steps) * flops / 1e9)
        self.bump("kriging.predictions", k)
        self.bump("kriging.systems", 1)
        self.bump("kriging.escalations", 1 if escalated else 0)
        self.bump("kriging.floored_variances", int(np.count_nonzero(variance <= 0.0)))

    def _observe_run_evaluation(self, _args, result):
        self.bump("evaluation.trials", len(result.trials))

    def _observe_sample_sf_field(self, args, _result):
        self.bump("fieldsim.field_samples", len(args["geometries"]))

    def record(self) -> dict:
        return {
            "stats": self.stats,
            "counts": self.counts,
            "spans": self.spans,
            "sites": self.sites,
            "missing": self.missing,
            "unobserved": sorted(self.unobserved),
        }
