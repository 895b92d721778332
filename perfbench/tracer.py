"""Span recording around macdlab's public functions, and the per-layer
metrics derived from the spans.

The benchmark traces the program from outside, so no source file of the
program changes. TARGETS lists the functions traced, by the module that
defines them; `install` replaces each one wherever a loaded macdlab
module holds it (the defining module, every module that imported it by
name, the package), so calls are recorded whichever way the callers
reach the function, and a target that cannot be found fails the run.
Every call then leaves one span (name, start, end, parent, counts) in
memory; counts are read off the call's arguments and result at the same
boundary. The spans of a command are written out when it ends and the
parent turns them into metrics with `layer_metrics`.

A span's self time is its duration minus the time its direct children
cover. Everything here runs single-threaded (the workloads pass
`--workers 1`), so children never overlap each other.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

# ------------------------------------------------------------------ counts
# Each takes (args, kwargs, result) of the wrapped call and returns the
# counts it contributes to its span.


def _rows_loaded(args, kwargs, result):
    return {"rows": sum(len(s) for s in result)}


def _rows_dropped(args, kwargs, result):
    return {"dropped": len(args[0]) - len(result)}


def _events(args, kwargs, result):
    return {"events": len(result)}


def _backtest(args, kwargs, result):
    return {"days": len(args[0]), "trades": len(result.trades)}


def _ga(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"generations": result.generations,
            "requested": (result.generations + 1) * cfg.population_size}


def _ess(args, kwargs, result):
    return {"ess": 1.0 / float((result * result).sum())}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module under macdlab, function, counts). A span is named
# "<module>.<function>"; the module is the span's layer.
TARGETS = (
    ("ingest", "load_csv", _rows_loaded),
    ("ingest", "clean", _rows_dropped),
    ("indicators", "ema", None),
    ("indicators", "compute_indicators", None),
    ("indicators", "cross_signals", None),
    ("wavelet", "denoise_dif", None),
    ("analysis", "detect_divergences", _events),
    ("analysis", "detect_oscillation", None),
    ("analysis", "find_local_extrema", None),
    ("backtest", "run_backtest", _backtest),
    ("metrics", "compute_metrics", None),
    ("optimizer", "optimize", _ga),
    ("optimizer", "evaluate_fitness", None),
    ("optimizer", "selection_probabilities", _ess),
    ("cli", "_write_csv", _bytes_written),
    ("cli", "_write_json", _bytes_written),
)


class Tracer:
    """Collects spans; `install` patches the targets in for the rest of
    the process (each traced command runs in a process of its own)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def span(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, None]
            if counts is not None:
                spans[idx][4] = counts(args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str) -> None:
        """Wrap every target in every loaded module of `package`.

        Raises LookupError if a target is not a function of its module.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, fn_name, counts in TARGETS:
            fn = getattr(importlib.import_module(f"{package}.{mod_name}"), fn_name, None)
            if not callable(fn):
                raise LookupError(f"{package}.{mod_name}.{fn_name} is not a function")
            wrapper = self.span(f"{mod_name}.{fn_name}", fn, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)


# ----------------------------------------------------------------- metrics

PER_LAYER = (
    ("ingest.load_s", "s", "lower"),
    ("ingest.rows", "count", "higher"),
    ("ingest.clean_s", "s", "lower"),
    ("ingest.rows_dropped", "count", "lower"),
    ("indicators.calls", "count", "lower"),
    ("indicators.s", "s", "lower"),
    ("indicators.ema_calls", "count", "lower"),
    ("indicators.ema_s", "s", "lower"),
    ("indicators.cross_s", "s", "lower"),
    ("wavelet.calls", "count", "lower"),
    ("wavelet.s", "s", "lower"),
    ("wavelet.us_per_call", "us", "lower"),
    ("analysis.calls", "count", "lower"),
    ("analysis.s", "s", "lower"),
    ("analysis.extrema_s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("analysis.events", "count", "higher"),
    ("backtest.calls", "count", "lower"),
    ("backtest.self_s", "s", "lower"),
    ("backtest.days", "count", "lower"),
    ("backtest.ns_per_day", "ns/day", "lower"),
    ("backtest.trades", "count", "higher"),
    ("metrics.calls", "count", "lower"),
    ("metrics.s", "s", "lower"),
    ("optimizer.s", "s", "lower"),
    ("optimizer.self_s", "s", "lower"),
    ("optimizer.generations", "count", "lower"),
    ("optimizer.evals_requested", "count", "lower"),
    ("optimizer.evals_unique", "count", "lower"),
    ("optimizer.cache_hit_ratio", "ratio", "higher"),
    ("optimizer.selection_ess_min", "count", "higher"),
    ("cli.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.files", "count", "lower"),
    ("cli.bytes", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced command's `spans`.

    `<layer>.s` and `<layer>.calls` count only a layer's outermost spans,
    those whose parent lies in another layer, so nested calls inside a
    layer are not counted twice.
    """
    layer = [s[0].split(".", 1)[0] for s in spans]
    child_s = [0.0] * len(spans)
    for _name, start, end, parent, _counts in spans:
        if parent >= 0:
            child_s[parent] += end - start

    outer_n = defaultdict(int)
    outer_s = defaultdict(float)
    self_s = defaultdict(float)   # by layer
    name_n = defaultdict(int)
    name_s = defaultdict(float)
    name_self = defaultdict(float)
    attrs = defaultdict(float)
    ess_min = None
    for i, (name, start, end, parent, counts) in enumerate(spans):
        d = end - start
        own = d - child_s[i]
        if parent < 0 or layer[parent] != layer[i]:
            outer_n[layer[i]] += 1
            outer_s[layer[i]] += d
        self_s[layer[i]] += own
        name_n[name] += 1
        name_s[name] += d
        name_self[name] += own
        for key, value in (counts or {}).items():
            if key == "ess":
                ess_min = value if ess_min is None else min(ess_min, value)
            else:
                attrs[key] += value

    wavelet_n = outer_n["wavelet"]
    days = attrs["days"]
    requested = attrs["requested"]
    unique = name_n["optimizer.evaluate_fitness"]
    return {
        "ingest.load_s": name_s["ingest.load_csv"],
        "ingest.rows": attrs["rows"],
        "ingest.clean_s": name_s["ingest.clean"],
        "ingest.rows_dropped": attrs["dropped"],
        "indicators.calls": outer_n["indicators"],
        "indicators.s": outer_s["indicators"],
        "indicators.ema_calls": name_n["indicators.ema"],
        "indicators.ema_s": name_s["indicators.ema"],
        "indicators.cross_s": name_s["indicators.cross_signals"],
        "wavelet.calls": wavelet_n,
        "wavelet.s": outer_s["wavelet"],
        "wavelet.us_per_call": outer_s["wavelet"] / wavelet_n * 1e6 if wavelet_n else 0.0,
        "analysis.calls": outer_n["analysis"],
        "analysis.s": outer_s["analysis"],
        "analysis.extrema_s": name_s["analysis.find_local_extrema"],
        "analysis.self_s": name_self["analysis.detect_divergences"],
        "analysis.events": attrs["events"],
        "backtest.calls": name_n["backtest.run_backtest"],
        "backtest.self_s": name_self["backtest.run_backtest"],
        "backtest.days": days,
        "backtest.ns_per_day": name_self["backtest.run_backtest"] / days * 1e9 if days else 0.0,
        "backtest.trades": attrs["trades"],
        "metrics.calls": outer_n["metrics"],
        "metrics.s": outer_s["metrics"],
        "optimizer.s": outer_s["optimizer"],
        "optimizer.self_s": self_s["optimizer"],
        "optimizer.generations": attrs["generations"],
        "optimizer.evals_requested": requested,
        "optimizer.evals_unique": unique,
        "optimizer.cache_hit_ratio": 1.0 - unique / requested if requested else 0.0,
        "optimizer.selection_ess_min": ess_min or 0.0,
        "cli.s": outer_s["cli"],
        "cli.self_s": self_s["cli"],
        "cli.files": name_n["cli._write_csv"] + name_n["cli._write_json"],
        "cli.bytes": attrs["bytes"],
    }
