"""Spans around bindens' public functions, recorded from outside the program.

`Tracer.install` rebinds each name in WRAPPED, in the module namespace the
program looks it up in, to a wrapper that records (name, start, end, parent)
in memory, on the clock the end-to-end figures use: the process's CPU
time less the speed probe's (worker.SpeedProbe.clock).
`layer_metrics` turns the spans of one round into the per-layer metrics; a
span's self time is its duration minus its direct children's.
"""

import functools
import importlib
import os
from collections import defaultdict

# (module the program calls through, attribute, span name)
WRAPPED = (
    ("bindens.cli", "load_observations", "cli.load_observations"),
    ("bindens.cli", "counts_from_observations", "estimators.counts_from_observations"),
    ("bindens.cli", "evaluate_space", "cv.search"),
    ("bindens.cli", "coordinate_descent_w", "cv.search"),
    ("bindens.cli", "estimate_at", "estimators.estimate_at"),
    ("bindens.cli", "estimate_full", "estimators.estimate_full"),
    ("bindens.cli", "write_report", "cli.write_report"),
    ("bindens.cv", "kl_risk", "cv.kl_risk"),
    ("bindens.cv", "se_risk", "cv.se_risk"),
    ("bindens.estimators", "fwht", "walsh.fwht"),
    ("bindens.estimators", "xor_dot", "backend.xor_dot"),
    ("bindens.estimators", "normalizer", "transforms.normalizer"),
    ("bindens.transforms", "fwht", "walsh.fwht"),
)


def _report_bytes(args, kwargs):
    return os.path.getsize(args[0])


def _xor_dot_bytes(args, kwargs):
    return 16 * int(args[0].shape[0])  # reads v[m] and v[m ^ x], 8 bytes each


BYTES = {"cli.write_report": _report_bytes, "backend.xor_dot": _xor_dot_bytes}


class Tracer:
    """Spans as [name, start, end, parent index, bytes], kept in memory."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self._stack = [None]

    def span(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1], None]
        self.spans.append(record)
        self._stack.append(sid)
        record[1] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = self.clock()
            self._stack.pop()
            if name in BYTES:
                record[4] = BYTES[name](args, kwargs)

    def install(self):
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)

            @functools.wraps(fn)
            def traced(*args, _fn=fn, _name=name, **kwargs):
                return self.span(_name, _fn, *args, **kwargs)

            setattr(module, attr, traced)


# (metric, unit, span name, what): what is "self" (summed self time),
# "calls", "bytes" or "total" (summed duration).
LAYER_METRICS = (
    ("cli.load_observations.s", "s", "cli.load_observations", "self"),
    ("estimators.counts_from_observations.s", "s", "estimators.counts_from_observations", "self"),
    ("cli.write_report.s", "s", "cli.write_report", "self"),
    ("cli.report_bytes", "B", "cli.write_report", "bytes"),
    ("cv.kl_risk.s", "s", "cv.kl_risk", "self"),
    ("cv.kl_risk.calls", "count", "cv.kl_risk", "calls"),
    ("cv.se_risk.s", "s", "cv.se_risk", "self"),
    ("cv.se_risk.calls", "count", "cv.se_risk", "calls"),
    ("cv.search.self_s", "s", "cv.search", "self"),
    ("transforms.normalizer.s", "s", "transforms.normalizer", "self"),
    ("transforms.normalizer.calls", "count", "transforms.normalizer", "calls"),
    ("walsh.fwht.s", "s", "walsh.fwht", "self"),
    ("walsh.fwht.calls", "count", "walsh.fwht", "calls"),
    ("backend.xor_dot.s", "s", "backend.xor_dot", "self"),
    ("backend.xor_dot.calls", "count", "backend.xor_dot", "calls"),
    ("backend.xor_dot.bytes", "B", "backend.xor_dot", "bytes"),
    ("estimators.estimate_at.s", "s", "estimators.estimate_at", "self"),
    ("estimators.estimate_full.s", "s", "estimators.estimate_full", "self"),
    ("cli.cv.s", "s", "cli.cv", "total"),
    ("cli.estimate.s", "s", "cli.estimate", "total"),
    ("cli.query.s", "s", "cli.query", "total"),
)


def layer_metrics(processes):
    """Per-layer values of one round from (span list, time scale) of its processes."""
    acc = defaultdict(float)
    for spans, scale in processes:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        for sid, (name, start, end, parent, nbytes) in enumerate(spans):
            acc[(name, "self")] += (end - start - child[sid]) * scale
            acc[(name, "total")] += (end - start) * scale
            acc[(name, "calls")] += 1
            acc[(name, "bytes")] += nbytes or 0
    return {metric: acc[(span, what)] for metric, _, span, what in LAYER_METRICS}
