"""Span tracer that wraps the program's public functions from outside.

`Tracer.install` replaces each target function in every loaded `qcrbench`
module namespace that holds it (so `qcrbench.inference.continuum_noises` is
wrapped as well as `qcrbench.source.continuum_noises`).  Each wrapper records
a span [name, start, end, parent span index, op id, info] in memory; nothing
is written until the run ends.  Only calls made while `tracer.op` is set are
recorded, so the benchmark's own output checks leave no spans.
"""

import functools
import json
import sys
import time


def _points(args, kwargs, result):
    import numpy as np

    return int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)


def _layers_used(args, kwargs, result):
    return result.layers_used


def _de_info(args, kwargs, result):
    return [result.generations, result.discarded]


def _contour_bounded(args, kwargs, result):
    return bool(result[1])


def _chi2_points(args, kwargs, result):
    return int(result.size)


def _ramp_bins(args, kwargs, result):
    return int(args[0].trials)


# (module, attribute, span name, info extractor); "Class.method" patches the class
LAYER_TARGETS = [
    ("qcrbench.source", "continuum_noises", "source.continuum_noises", _points),
    ("qcrbench.source", "continuum_gain", "source.continuum_gain", None),
    ("qcrbench.source", "converged_source", "source.converged_source", _layers_used),
    ("qcrbench.source", "layered_source", "source.layered_source", None),
    ("qcrbench.gaussian", "apply_loss", "gaussian.apply_loss", None),
    ("qcrbench.bounds", "build_chain", "bounds.build_chain", None),
    ("qcrbench.bounds", "qcrb_numeric_gaussian", "bounds.qcrb_numeric_gaussian", None),
    ("qcrbench.bounds", "ProbeChain.state_at", "bounds.ProbeChain.state_at", None),
    ("qcrbench.bounds", "qcrb_distributed", "bounds.qcrb_distributed", None),
    ("qcrbench.bounds", "qcrb_coherent", "bounds.qcrb_coherent", None),
    ("qcrbench.bounds", "qcrb_ultimate", "bounds.qcrb_ultimate", None),
    ("qcrbench.detection", "effective_time", "detection.effective_time", None),
    ("qcrbench.detection", "transmission_variance", "detection.transmission_variance", None),
    ("qcrbench.detection", "snr_ramp_simulate", "detection.snr_ramp_simulate", _ramp_bins),
    ("qcrbench.inference", "fit_source", "inference.fit_source", None),
    ("qcrbench.inference", "differential_evolution", "inference.differential_evolution", _de_info),
    (
        "qcrbench.inference",
        "uncertainty_by_chi2_doubling",
        "inference.uncertainty_by_chi2_doubling",
        _contour_bounded,
    ),
    ("qcrbench.inference", "chi_square_batch", "inference.chi_square_batch", _chi2_points),
]

CLI_TARGETS = [
    ("qcrbench.config", "load_config", "config.load_config", None),
    ("qcrbench.cli", "_write_table", "cli.output", None),
]


class _TracedModule:
    """Stand-in for a module whose `dumps` is traced; everything else forwards."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, info=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def add_span(self, name, start, end):
        """Record a span timed by the caller (e.g. an import)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, self.op, None])

    def call(self, name, fn, *args, **kwargs):
        """Run `fn` inside a span of its own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets):
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "qcrbench"]
        for module_name, attr, name, info in targets:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self.wrap(name, getattr(cls, method), info))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, info)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapped)

    def install_cli_output(self):
        """Trace the CLI's inline output: its `print` calls and `json.dumps`."""
        cli = sys.modules["qcrbench.cli"]
        self._patch(cli, "json", _TracedModule(cli.json, self.wrap("cli.output", cli.json.dumps)))
        cli.print = self.wrap("cli.output", print)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        cli = sys.modules.get("qcrbench.cli")
        if cli is not None and "print" in vars(cli):
            del cli.print

def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def dump(spans, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spans, handle, separators=(",", ":"))


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
