"""Span tracing of radwig's public functions, from outside the package.

Each traced name is wrapped at every import site: the defining module,
the package namespace, every radwig module that did ``from .x import
name``, and the benchmark modules that imported it.  A call through any
of them opens a span.
Classes are traced through their ``__init__``.  A span's self time is
its duration minus the time covered by its child spans.  Counters are
computed from the call's arguments or result after the span closes, so
they add to the traced run only.

Only public names are wrapped.  A name that no longer exists records
zero calls instead of failing.
"""

import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager

import numpy as np


def _file_bytes(args, result):
    return os.path.getsize(args["path"])


def _density_flops(args, result):
    n = args["rho"].grid.n_points
    g, d = result.values.shape
    return 8 * g * (2 * n - 1) * d


def _density_fill(args, result):
    """Structural nonzeros of the gathered anti-diagonal matrix, and its size."""
    grid = args["rho"].grid
    n = grid.n_points
    s = np.rint(2.0 * (args["gamma_grid"].points - grid.min) / grid.spacing)
    per_row = np.minimum(n - 1, s) - np.maximum(0, s - (n - 1)) + 1
    return float(per_row.sum()), float(len(s) * (2 * n - 1))


def _fock_dims(n_max):
    dim_f = (n_max + 1) ** 2
    dim_s = (2 * n_max + 1) * (2 * n_max + 2) // 2
    return dim_f, dim_s


def _rotation_flops(args, result):
    """Complex flops of the dense U rho U^dag product."""
    dim_f, dim_s = _fock_dims(args["rho"].n_max)
    return 8 * (dim_s * dim_f * dim_f + dim_s * dim_s * dim_f)


def _rotation_fill(args, result):
    """Nonzeros of U from the sector sizes, and the size of dense U."""
    n_max = args["rho"].n_max
    dim_f, dim_s = _fock_dims(n_max)
    nonzero = sum((t + 1) * (min(t, n_max) - max(0, t - n_max) + 1)
                  for t in range(2 * n_max + 1))
    return float(nonzero), float(dim_s * dim_f)


# (module, public name, counters); each counter maps a name to a function
# of (bound arguments, result) giving the count for one call
TARGETS = [
    ("special", "laguerre_log", {"points": lambda a, r: np.size(a["x"])}),
    ("states", "radial_wavefunction", {}),
    ("wigner", "DensityMatrixV", {}),
    ("wigner", "schwinger_density", {}),
    ("wigner", "wigner_from_density",
     {"flops": _density_flops, "fill": _density_fill}),
    ("wigner", "wigner_l0_grid", {"cells": lambda a, r: r.values.size}),
    ("wigner", "wigner_l0_closed", {}),
    ("wigner", "marginal_position", {}),
    ("wigner", "marginal_momentum", {}),
    ("wigner", "overlap", {}),
    ("wigner", "s_smooth", {}),
    ("fock", "FockDensityMatrix", {}),
    ("fock", "SchwingerDensityMatrix", {}),
    ("fock", "fock_to_schwinger",
     {"flops": _rotation_flops, "fill": _rotation_fill}),
    ("fock", "radial_reduce",
     {"m_blocks": lambda a, r: len(r.meta.get("m_values", []))}),
    ("fock", "load_fock_density", {}),
    ("operators", "apply_displacement", {}),
    ("operators", "apply_pr", {}),
    ("operators", "expectation", {}),
    ("io", "write_wigner_csv", {"bytes": _file_bytes}),
    ("io", "read_wigner_csv", {"bytes": _file_bytes}),
    ("io", "write_wigner_json", {"bytes": _file_bytes}),
    ("io", "read_wigner_json", {"bytes": _file_bytes}),
    ("io", "write_marginal_csv", {}),
    ("io", "write_gnuplot_script", {}),
]

# counters reported as a share: the wrapper accumulates (part, whole)
RATIO_COUNTERS = {"fill"}


class Tracer:
    """In-memory spans and counters of the traced passes.

    ``spans`` holds (name, op, start, end, parent index, self seconds)
    tuples; the spans of one benchmark op share its ``op`` identifier.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []        # [span index, time covered by children]
        self.op = None

    @contextmanager
    def span(self, name):
        parent = self._stack[-1][0] if self._stack else None
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.spans[frame[0]] = (name, self.op, start, end, parent,
                                    duration - frame[1])
            if self._stack:
                self._stack[-1][1] += duration

    def count(self, key, value):
        if isinstance(value, tuple):
            part, whole = self.counters.get(key, (0.0, 0.0))
            self.counters[key] = (part + value[0], whole + value[1])
        else:
            self.counters[key] = self.counters.get(key, 0) + value

    def per_op_self_s(self):
        """op -> {layer: self seconds}, summed over the traced passes."""
        out = {}
        for name, op, _, _, _, self_s in self.spans:
            layers = out.setdefault(op, {})
            layers[name] = layers.get(name, 0.0) + self_s
        return out


def _wrap_function(tracer, name, fn, counters):
    signature = inspect.signature(fn)

    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counters:
            bound = signature.bind(*args, **kwargs).arguments
            for key, measure in counters.items():
                try:
                    value = measure(bound, result)
                except (KeyError, AttributeError):
                    continue        # the argument or field was renamed
                tracer.count(f"{name}.{key}", value)
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer, callers=()):
    """Wrap every target for the rest of the process.

    ``callers`` are the benchmark's own modules that imported radwig
    names; their bindings are replaced too.
    """
    for mod in ("io", "cli", "checks", "fock"):
        importlib.import_module(f"radwig.{mod}")
    namespaces = [m for key, m in sys.modules.items()
                  if key == "radwig" or key.startswith("radwig.")]
    namespaces += list(callers)
    for module_name, attr, counters in TARGETS:
        name = f"{module_name}.{attr}"
        module = sys.modules.get(f"radwig.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            continue
        if inspect.isclass(original):
            init = original.__init__
            original.__init__ = _wrap_function(tracer, name, init, counters)
            continue
        traced = _wrap_function(tracer, name, original, counters)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, traced)


def layer_names():
    """Every per-layer name the wrappers can produce, with its unit."""
    out = {}
    for module_name, attr, counters in TARGETS:
        name = f"{module_name}.{attr}"
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        for key in counters:
            out[f"{name}.{key}"] = "1" if key in RATIO_COUNTERS else (
                "B" if key == "bytes" else "flop" if key == "flops" else "count")
    return out


def layer_values(tracer, passes):
    """Per-pass layer totals; ratios as whole-run shares."""
    calls, self_s = {}, {}
    for name, _, _, _, _, seconds in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + seconds
    values = {}
    for name in layer_names():
        base, _, measure = name.rpartition(".")
        if measure == "calls":
            total = calls.get(base, 0)
        elif measure == "self_s":
            total = self_s.get(base, 0.0)
        elif measure in RATIO_COUNTERS:
            part, whole = tracer.counters.get(name, (0.0, 0.0))
            values[name] = part / whole if whole else 0.0
            continue
        else:
            total = tracer.counters.get(name, 0)
        values[name] = total / passes
    return values
