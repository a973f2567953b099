"""Span tracer for floqept, applied from outside the package.

Each traced public function is replaced by a wrapper in every floqept module
that holds a reference to it: callers bind names at import (``analysis``
imports ``synthesize_spectrum``), so patching only the defining module would
miss those calls.  A span records name (the layer), start, end, parent,
task id and thread id.  Spans stay in memory until the run ends.

Spans opened on a pool thread with no open span of their own take the
innermost span of the thread that began the task as parent, so the CLI's
worker threads nest under the ``cli`` span.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _hb_grid(c, a, result):
    n = 2 * (2 * a["cfg"].truncation_m + 1)
    systems = int(np.size(a["deltas"]))
    c["systems"] += systems
    # complex LU (8/3 n^3 real flops) plus one forward/back solve (8 n^2)
    c["flops_computed"] += systems * (8.0 / 3.0 * n ** 3 + 8.0 * n ** 2)
    c["bytes_computed"] += systems * n * n * 16  # the stacked complex matrices


def _integrate(c, a, traj):
    c["rk_steps"] += traj.n_steps
    c["rk_rejected"] += traj.n_rejected


def _refine_scan(c, a, result):
    c["dft_terms"] += np.size(a["f_grid"]) * np.size(a["samples"])


def _spectral_amplitude(c, a, result):
    c["dft_terms"] += np.size(a["samples"])


def _fit(c, a, fit):
    c["iterations"] += fit.iterations
    c["converged"] += bool(fit.converged)


def _locate_ep(c, a, ep):
    c["indicator_evals"] += ep.iterations + 2  # both bracket ends plus one per bisection


def _cells(c, a, grid):
    c["cells"] += np.size(grid)


def _file_bytes(c, a, result):
    c["bytes"] += os.path.getsize(a["path"])


# (layer, defining module, public function, counter)
TARGETS = (
    ("params", "floqept.params", "validate", None),
    ("bessel", "floqept.numerics.bessel", "bessel_j", None),
    ("integrate", "floqept.numerics.integrate", "integrate_linear", _integrate),
    ("spectral", "floqept.numerics.spectral", "refine_scan", _refine_scan),
    ("spectral", "floqept.numerics.spectral", "spectral_amplitude", _spectral_amplitude),
    ("fit", "floqept.numerics.fit", "lm_fit", _fit),
    ("eig", "floqept.numerics.eig", "order_eigenvalues", None),
    ("engine.closed_form", "floqept.engine", "effective_coupling", None),
    ("engine.closed_form", "floqept.engine", "static_eigenvalues", None),
    ("engine.closed_form", "floqept.engine", "rwa_model", None),
    ("engine.hb_grid", "floqept.engine", "steady_state_grid", _hb_grid),
    ("engine.hb_point", "floqept.engine", "steady_state_response", None),
    ("engine.monodromy", "floqept.engine", "monodromy_quasienergies", None),
    ("observables.spectrum", "floqept.observables", "synthesize_spectrum", None),
    ("observables.peaks", "floqept.observables", "detect_peaks", None),
    ("observables.beat", "floqept.observables", "beat_frequency", None),
    ("analysis.locate_ep", "floqept.analysis", "locate_ep", _locate_ep),
    ("analysis.gamma_curve", "floqept.analysis", "gamma_curve", None),
    ("analysis.phase_diagram", "floqept.analysis", "phase_diagram", _cells),
    ("cli", "floqept.cli", "main", None),
    ("io", "floqept.io", "write_csv", _file_bytes),
    ("io", "floqept.io", "write_json", _file_bytes),
)


class Tracer:
    """Records spans and counters while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent, task, thread]
        self.counts: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.notes: list[str] = []  # targets that could not be traced, and why
        self.task = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for layer, module, name, counter in TARGETS:
            try:
                orig = getattr(importlib.import_module(module), name)
            except (ImportError, AttributeError) as exc:
                self.notes.append(f"{layer}: {module}.{name} not traced ({exc})")
                continue
            wrapper = self._wrap(layer, orig, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "floqept" or mod_name.startswith("floqept.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()
        return False

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, fn, counter):
        signature = inspect.signature(fn) if counter else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            record = [layer, clock(), None, parent, self.task, threading.get_ident()]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    with self._lock:
                        counter(self.counts[layer], bound.arguments, result)
                except (TypeError, KeyError, AttributeError, OSError) as exc:
                    self.notes.append(f"{layer}: counter for {fn.__name__} failed ({exc!r})")
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- derivation ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: ``calls`` (entries from outside the layer), ``busy_s``
        (their summed duration) and ``self_s`` (time not covered by any
        child span, summed over every span of the layer)."""
        spans = self.spans
        children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            if s[3] is not None:
                children[s[3]].append(i)
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (layer, start, end, parent, _task, _thread) in enumerate(spans):
            if end is None:
                continue
            entry = out[layer]
            duration = end - start
            entry["self_s"] += duration - covered(
                [(spans[c][1], spans[c][2]) for c in children.get(i, ()) if spans[c][2] is not None],
                start, end)
            if not self._inside(parent, layer):
                entry["calls"] += 1
                entry["busy_s"] += duration
        return out

    def _inside(self, index, layer) -> bool:
        while index is not None:
            if self.spans[index][0] == layer:
                return True
            index = self.spans[index][3]
        return False

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "task", "thread")
        return [dict(zip(keys, s)) for s in self.spans]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total
