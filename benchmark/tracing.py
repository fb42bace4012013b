"""Spans around the package's public functions, recorded from outside it.

Modules bind their collaborators with ``from .x import y``, so each name is
wrapped where it is looked up (``estimation.pmf_full`` and
``cli.pmf_full`` are separate bindings); patching only the defining module
would record nothing.  A binding that a later version of the package no
longer has is skipped, and its metrics read 0.

Spans are aggregated per name as (calls, inclusive seconds, self seconds),
where self time is the span minus the traced spans it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}     # name -> [calls, inclusive_s, self_s]
        self.counters: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple] = []
        self._nodes = 0

    # ------------------------------------------------------------ recording

    def _enter(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, name, frame, start, count=1):
        elapsed = time.perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        record[0] += count
        record[1] += elapsed
        record[2] += elapsed - frame[0]

    def _consume(self, name, generator):
        """Charge a generator's work to its span as it is consumed."""
        count = 1
        while True:
            frame, start = self._enter()
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._exit(name, frame, start, count)
                count = 0
            yield item

    def wrap(self, fn, name, observe=None):
        generator = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if generator:
                return self._consume(span, fn(*args, **kwargs))
            frame, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span, frame, start)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ bindings

    @staticmethod
    def _pmf_full_name(args, kwargs):
        exact = _arg(args, kwargs, 2, "exact", True)
        return "pmf.pmf_full_exact" if exact else "pmf.pmf_full_float"

    def _observe_pmf_full(self, args, kwargs, result):
        # pmf_full(k) builds Y rows 0..k-1
        self.counters["chebyshev.y_rows"] = (self.counters.get("chebyshev.y_rows", 0)
                                             + int(_arg(args, kwargs, 0, "k", 0)))

    def _observe_kraus(self, args, kwargs, result):
        self._nodes = result[0].size

    def _observe_channel(self, args, kwargs, result):
        # the channel's dense transforms are output positions x momentum nodes
        megabytes = len(result.table) * self._nodes * 16 / 2**20
        self.peaks["walk.channel_dense_mb"] = max(
            self.peaks.get("walk.channel_dense_mb", 0.0), megabytes)

    def bindings(self):
        """(module, attribute, span name, observer) for every traced name."""
        pmf_full, rows = self._pmf_full_name, self._observe_pmf_full
        return [
            ("reluctant_walk.cli", "main", "cli.main", None),
            ("reluctant_walk.cli", "mle_estimate", "estimation.mle_estimate", None),
            ("reluctant_walk.cli", "pmf_full", pmf_full, rows),
            ("reluctant_walk.cli", "pmf_point", "pmf.pmf_point", None),
            ("reluctant_walk.cli", "evolve", "walk.evolve", None),
            ("reluctant_walk.cli", "position_pmf", "walk.position_pmf", None),
            ("reluctant_walk.estimation", "log_likelihood", "estimation.log_likelihood", None),
            ("reluctant_walk.estimation", "level_set_solve", "estimation.level_set_solve",
             None),
            ("reluctant_walk.estimation", "minimize_scalar", "estimation.optimizer", None),
            ("reluctant_walk.estimation", "bisect", "estimation.optimizer", None),
            ("reluctant_walk.estimation", "pmf_full", pmf_full, rows),
            ("reluctant_walk.estimation", "pmf_point", "pmf.pmf_point", None),
            ("reluctant_walk.pmf", "y_poly", "chebyshev.y_poly", None),
            ("reluctant_walk.walk", "channel_position_pmf", "walk.channel_position_pmf",
             self._observe_channel),
            ("reluctant_walk.walk", "kraus_kernels", "walk.kraus_kernels",
             self._observe_kraus),
        ]

    def install(self):
        for module_name, attr, name, observe in self.bindings():
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, observe))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
