"""Spans and counters the traced run records around calls into ltfsm.

A span covers one call (or a few lines of glue) at a layer boundary.  Spans
nest; a stage's self time is its spans' duration minus the part covered by
their child spans.  Everything stays in memory and is aggregated per stage
name when the run ends.

With ``memory=True`` the tracer also records, per stage, the peak
``tracemalloc`` allocation above what was allocated when the span opened.
Timing and memory are recorded in separate passes because tracemalloc slows
every allocation.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter

import numpy as np

from ltfsm.streams import (
    raw_to_uniform,
    uniform_to_exponential,
    uniform_to_gaussian,
    uniform_to_laplace_half,
    uniform_to_rademacher,
)

_clock = time.perf_counter


class _Span:
    __slots__ = ("tracer", "name", "start", "child", "base", "peak")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        if tracer.memory:
            current, peak = tracemalloc.get_traced_memory()
            if tracer.stack:
                parent = tracer.stack[-1]
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            self.base = self.peak = current
        self.child = 0.0
        tracer.stack.append(self)
        self.start = _clock()
        return self

    def __exit__(self, *exc) -> None:
        duration = _clock() - self.start
        tracer = self.tracer
        tracer.stack.pop()
        entry = tracer.stages.setdefault(self.name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - self.child
        if tracer.stack:
            tracer.stack[-1].child += duration
        else:
            tracer.top_level += duration
        if tracer.memory:
            peak = max(self.peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            entry[3] = max(entry[3], peak - self.base)
            if tracer.stack:
                parent = tracer.stack[-1]
                parent.peak = max(parent.peak, peak)


class Tracer:
    """In-memory span recorder: ``with tracer.span("fbm.fgn"): ...``."""

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.stack: list[_Span] = []
        # stage -> [spans, total seconds, self seconds, peak bytes]
        self.stages: dict[str, list] = {}
        self.top_level = 0.0
        self.counts: Counter = Counter()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += int(amount)

    def self_seconds(self, stage: str) -> float:
        return self.stages.get(stage, (0, 0.0, 0.0, 0))[2]

    def layer_peak_mb(self, layer: str) -> float:
        """Largest stage peak among the stages of ``layer`` (MiB)."""
        peaks = [e[3] for name, e in self.stages.items() if name.split(".")[0] == layer]
        return max(peaks, default=0) / 2**20

    def summary(self) -> dict:
        return {
            name: {"spans": e[0], "total_s": e[1], "self_s": e[2], "peak_mb": e[3] / 2**20}
            for name, e in sorted(self.stages.items())
        }


class TracedStream:
    """Stand-in for a ``RandomStream`` that puts each draw layer in its own
    span and counts raw words.

    The variates are bitwise those of the wrapped stream: every
    ``RandomStream`` method is ``raw`` followed by the documented positional
    transforms, which this class applies in the same order.
    """

    def __init__(self, stream, tracer: Tracer) -> None:
        self.stream = stream
        self.tracer = tracer

    def uniform(self, size: int) -> np.ndarray:
        tracer = self.tracer
        with tracer.span("streams.raw"):
            raw = self.stream.raw(size)
        tracer.count("streams.words", size)
        with tracer.span("streams.uniform"):
            return raw_to_uniform(raw)

    def _variates(self, transform, stage: str, size: int) -> np.ndarray:
        u = self.uniform(size)
        with self.tracer.span(stage):
            return transform(u)

    def exponential(self, size: int) -> np.ndarray:
        return self._variates(uniform_to_exponential, "streams.transform", size)

    def gaussian(self, size: int) -> np.ndarray:
        return self._variates(uniform_to_gaussian, "streams.ndtri", size)

    def laplace_half(self, size: int) -> np.ndarray:
        return self._variates(uniform_to_laplace_half, "streams.transform", size)

    def rademacher(self, size: int) -> np.ndarray:
        return self._variates(uniform_to_rademacher, "streams.transform", size)


_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")


class FftCounter:
    """Counts the bytes in and out of every ``numpy.fft`` 1-d transform
    called while it is active (computed from array sizes, not measured
    traffic).  ltfsm looks the transforms up on ``np.fft`` at call time, so
    swapping the module attributes sees the library's own calls.  The real
    and Hermitian transforms are counted too, so a change of transform in
    the synthesis still shows in the count."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.saved: dict = {}

    def __enter__(self) -> "FftCounter":
        for name in _FFT_NAMES:
            original = getattr(np.fft, name)
            self.saved[name] = original
            setattr(np.fft, name, self._wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        for name, original in self.saved.items():
            setattr(np.fft, name, original)

    def _wrap(self, original):
        tracer = self.tracer

        def counted(a, *args, **kwargs):
            out = original(a, *args, **kwargs)
            tracer.count("fbm.fft_bytes", np.asarray(a).nbytes + out.nbytes)
            return out

        return counted
