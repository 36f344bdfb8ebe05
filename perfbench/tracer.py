"""Out-of-program span tracing for the mimo_converge layers.

Each traced function is replaced, at every module attribute its callers
look up, by a wrapper that records one span per call: calls, inclusive
busy time, self time (busy minus nested traced calls on the same thread)
and, where the shapes allow, a computed work count. The package binds
most names with ``from ... import``, so wrapping the defining module alone
would miss the calls; ``TRACED`` lists the call sites instead.

Spans accumulate per thread, because the sweep harness runs trials on a
thread pool, and are merged only when the run has ended.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time

HARNESS = "montecarlo.run_scenario"


# The counts take the last two axes as (M, K), so a batched call counts
# every matrix in its batch.
def _draw_bytes(args, kwargs, result):
    return 16 * result.size


def _gram_flops(args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    return 8 * A.size * A.shape[-1]


def _colouring_flops(args, kwargs, result):
    return 8 * result.size * result.shape[-2]


def _file_bytes(args, kwargs, result):
    return os.path.getsize(result)


# Layer name -> (call sites as (module, attribute), extra counter or None).
# The extra counter is a (key, function of args, kwargs and result) pair.
TRACED = {
    "channel.sample_iid": ([("channel", "sample_iid")], ("bytes", _draw_bytes)),
    "channel.apply_correlation": (
        [("channel", "apply_correlation")], ("flops", _colouring_flops)),
    "channel.correlation_sqrt": (
        [("montecarlo", "correlation_sqrt"), ("channel", "correlation_sqrt")], None),
    "numerics.psd_sqrt": ([("channel", "psd_sqrt")], None),
    "channel.apply_link_gains": ([("channel", "apply_link_gains")], None),
    "numerics.gram_normalized": (
        [("montecarlo", "gram_normalized"), ("precoding", "gram_normalized")],
        ("flops", _gram_flops)),
    "numerics.inverse_trace": ([("precoding", "inverse_trace")], None),
    "metrics.convergence_metrics": ([("montecarlo", "convergence_metrics")], None),
    "metrics.hermitian_eigenvalues": ([("metrics", "hermitian_eigenvalues")], None),
    "precoding.zf_snr_from_gram": ([("montecarlo", "zf_snr_from_gram")], None),
    "precoding.mf_sinr_from_gram": ([("montecarlo", "mf_sinr_from_gram")], None),
    HARNESS: ([("cli", "run_scenario")], None),
    "cli.parse_config": ([("cli", "parse_config")], None),
    "cli.emit": ([("cli", "emit")], ("bytes", _file_bytes)),
}


class _ThreadSpans:
    """Spans of one thread: running totals plus the open-call stack."""

    def __init__(self, is_main: bool):
        self.is_main = is_main
        self.stack: list[list] = []  # [layer name, time spent in traced children]
        self.totals: dict[str, list[float]] = {}  # name -> [calls, busy, self, extra]
        self.harness: list[tuple[float, float]] = []  # run_scenario intervals
        self.children: list[tuple[float, float]] = []  # outermost spans under it


class Tracer:
    """Installs the wrappers and merges what every thread recorded."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self._main = threading.get_ident()
        self.sites_missing: dict[str, list[str]] = {}
        self.absent: list[str] = []

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.get_ident() == self._main)
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def install(self) -> None:
        """Wrap every call site that exists; note those that do not."""
        for name, (sites, extra) in TRACED.items():
            wrapped = 0
            for module_name, attr in sites:
                module = importlib.import_module(f"mimo_converge.{module_name}")
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.sites_missing.setdefault(name, []).append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(name, fn, extra))
                wrapped += 1
            if not wrapped:
                self.absent.append(name)

    def _wrap(self, name, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans()
            outer = spans.stack[-1][0] if spans.stack else None
            frame = [name, 0.0]
            spans.stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                spans.stack.pop()
                busy = end - start
                if spans.stack:
                    spans.stack[-1][1] += busy
                total = spans.totals.setdefault(name, [0, 0.0, 0.0, 0])
                total[0] += 1
                total[1] += busy
                total[2] += busy - frame[1]
                if extra is not None and result is not None:
                    total[3] += extra[1](args, kwargs, result)
                if name == HARNESS:
                    spans.harness.append((start, end))
                elif outer == HARNESS or (outer is None and not spans.is_main):
                    # Direct children of run_scenario: on the main thread they
                    # nest under it, on pool threads they are outermost.
                    spans.children.append((start, end))

        return traced

    def layers(self) -> dict[str, dict]:
        """Per-layer totals over all threads, absent layers with 0 calls."""
        out = {}
        for name, (_, extra) in TRACED.items():
            calls, busy, self_s, count = 0, 0.0, 0.0, 0
            for spans in self._threads:
                t = spans.totals.get(name)
                if t:
                    calls, busy, self_s, count = calls + t[0], busy + t[1], self_s + t[2], count + t[3]
            entry = {"calls": calls, "busy_s": busy, "self_s": self_s,
                     "absent": name in self.absent}
            if extra is not None:
                entry[extra[0]] = count
            out[name] = entry
        return out

    def harness_self_s(self) -> float:
        """run_scenario time not covered by any of its child spans on any thread."""
        windows = [w for spans in self._threads for w in spans.harness]
        children = sorted(c for spans in self._threads for c in spans.children)
        merged: list[list[float]] = []
        for start, end in children:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        covered = sum(
            max(0.0, min(end, w_end) - max(start, w_start))
            for w_start, w_end in windows
            for start, end in merged
        )
        return sum(end - start for start, end in windows) - covered
