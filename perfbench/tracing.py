"""In-memory spans around the calls into each layer of ris_ssk.

The tracer wraps functions from the benchmark's side: nothing inside
``ris_ssk`` changes.  ``harness`` looks its collaborators up at call time
(``harness.sample_channel``, ``harness.StreamBank``, ``beamform.*``,
``pb_link.*``, ``astbc_link.*``, ``analysis.analytic_abep``), so replacing
those module attributes puts a span at every layer boundary.  Spans are
(name, start, end, parent) rows kept in flat arrays and written out once,
at the end.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np


class Tracer:
    """Records one span per call of each wrapped function (one thread)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.observed: dict[str, list] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        """``fn`` with a span named ``name`` around each call.

        ``observe(result)`` is called after each traced call and its value
        kept in ``observed[name]``.
        """
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        seen = self.observed.setdefault(name, []) if observe else None
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if seen is not None:
                seen.append(observe(result))
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total duration, total self time)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = self_times(a["parent"], dur)
        calls = np.bincount(a["name_id"], minlength=len(self.names))
        total = np.bincount(a["name_id"], weights=dur, minlength=len(self.names))
        mine = np.bincount(a["name_id"], weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(total[i]), float(mine[i])) for i, n in enumerate(self.names)}

    def save(self, path, **extra) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays(), **extra)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their summed
    durations are the part of the parent's interval they cover.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - covered


@contextlib.contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple; restore every one on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


LAYER_SPANS = (
    "channel.StreamBank.trial",
    "channel.sample_channel",
    "channel.sample_awgn",
    "beamform.optimal_two_tx",
    "beamform.intelligent_ris_phases",
    "beamform.low_complexity_beamform",
    "beamform.sdr_beamform",
    "pb_link.transmit_pb",
    "pb_link.detect_pb_ml",
    "pb_link.transmit_detect_traditional_ssk",
    "astbc_link.transmit_astbc",
    "astbc_link.detect_astbc_optimal",
    "astbc_link.detect_astbc_fast",
    "analysis.analytic_abep",
)


def _channel_bytes(ch) -> int:
    return ch.G.nbytes + ch.f.nbytes + (0 if ch.d is None else ch.d.nbytes)


def layer_wrappers(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Replacements that put a span around every call into each layer.

    ``harness.run_ber_sweep`` is the root span of an operation.  The sample
    channel's array sizes and the relaxation beamformer's diagnostics are
    kept as observations.  A layer function the program no longer has is
    skipped, and its metrics then read as not applicable.
    """
    from ris_ssk import analysis, astbc_link, beamform, harness, pb_link

    modules = {"beamform": beamform, "pb_link": pb_link, "astbc_link": astbc_link, "analysis": analysis}
    sites = [
        (harness, "run_ber_sweep", "harness.run_ber_sweep"),
        (harness, "sample_channel", "channel.sample_channel"),
        (pb_link, "sample_awgn", "channel.sample_awgn"),
        (astbc_link, "sample_awgn", "channel.sample_awgn"),
    ]
    for full in LAYER_SPANS:
        module_name, _, attr = full.partition(".")
        if module_name in modules:
            sites.append((modules[module_name], attr, full))
    observers = {"channel.sample_channel": _channel_bytes, "beamform.sdr_beamform": lambda rv: rv.diagnostics}
    out = [
        (owner, attr, tracer.wrap(name, getattr(owner, attr), observers.get(name)))
        for owner, attr, name in sites
        if hasattr(owner, attr)
    ]
    bank = getattr(harness, "StreamBank", None)
    if bank is not None:
        traced_bank = type(bank.__name__, (bank,), {"trial": tracer.wrap("channel.StreamBank.trial", bank.trial)})
        out.append((harness, "StreamBank", traced_bank))
    return out
