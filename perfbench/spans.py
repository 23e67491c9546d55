"""Spans around public minisvs functions, recorded from outside the program.

A Recorder swaps chosen functions and methods for wrappers that record one
span per call: its name, start, end, the span that was open when it began,
and whether its result carries an autograd tape. Nothing in the program
changes; the originals come back when `installed` exits. A layer's self
time is its span minus the spans of wrapped functions it called.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, TAPED = range(5)


class Recorder:
    def __init__(self, after=None):
        """`after`, if given, is called with no arguments after each wrapped call."""
        self.spans: list[list] = []
        self._open: list[int] = []
        self._after = after

    def wrap(self, name: str, fn):
        spans, open_, clock, after = self.spans, self._open, time.perf_counter, self._after

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, False]
            open_.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            span[TAPED] = bool(getattr(out, "requires_grad", False))
            if after is not None:
                after()
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap each (span name, owner, attribute) while the block runs."""
        saved = []
        try:
            for name, owner, attr in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Seconds per span, less the time of the spans it caused."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                children[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, children)]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "taped"], "spans": self.spans}, fh)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function."""

    def noop():
        return None

    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    bare = clock() - t0
    traced = Recorder().wrap("noop", noop)
    t0 = clock()
    for _ in range(calls):
        traced()
    return max(clock() - t0 - bare, 0.0) / calls
