"""Outside-in tracing: spans recorded around calls into each layer of ``repro``.

The benchmark does not edit the program.  :class:`Tracer` temporarily
replaces public functions and methods of each layer with wrappers that
open a span, call the original and close the span, then restores the
originals.  Spans live in memory (name, layer, start, end, parent, request
id, track) and are written out once, as a Chrome/Perfetto JSON trace.

:func:`layer_budget` turns the spans of the traced operations into wall
time per layer.  Each instant inside an operation's root span is charged
to the innermost open span: on the main track, or, while worker tracks
(other processes) are busy, split evenly over their innermost spans,
because the main track only waits for them then.  The parts charged to
root spans are the unattributed remainder.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: The layers of ``repro`` a budget attributes time to, in stack order.
LAYERS = (
    "import",
    "kernels",
    "dirac",
    "solvers",
    "comm",
    "serve",
    "store",
    "measure",
    "hmc",
    "campaign",
    "fleet",
)

#: Layer of the benchmark's own root spans: time charged here is unattributed.
ROOT_LAYER = "bench"

MAIN_TRACK = 0

_MISSING = object()


@dataclass(eq=False)
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: int = -1
    track: int = MAIN_TRACK
    index: int = -1
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Patch:
    """One attribute replaced by a span-recording wrapper while installed.

    ``on_exit(tracer, span, args, kwargs, result)`` runs after the call
    returns, outside the span, to record counts from arguments or results.
    """

    owner: object
    attr: str
    layer: str
    name: str
    on_exit: object = None


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, patches: list[Patch] = ()) -> None:
        self.patches = list(patches)
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = {}
        self.request = -1
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()
        self.installed = False

    # -- spans -----------------------------------------------------------------

    def open(self, name: str, layer: str, **args) -> Span:
        parent = self._stack[-1].index if self._stack else -1
        span = Span(
            name, layer, time.perf_counter(), parent=parent,
            request=self.request, index=len(self.spans), args=args,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str, layer: str, **args):
        s = self.open(name, layer, **args)
        try:
            yield s
        finally:
            self.close(s)

    def add_span(self, name: str, layer: str, start: float, end: float,
                 track: int, parent: int = -1, request: int = -1, **args) -> Span:
        """Record a finished span measured elsewhere (another process)."""
        span = Span(name, layer, start, end, parent=parent, request=request,
                    track=track, index=len(self.spans), args=args)
        self.spans.append(span)
        return span

    def inside(self, prefixes: tuple[str, ...]) -> bool:
        """Whether a span whose name starts with one of ``prefixes`` is open."""
        return any(s.name.startswith(prefixes) for s in self._stack)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    # -- patching --------------------------------------------------------------

    def _wrap(self, fn, patch: Patch):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            s = tracer.open(patch.name, patch.layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(s)
            if patch.on_exit is not None:
                patch.on_exit(tracer, s, args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def install(self):
        """Swap every patch in for the duration of the block."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        try:
            for p in self.patches:
                original = p.owner.__dict__.get(p.attr, _MISSING)
                self._saved.append((p.owner, p.attr, original))
                setattr(p.owner, p.attr, self._wrap(getattr(p.owner, p.attr), p))
            self.installed = True
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
            self.installed = False

    # -- output ----------------------------------------------------------------

    def write_trace(self, path: Path, process_name: str) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": process_name}},
        ]
        for s in self.spans:
            events.append({
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": s.track,
                "ts": (s.start - t0) * 1e6, "dur": max(s.duration, 0.0) * 1e6,
                "args": {"id": s.index, "parent": s.parent, "request": s.request,
                         **s.args},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def layer_budget(spans: list[Span], root_name: str) -> dict[tuple[str, str], float]:
    """Wall seconds inside ``root_name`` spans, keyed by ``(layer, span name)``.

    Charges every instant to the innermost open span (see the module
    docstring); the values sum to the total duration of the roots.
    """
    events = []
    for s in spans:
        if s.end <= s.start:
            continue  # an empty span charges nothing and would never pop
        events.append((s.start, 1, s))
        events.append((s.end, 0, s))  # closes sort before opens at equal times
    events.sort(key=lambda e: (e[0], e[1]))
    stacks: dict[int, list[Span]] = defaultdict(list)
    charged: dict[tuple[str, str], float] = defaultdict(float)
    in_root = 0
    prev = None
    for t, is_open, s in events:
        if prev is not None and in_root and t > prev:
            dt = t - prev
            busy = [st[-1] for tr, st in stacks.items() if tr != MAIN_TRACK and st]
            if busy:
                for b in busy:
                    charged[b.layer, b.name] += dt / len(busy)
            elif stacks[MAIN_TRACK]:
                top = stacks[MAIN_TRACK][-1]
                charged[top.layer, top.name] += dt
        prev = t
        stack = stacks[s.track]
        if is_open:
            stack.append(s)
            if s.track == MAIN_TRACK and s.name == root_name:
                in_root += 1
        else:
            # Spans on one track nest, so the closing span is on top.
            if s in stack:
                stack.remove(s)
            if s.track == MAIN_TRACK and s.name == root_name:
                in_root -= 1
    return dict(charged)


def summarise_budget(charged: dict[tuple[str, str], float]) -> dict[str, float]:
    """Collapse ``(layer, name)`` charges into seconds per layer."""
    out = {layer: 0.0 for layer in LAYERS}
    out[ROOT_LAYER] = 0.0
    for (layer, _name), sec in charged.items():
        out[layer] = out.get(layer, 0.0) + sec
    return out
