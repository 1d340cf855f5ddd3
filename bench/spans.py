"""In-memory spans recorded around calls into the program's layers.

The wrappers live in the benchmark and replace module attributes for the
duration of a traced op; nothing inside tunav is instrumented. Each thread
keeps its own stack of open spans. A span opened on a thread whose stack is
empty (a worker of the driver's thread pool) takes as parent the innermost
span open on the thread that created the tracer, which is blocked in the
call that started the pool while the workers run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float  # perf_counter seconds
    end: float = 0.0
    thread: int = 0
    cpu_ms: float = 0.0  # CPU time of the span's thread during the span
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._main_stack: list[Span] = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        top = stack or self._main_stack
        parent = top[-1].id if top else None
        with self._lock:
            sp = Span(len(self.spans), parent, name, 0.0,
                      thread=threading.get_ident())
            self.spans.append(sp)
        stack.append(sp)
        cpu0 = time.thread_time()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.cpu_ms = (time.thread_time() - cpu0) * 1000.0
            stack.pop()

    def wrap(self, fn, name: str, measure=None):
        """`fn` recording a span per call; `measure(result)` returns counts
        stored on the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if measure is not None:
                sp.counts = measure(result)
            return result
        return traced

    def self_ms(self) -> dict[int, float]:
        """Span id -> duration minus the part of it that child spans cover.
        Children on pool threads overlap, so their intervals are merged."""
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        out = {}
        for sp in self.spans:
            covered = 0.0
            lo = hi = None
            for c in sorted(children.get(sp.id, ()), key=lambda c: c.start):
                s, e = max(c.start, sp.start), min(c.end, sp.end)
                if e <= s:
                    continue
                if hi is None or s > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = s, e
                else:
                    hi = max(hi, e)
            if hi is not None:
                covered += hi - lo
            out[sp.id] = (sp.end - sp.start - covered) * 1000.0
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(sp) for sp in self.spans], fh)


@contextlib.contextmanager
def patched(module, name: str, replacement):
    """Replace `module.name` inside the block."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)
