"""Call-site tracer for the traced benchmark run.

The package imports names directly (``engine.simulate_path``,
``cli.run_monte_carlo``, ``config.validate_params``, ...), so a function is
wrapped at every module-level binding that refers to it, not only in the
module that defines it.  :meth:`Tracer.restore` puts every binding back and
reports any that it could not.

Spans are kept in memory (name, start, end, parent, thread id) and written
out by the caller when the run ends.  A span opened on a thread with no open
span of its own (a pool thread of ``run_monte_carlo``) takes as parent the
innermost open span of the thread that opened the current command, which is
the span that thread is blocked in while the pool works.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

COMMAND = "command"


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    parent: int | None
    tid: int
    command: int | None
    t0: float
    t1: float
    cpu: float  # CPU seconds of the span's own thread between t0 and t1
    ok: bool  # False when the call raised
    note: Any = None  # value of the target's ``note`` hook on success
    mem: int | None = None  # tracemalloc peak above the start, in bytes

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``owner`` is the module that defines the function, or the class for a
    method.  ``note(args, kwargs, result)`` is evaluated after the span's end
    time is taken, so its cost falls to the parent span.  ``memory`` asks for
    the tracemalloc peak of each call while memory tracing is on.
    """

    name: str
    owner: Any
    attr: str
    note: Callable | None = None
    memory: bool = False


class Tracer:
    def __init__(self, targets, scope):
        self.targets = tuple(targets)
        self.scope = tuple(scope)  # modules whose bindings are rewritten
        self.spans: list[Span] = []
        self.trace_memory = False
        self._ids = itertools.count()
        self._commands = itertools.count()
        self._command: int | None = None
        self._owner_stack: list[int] | None = None
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- bindings ---------------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            original = vars(target.owner)[target.attr]
            wrapper = self._wrap(target, original)
            namespaces = [target.owner] if isinstance(target.owner, type) else self.scope
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))

    def restore(self) -> list[str]:
        """Put every patched binding back; return the ones still not original."""
        patched, self._patched = self._patched, []
        for ns, attr, original in reversed(patched):
            setattr(ns, attr, original)
        return [
            f"{getattr(ns, '__name__', ns)}.{attr}"
            for ns, attr, original in patched
            if vars(ns).get(attr) is not original
        ]

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(target.name, fn, args, kwargs, target.note, target.memory)

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    # -- spans ------------------------------------------------------------

    def command(self, label: str, fn, *args):
        """Run ``fn(*args)`` as the root span of a new command labelled ``label``."""
        self._owner_stack = self._stack()
        self._command = next(self._commands)
        return self._call(COMMAND, fn, args, {}, lambda *_: label, False)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, note, memory):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        sid = next(self._ids)
        stack.append(sid)
        mem_base = None
        if memory and self.trace_memory:
            tracemalloc.reset_peak()
            mem_base = tracemalloc.get_traced_memory()[0]
        ok = False
        result = None
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            mem = None if mem_base is None else tracemalloc.get_traced_memory()[1] - mem_base
            self.spans.append(
                Span(
                    sid=sid,
                    name=name,
                    parent=parent,
                    tid=threading.get_ident(),
                    command=self._command,
                    t0=t0,
                    t1=t1,
                    cpu=c1 - c0,
                    ok=ok,
                    note=note(args, kwargs, result) if note is not None and ok else None,
                    mem=mem,
                )
            )


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover.

    Children running in parallel threads overlap; their union is subtracted
    once.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        end = span.t0
        for lo, hi in sorted((max(c.t0, span.t0), min(c.t1, span.t1)) for c in children[span.sid]):
            lo = max(lo, end)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[span.sid] = span.dur - covered
    return out
