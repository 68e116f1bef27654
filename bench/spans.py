"""Outside-in span tracing for cwcsim.

The tracer replaces module and class attributes of the installed package
with timing wrappers and restores them afterwards; nothing under src/ is
edited.  Each call through a wrapper records one span (name, start, end,
parent, run id) in flat in-memory arrays, which are written out once at the
end.  A span's self time is its duration minus the durations of its child
spans.

A target whose attribute no longer exists is skipped and its span name
marked absent, and so is a hook that no longer fits the values it is given,
so that metrics built on them are reported as absent rather than failing the
benchmark.
"""
from __future__ import annotations

import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Target:
    """One span name and the (owner, attribute) pairs wrapped to record it.

    hook(tracer, args, result) runs after the span has ended and records
    counts; when hook_span is set its own cost is recorded as a child span
    named "trace.hook" so that it is excluded from the parent's self time.
    new_run gives every span inside the call a fresh run id.
    """

    name: str
    sites: list
    hook: Optional[Callable] = None
    hook_span: bool = False
    new_run: bool = False


@dataclass
class Tracer:
    names: list = field(default_factory=list)
    start: array = field(default_factory=lambda: array("q"))
    end: array = field(default_factory=lambda: array("q"))
    kind: array = field(default_factory=lambda: array("H"))
    parent: array = field(default_factory=lambda: array("q"))
    run: array = field(default_factory=lambda: array("L"))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    results: list = field(default_factory=list)
    absent: set = field(default_factory=set)
    _stack: list = field(default_factory=lambda: [-1])
    _run_id: int = 0
    _runs: int = 0
    _saved: list = field(default_factory=list)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def install(self, targets) -> None:
        for target in targets:
            found = False
            for owner, attr in target.sites:
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                found = True
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, target))
            if not found:
                self.absent.add(target.name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, target: Target):
        name_id = self._name_id(target.name)
        hook_id = self._name_id("trace.hook")
        hook, hook_span, new_run = target.hook, target.hook_span, target.new_run
        starts, ends, kinds, parents, runs = (
            self.start, self.end, self.kind, self.parent, self.run
        )
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def record(kind, parent, t0, t1):
            kinds.append(kind)
            parents.append(parent)
            runs.append(tracer._run_id)
            starts.append(t0)
            ends.append(t1)

        def wrapper(*args, **kwargs):
            if new_run:
                outer_run = tracer._run_id
                tracer._runs += 1
                tracer._run_id = tracer._runs
            idx = len(kinds)
            record(name_id, stack[-1], 0, 0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if new_run:
                    tracer._run_id = outer_run
            if hook is not None:
                h0 = clock()
                try:
                    hook(tracer, args, result)
                except (AttributeError, IndexError, TypeError):
                    # the program's shapes changed under the hook
                    tracer.absent.add(target.name + ":hook")
                if hook_span:
                    record(hook_id, stack[-1], h0, clock())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self):
        """Per span name: (calls, total ns, self ns)."""
        n = len(self.kind)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        total = defaultdict(int)
        own = defaultdict(int)
        for i in range(n):
            name = self.names[self.kind[i]]
            d = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += d
            own[name] += d - child[i]
        return calls, total, own

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("index\tname\tstart_ns\tend_ns\tparent\trun\n")
            names = self.names
            for i in range(len(self.kind)):
                f.write(
                    f"{i}\t{names[self.kind[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.run[i]}\n"
                )
