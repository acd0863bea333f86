"""Spans around the apw library's public functions, recorded from outside.

``Tracer.install`` replaces every binding of a public library function in
memory (the package namespace and each module that imported the name, so
``decide.check_k_anti_power`` is caught as well as
``antipower.check_k_anti_power``) with a wrapper that records a span:
name, start, end, parent span and op id.  Spans stay in memory until the
run ends.  A generator function such as ``enumerate_k_anti_power`` gets one
span per resumption, so its time is the time spent inside it between
yields.  ``uninstall`` restores the original bindings.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

# Inputs shorter than this go to the library's slice scanner today; the
# split is by input length so it keeps its meaning if the scanner changes.
SHORT_WORD = 192

LIBRARY_MODULES = ("words", "antipower", "morphisms", "decide")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[str]


def span_name(module: str, function: str, args: tuple) -> str:
    if function == "check_k_anti_power":
        return "antipower.check.short" if len(args[0]) < SHORT_WORD else "antipower.check.long"
    if function == "enumerate_k_anti_power":
        return "antipower.enumerate"
    return f"{module}.{function}"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._saved: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def wrap(self, module: str, function: str, fn: Callable) -> Callable:
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                name = span_name(module, function, args)
                tracer.counts[f"{name}.calls"] += 1
                inner = fn(*args, **kwargs)

                def resumed():
                    while True:
                        index = tracer.open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.close(index)
                        tracer.counts[f"{name}.yields"] += 1
                        yield item

                return resumed()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name(module, function, args)
            tracer.counts[f"{name}.calls"] += 1
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.observe(name, args, result)
            return result

        return traced

    def observe(self, name: str, args: tuple, result) -> None:
        """Counts that need a call's arguments or result.

        Every Decision a ``decide.*`` call returns is counted, so the square-free
        test that ``decide_3_anti_power`` runs inside adds its own verdict.
        """
        if name.startswith("antipower.check."):
            self.counts[f"{name}.letters"] += len(args[0])
            self.counts["antipower.check.no"] += result is not None
        elif name == "morphisms.apply":
            self.counts["morphisms.apply.letters_out"] += len(result)
        elif name.startswith("decide.") and hasattr(result, "verdict"):
            self.counts[f"decide.verdicts.{result.verdict}"] += 1

    def install(self, package) -> None:
        """Wrap every binding of a public library function reachable from ``package``."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LIBRARY_MODULES + ("cli",)}
        owners = [package, *modules.values()]
        originals: Dict[int, tuple] = {}
        for m in LIBRARY_MODULES:
            module = modules[m]
            for function, fn in vars(module).items():
                if (
                    not function.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    originals[id(fn)] = (m, function, fn)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                found = originals.get(id(value))
                if found is not None:
                    self._saved.append((owner, attr, value))
                    setattr(owner, attr, self.wrap(*found))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def layer_totals(spans: List[Span], own: Optional[List[float]] = None) -> Dict[str, float]:
    """Self seconds summed by span name; ``own`` is ``self_times(spans)`` if already known."""
    totals: Dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, self_times(spans) if own is None else own):
        totals[span.name] += seconds
    return dict(totals)


def accounted(spans: List[Span], own: List[float], wall: float) -> tuple:
    """(layer seconds, seconds between ops) of a traced stretch ``wall`` seconds long.

    Root spans are ops; every span below one is a layer, and layer seconds are
    their self times.  Seconds between ops is the time no op span covers: the
    benchmark's own loop.  The two fall short of ``wall`` by the time an op
    spends outside every layer: its dispatch, or a library function that
    ``install`` did not wrap.
    """
    in_ops = sum(span.end - span.start for span in spans if span.parent is None)
    layers = sum(seconds for span, seconds in zip(spans, own) if span.parent is not None)
    return layers, wall - in_ops


def count_within(spans: List[Span], child_prefix: str, ancestor_prefix: str) -> int:
    """Spans named child_prefix* with some ancestor named ancestor_prefix*."""
    total = 0
    for span in spans:
        if not span.name.startswith(child_prefix):
            continue
        parent = span.parent
        while parent is not None:
            if spans[parent].name.startswith(ancestor_prefix):
                total += 1
                break
            parent = spans[parent].parent
    return total
