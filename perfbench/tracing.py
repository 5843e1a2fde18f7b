"""Spans around deflog's public functions, recorded from outside.

`install()` replaces every public function of each `deflog` module, and
every public method of the classes those modules define, with a wrapper
that records calls and self time (the call's time minus the time of
wrapped calls beneath it).  The wrapper is bound wherever
the original object was bound by name: in its defining module, in every
other `deflog` module that imported it, and on its class.  Generator
functions are timed per `next()` and count the items they yield.

Nothing inside deflog is changed or cleared; the wrappers only observe.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types

MODULES = ("parser", "syntax", "interpretation", "evaluator", "truthvalues",
           "vocab", "definitions", "templates", "cli")

# functions whose results' lengths are summed (tokens, value-space sizes)
COUNT_ITEMS = {"parser.tokenize", "vocab.arg_value_space"}


class Stat:
    __slots__ = ("calls", "self_ns", "yielded", "items")

    def __init__(self):
        self.calls = self.self_ns = self.yielded = self.items = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack: list[list[int]] = []  # [start_ns, child_ns] per open span
        self.top_ns = 0  # time inside outermost wrapped calls
        self.reused = 0  # well_founded_model calls returning an earlier object
        # its results by id, kept alive so that no id is reused
        self._returned: dict[int, object] = {}

    def _close(self, st: Stat, frame: list[int], depth: int) -> None:
        del self.stack[depth:]
        dur = time.perf_counter_ns() - frame[0]
        st.self_ns += dur - frame[1]
        if self.stack:
            self.stack[-1][1] += dur
        else:
            self.top_ns += dur

    def wrap(self, name: str, fn):
        st = self.stats.setdefault(name, Stat())
        stack = self.stack
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st.calls += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        depth = len(stack)
                        frame = [clock(), 0]
                        stack.append(frame)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._close(st, frame, depth)
                        st.yielded += 1
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        count_items = name in COUNT_ITEMS
        track_reuse = name == "definitions.well_founded_model"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            depth = len(stack)
            frame = [clock(), 0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(st, frame, depth)
            if count_items:
                st.items += len(out)
            if track_reuse:
                if id(out) in self._returned:
                    self.reused += 1
                else:
                    self._returned[id(out)] = out
            return out

        return wrapper


def _public_callables(mod):
    """(metric name, owner, attribute, raw attribute) for each public
    function of `mod` and public method of the classes it defines."""
    short = mod.__name__.rsplit(".", 1)[-1]
    found = []
    for attr, obj in vars(mod).items():
        if attr.startswith("_"):
            continue
        if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
            found.append((attr, mod, attr, obj))
        elif isinstance(obj, type) and obj.__module__ == mod.__name__:
            for mname, raw in vars(obj).items():
                if mname.startswith("_"):
                    continue
                if isinstance(raw, (types.FunctionType, staticmethod)):
                    found.append((mname, obj, mname, raw))
    # a method is named <module>.<method> unless the name is taken twice
    counts: dict[str, int] = {}
    for base, *_ in found:
        counts[base] = counts.get(base, 0) + 1
    named = []
    for base, owner, attr, raw in found:
        qual = base if counts[base] == 1 or isinstance(owner, types.ModuleType) \
            else f"{owner.__name__}.{base}"
        named.append((f"{short}.{qual}", owner, attr, raw))
    return named


def install(tracer: Tracer) -> None:
    """Wrap deflog's public functions and methods, wherever bound."""
    mods = [sys.modules[f"deflog.{m}"] for m in MODULES]
    package = sys.modules["deflog"]
    replaced: dict[int, object] = {}
    for mod in mods:
        for name, owner, attr, raw in _public_callables(mod):
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = tracer.wrap(name, fn)
            setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            replaced[id(fn)] = wrapped
    # rebind names other deflog modules imported with `from .x import y`
    for mod in [package, *mods]:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
