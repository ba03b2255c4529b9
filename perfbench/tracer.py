"""Span recorder that wraps the public functions of nacent's modules from outside.

Modules import each other with ``from .x import f``, so a function is bound
under its name in every module that imports it. ``Tracer.install`` rebinds
each original function in every loaded ``nacent`` module namespace to a
wrapper that records a span (name, start, end, parent) and returns a
callable that puts the originals back. ``FiniteGroup.__init__`` is wrapped
too, as ``groups.FiniteGroup``, so that table constructions are counted.

Functions reached through other references, such as a dict of
constructors, run unwrapped; their time counts as self time of the
calling span. Tiny bitset helpers are left unwrapped on purpose: their call
counts (tens of thousands on the catalog sweep) would swamp the overhead.
Spans are kept in memory and reduced by ``summary`` after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from array import array

PACKAGE = "nacent"


class Tracer:
    def __init__(self, layers, untraced):
        self.layers = tuple(layers)
        self.untraced = frozenset(untraced)
        # span i: names[name_ids[i]], starts[i], ends[i], parents[i] (-1 for a root);
        # flat arrays keep the recorder's own memory out of the RSS figures
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        self.table_orders: list[int] = []
        self.rss_after_build_kb = 0

    def wrap(self, name, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args)
            return result

        return traced

    def _record_table(self, args):
        self.table_orders.append(args[0].order)

    def _record_rss(self, args):
        # ru_maxrss is the process high-water mark, not this call's own peak
        self.rss_after_build_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def install(self):
        """Wrap every public function of the layer modules; return the undo."""
        wrappers = {}
        for layer in self.layers:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in self.untraced
                        or not inspect.isfunction(fn) or fn.__module__ != module.__name__):
                    continue
                after = self._record_rss if name == "corpus.build" else None
                wrappers[id(fn)] = (fn, self.wrap(name, fn, after))

        undo = []
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    undo.append((module, attr, value))

        group_cls = importlib.import_module(f"{PACKAGE}.groups").FiniteGroup
        init = group_cls.__init__
        group_cls.__init__ = self.wrap("groups.FiniteGroup", init, self._record_table)
        undo.append((group_cls, "__init__", init))

        def restore():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

        return restore

    def summary(self) -> dict:
        """Reduce the spans to per-layer self time and per-function totals.

        ``self_s`` of a layer sums, over its spans, the span's duration less
        the durations of its direct children. ``incl_s`` of a function sums
        the durations of its outermost calls only (no ancestor span of the
        same name), so recursion is not counted twice.
        """
        names = [self.names[k] for k in self.name_ids]
        durs = [end - start for start, end in zip(self.starts, self.ends)]
        parents = self.parents
        child = [0.0] * len(durs)
        for dur, parent in zip(durs, parents):
            if parent >= 0:
                child[parent] += dur
        self_s = {layer: 0.0 for layer in self.layers}
        incl_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        roots = covered = 0.0
        for i, (name, dur, parent) in enumerate(zip(names, durs, parents)):
            layer = name.split(".", 1)[0]
            self_s[layer] += dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            p = parent
            while p >= 0 and names[p] != name:
                p = parents[p]
            if p < 0:
                incl_s[name] = incl_s.get(name, 0.0) + dur
            if parent < 0:
                roots += dur
            elif layer != "cli" and names[parent].startswith("cli."):
                covered += dur
        return {
            "self_s": self_s,
            "incl_s": incl_s,
            "calls": calls,
            "spans": len(durs),
            # share of the run spent in library layers below the CLI
            "coverage_frac": covered / roots if roots else 0.0,
            "tables": len(self.table_orders),
            "cells": sum(n * n for n in self.table_orders),
            "rss_after_build_kb": self.rss_after_build_kb,
        }
