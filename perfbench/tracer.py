#!/usr/bin/env python3
"""Run one `treegrowth` CLI job in this process with timing wrappers around
the public functions of each layer, then write what they recorded as JSON.

Usage: python3 perfbench/tracer.py SPANS_FILE CLI_ARG...

The CLI arguments are those of `treegrowth` itself (for example
`spheres --config perfbench/configs/fg.json --max-radius 9 --out x.csv`);
the exit code is the CLI's.  `treegrowth` must be importable, so run it
with `src` on PYTHONPATH.

Every call of a wrapped function becomes a span [name, start, end, parent,
extra].  `Engine.mul` and `Engine.inv` are called millions of times, so
their calls are folded into one aggregate per (name, parent span) instead:
[name, parent, calls, seconds, memo hits, new ids].  The root span is
`cli.main`.  GC pauses are timed through `gc.callbacks`, and the engines'
public sizes are read when the job ends.
"""

import functools
import gc
import json
import os
import sys
from time import perf_counter

from treegrowth import cli, criterion, family, growth, incompressible, store
from treegrowth.engine import Engine

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes():
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.hot = {}
        self.engines = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        """Wrapper recording one span per call.  `before(args)` runs ahead
        of the span; `after(args, result, before_value)` gives its extra."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args) if before else None
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after:
                span[4] = after(args, result, pre)
            return result
        return traced

    def _slot(self, name):
        key = (name, self.stack[-1])
        slot = self.hot.get(key)
        if slot is None:
            slot = self.hot[key] = [0, 0.0, 0, 0]
        return slot

    def hot_mul(self, fn):
        slot = self._slot

        @functools.wraps(fn)
        def mul(eng, c, u, v, store=True):
            hit = u != 0 and v != 0 and (c, u, v) in eng.mul_memo
            ids = eng.n_ids
            t0 = perf_counter()
            r = fn(eng, c, u, v, store)
            t1 = perf_counter()
            s = slot("engine.mul")
            s[0] += 1
            s[1] += t1 - t0
            s[2] += hit
            s[3] += eng.n_ids - ids
            return r
        return mul

    def hot_inv(self, fn):
        slot = self._slot

        @functools.wraps(fn)
        def inv(eng, c, u):
            hit = u != 0 and (c, u) in eng.inv_memo
            ids = eng.n_ids
            t0 = perf_counter()
            r = fn(eng, c, u)
            t1 = perf_counter()
            s = slot("engine.inv")
            s[0] += 1
            s[1] += t1 - t0
            s[2] += hit
            s[3] += eng.n_ids - ids
            return r
        return inv

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_t0
            self.gc_collections += 1

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap each layer's public functions, wherever they are bound."""
        def rebind(module, attr, wrapper):
            orig = getattr(module, attr)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("treegrowth"):
                    for k, v in list(vars(mod).items()):
                        if v is orig:
                            setattr(mod, k, wrapper)

        def ball(args, table, rss):
            return {"elements": sum(len(s) for s in table.spheres),
                    "rss_growth": _rss_bytes() - rss}

        functions = [
            (growth, "enumerate_spheres", "growth.enumerate_spheres",
             lambda args: _rss_bytes(), ball),
            (incompressible, "approximate_I_infty",
             "incompressible.approximate_I_infty", None, None),
            (incompressible, "factorization_dp",
             "incompressible.factorization_dp", None,
             lambda args, res, pre: {"reached": len(res[0])}),
            (criterion, "run_criterion", "criterion.run_criterion", None, None),
            (criterion, "pair_factors", "criterion.pair_factors", None, None),
            (criterion, "theorem_hypotheses_report",
             "criterion.theorem_hypotheses_report", None, None),
            (store, "load_config", "store.load_config", None, None),
            (store, "build_spec", "store.build_spec", None, None),
            (family, "validate", "family.validate", None, None),
            (cli, "main", "cli.main", None, None),
        ]
        for module, attr, name, before, after in functions:
            rebind(module, attr,
                   self.span(name, getattr(module, attr), before, after))

        def keep_engine(args, result, pre):
            self.engines.append(args[0])
        Engine.__init__ = self.span("engine.init", Engine.__init__,
                                    after=keep_engine)
        Engine.gen_id = self.span("engine.gen_id", Engine.gen_id)
        Engine.mul = self.hot_mul(Engine.mul)
        Engine.inv = self.hot_inv(Engine.inv)
        gc.callbacks.append(self._gc)

    def dump(self, path, rc):
        record = {
            "rc": rc,
            "spans": self.spans,
            "hot": [[name, parent] + vals
                    for (name, parent), vals in self.hot.items()],
            "engines": [{"ids": e.n_ids, "mul_memo": len(e.mul_memo),
                         "inv_memo": len(e.inv_memo),
                         "roots": [len(t.roots) for t in e.tables]}
                        for e in self.engines],
            "gc": {"s": self.gc_s, "collections": self.gc_collections},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def main(argv):
    path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    rc = cli.main(cli_argv)
    gc.callbacks.remove(tracer._gc)
    tracer.dump(path, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
