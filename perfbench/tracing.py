"""Spans around calls into permscan's layers, recorded from outside.

The tracer replaces public functions of permscan's modules with wrappers
that record one span per call: name, start, end, parent span, run id and
the op (request) the call served.  Spans stay in memory and are written as
JSON lines when the run ends.  Wrappers also read the counters a call
returns (avoider counts, host tallies, ``stats`` work counters), so per-layer
counts are taken where the work happens.  ``stats`` dicts are passed only in
traced runs and never change a result.

permcore is not wrapped: the engines call it through names bound at import,
so its cost is part of the self time of avoiders and counting.  oracle
serves only the checks, which run outside the timed ops.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable


def _tally_hosts(tally) -> int:
    return sum(sum(level.values()) for level in tally.by_length.values())


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.op: Any = "setup"
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._modules: list = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             after: Callable[[Any, tuple, dict, dict], None] | None = None):
        sid = len(self.spans)
        span = {"id": sid, "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id, "op": self.op, "name": name}
        self.spans.append(span)
        self._stack.append(sid)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            attrs: dict = {}
            after(result, args, kwargs, attrs)
            span["attrs"] = attrs
        return result

    def wrap(self, name: str, fn: Callable, after=None, stats: bool = False) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if stats and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            return tracer.call(name, fn, args, kwargs, after)

        return traced

    def patch(self, owner, attr: str, name: str, after=None, stats: bool = False) -> None:
        """Replace function ``attr`` of module ``owner``, and the same
        function wherever another permscan module imported it by name."""
        fn = getattr(owner, attr)
        traced = self.wrap(name, fn, after, stats)
        for mod in self._modules:
            if getattr(mod, attr, None) is fn:
                setattr(mod, attr, traced)

    def patch_classmethod(self, cls, attr: str, name: str, after=None) -> None:
        func = cls.__dict__[attr].__func__
        tracer = self

        def traced(klass, *args, **kwargs):
            return tracer.call(name, func, (klass,) + args, kwargs, after)

        setattr(cls, attr, classmethod(traced))

    def install(self) -> None:
        """Wrap the public entry points of cli, avoiders, counting,
        vincular and sequences."""
        from permscan import avoiders, cli, counting, sequences, vincular

        self._modules = [cli, avoiders, counting, sequences, vincular]

        def perms(result, args, kwargs, attrs):
            attrs["perms"] = sum(result)
            attrs["wide"] = args[0].layout.bits > 4

        def hosts(result, args, kwargs, attrs):
            attrs["hosts"] = _tally_hosts(result)
            attrs.update(kwargs.get("stats") or {})

        def flag(key):
            def after(result, args, kwargs, attrs):
                attrs[key] = result is not None
            return after

        def entries(result, args, kwargs, attrs):
            attrs["entries"] = len(result)

        def out_bytes(result, args, kwargs, attrs):
            argv = args[0] if args else kwargs.get("argv")
            if argv and "--out" in argv:
                attrs["out_bytes"] = os.path.getsize(argv[argv.index("--out") + 1])

        self.patch(cli, "main", "cli.main", out_bytes)
        self.patch(avoiders, "count_avoiders_fast", "avoiders.count_avoiders_fast", perms)
        self.patch_classmethod(avoiders.PatternSet, "build", "avoiders.PatternSet.build")
        raw_enumerate = avoiders.enumerate_avoiders_fast

        def enumerate_avoiders_fast(pat, n, sink):
            records = [0]

            def counting_sink(rec):
                records[0] += 1
                sink(rec)

            def after(result, args, kwargs, attrs):
                attrs["records"] = records[0]

            return self.call("avoiders.enumerate_avoiders_fast", raw_enumerate,
                             (pat, n, counting_sink), {}, after)

        avoiders.enumerate_avoiders_fast = enumerate_avoiders_fast
        self.patch(counting, "count_all", "counting.count_all", hosts)
        self.patch(counting, "count_all_lowmem", "counting.count_all_lowmem", hosts, stats=True)
        self.patch(counting, "count_single_fast", "counting.count_single_fast", hosts,
                   stats=True)
        self.patch(vincular, "covincular_count_all", "vincular.covincular_count_all", hosts,
                   stats=True)
        self.patch_classmethod(sequences.OeisDb, "load", "sequences.OeisDb.load", entries)
        self.patch(sequences, "count_symmetry_classes", "sequences.count_symmetry_classes")
        self.patch(sequences, "growth_degree", "sequences.growth_degree", flag("filtered"))
        self.patch(sequences, "oeis_match", "sequences.oeis_match", flag("hit"))
        self.patch(sequences, "mine", "sequences.mine")
        self.patch(sequences, "write_report", "sequences.write_report")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover (calls
    are single-threaded and properly nested, so children never overlap)."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
