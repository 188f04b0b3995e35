"""Span tracing of the twistcode modules, installed from outside the package.

install() replaces every public function of each module, and the public
methods of its classes, with a wrapper that records one span per call:
(id, parent id, name, start ns, end ns, pid, count, key).  Nothing under
src/ is edited; the wrappers are rebound wherever the original object is
referenced, so calls inside the package are traced too.

Per-element helpers (field arithmetic on single elements, single random
draws, one point's normalization or class index, the points of one line)
are left unwrapped: a span costs about a microsecond, more than the call
it would measure, and they run millions of times inside the loops of the
functions that are traced (3.4 million normalize_tuple calls in the
PG(3, 9) line enumeration alone).

Spans stay in memory.  Fork-pool sweep workers inherit the tracer; each
worker appends its spans to a file of its own when its outermost span
closes, because the pool stops its workers without running exit hooks.
The owning process writes its spans at the end and merges the workers'.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from pathlib import Path

MODULES = ("gf", "linalg", "projgeom", "gamma", "embedding", "bulk", "code",
           "hyperplanes", "rng", "cli")

PER_ELEMENT = {
    ("FieldCtx", name) for name in
    ("add", "neg", "sub", "mul", "inv", "div", "pow", "digits", "from_digits")
} | {("SplitMix64", "next_u64"), ("SplitMix64", "below")} | {
    ("projgeom", name) for name in
    ("normalize_tuple", "line_through", "class_index", "num_classes")
}


def _lines_key(args, kwargs, result):
    ctx, dim = args[0], args[1] if len(args) > 1 else kwargs["dim"]
    return len(result), f"{ctx.q}:{dim}"


# span name -> (count, key) taken from the call's arguments and result
COUNTERS = {
    "bulk.sweep_chunk": lambda a, k, r: (r["classes"], None),
    "projgeom.enumerate_lines": _lines_key,
}


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.base_depth = 0
        self.seq = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.base_depth = len(self.stack)

    def _open(self) -> tuple[int, int | None]:
        self.seq += 1
        sid = (self.pid << 32) | self.seq
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, count=None, key=None) -> None:
        t1 = time.perf_counter_ns()
        if self.stack and self.stack[-1] == sid:
            self.stack.pop()
        elif sid in self.stack:
            self.stack.remove(sid)
        self.spans.append([sid, parent, name, t0, t1, self.pid, count, key])
        if self.pid != self.owner and len(self.stack) <= self.base_depth:
            self._flush(self.out_dir / f"spans-{self.pid}.jsonl")

    def _flush(self, path: Path) -> None:
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        self.spans = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                sid, parent = self._open()
                t0 = time.perf_counter_ns()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(sid, parent, name, t0)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter_ns()
            count = key = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count, key = counter(args, kwargs, result)
                return result
            finally:
                self._close(sid, parent, name, t0, count, key)
        return wrapper

    def install(self) -> None:
        """Wrap the public callables of every twistcode module."""
        pkg = importlib.import_module("twistcode")
        mods = [importlib.import_module(f"twistcode.{m}") for m in MODULES]
        swap: dict[int, tuple] = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if (mname.startswith("_")
                                or not inspect.isfunction(meth)
                                or (obj.__name__, mname) in PER_ELEMENT):
                            continue
                        setattr(obj, mname, self.wrap(
                            f"{short}.{obj.__name__}.{mname}", meth))
                elif (short, name) in PER_ELEMENT:
                    continue
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    swap[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj))
        for mod in [pkg] + mods:
            for name, obj in list(vars(mod).items()):
                hit = swap.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def collect(self) -> list[list]:
        """Write this process's spans, then return them with the workers'."""
        self._flush(self.out_dir / "spans-main.jsonl")
        spans = []
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh)
        return spans


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, total seconds, self seconds, summed counts.

    Self time is a span's duration minus the part of its interval that its
    child spans cover.  Children in sweep workers overlap one another, so
    the union is taken, and a module's self time summed over processes
    can exceed the wall time of a parallel sweep.
    """
    kids: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _n, t0, t1, *_ in spans:
        if parent is not None:
            kids.setdefault(parent, []).append((t0, t1))
    out: dict[str, dict] = {}
    for sid, _p, name, t0, t1, _pid, count, key in spans:
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "count": 0, "keyed": {}})
        dur = t1 - t0
        rec["calls"] += 1
        rec["total_s"] += dur / 1e9
        rec["self_s"] += (dur - _covered(kids.get(sid, []), t0, t1)) / 1e9
        if key is not None:        # a cached result: count it once per key
            rec["keyed"][key] = count
        elif count is not None:
            rec["count"] += count
    for rec in out.values():
        rec["count"] += sum(rec.pop("keyed").values())
    return out
