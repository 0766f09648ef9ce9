"""Run one matlift CLI job in this process with every public layer boundary
traced.

    python3 perfbench/tracer.py STATS_JSON JOB_ID -- <matlift arguments>

The benchmark's own code wraps the public functions and methods of
``matlift.core``, ``krt``, ``gf``, ``lifts``, ``gain``, ``groups`` and ``io``
(and ``matlift.cli.main`` as the job's root span), rebinding every name in
a ``matlift`` module that refers to a wrapped function, so calls made
through ``from ... import`` bindings are seen too.  Then it calls
``matlift.cli.main(argv)``, writes per-function counts, inclusive and self
times and the recorded spans to STATS_JSON, and exits with the CLI's exit
code.  Nothing in ``matlift`` itself changes.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

MODULES = ("core", "krt", "gf", "lifts", "gain", "groups", "io")

# Bit-mask and group-table helpers that run millions of times per job and
# do less work than a wrapper would add.  Their time is self time of the
# caller.
SKIP = {
    "core.mask_of",
    "core.elements_of",
    "core.one_based",
    "core.subsets_of_size",
    "core.submasks",
    "core.canonical_circuits",
    "groups.FinGroup.mul",
    "groups.FinGroup.inv",
}

# Rank oracles get a miss count: the first sight of a (matroid, mask) pair,
# observed from outside the memo.
RANK_ORACLES = {"core.Matroid.rank", "gf.LinearMatroid.rank"}

# Spans are recorded for the first SPAN_CAP calls of each name in a job;
# later calls of hot leaves are aggregated into the counts and times only.
SPAN_CAP = 200


class Tracer:
    """Per-name counts and times plus a bounded span list, kept in memory."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.stats: dict[str, dict] = {}
        self.spans: list[dict] = []
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self._span_count: dict[str, int] = {}
        self._next_id = 0
        self._seen: dict[int, tuple[object, set]] = {}

    def stat(self, name: str) -> dict:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        return st

    def enter(self, name: str) -> list:
        self._open[name] = self._open.get(name, 0) + 1
        parent = self._stack[-1] if self._stack else None
        recorded_parent = parent[4] if parent else None
        span_id = None
        if self._span_count.get(name, 0) < SPAN_CAP:
            self._span_count[name] = self._span_count.get(name, 0) + 1
            self._next_id += 1
            span_id = self._next_id
        # frame: name, start, time in children, own span id, nearest
        # recorded span (itself or an ancestor), recorded parent span
        frame = [name, 0.0, 0.0, span_id, span_id or recorded_parent, recorded_parent]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame: list, *, call: bool = True) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, child = frame[0], frame[1], frame[2]
        dur = end - start
        st = self.stat(name)
        if call:
            st["calls"] += 1
        st["self_s"] += dur - child
        self._open[name] -= 1
        if self._open[name] == 0:
            st["s"] += dur  # inclusive time counts the outermost call only
        if self._stack:
            self._stack[-1][2] += dur
        if frame[3] is not None:
            self.spans.append({"id": frame[3], "name": name, "start": start, "end": end,
                               "parent": frame[5], "job": self.job_id})

    def count(self, name: str, key: str, by: int = 1) -> None:
        st = self.stat(name)
        st[key] = st.get(key, 0) + by

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        tracer = self

        if name in RANK_ORACLES:
            seen = self._seen

            def traced(obj, mask):
                entry = seen.get(id(obj))
                if entry is None:
                    # holding obj keeps its id from being reused
                    entry = seen[id(obj)] = (obj, set())
                if mask not in entry[1]:
                    entry[1].add(mask)
                    tracer.count(name, "misses")
                frame = tracer.enter(name)
                try:
                    return fn(obj, mask)
                finally:
                    tracer.exit(frame)
        elif name == "core.Matroid.init":

            def traced(obj, *args, **kwargs):
                frame = tracer.enter(name)
                try:
                    fn(obj, *args, **kwargs)
                finally:
                    tracer.exit(frame)
                tracer.count(name, "circuits", len(obj.circuits))
        else:

            def traced(*args, **kwargs):
                frame = tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit(frame)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _wrap_generator(self, name: str, fn):
        """Times each resumption; counts creations as calls and yields as
        items."""
        tracer = self

        def traced(*args, **kwargs):
            tracer.stat(name)["calls"] += 1
            gen = fn(*args, **kwargs)
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame, call=False)
                tracer.count(name, "items")
                yield item

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> None:
    """Wrap the public surface of the traced modules in place."""
    replaced: dict = {}
    for short in MODULES:
        mod = importlib.import_module(f"matlift.{short}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and f"{short}.{attr}" not in SKIP:
                replaced[obj] = tracer.wrap(f"{short}.{attr}", obj)
            elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                  and not getattr(obj, "_is_protocol", False)):
                _install_class(tracer, short, obj)
    cli = importlib.import_module("matlift.cli")
    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "matlift"]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    cli.main = tracer.wrap("cli.main", cli.main)


def _install_class(tracer: Tracer, short: str, cls: type) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr == "__init__" and not dataclasses.is_dataclass(cls):
            label = "init"
        elif attr.startswith("_"):
            continue
        else:
            label = attr
        name = f"{short}.{cls.__name__}.{label}"
        if name in SKIP:
            continue
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(cls, attr, type(raw)(tracer.wrap(name, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(name, raw))


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print("usage: tracer.py STATS_JSON JOB_ID -- <matlift arguments>", file=sys.stderr)
        return 2
    stats_path, job_id, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[4:]
    tracer = Tracer(job_id)
    install(tracer)
    import matlift.cli

    t0 = perf_counter()
    code = matlift.cli.main(argv)
    wall = perf_counter() - t0
    stats_path.write_text(json.dumps(
        {"job": job_id, "wall_s": wall, "stats": tracer.stats, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
