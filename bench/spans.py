"""In-memory span recorder for the traced run.

A span has a name, a tag (the label of the operation it ran under, unless
the wrapper derives one from the call's arguments), a start, an end and the
span that was open when it started.  Self time is the span's duration minus
the durations of its direct children, which is exact here because the run is
single-threaded and spans nest.  Spans stay in memory and are written out
once, when the run ends.

A function called millions of times, such as a constructor, can be wrapped
as a leaf: its calls are summed into a count and a total time instead of one
record each, and still count as children time of the span that made them.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from time import perf_counter_ns


class SpanRecorder:
    def __init__(self) -> None:
        self.tag = ""
        self._names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._tags: list[str] = []
        self._tag_id: dict[str, int] = {}
        self.name = array("l")
        self.tag_of = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self._open: list[int] = []
        self._child_ns: list[int] = []
        self._calls: dict[str, int] = {}
        self._self_total: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def _intern(self, table: list[str], ids: dict[str, int], key: str) -> int:
        idx = ids.get(key)
        if idx is None:
            idx = ids[key] = len(table)
            table.append(key)
        return idx

    def open(self, name: str, tag: str | None = None) -> int:
        idx = len(self.start)
        self.name.append(self._intern(self._names, self._name_id, name))
        self.tag_of.append(
            self._intern(self._tags, self._tag_id, self.tag if tag is None else tag)
        )
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0)
        self.self_ns.append(0)
        self._open.append(idx)
        self._child_ns.append(0)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter_ns()
        assert self._open.pop() == idx, "spans must nest"
        dur = end - self.start[idx]
        own = dur - self._child_ns.pop()
        self.end[idx] = end
        self.self_ns[idx] = own
        self._add(self._names[self.name[idx]], own, dur)

    def _add(self, name: str, own: int, dur: int) -> None:
        self._calls[name] = self._calls.get(name, 0) + 1
        self._self_total[name] = self._self_total.get(name, 0) + own
        if self._child_ns:
            self._child_ns[-1] += dur

    def wrap(self, owner, attr: str, name: str, tag_of=None, count_of=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``tag_of(*args, **kwargs)``, when given, names the span's tag from
        the call's arguments instead of the current operation label.
        ``count_of(result)``, when given, adds a count of the work a call
        returned to ``counts[name]``.
        """
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(name, None if tag_of is None else tag_of(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if count_of is not None:
                rec.counts[name] = rec.counts.get(name, 0) + count_of(result)
            return result

        setattr(owner, attr, traced)

    def wrap_leaf(self, owner, attr: str, name: str) -> None:
        """Like ``wrap``, for a function that calls nothing traced: sums only."""
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                rec._add(name, dur, dur)

        setattr(owner, attr, traced)

    # --- summaries ------------------------------------------------------

    def durations_ms(self, name: str, keep=lambda tag: True) -> list[float]:
        nid = self._name_id.get(name)
        if nid is None:
            return []
        tags = self._tags
        return [
            (self.end[i] - self.start[i]) / 1e6
            for i in range(len(self.start))
            if self.name[i] == nid and keep(tags[self.tag_of[i]])
        ]

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def self_ms(self, name: str) -> float:
        return self._self_total.get(name, 0) / 1e6

    def p50_ms(self, name: str, keep=lambda tag: True) -> float:
        values = self.durations_ms(name, keep)
        return statistics.median(values) if values else 0.0

    def write(self, path) -> None:
        """One line per span: id, parent, name, tag, start, end, self (ns).

        A closing block gives calls and self time per name, leaves included.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\ttag\tstart_ns\tend_ns\tself_ns\n")
            names, tags = self._names, self._tags
            for i in range(len(self.start)):
                fh.write(
                    "%d\t%d\t%s\t%s\t%d\t%d\t%d\n"
                    % (
                        i,
                        self.parent[i],
                        names[self.name[i]],
                        tags[self.tag_of[i]],
                        self.start[i],
                        self.end[i],
                        self.self_ns[i],
                    )
                )
            fh.write("\nname\tcalls\tself_ns\n")
            for name in sorted(self._calls):
                fh.write("%s\t%d\t%d\n" % (name, self._calls[name], self._self_total[name]))
