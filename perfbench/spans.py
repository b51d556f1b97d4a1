"""Wall-clock spans recorded from outside the program, and their self times.

The benchmark never edits ``src/``.  To see where an operation's time
goes it rebinds the module and class attributes the orchestrators look
up at call time (``repro.fabric.nxmap.place``, ``DiskStore.get``...) to
timing wrappers, and puts the originals back when the run ends
(:class:`Patcher`).  Each wrapper opens a :class:`Span` on the calling
thread; spans are kept in memory under a lock and written out at exit.

Self time of a span is its duration minus the part of that interval its
children cover, children on other threads included (a worker thread's
shard run is a child of the dispatcher span that was open when it
started).  Per-run callbacks that fire tens of thousands of times are
not spans: :meth:`Recorder.timed` sums their time and call count, and
charges the time to the enclosing span so its self time stays exact.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    """One timed call: ``[start, end)`` in ``perf_counter_ns`` units.

    ``op`` is the benchmark operation the span belongs to; a span opened
    inside another span on the same thread inherits it through
    ``thread_parent``.  A thread's outermost span takes the recorder's
    active op, or has it set later by correlation (:meth:`Recorder.
    claim`), e.g. when an HTTP handler learns which request it serves.
    """

    __slots__ = ("name", "start", "end", "thread", "op", "thread_parent",
                 "agg_ns", "is_root")

    def __init__(self, name: str, start: int, thread: int,
                 op: Optional[int], thread_parent: Optional["Span"],
                 is_root: bool = False) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        self.op = op
        self.thread_parent = thread_parent
        self.agg_ns = 0
        self.is_root = is_root


class Recorder:
    """Thread-safe in-memory span and counter store."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        #: The op every outermost span joins when nothing else claims
        #: it; set by workloads that run one op at a time.
        self.active_op: Optional[int] = None
        #: False while the harness checks outputs: wrappers pass through.
        self.on = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._timers: List[Dict[str, List[int]]] = []
        self._links: Dict[Any, Any] = {}

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name: str, op: Optional[int] = None,
              is_root: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is None:
            op = self.active_op
        span = Span(name, time.perf_counter_ns(), threading.get_ident(),
                    op, parent, is_root)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        if not self.on:
            yield None
            return
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    @contextmanager
    def op(self, op_id: int, current: bool = True) -> Iterator[Span]:
        """The root span of one benchmark operation.

        With ``current`` the op is also the recorder's active op, so
        outermost spans on pool threads join it; concurrent clients pass
        ``current=False`` and correlate server-side spans explicitly.
        """
        if current:
            self.active_op = op_id
        root = self.begin("op", op=op_id, is_root=True)
        try:
            yield root
        finally:
            self.end(root)
            if current:
                self.active_op = None

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Wrappers call straight through (the harness's own checks)."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    def claim(self, op_id: Optional[int]) -> None:
        """Assign the calling thread's outermost open span to ``op_id``."""
        stack = self._stack()
        if stack and op_id is not None:
            stack[0].op = op_id

    def link(self, token: Any, value: Any) -> None:
        """Remember ``value`` under ``token`` for another thread to find."""
        with self._lock:
            self._links[token] = value

    def linked(self, token: Any) -> Any:
        with self._lock:
            return self._links.get(token)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        """``fn`` timed as a span; ``on_result`` sees each return value."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.on:
                return fn(*args, **kwargs)
            span = recorder.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(span)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def timed(self, fn: Callable, name: str) -> Callable:
        """``fn`` timed as a sum + call count (for hot per-run callbacks).

        The time is charged to the caller's open span (``agg_ns``), so
        that span's self time excludes it exactly: the callback runs on
        the caller's thread and overlaps none of its other children.
        """
        recorder = self
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not recorder.on:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                try:
                    totals = local.timers
                except AttributeError:
                    totals = local.timers = {}
                    with recorder._lock:
                        recorder._timers.append(totals)
                total = totals.get(name)
                if total is None:
                    total = totals[name] = [0, 0]
                total[0] += elapsed
                total[1] += 1
                stack = getattr(local, "stack", None)
                if stack:
                    stack[-1].agg_ns += elapsed

        return timed

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def timer_totals(self) -> Dict[str, Tuple[int, int]]:
        """``name -> (ns, calls)`` over every thread's timed callbacks."""
        merged: Dict[str, List[int]] = {}
        with self._lock:
            for totals in self._timers:
                for name, (ns, calls) in list(totals.items()):
                    slot = merged.setdefault(name, [0, 0])
                    slot[0] += ns
                    slot[1] += calls
        return {name: (ns, calls) for name, (ns, calls) in merged.items()}

    # -- export ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every finished span as JSON (times relative, in ns)."""
        with self._lock:
            spans = list(self.spans)
        base = min((span.start for span in spans), default=0)
        threads: Dict[int, int] = {}
        index = {id(span): i for i, span in enumerate(spans)}
        records = []
        for span in spans:
            parent = span.thread_parent
            records.append({
                "name": span.name,
                "start_ns": span.start - base,
                "end_ns": span.end - base,
                "thread": threads.setdefault(span.thread, len(threads)),
                "op": resolve_op(span),
                "thread_parent": (index.get(id(parent))
                                  if parent is not None else None),
                "timed_children_ns": span.agg_ns,
            })
        payload = {"spans": records,
                   "timed": {name: {"ns": ns, "calls": calls}
                             for name, (ns, calls)
                             in sorted(self.timer_totals().items())},
                   "counts": dict(sorted(self.counts.items()))}
        with open(path, "w") as handle:
            json.dump(payload, handle)


class NullRecorder:
    """What the workloads talk to when tracing is off: records nothing."""

    on = False

    def span(self, name: str):
        return nullcontext()

    def op(self, op_id: int, current: bool = True):
        return nullcontext()

    def paused(self):
        return nullcontext()

    def link(self, token: Any, value: Any) -> None:
        pass


def resolve_op(span: Span) -> Optional[int]:
    """The op of a span: its thread-outermost ancestor's op."""
    while span.thread_parent is not None:
        span = span.thread_parent
    return span.op


def union_ns(intervals: List[Tuple[int, int]]) -> int:
    """Total length covered by a set of half-open intervals."""
    covered = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


class Analysis:
    """Per-layer self times and op attribution of one traced run."""

    def __init__(self, layers: Dict[str, Tuple[float, int]],
                 op_wall_s: float, unattributed_s: float) -> None:
        #: ``span name -> (self seconds, calls)``; op roots excluded.
        self.layers = layers
        self.op_wall_s = op_wall_s
        self.unattributed_s = unattributed_s

    @property
    def attributed(self) -> float:
        """Share of op wall time covered by named layer spans."""
        if self.op_wall_s <= 0:
            return 0.0
        return 1.0 - self.unattributed_s / self.op_wall_s


def parents(spans: List[Span]
            ) -> Tuple[Dict[int, Optional[Span]], Dict[int, Optional[int]]]:
    """``id(span) -> parent`` with cross-thread parents resolved, and
    ``id(span) -> op``.

    A span nested on its own thread has that thread's enclosing span as
    parent.  A thread's outermost span (a pool worker's shard, an HTTP
    handler, a job worker) is parented to the innermost span of the same
    op on another thread that was open when it started — the span that
    was waiting on it — or else to the op's root.
    """
    by_op: Dict[Optional[int], List[Span]] = {}
    ops: Dict[int, Optional[int]] = {}
    for span in spans:
        op = resolve_op(span)
        ops[id(span)] = op
        by_op.setdefault(op, []).append(span)
    roots = {op: span for op, group in by_op.items() for span in group
             if span.is_root}
    result: Dict[int, Optional[Span]] = {}
    for span in spans:
        if span.is_root:
            result[id(span)] = None
        elif span.thread_parent is not None:
            result[id(span)] = span.thread_parent
        else:
            op = ops[id(span)]
            best = None
            if op is not None:
                for other in by_op[op]:
                    if other.thread != span.thread \
                            and other.start < span.start < other.end \
                            and (best is None or other.start > best.start):
                        best = other
            result[id(span)] = best if best is not None else roots.get(op)
    return result, ops


def _covered(span: Span, others: List[Span]) -> int:
    """How much of ``span``'s interval the ``others`` cover."""
    return union_ns([(max(other.start, span.start),
                      min(other.end, span.end)) for other in others
                     if other.end > span.start and other.start < span.end])


def analyze(spans: List[Span],
            timers: Optional[Dict[str, Tuple[int, int]]] = None
            ) -> Analysis:
    """Self time per span name, and how much op time no layer covers.

    A layer span's self time subtracts its children only.  An op root's
    uncovered time subtracts every span of the op, since a cross-thread
    span can outlive the span that was open when it started.
    """
    parent_of, op_of = parents(spans)
    children: Dict[int, List[Span]] = {}
    members: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        parent = parent_of[id(span)]
        if parent is not None:
            children.setdefault(id(parent), []).append(span)
        if not span.is_root:
            members.setdefault(op_of[id(span)], []).append(span)
    layers: Dict[str, List[float]] = {}
    op_wall_ns = 0
    unattributed_ns = 0
    for span in spans:
        duration = span.end - span.start
        if span.is_root:
            covered = _covered(span, members.get(op_of[id(span)], []))
            op_wall_ns += duration
            unattributed_ns += max(0, duration - covered - span.agg_ns)
            continue
        covered = _covered(span, children.get(id(span), []))
        slot = layers.setdefault(span.name, [0.0, 0])
        slot[0] += max(0, duration - covered - span.agg_ns) / 1e9
        slot[1] += 1
    for name, (ns, calls) in (timers or {}).items():
        slot = layers.setdefault(name, [0.0, 0])
        slot[0] += ns / 1e9
        slot[1] += calls
    return Analysis({name: (total, int(calls))
                     for name, (total, calls) in layers.items()},
                    op_wall_ns / 1e9, unattributed_ns / 1e9)


class Patcher:
    """Rebinds attributes to wrappers and restores them exactly."""

    _MISSING = object()

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attribute: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attribute`` by ``make(original)``."""
        original = getattr(owner, attribute)
        own = vars(owner).get(attribute, self._MISSING) \
            if hasattr(owner, "__dict__") else self._MISSING
        self._saved.append((owner, attribute, own))
        setattr(owner, attribute, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, own = self._saved.pop()
            if own is self._MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
