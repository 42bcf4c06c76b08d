"""In-memory span tracing for the benchmark's traced runs.

A :class:`Tracer` wraps entry points of the simulator and its orchestration
layers from the outside (class attributes and module globals are swapped for
timing wrappers; nothing under ``src/`` changes).  Every call becomes one span
— name, start, end and the index of the enclosing span on the same thread —
held in compact per-thread arrays and written out when the traced process
ends.  :func:`self_times` turns spans into per-name ``calls``, ``total_s``
and ``self_s``, where a span's self time is its duration minus the durations
of its direct children.

Only the traced process records: wrappers are removed again in any child
forked from it (worker pools), so simulations that run in pool workers are
never timed, and untraced runs never import this module's wrappers at all.
"""

from __future__ import annotations

import array
import functools
import json
import os
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class _Buffer:
    """Spans recorded by one thread, in start order."""

    __slots__ = ("names", "parents", "starts", "ends", "stack")

    def __init__(self) -> None:
        self.names = array.array("i")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack: List[int] = []


class Tracer:
    """Records spans around patched callables and counts named events."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: List[_Buffer] = []
        self.counts: Dict[str, float] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        with self._lock:
            self.buffers.append(buf)
        self._local.buf = buf
        return buf

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        nid = self._name_id(name)
        local = self._local
        new_buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            buf = getattr(local, "buf", None) or new_buffer()
            stack = buf.stack
            idx = len(buf.names)
            buf.names.append(nid)
            buf.parents.append(stack[-1] if stack else -1)
            buf.ends.append(0.0)
            stack.append(idx)
            buf.starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.ends[idx] = perf_counter()
                stack.pop()

        return traced

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` once inside a span (for call-site wraps)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -------------------------------------------------------------- patching

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a traced wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Swap ``owner.attr`` for ``value`` (restored by :meth:`uninstall`)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def forget_after_fork(self) -> None:
        """Unpatch in forked children, so pool workers run untraced code."""
        os.register_at_fork(after_in_child=self.uninstall)

    # ---------------------------------------------------------------- output

    def dump(self, path: str) -> None:
        """Write all spans and counts: a JSON header plus ``path + ".bin"``.

        The binary file holds each thread's four arrays back to back in the
        order the header lists them, in native machine format.
        """
        with self._lock:
            buffers = list(self.buffers)
        header = {
            "names": self.names,
            "counts": self.counts,
            "threads": [len(buf.names) for buf in buffers],
        }
        with open(path + ".bin", "wb") as fh:
            for buf in buffers:
                for column in (buf.names, buf.parents, buf.starts, buf.ends):
                    column.tofile(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def self_times(
    names: Sequence[int],
    parents: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
) -> Tuple[List[float], List[float], int]:
    """Per-span durations and self times for one thread's spans.

    ``parents[i]`` is the index of span *i*'s enclosing span (or -1).  A
    span whose end was never recorded (still open when the spans were
    written) is skipped, and so is its time inside its parent.  Returns
    ``(durations, self_times, open_spans)``.
    """
    n = len(names)
    durations = [0.0] * n
    closed = [end > 0.0 for end in ends]
    for i in range(n):
        if closed[i]:
            durations[i] = ends[i] - starts[i]
    children = [0.0] * n
    for i in range(n):
        parent = parents[i]
        if parent >= 0:
            children[parent] += durations[i]
    selfs = [durations[i] - children[i] if closed[i] else 0.0 for i in range(n)]
    open_spans = n - sum(closed)
    return durations, selfs, open_spans


def aggregate(dumps: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Fold span dumps into ``{name: {"calls", "total_s", "self_s"}}``."""
    out: Dict[str, Dict[str, float]] = {}
    for dump in dumps:
        table = dump["names"]
        for thread in dump["threads"]:
            durations, selfs, _open = self_times(
                thread["names"], thread["parents"], thread["starts"], thread["ends"]
            )
            for nid, dur, own in zip(thread["names"], durations, selfs):
                entry = out.setdefault(table[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                entry["calls"] += 1
                entry["total_s"] += dur
                entry["self_s"] += own
    return out


def load_dump(path: str) -> Optional[Dict[str, Any]]:
    """Read a :meth:`Tracer.dump` back (None when the file is missing)."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        header = json.load(fh)
    threads = []
    with open(path + ".bin", "rb") as fh:
        for length in header["threads"]:
            columns = {}
            for key, code in (("names", "i"), ("parents", "q"), ("starts", "d"), ("ends", "d")):
                column = array.array(code)
                column.fromfile(fh, length)
                columns[key] = column
            threads.append(columns)
    return {"names": header["names"], "counts": header["counts"], "threads": threads}
