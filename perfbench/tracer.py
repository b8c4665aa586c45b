"""Outside-in span tracer for the benchmark's traced mode.

The program is never edited for tracing.  :class:`Tracer` replaces named
public functions and methods of ``repro`` with timing wrappers for the
duration of a traced operation and puts the originals back afterwards,
so untraced operations run the unmodified code.

A function that other modules imported by name (``from repro.hashing.phash
import phash``) is replaced in every loaded ``repro`` module that holds a
reference to it, so the wrapper sees calls from all of them.

Spans (name, start, end, parent, count) are kept in memory and written
as JSON lines at the end of the run.  Calls made in forked worker
processes (the process-backend fan-outs) cannot reach the parent's
memory; each such span is appended to a per-worker JSON-lines file and
read back when the run rolls its spans up.  Those remote spans count as
work time of their layer but not towards wall-clock coverage.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One traced callable.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``.
    ``count`` maps ``(args, kwargs, result, before)`` to the number of
    units the call handled (calls are counted separately), where
    ``before`` is what ``before(args, kwargs)`` returned ahead of the
    call (``None`` without one).
    """

    name: str
    target: str
    count: Callable | None = None
    before: Callable | None = None


class _FsyncCounter:
    """Stand-in for a module's ``os`` that counts ``fsync`` calls."""

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def fsync(self, fd):
        self._tracer.counters["fsyncs"] = self._tracer.counters.get("fsyncs", 0) + 1
        return os.fsync(fd)

    def __getattr__(self, name):
        return getattr(os, name)


class Tracer:
    def __init__(self, remote_dir: Path) -> None:
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.spans: list[tuple] = []  # (id, name, start, end, parent, count)
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.remote_dir = Path(remote_dir)
        self.remote_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.remote_dir.glob("remote-*.jsonl"):
            stale.unlink()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------

    def begin(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([span_id, name, time.perf_counter(), None, parent, 0])
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int, count: int = 0) -> None:
        span = self.spans[span_id]
        span[3] = time.perf_counter()
        span[5] = count
        self._stack.pop()

    def _remote(self, name: str, start: float, end: float, count: int) -> None:
        path = self.remote_dir / f"remote-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps([name, end - start, count]) + "\n")

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            remote = os.getpid() != tracer.pid
            if not remote and threading.get_ident() != tracer.thread:
                return fn(*args, **kwargs)
            before = hook.before(args, kwargs) if hook.before else None
            if remote:
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                count = hook.count(args, kwargs, result, before) if hook.count else 0
                tracer._remote(hook.name, start, end, int(count))
                return result
            span_id = tracer.begin(hook.name)
            count = 0
            try:
                result = fn(*args, **kwargs)
                if hook.count is not None:
                    count = int(hook.count(args, kwargs, result, before))
            finally:
                tracer.end(span_id, count)
            return result

        return traced

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, hooks: list[Hook], fsync_modules: tuple[str, ...] = ()) -> None:
        if self._patches:
            return
        self.missing = []
        for hook in hooks:
            module_name, _, path = hook.target.partition(":")
            module = sys.modules.get(module_name)
            if module is None:
                try:
                    __import__(module_name)
                    module = sys.modules[module_name]
                except ImportError:
                    self.missing.append(hook.target)
                    continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__.get(attr) if hasattr(owner, "__dict__") else None
            if raw is None:
                self.missing.append(hook.target)
                continue
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(hook, raw.__func__)))
            elif owner_name:
                self._set(owner, attr, self._wrap(hook, raw))
            else:
                wrapped = self._wrap(hook, raw)
                for name, other in list(sys.modules.items()):
                    if not (name == "repro" or name.startswith("repro.")):
                        continue
                    if other is not None and other.__dict__.get(attr) is raw:
                        self._set(other, attr, wrapped)
        counter = _FsyncCounter(self)
        for module_name in fsync_modules:
            module = sys.modules.get(module_name)
            if module is not None and module.__dict__.get("os") is os:
                self._set(module, "os", counter)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Roll-up
    # ------------------------------------------------------------------

    def remote_spans(self) -> list[tuple[str, float, int]]:
        out = []
        for path in sorted(self.remote_dir.glob("remote-*.jsonl")):
            for line in path.read_text().splitlines():
                name, duration, count = json.loads(line)
                out.append((name, float(duration), int(count)))
        return out

    def rollup(self) -> dict[str, dict[str, float]]:
        """Per span name: total time, self time, calls and units.

        Self time is a span's duration minus its direct children's.
        Remote (worker) spans add to total and self time and to calls.
        """
        child_time = [0.0] * len(self.spans)
        for span_id, _, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, parent, count in self.spans:
            if end is None:
                continue
            row = table.setdefault(
                name, {"total_s": 0.0, "self_s": 0.0, "calls": 0, "units": 0}
            )
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[span_id]
            row["calls"] += 1
            row["units"] += count
        for name, duration, count in self.remote_spans():
            row = table.setdefault(
                name, {"total_s": 0.0, "self_s": 0.0, "calls": 0, "units": 0}
            )
            row["total_s"] += duration
            row["self_s"] += duration
            row["calls"] += 1
            row["units"] += count
        return table

    def covered_s(self, root_id: int) -> float:
        """Wall time of a root span's direct children (the traced layers)."""
        return sum(
            end - start
            for _, _, start, end, parent, _ in self.spans
            if parent == root_id and end is not None
        )

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, count in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "count": count,
                        }
                    )
                    + "\n"
                )
            for name, duration, count in self.remote_spans():
                handle.write(
                    json.dumps(
                        {"name": name, "duration": duration, "count": count, "remote": True}
                    )
                    + "\n"
                )
