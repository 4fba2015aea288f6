"""Spans and counters recorded at the benchmark's own calls into the
program, plus the /proc and file-tree readings the per-layer metrics
need. Nothing inside the program is traced.

A span is ``(name, start, end, parent)``: times are seconds from the
tracer's creation, ``parent`` is the index of the enclosing span or -1.
Spans stay in memory and are written as JSON when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

_TICK = os.sysconf("SC_CLK_TCK")


class Tracer:
    """Records spans when ``on``; otherwise every call is a no-op.

    ``self_s`` accumulates the time the tracer spends on its own
    bookkeeping, the part of the tracing overhead it can see."""

    def __init__(self, on: bool):
        self.on = on
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.self_s = 0.0

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        a = time.perf_counter()
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(idx)
        b = time.perf_counter()
        self.spans[idx][1] = b - self.t0
        try:
            yield
        finally:
            c = time.perf_counter()
            self.spans[idx][2] = c - self.t0
            self._stack.pop()
            self.self_s += (b - a) + (time.perf_counter() - c)

    def wrap(self, name: str, fn):
        """``fn`` with every call inside a span (for methods the program
        calls on the benchmark's objects, e.g. a policy's compaction)."""
        def traced(*a, **kw):
            with self.span(name):
                return fn(*a, **kw)
        return traced

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({
            **extra,
            "spans": [{"name": n, "start": round(a, 6), "end": round(b, 6),
                       "parent": p} for n, a, b, p in self.spans]}))
        os.replace(tmp, path)


def _stat(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # comm may hold spaces: fields resume after its closing parenthesis
    return raw[raw.rindex(")") + 2:].split()


def descendants(pid: int) -> list[int]:
    """Live descendant pids of ``pid`` (one /proc scan)."""
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        st = _stat(int(d))
        if st is not None:
            children.setdefault(int(st[1]), []).append(int(d))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def session_cpu() -> dict[int, float]:
    """CPU seconds (user + system) of each live process of the Ray
    session this process started (workers, raylet, GCS)."""
    out = {}
    for pid in descendants(os.getpid()):
        st = _stat(pid)
        if st is not None:
            out[pid] = (int(st[11]) + int(st[12])) / _TICK
    return out


def cpu_since(before: dict[int, float]) -> float:
    """Session CPU spent since the ``session_cpu()`` reading ``before``.
    A process that exited in between takes its share with it, so this
    is a lower bound; Ray keeps its workers, so the loss is small."""
    return sum(v - before.get(pid, 0.0) for pid, v in session_cpu().items())


def tree_files(root: Path) -> dict[str, int]:
    """``{relative path: size}`` of every regular file under ``root``."""
    out = {}
    base = str(root)
    for dirpath, _, files in os.walk(base):
        for f in files:
            p = os.path.join(dirpath, f)
            try:
                out[os.path.relpath(p, base)] = os.stat(p).st_size
            except FileNotFoundError:
                continue
    return out
