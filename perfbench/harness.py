"""Measurement primitives of the qshje benchmark.

Closed-loop op accounting, the percentile rule, in-memory spans with self
time, and the environment block. Nothing here imports qshje, so the
primitives can be tested on their own.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def tail_percentile(samples, min_beyond: int = 10):
    """Highest integer percentile p in 50..99 that still has at least
    ``min_beyond`` samples ranked beyond it (nearest-rank definition).

    Returns ``(p, value, n)``, or None when there are too few samples for
    even the median to qualify.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = (p * n + 99) // 100          # ceil(p n / 100), 1-based
        if rank >= 1 and n - rank >= min_beyond:
            return p, xs[rank - 1], n
    return None


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------

#: Iterations of the reference loop, and the typical times of the loop and
#: of the reference child on the machine the bounds were set on (2-vCPU
#: Intel Xeon, Python 3.11.7), where they ranged over 2.6-4.6 ms and
#: 0.12-0.37 s as the machine's speed changed.
REF_LOOP = 40000
REF_LOOP_S = 3.5e-3
REF_CHILD_S = 0.17


def reference_child_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy: the yardstick for
    ops that are fresh interpreters themselves (CLI commands, set-up
    probes), whose speed the in-process loop does not follow, since they
    may run on the other core."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


def reference_loop_seconds() -> float:
    """Wall time of a fixed pure-Python float recurrence, the median of
    three: the yardstick of how fast the shared machine runs this process
    right now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        y0, y1 = 0.0, 1e-3
        for i in range(REF_LOOP):
            y0, y1 = y1, (2.0 - 1e-9 * i) * y1 - y0
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass(frozen=True)
class Yardstick:
    """An op's normalised time is its wall time × ``typical_s`` ÷ the
    yardstick's reading just before it (averaged with the reading just
    after it when ``both_sides``; the child reference is too slow to pay
    for twice per op)."""

    measure: Callable[[], float]
    typical_s: float
    both_sides: bool


LOOP_YARDSTICK = Yardstick(reference_loop_seconds, REF_LOOP_S, both_sides=True)
CHILD_YARDSTICK = Yardstick(reference_child_seconds, REF_CHILD_S, both_sides=False)


# ----------------------------------------------------------------------
# Op accounting
# ----------------------------------------------------------------------

def describe_exception(exc: BaseException) -> dict:
    """Failure detail of an op that raised: class, whether it is one of the
    package's own errors, message and the innermost frame in the package."""
    origin = "foreign"
    for klass in type(exc).__mro__:
        if klass.__name__ == "QshjeError":
            origin = "QshjeError"
    frames = traceback.extract_tb(exc.__traceback__)
    own = [f for f in frames if f"{os.sep}qshje{os.sep}" in f.filename]
    frame = (own or frames or [None])[-1]
    where = f"qshje/{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}" \
        if frame is not None else None
    return {"class": type(exc).__name__, "origin": origin,
            "message": str(exc)[:300], "where": where}


def oracle_miss(message: str) -> dict:
    """Failure detail of an op whose output missed its oracle."""
    return {"class": "OracleMiss", "origin": "oracle", "message": message}


@dataclass
class OpRecord:
    kind: str
    op_id: int
    seconds: float
    ok: bool
    work: float = 0.0
    error: dict | None = None
    #: ``seconds`` scaled to the reference machine speed (see closed_loop)
    norm_seconds: float | None = None
    #: input size relative to the kind's reference size
    size: float = 1.0


@dataclass
class Ledger:
    """Every op of one phase, plus the worst oracle figures seen.

    A failed op (it raised, exited badly or missed its oracle) is counted
    against its kind but never contributes a latency sample or work.
    """

    records: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    wrong_answers: int = 0

    def add(self, kind, op_id, seconds, ok, work=0.0, error=None,
            norm_seconds=None, size=1.0):
        self.records.append(OpRecord(kind, op_id, seconds, ok,
                                     work if ok else 0.0, error,
                                     seconds if norm_seconds is None else norm_seconds,
                                     size))

    def note_accuracy(self, name: str, value: float, bound: float):
        worst = self.accuracy.get(name)
        if worst is None or not (value <= worst["value"]):
            self.accuracy[name] = {"value": value, "bound": bound}

    def note_count(self, name: str, hit: bool):
        self.counts[name] = self.counts.get(name, 0) + int(hit)

    def kinds(self) -> list:
        return sorted({r.kind for r in self.records})

    def of(self, kind) -> list:
        return [r for r in self.records if r.kind == kind]

    def kind_summary(self, kind) -> dict:
        recs = self.of(kind)
        failed = [r for r in recs if not r.ok]
        by_class = {}
        for r in failed:
            key = r.error.get("class") or f"exit {r.error.get('exit_code')}"
            by_class[key] = by_class.get(key, 0) + 1
        return {
            "ops_attempted": len(recs),
            "ops_failed": len(failed),
            "failures_by_class": by_class,
            "first_failure": failed[0].error if failed else None,
        }

    def clean(self, kinds) -> bool:
        """True when every listed kind ran and none of its ops failed."""
        return all(self.of(k) and all(r.ok for r in self.of(k)) for k in kinds)

    def latencies(self, kinds, norm=False) -> list:
        """Latency samples of the passing ops, per unit of input size."""
        return [(r.norm_seconds if norm else r.seconds) / r.size
                for r in self.records if r.kind in kinds and r.ok]

    def busy_seconds(self, kinds, norm=False) -> float:
        return sum(r.norm_seconds if norm else r.seconds
                   for r in self.records if r.kind in kinds)

    def work(self, kinds) -> float:
        return sum(r.work for r in self.records if r.kind in kinds)


def latency_block(seconds_list, norm_list) -> dict:
    """Median and rule-percentile of a latency sample list, in ms, and the
    median of the machine-normalised samples."""
    out = {"n": len(seconds_list),
           "p50_ms": 1e3 * statistics.median(seconds_list),
           "p50_ms_norm": 1e3 * statistics.median(norm_list)}
    tail = tail_percentile(seconds_list)
    if tail is not None:
        p, value, _ = tail
        out["tail_percentile"] = p
        out["tail_ms"] = 1e3 * value
    return out


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    op: int | None
    thread: int
    work: float | None = None


class Tracer:
    """In-memory spans: name, start, end, parent span, op id and thread.

    A span opened on a worker thread with no open span of its own takes the
    innermost span open on the tracer's home thread as its parent, so work
    fanned out to a thread pool is charged to the op that fanned it out.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []

    def _stack(self) -> list:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home_stack[-1] if self._home_stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), None, parent,
                                   self.op_id, threading.get_ident()))
        stack.append(idx)
        return idx

    def end(self, idx: int, work: float | None = None):
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.work = work
        self._stack().pop()         # spans close in LIFO order on each thread



def self_times(spans) -> list:
    """Each span's duration minus the part of its interval that its child
    spans cover (children on other threads may overlap each other, so the
    covered part is the union of their intervals)."""
    kids = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in kids.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def _git_commit(root) -> str | None:
    """Commit of a git checkout read from .git, without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(root, seed) -> dict:
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "seed": seed,
        "loadavg_start": _loadavg(),
    }


def finish_environment(env: dict) -> dict:
    env["loadavg_end"] = _loadavg()
    return env

