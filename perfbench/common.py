"""Shared pieces of the three workloads: seeds, clocks, statistics, results."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: FGMRES's converged residual is a recurrence estimate; the recomputed true
#: residual may exceed ``rtol`` by rounding, never by orders of magnitude
RESIDUAL_SLACK = 10.0


def derive_seed(seed: int, *labels) -> int:
    """A deterministic 31-bit seed for one input of one workload run."""
    text = "|".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def timed(fn):
    """Run ``fn`` once; return (seconds, result)."""
    t = time.perf_counter()
    result = fn()
    return time.perf_counter() - t, result


def run_pair(index: int, plain, traced):
    """Time the untraced and traced twins of one operation, alternating which
    runs first so that neither is favoured by the other warming up."""
    if index % 2:
        second = timed(traced)
        return timed(plain), second
    first = timed(plain)
    return first, timed(traced)


def median_of_runs(fn, repeats: int):
    """Run ``fn`` ``repeats`` times; return (median seconds, last result)."""
    runs = [timed(fn) for _ in range(repeats)]
    return statistics.median(t for t, _ in runs), runs[-1][1]


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; None when that percentile would not exceed the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return None
    return ordered[n - 11], (n - 10) / n


def process_cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def pid_cpu_s(pid: int) -> float:
    """CPU seconds of a live child process (Linux ``/proc``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def relres(matrix, rhs, x, x0) -> float:
    """|b - A x| / |b - A x0|, recomputed with scipy from the assembled system."""
    import numpy as np

    r0 = float(np.linalg.norm(rhs - matrix @ x0))
    return float(np.linalg.norm(rhs - matrix @ x)) / (r0 if r0 > 0 else 1.0)


def edge_cut(graph, membership) -> int:
    """Edges of ``graph`` whose endpoints lie in different parts."""
    import numpy as np

    rows = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    return int(np.count_nonzero(membership[rows] != membership[graph.indices]) // 2)


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Record a wrong output; the run is reported as not correct."""
        self.problems.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


class HostSpeed:
    """How fast this host runs the benchmark, probed between operations.

    The hosts this benchmark runs on are shared: the same solve takes 30-50%
    longer while neighbours load the machine, in phases lasting tens of
    seconds.  A fixed probe (a dict build, numpy arithmetic on a 4 MB array
    and a sort) slows down with them.  It runs only while the workload is
    idle, on the calling thread's CPU clock, so the benchmark's own load
    does not slow it.  End-to-end times are reported at the reference speed:
    each measured wall time is multiplied by ``PROBE_REF_S`` over the probes
    taken just before and after it.
    """

    #: the probe's median on the 2-core host the bounds were set on
    PROBE_REF_S = 0.004
    #: probes this far outside an interval still describe it
    MARGIN_S = 0.5

    def __init__(self) -> None:
        import numpy as np

        self._data = np.random.default_rng(0).random(500_000)
        self.samples: list[tuple[float, float]] = []

    def probe(self) -> None:
        """Time the probe three times and keep the median, stamped with the
        monotonic clock."""
        import numpy as np

        runs = []
        for _ in range(3):
            t = time.thread_time()
            table = {i: (i, str(i)) for i in range(10_000)}
            scaled = self._data * 1.5 + self._data
            np.sort(self._data[:100_000])
            del table, scaled
            runs.append(time.thread_time() - t)
        self.samples.append((time.monotonic(), statistics.median(runs)))

    def scale(self, t0: float, t1: float) -> float:
        """Factor taking a wall time measured over ``[t0, t1]`` (monotonic
        clock) to the reference speed."""
        near = [v for t, v in self.samples
                if t0 - self.MARGIN_S <= t <= t1 + self.MARGIN_S]
        if not near:
            near = [min(self.samples, key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))[1]]
        return self.PROBE_REF_S / statistics.median(near)


def closed_loop(result: Result, kinds, op, speed: HostSpeed, seconds: float,
                min_rounds: int, cpu_now=None) -> tuple[list, float]:
    """Run rounds of ``op(kind, round)``, one call per kind, until
    ``seconds`` have passed and at least ``min_rounds`` rounds are done,
    probing the host's speed around every call.

    Returns the ``(kind, seconds)`` of every operation and their CPU seconds
    (``cpu_now``, default this process), all at the reference host speed.
    """
    cpu_now = cpu_now or process_cpu_s
    ops, cpu = [], 0.0
    t_end = time.monotonic() + seconds
    rnd = 0
    speed.probe()
    while rnd < min_rounds or time.monotonic() < t_end:
        for kind in kinds:
            cpu0, t0 = cpu_now(), time.monotonic()
            op(kind, rnd)
            cpu1, t1 = cpu_now(), time.monotonic()
            speed.probe()
            scale = speed.scale(t0, t1)
            ops.append((kind, (t1 - t0) * scale))
            cpu += (cpu1 - cpu0) * scale
        rnd += 1
    result.info["rounds"] = result.info.get("rounds", 0) + rnd
    return ops, cpu


def closed_loop_metrics(result: Result, setup_s: float, ops: list[tuple],
                        cpu_s: float, iters: int) -> None:
    """End-to-end metrics of a closed loop of ``(kind, scaled seconds)``.

    Each kind's median is taken separately and the medians averaged, so
    how many operations of each kind a run fits in cannot move ``op_p50_ms``.
    A run too short for a tail percentile reports the slowest kind's median.
    """
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in ops:
        by_kind.setdefault(kind, []).append(seconds)
    medians = [statistics.median(v) for v in by_kind.values()]
    p50 = statistics.fmean(medians)
    tail_s, q = tail([s for _, s in ops]) or (max(medians), None)
    result.put("setup_s", setup_s, "s")
    result.put("op_p50_ms", p50 * 1e3, "ms")
    result.put("op_tail_ms", tail_s * 1e3, "ms")
    result.put("capacity_ops_s", len(ops) / sum(s for _, s in ops), "1/s")
    result.put("iters", iters, "count")
    result.put("cpu_s", cpu_s / len(ops), "s")
    result.put("peak_rss_mb", peak_rss_mb(), "MB")
    result.info.update(ops=len(ops), tail_percentile=q and round(100 * q, 1),
                       per_kind_ops={k: len(v) for k, v in by_kind.items()})


def source_digest() -> str:
    """SHA-256 over the package sources: identifies the code measured even
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "argv": sys.argv[1:],
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
