"""service-mix: three tenants keep ``SolveService(workers=2)`` busy with
small jobs.

Each tenant is a closed-loop client: it submits its next job the moment its
previous one ends, so with three clients and two workers one job is always
queued.  Clients work through blocks of 24 jobs; between blocks the service
drains, and the benchmark probes the host's speed.  Jobs cover small TC1,
TC2 and TC5 sizes x the four paper preconditioners x nparts {2, 4}, in
shuffled whole blocks of every combination; partition seeds come from a
small set, so meshes, partitions and factorizations repeat at a measured
share.  Service checkpointing stays at its default (on).

An open loop of seeded Poisson arrivals was tried first.  The host's speed
swings by up to half in phases of tens of seconds, and with random arrivals
both queueing and the share of time the two workers contend for the GIL
turned those swings into run-to-run latency swings of 25-60%, beyond any
bound the benchmark can hold.  A closed loop keeps the concurrency constant.
"""

from __future__ import annotations

import math
import random
import statistics
import threading
import time
from dataclasses import replace
from unittest import mock

import numpy as np

from perfbench.common import (
    RESIDUAL_SLACK,
    HostSpeed,
    Result,
    derive_seed,
    fresh_dir,
    median_of_runs,
    peak_rss_mb,
    process_cpu_s,
    tail,
    timed,
)
from perfbench.tracing import Tracer

CASES = (("tc1", 17), ("tc2", 7), ("tc5", 17))   # 289-343 unknowns each
KINDS = ("block1", "block2", "schur1", "schur2")
NPARTS = (2, 4)
SEEDS = (0, 1)
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
WORKERS = 2
RTOL = 1e-6                     # JobSpec's default
COMBOS = [(c, s, k, p) for c, s in CASES for k in KINDS for p in NPARTS]
#: ``iters`` sums the first this many jobs, which every run completes
MIN_JOBS = 2 * len(COMBOS)
#: more jobs than the service completes per second on any host yet seen
MAX_RATE = 25
WAIT_S = 120.0


def job_mix(seed: int, blocks: int):
    """``blocks`` shuffled blocks of every combination, seeds drawn from
    ``SEEDS``."""
    from repro.service import JobSpec

    rng = random.Random(derive_seed(seed, "service-mix"))
    specs = []
    for _ in range(blocks):
        order = COMBOS[:]
        rng.shuffle(order)
        specs += [JobSpec(case=c, size=s, precond=k, nparts=p, seed=rng.choice(SEEDS))
                  for c, s, k, p in order]
    return specs


def repeat_share(specs) -> float:
    """Share of jobs whose (case, size, nparts, seed) an earlier job had."""
    seen, repeats = set(), 0
    for s in specs:
        key = (s.case, s.size, s.nparts, s.seed)
        repeats += key in seen
        seen.add(key)
    return repeats / len(specs)


def _service(workdir, label):
    from repro.service import ServiceConfig, SolveService

    config = ServiceConfig(workers=WORKERS,
                           spool_dir=str(fresh_dir(workdir / f"spool-{label}")))
    return SolveService(config).start()


def clients(svc, specs, first: int = 0, submit=None):
    """Work through ``specs`` with one closed-loop client per tenant, each
    submitting its next job the moment its previous one ends.

    Returns ``(index, record, submitted_at)`` per job in spec order, indices
    counted from ``first`` and ``submitted_at`` on the service clock.
    """
    submit = submit or svc.submit
    lock = threading.Lock()
    pending = iter(enumerate(specs, start=first))
    done, errors = [], []

    def client(tenant: str) -> None:
        try:
            while True:
                with lock:
                    item = next(pending, None)
                if item is None:
                    return
                i, spec = item
                t = svc.clock()
                record = submit(replace(spec, tenant=tenant))
                if not record.wait(timeout=WAIT_S):
                    raise TimeoutError(f"{record.job_id} still running after {WAIT_S}s")
                with lock:
                    done.append((i, record, t))
        except Exception as exc:  # reported by the caller, not lost with the thread
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(t,), name=f"perfbench-{t}")
               for t in TENANTS]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=WAIT_S)
    if errors or any(th.is_alive() for th in threads):
        raise RuntimeError(f"client failed: {errors[:1] or 'still running'}")
    return sorted(done, key=lambda d: d[0])


def _check(res: Result, records) -> None:
    for r in records:
        res.attempted += 1
        problem = None
        if r.status != "converged":
            problem = f"ended {r.status!r} ({r.shed_reason or r.error})"
        elif not (r.final_relres is not None and r.final_relres <= RTOL * RESIDUAL_SLACK):
            problem = f"relative residual {r.final_relres}"
        if problem:
            res.failed += 1
            res.fail(f"{r.job_id} {r.spec.case}/{r.spec.precond}/p{r.spec.nparts}: {problem}")


def run(seed: int, seconds: float, t_start: float, workdir, speed: HostSpeed) -> Result:
    """Blocks of jobs until ``seconds`` have passed; between blocks the
    service is idle, and the host's speed is probed."""
    res = Result()
    imported = time.perf_counter() - t_start
    t_setup = time.monotonic()
    specs = job_mix(seed, math.ceil(MAX_RATE * seconds / len(COMBOS)))
    services = []
    start_s, _ = median_of_runs(lambda: services.append(_service(workdir, len(services))), 3)
    speed.probe()
    setup_s = (imported + start_s) * speed.scale(t_setup, time.monotonic())
    for svc in services[:-1]:
        svc.shutdown()
    svc = services[-1]
    done, latency, busy, cpu = [], [], 0.0, 0.0
    t_end = time.monotonic() + seconds
    try:
        for first in range(0, len(specs), len(COMBOS)):
            if first >= MIN_JOBS and time.monotonic() >= t_end:
                break
            cpu0, t0 = process_cpu_s(), svc.clock()
            block = clients(svc, specs[first:first + len(COMBOS)], first)
            cpu1, t1 = process_cpu_s(), svc.clock()
            speed.probe()
            # JobRecord stamps and HostSpeed samples share the monotonic clock
            scale = speed.scale(t0, t1)
            done += block
            latency += [(r.finished_t - t) * scale for _, r, t in block]
            busy += (t1 - t0) * scale
            cpu += (cpu1 - cpu0) * scale
    finally:
        svc.shutdown()
    records = [r for _, r, _ in done]
    _check(res, records)

    tail_s, q = tail(latency) or (max(latency), None)
    res.put("setup_s", setup_s, "s")
    res.put("op_p50_ms", statistics.median(latency) * 1e3, "ms")
    res.put("op_tail_ms", tail_s * 1e3, "ms")
    res.put("capacity_ops_s", len(done) / busy, "1/s")
    res.put("iters", sum(r.iterations for i, r, _ in done if i < MIN_JOBS), "count")
    res.put("cpu_s", cpu / len(done), "s")
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    res.info.update(
        import_s=imported, ops=len(done), tail_percentile=q and round(100 * q, 1),
        repeat_share=repeat_share([r.spec for r in records]),
    )
    return res


def trace(seed: int, seconds: float, tracer: Tracer, workdir) -> Result:
    """The first ``MIN_JOBS`` jobs twice, on fresh services with a cold
    factor cache: untraced, then with every layer call wrapped and each
    job's queue wait rebuilt from its ``JobRecord`` stamps."""
    from repro import solve_case
    from repro.cases import CASE_BUILDERS
    from repro.factor import cache as factor_cache
    from repro.service import service as service_module

    from perfbench.layers import (
        CacheDelta,
        Collected,
        internal_targets,
        layer_metrics,
        outcome_metrics,
    )

    res = Result()
    specs = job_mix(seed, MIN_JOBS // len(COMBOS))

    factor_cache.get_cache().clear()
    svc = _service(workdir, "untraced")
    try:
        plain = [r for _, r, _ in clients(svc, specs)]
    finally:
        svc.shutdown()

    factor_cache.get_cache().clear()
    cache = CacheDelta()
    collected = Collected()
    run_job = service_module.run_job

    def attributed(record, ctx):
        with tracer.operation(record.job_id), tracer.span("service.run"):
            return run_job(record, ctx)

    svc = _service(workdir, "traced")
    try:
        with tracer.patched(internal_targets(collected)), \
                mock.patch.object(service_module, "run_job", attributed):
            records = [r for _, r, _ in clients(
                svc, specs, submit=tracer.wrap(svc.submit, "service.submit"))]
    finally:
        svc.shutdown()
    _check(res, records)
    # JobRecord stamps come from the service clock; spans use perf_counter
    offset = time.perf_counter() - svc.clock()
    for r in records:
        tracer.add("service.queue", r.created_t + offset, r.started_t + offset, r.job_id)

    n = len(records)
    layer_metrics(res, tracer, n_ops=n, n_setups=n)
    cache.put(res)
    queue = [r.started_t - r.created_t for r in records]
    run_s = [r.finished_t - r.started_t for r in records]
    outcome_metrics(res, collected.outcomes, n_ops=n)
    res.put("checkpoint.bytes", np.mean(collected.checkpoint_bytes), "B")
    res.put("graph.edge_cut", np.mean(collected.cuts), "count")
    res.put("service.submit_ms", tracer.total("service.submit") / n * 1e3, "ms")
    res.put("service.queue_ms", statistics.median(queue) * 1e3, "ms")
    res.put("service.queue_tail_ms", (tail(queue) or (max(queue),))[0] * 1e3, "ms")
    res.put("service.run_ms", statistics.median(run_s) * 1e3, "ms")
    res.put("service.chunks", np.mean([
        sum(u.kind == "progress" for u in r.updates) for r in records]), "count")
    res.put("service.attempts", np.mean([len(r.attempts) for r in records]), "count")
    res.put("service.degraded", sum(
        any(a["precond"] != r.spec.precond for a in r.attempts) for r in records), "count")
    res.put("service.shed", sum(r.status == "shed" for r in records), "count")
    res.put("service.repeat_share", repeat_share(specs), "ratio")
    plain_run = sum(r.finished_t - r.started_t for r in plain)
    _check(res, plain)
    res.put("obs.trace_overhead_frac", sum(run_s) / plain_run - 1.0, "ratio")
    layers = tracer.self_total(("cases.", "graph.", "distributed.", "precond.",
                                "krylov.", "comm.", "checkpoint."))
    res.put("obs.layer_share", layers / sum(run_s), "ratio")

    p1 = []
    for c, s in CASES:
        case = CASE_BUILDERS[c](n=s)
        p1 += [timed(lambda k=k: solve_case(case, precond=k, nparts=1))[0]
               for k in KINDS]
    res.put("baseline.p1_op_s", np.mean(p1), "s")
    res.info.update(jobs=n, shed_by_reason=svc.stats()["admission"]["shed"])
    return res
