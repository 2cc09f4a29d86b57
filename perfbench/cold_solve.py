"""cold-solve: ``solve_case`` on TC1 with default arguments, nothing reused.

Each round solves TC1 (Poisson 2D) once with each of the paper's four
preconditioners at p=8 on the inprocess backend.  Every solve gets its own
partition seed, so no membership or factorization repeats and the factor
cache only ever inserts.  Partitioning and preconditioner set-up dominate
this workload; the Krylov loop is a minority share.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench.common import (
    RESIDUAL_SLACK,
    HostSpeed,
    Result,
    closed_loop,
    closed_loop_metrics,
    derive_seed,
    edge_cut,
    median_of_runs,
    relres,
    run_pair,
    timed,
)
from perfbench.tracing import Tracer

GRID = 101                      # TC1 on a 101 x 101 grid: 10,201 unknowns
NPARTS = 8
KINDS = ("block1", "block2", "schur1", "schur2")
RTOL = 1e-6                     # solve_case's default
MIN_ROUNDS = 2                  # ``iters`` sums these, so it repeats exactly
SETUP_REPEATS = 3
#: P1 discretization error of TC1 at this grid is ~1e-4 in the max norm
MAX_ERROR = 1e-3


def _check(res: Result, case, out, label: str) -> bool:
    problems = []
    if not out.converged:
        problems.append(f"ended {out.status!r}")
    else:
        rr = relres(case.matrix, case.rhs, out.x_global, case.x0)
        if not rr <= RTOL * RESIDUAL_SLACK:
            problems.append(f"recomputed relative residual {rr:.3e}")
        if not out.error <= MAX_ERROR:
            problems.append(f"max-norm error {out.error:.3e} vs the exact solution")
    for p in problems:
        res.fail(f"{label}: {p}")
    return not problems


def run(seed: int, seconds: float, t_start: float, workdir, speed: HostSpeed) -> Result:
    from repro import poisson2d_case, solve_case
    from repro.factor import cache

    res = Result()
    imported = time.perf_counter() - t_start
    t_setup = time.monotonic()
    build_s, case = median_of_runs(lambda: poisson2d_case(n=GRID), SETUP_REPEATS)
    speed.probe()
    setup_s = (imported + build_s) * speed.scale(t_setup, time.monotonic())
    hits0 = cache.stats()["hits"]
    seeds, iters = set(), 0

    def solve(kind: str, rnd: int) -> None:
        nonlocal iters
        pseed = derive_seed(seed, "cold-solve", rnd, kind)
        seeds.add(pseed)
        out = solve_case(case, precond=kind, nparts=NPARTS, seed=pseed)
        res.attempted += 1
        if not _check(res, case, out, f"round {rnd} {kind}"):
            res.failed += 1
        if rnd < MIN_ROUNDS:
            iters += out.iterations

    ops, cpu = closed_loop(res, KINDS, solve, speed, seconds, MIN_ROUNDS)
    hits = cache.stats()["hits"] - hits0
    if hits:
        res.fail(f"{hits} factor-cache hits on a workload that must reuse nothing")
    if len(seeds) != len(ops):
        res.fail("partition seeds repeat")
    closed_loop_metrics(res, setup_s, ops, cpu, iters)
    res.info.update(import_s=imported, build_s=build_s, factor_cache_hits=hits)
    return res


def _composed_solve(tracer: Tracer, case, kind: str, pseed: int):
    """The public calls ``solve_case`` makes, in its order, each traced."""
    from repro.comm.communicator import Communicator
    from repro.core.driver import make_preconditioner
    from repro.distributed.matrix import distribute_matrix
    from repro.distributed.ops import DistributedOps
    from repro.distributed.partition_map import PartitionMap
    from repro.krylov.fgmres import fgmres

    from perfbench.layers import hot_targets

    w = tracer.wrap
    comm = w(Communicator, "comm.spawn")(NPARTS)
    try:
        membership = w(case.membership, "graph.partition")(NPARTS, seed=pseed)
        with tracer.span("distributed.layout"):
            pm = PartitionMap(case.coupling_graph, membership, num_ranks=NPARTS)
            dmat = distribute_matrix(case.matrix, pm)
        precond = w(make_preconditioner, "precond.setup")(kind, dmat, comm, case, None)
        comm.reset_ledger()
        ops = DistributedOps(comm, pm.layout)
        b = pm.to_distributed(case.rhs)
        x0 = pm.to_distributed(case.x0)
        with tracer.patched(hot_targets()):
            result = w(fgmres, "krylov.solve")(
                lambda v: dmat.matvec(comm, v), b, apply_m=precond, x0=x0,
                restart=20, rtol=RTOL, atol=0.0, maxiter=500, ops=ops,
                on_restart=None, apply_ma=precond.apply_matvec,
            )
        x = pm.to_global(result.x)
    finally:
        w(comm.close, "comm.close")()
    return result, x, membership


def trace(seed: int, seconds: float, tracer: Tracer, workdir) -> Result:
    """Pairs each ``solve_case`` of the first round with its composed,
    traced twin on the same partition; the two must agree bitwise."""
    from repro import poisson2d_case, solve_case
    from repro.factor import cache

    from perfbench.layers import CacheDelta, layer_metrics, outcome_metrics

    res = Result()
    cache_delta = CacheDelta()
    case = tracer.wrap(poisson2d_case, "cases.build")(n=GRID)
    untraced, traced, outcomes, cuts, memberships = [], [], [], [], set()
    for i, kind in enumerate(KINDS):
        pseed = derive_seed(seed, "cold-solve", 0, kind)

        def plain():
            cache.get_cache().clear()       # both twins start cold
            return solve_case(case, precond=kind, nparts=NPARTS, seed=pseed)

        def twin():
            cache.get_cache().clear()
            with tracer.operation(f"solve-{i}"), tracer.span("solve"):
                return _composed_solve(tracer, case, kind, pseed)

        (t_plain, out), (t_twin, (result, x, membership)) = run_pair(i, plain, twin)
        untraced.append(t_plain)
        traced.append(t_twin)
        outcomes.append(out)
        res.attempted += 1
        if not _check(res, case, out, kind):
            res.failed += 1
        if result.iterations != out.iterations or not np.array_equal(x, out.x_global):
            res.fail(f"{kind}: traced pipeline diverged from solve_case "
                     f"({result.iterations} vs {out.iterations} iterations)")
        memberships.add(membership.tobytes())
        cuts.append(edge_cut(case.node_graph, membership))
    if len(memberships) != len(KINDS):
        res.fail("partition memberships repeat")
    cache_delta.put(res)

    p1 = [
        timed(lambda k=kind: solve_case(case, precond=k, nparts=1))[0]
        for kind in KINDS
    ]
    layer_metrics(res, tracer, n_ops=len(KINDS), n_setups=len(KINDS))
    outcome_metrics(res, outcomes, n_ops=len(KINDS))
    res.put("graph.edge_cut", np.mean(cuts), "count")
    res.put("baseline.p1_op_s", np.mean(p1), "s")
    res.put("obs.trace_overhead_frac", sum(traced) / sum(untraced) - 1.0, "ratio")
    layers = tracer.self_total(("graph.", "distributed.", "precond.", "krylov."))
    res.put("obs.layer_share", layers / sum(untraced), "ratio")
    res.info.update(untraced_solve_s=untraced, traced_solve_s=traced,
                    p1_solve_s=dict(zip(KINDS, p1)))
    return res
