"""transient-mp: TC4 heat conduction marched on the multiprocess backend.

``TransientHeatSolver`` partitions, factors and spawns its rank processes
once; each implicit-Euler step is then matvec, apply and reduction rounds
with the workers plus one checkpoint write.  One ``block2`` march and one
``schur1`` march advance in alternation, a step each per round.
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
    fresh_dir,
    median_of_runs,
    pid_cpu_s,
    process_cpu_s,
    relres,
    run_pair,
    timed,
)
from perfbench.tracing import Tracer

GRID = 21                       # a 21^3 cube: 9,261 unknowns
DT = 0.05                       # the paper's time step
NPARTS = 2
BACKEND = "multiprocess"
KINDS = ("block2", "schur1")
MIN_ROUNDS = 2                  # per partition; ``iters`` sums these rounds
SETUP_REPEATS = 3
TRACED_ROUNDS = 5


def _untraced(fn, name):
    return fn


def _build_solvers(case, seed: int, label, workdir, backend=BACKEND,
                   nparts=NPARTS, wrap=_untraced):
    """One solver per kind on a shared partition, rank processes started
    (they would otherwise start lazily inside the first step)."""
    from repro.core.transient import TransientHeatSolver

    pseed = derive_seed(seed, "transient-mp", label)
    solvers = {}
    for kind in KINDS:
        solver = TransientHeatSolver(
            case.mesh, DT, case.mesh.boundary_set("right"), precond=kind,
            nparts=nparts, seed=pseed, backend=backend,
            checkpoint_dir=str(fresh_dir(workdir / f"{kind}-{label}")),
        )
        wrap(solver.comm.backend.ensure_started, "comm.spawn")()
        solvers[kind] = solver
    return solvers


def _close(solvers) -> None:
    for solver in solvers.values():
        solver.close()


def _rank_cpu_s(solvers) -> float:
    return sum(
        pid_cpu_s(pid)
        for s in solvers.values()
        for pid in (s.comm.backend.rank_pid(r) for r in range(s.nparts))
        if pid is not None
    )


def _step_residual(solver, u_prev, u) -> float:
    rhs = solver.op.rhs(u_prev)
    rhs[solver.dirichlet] = 0.0
    return relres(solver.matrix, rhs, u, u_prev)


def _check_step(res: Result, solver, label: str) -> bool:
    rec = solver.history[-1]
    problems = []
    if rec.status != "converged":
        problems.append(f"step ended {rec.status!r}")
    if len(solver.history) > 1 and rec.max_abs > solver.history[-2].max_abs:
        problems.append("max|u| increased")
    for p in problems:
        res.fail(f"{label}: {p}")
    return not problems


def run(seed: int, seconds: float, t_start: float, workdir, speed: HostSpeed) -> Result:
    """Each set-up repeat builds solvers on its own partition and marches
    them for a third of the run, so a run averages over three partitions."""
    from repro.cases import heat3d_case
    from repro.resilience.errors import TransientStepFailure

    res = Result()
    t_setup = time.monotonic()
    case = heat3d_case(n=GRID)
    prelude = time.perf_counter() - t_start     # imports and case assembly
    speed.probe()
    prelude *= speed.scale(t_setup, time.monotonic())
    builds, ops, cpu, iters = [], [], 0.0, 0
    for r in range(SETUP_REPEATS):
        t = time.monotonic()
        build_s, solvers = timed(lambda: _build_solvers(case, seed, r, workdir))
        speed.probe()
        builds.append(build_s * speed.scale(t, time.monotonic()))
        u = {kind: case.x0.copy() for kind in KINDS}
        prev = dict(u)

        def step(kind: str, rnd: int) -> None:
            nonlocal iters
            solver = solvers[kind]
            res.attempted += 1
            try:
                u_next = solver.advance(u[kind], 1)
            except TransientStepFailure as exc:
                res.failed += 1
                res.fail(f"partition {r} round {rnd} {kind}: {exc}")
                return
            if not _check_step(res, solver, f"partition {r} round {rnd} {kind}"):
                res.failed += 1
            if rnd < MIN_ROUNDS:
                iters += solver.history[-1].iterations
            prev[kind], u[kind] = u[kind], u_next

        try:
            phase_ops, phase_cpu = closed_loop(
                res, KINDS, step, speed, seconds / SETUP_REPEATS, MIN_ROUNDS,
                cpu_now=lambda: process_cpu_s() + _rank_cpu_s(solvers))
            for kind, solver in solvers.items():
                rr = _step_residual(solver, prev[kind], u[kind])
                if not rr <= solver.rtol * RESIDUAL_SLACK:
                    res.fail(f"partition {r} {kind}: last step's recomputed "
                             f"relative residual {rr:.3e}")
        finally:
            _close(solvers)
        ops += phase_ops
        cpu += phase_cpu
    closed_loop_metrics(res, prelude + float(np.median(builds)), ops, cpu, iters)
    res.info.update(prelude_s=prelude, build_s=builds)
    return res


def _composed_step(tracer: Tracer, solver, ops, manager, u, step: int, on_save):
    """The public calls ``advance`` makes for one step, each traced."""
    from repro.krylov.fgmres import fgmres

    from perfbench.layers import hot_targets

    rhs = tracer.wrap(solver.op.rhs, "fem.rhs")(u)
    rhs[solver.dirichlet] = 0.0
    with tracer.patched(hot_targets()):
        result = tracer.wrap(fgmres, "krylov.solve")(
            lambda v: solver.dmat.matvec(solver.comm, v),
            solver.pm.to_distributed(rhs), apply_m=solver.precond,
            x0=solver.pm.to_distributed(u), restart=20, rtol=solver.rtol,
            maxiter=solver.maxiter, ops=ops,
        )
    u_next = solver.pm.to_global(result.x)
    tracer.wrap(manager.save, "checkpoint.save", on_save)(
        step, {"u": u_next, "membership": solver.membership},
        meta={"kind": "transient", "nparts": solver.nparts,
              "precond": solver.precond_name},
    )
    return result, u_next


def trace(seed: int, seconds: float, tracer: Tracer, workdir) -> Result:
    """Pairs every ``advance(u, 1)`` with its composed, traced twin from the
    same state on the same solver; the two must agree bitwise."""
    import resource

    from repro import LINUX_CLUSTER
    from repro.cases import heat3d_case
    from repro.checkpoint import CheckpointManager
    from repro.distributed.ops import DistributedOps

    from perfbench.common import peak_rss_mb
    from perfbench.layers import CacheDelta, Collected, internal_targets, layer_metrics

    res = Result()
    cache = CacheDelta()
    case = tracer.wrap(heat3d_case, "cases.build")(n=GRID)
    collected = Collected()
    with tracer.operation("setup"), tracer.patched(internal_targets(collected)):
        solvers = _build_solvers(case, seed, 0, workdir, wrap=tracer.wrap)
    untraced, traced, ledgers = [], [], []
    try:
        ops = {k: DistributedOps(s.comm, s.pm.layout) for k, s in solvers.items()}
        managers = {
            k: CheckpointManager(fresh_dir(workdir / f"traced-{k}"), prefix="transient")
            for k in KINDS
        }
        u = {kind: case.x0.copy() for kind in KINDS}
        for rnd in range(TRACED_ROUNDS):
            for i, (kind, solver) in enumerate(solvers.items()):
                def plain():
                    solver.comm.reset_ledger()
                    u_next = solver.advance(u[kind], 1)
                    ledgers.append(solver.comm.reset_ledger())
                    return u_next

                def twin():
                    with tracer.operation(f"{kind}-{rnd}"), tracer.span("step"):
                        return _composed_step(tracer, solver, ops[kind], managers[kind],
                                              u[kind], rnd + 1, collected.checkpoint)

                (t_plain, u_next), (t_twin, (result, u_cmp)) = run_pair(rnd + i, plain, twin)
                untraced.append(t_plain)
                traced.append(t_twin)
                res.attempted += 1
                if not _check_step(res, solver, f"round {rnd} {kind}"):
                    res.failed += 1
                if result.iterations != solver.history[-1].iterations \
                        or not np.array_equal(u_cmp, u_next):
                    res.fail(f"round {rnd} {kind}: traced step diverged from advance")
                u[kind] = u_next
        retries = sum(s.comm.comm_stats.retries for s in solvers.values())
        timeouts = sum(s.comm.comm_stats.timeouts for s in solvers.values())
        setup_pred = np.mean([LINUX_CLUSTER.time(s.setup_ledger) for s in solvers.values()])
    finally:
        with tracer.operation("teardown"):
            for solver in solvers.values():
                tracer.wrap(solver.close, "comm.close")()

    cache.put(res)
    p1 = []
    for kind, solver in _build_solvers(case, seed, "p1", workdir,
                                       backend="inprocess", nparts=1).items():
        p1.append(median_of_runs(lambda s=solver: s.advance(case.x0, 1), 3)[0])
        solver.close()

    n_steps = len(traced)
    layer_metrics(res, tracer, n_ops=n_steps, n_setups=len(KINDS))
    res.put("comm.msgs", sum(l.total_msgs for l in ledgers) / n_steps, "count")
    res.put("comm.bytes", sum(l.total_bytes for l in ledgers) / n_steps, "B")
    res.put("comm.allreduces", sum(l.allreduces for l in ledgers) / n_steps, "count")
    res.put("kernels.flops", sum(l.total_flops for l in ledgers) / n_steps, "flop")
    res.put("comm.retries", retries, "count")
    res.put("comm.timeouts", timeouts, "count")
    res.put("comm.worker_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    res.put("checkpoint.bytes", np.mean(collected.checkpoint_bytes), "B")
    res.put("perfmodel.setup_pred_s", setup_pred, "s")
    res.put("perfmodel.solve_pred_s", np.mean([LINUX_CLUSTER.time(l) for l in ledgers]), "s")
    res.put("graph.edge_cut", np.mean(collected.cuts), "count")
    res.put("baseline.p1_op_s", np.mean(p1), "s")
    res.put("obs.trace_overhead_frac", sum(traced) / sum(untraced) - 1.0, "ratio")
    layers = tracer.self_total(("krylov.", "precond.apply", "distributed.matvec",
                                "checkpoint.", "fem."))
    res.put("obs.layer_share", layers / sum(untraced), "ratio")
    res.info.update(untraced_step_s=untraced, traced_step_s=traced,
                    p1_step_s=dict(zip(KINDS, p1)))
    return res
