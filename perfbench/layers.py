"""Which ``repro`` calls the traced runs wrap, and the per-layer metrics
derived from the spans they leave."""

from __future__ import annotations

import os

import numpy as np

from perfbench.common import Result, edge_cut
from perfbench.tracing import Tracer


def hot_targets() -> list[tuple]:
    """The per-iteration calls: matvec, preconditioner apply, reductions."""
    from repro.distributed.matrix import DistributedMatrix
    from repro.distributed.ops import DistributedOps
    from repro.precond.base import ParallelPreconditioner

    return [
        (DistributedMatrix, "matvec", "distributed.matvec"),
        (ParallelPreconditioner, "__call__", "precond.apply"),
        (DistributedOps, "dot", "krylov.reduce"),
    ]


class Collected:
    """Results the wrapped calls hand back, gathered for later metrics."""

    def __init__(self) -> None:
        self.cuts: list[int] = []
        self.checkpoint_bytes: list[int] = []
        self.outcomes: list = []

    def membership(self, membership, args) -> None:
        from repro.graph.adjacency import Graph

        owner = args[0]
        graph = owner if isinstance(owner, Graph) else owner.node_graph
        self.cuts.append(edge_cut(graph, np.asarray(membership)))

    def checkpoint(self, path, args) -> None:
        self.checkpoint_bytes.append(os.path.getsize(path))

    def outcome(self, outcome, args) -> None:
        self.outcomes.append(outcome)


def internal_targets(collected: Collected) -> list[tuple]:
    """The layer calls ``repro`` makes inside ``solve_case``, the service
    runner and ``TransientHeatSolver``'s constructor."""
    from repro.cases import CASE_BUILDERS
    from repro.cases.base import TestCase
    from repro.checkpoint import CheckpointManager
    from repro.comm.communicator import Communicator
    from repro.core import driver, transient
    from repro.graph import partitioner
    from repro.resilience import resilient

    targets = [(CASE_BUILDERS, key, "cases.build") for key in sorted(CASE_BUILDERS)]
    targets += [
        (TestCase, "membership", "graph.partition", collected.membership),
        (partitioner, "partition_graph", "graph.partition", collected.membership),
        (resilient, "solve_case", "solve", collected.outcome),
        (Communicator, "close", "comm.close"),
        (CheckpointManager, "save", "checkpoint.save", collected.checkpoint),
    ]
    for module in (driver, transient):
        targets += [
            (module, "Communicator", "comm.spawn"),
            (module, "PartitionMap", "distributed.layout"),
            (module, "distribute_matrix", "distributed.layout"),
            (module, "make_preconditioner", "precond.setup"),
            (module, "fgmres", "krylov.solve"),
        ]
    return targets + hot_targets()


class CacheDelta:
    """Factor-cache counter changes from construction to :meth:`put`."""

    def __init__(self) -> None:
        from repro.factor import cache

        self._stats = cache.stats
        self._start = cache.stats()

    def put(self, res: Result) -> None:
        now = self._stats()
        hits = now["hits"] - self._start["hits"]
        misses = now["misses"] - self._start["misses"]
        res.put("factor.cache_hits", hits, "count")
        res.put("factor.cache_misses", misses, "count")
        res.put("factor.cache_hit_ratio", hits / max(hits + misses, 1), "ratio")


def layer_metrics(res: Result, tracer: Tracer, n_ops: int, n_setups: int) -> None:
    """Span-derived metrics: set-up layers per set-up (a solve's own set-up,
    a solver construction, or a job's), the others per operation."""
    builds = max(tracer.count("cases.build"), 1)
    res.put("cases.build_s", tracer.total("cases.build") / builds, "s")
    for name in ("graph.partition", "distributed.layout", "precond.setup",
                 "comm.spawn", "comm.close"):
        res.put(f"{name}_s", tracer.total(name) / n_setups, "s")
    for name, calls in (("distributed.matvec", "distributed.matvec_calls"),
                        ("precond.apply", "precond.apply_calls"),
                        ("krylov.reduce", "krylov.reduce_calls"),
                        ("checkpoint.save", "checkpoint.saves")):
        res.put(f"{name}_s", tracer.total(name) / n_ops, "s")
        res.put(calls, tracer.count(name) / n_ops, "count")
    res.put("precond.apply_wait_s", tracer.wait("precond.apply") / n_ops, "s")
    res.put("krylov.solve_s", tracer.total("krylov.solve") / n_ops, "s")
    res.put("krylov.self_s", tracer.self_total(("krylov.solve",)) / n_ops, "s")


def outcome_metrics(res: Result, outcomes, n_ops: int) -> None:
    """Cost-ledger counts (computed, not measured), comm fault counters and
    the perfmodel's predicted seconds of ``SolveOutcome``s, per operation."""
    from repro import LINUX_CLUSTER

    ledgers = [led for o in outcomes for led in (o.setup_ledger, o.solve_ledger)]
    for name, field, unit in (("comm.msgs", "total_msgs", "count"),
                              ("comm.bytes", "total_bytes", "B"),
                              ("comm.allreduces", "allreduces", "count"),
                              ("kernels.flops", "total_flops", "flop")):
        res.put(name, sum(getattr(led, field) for led in ledgers) / n_ops, unit)
    for name in ("retries", "timeouts"):
        res.put(f"comm.{name}", sum(o.comm_stats[name] for o in outcomes), "count")
    res.put("perfmodel.setup_pred_s",
            sum(LINUX_CLUSTER.time(o.setup_ledger) for o in outcomes) / n_ops, "s")
    res.put("perfmodel.solve_pred_s",
            sum(LINUX_CLUSTER.time(o.solve_ledger) for o in outcomes) / n_ops, "s")
