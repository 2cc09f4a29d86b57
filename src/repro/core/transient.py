"""Transient (multi-step) parallel solves.

The paper's Test Case 4 runs a single implicit Euler step; production heat
simulations run many.  :class:`TransientHeatSolver` packages the pattern the
``examples/heat_simulation.py`` script demonstrates: partition and factor
once, then advance any number of steps, reusing the distributed operator and
the parallel preconditioner, with all per-step costs accumulated on one
ledger so the amortized parallel cost is measurable.

Long marches are fault-tolerant (docs/robustness.md):

* every completed step is classified (:attr:`StepRecord.status`), and a
  step that ends anything but ``converged`` raises a typed
  :class:`~repro.resilience.errors.TransientStepFailure` instead of
  silently marching on;
* with ``checkpoint_dir`` set, time-step state is snapshotted every
  ``checkpoint_every`` steps (``repro.ckpt.v1``, prefix ``transient``) and
  :meth:`restore` resumes a fresh process from the newest intact snapshot;
* a confirmed :class:`~repro.resilience.errors.RankDeadError` mid-march
  triggers in-place recovery: survivors absorb the dead subdomain
  (:func:`~repro.distributed.partition_map.absorb_rank`), the operator and
  preconditioner are rebuilt on the shrunk layout, and the march rewinds to
  the last checkpoint (or retries the current step when not checkpointed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import faults, obs
from repro.cases.base import TestCase
from repro.comm.communicator import Communicator
from repro.core.driver import make_preconditioner
from repro.distributed.matrix import distribute_matrix
from repro.distributed.ops import DistributedOps
from repro.distributed.partition_map import PartitionMap, absorb_rank
from repro.fem.boundary import apply_dirichlet
from repro.fem.timestepping import ImplicitEulerOperator
from repro.krylov.fgmres import fgmres
from repro.mesh.mesh import Mesh
from repro.resilience.errors import RankDeadError, TransientStepFailure


@dataclass
class StepRecord:
    """Per-step measurements."""

    step: int
    iterations: int
    converged: bool
    max_abs: float
    status: str = "converged"


class TransientHeatSolver:
    """Implicit-Euler heat marching with a reused parallel preconditioner.

    Parameters
    ----------
    mesh:
        Spatial mesh (any dimension supported by the FE kernels).
    dt, conductivity:
        Time step and conductivity k of u_t = k∇²u.
    dirichlet_nodes:
        Nodes held at zero (TC4 uses the x=1 face; homogeneous Neumann is
        natural elsewhere).
    precond, nparts, seed, scheme:
        Parallel setup, as in :func:`repro.core.solve_case`.
    checkpoint_dir, checkpoint_every:
        When ``checkpoint_dir`` is set, snapshot ``(u, membership)`` every
        ``checkpoint_every`` completed steps; :meth:`restore` and the
        rank-failure recovery path resume from the newest intact snapshot.
    """

    def __init__(
        self,
        mesh: Mesh,
        dt: float,
        dirichlet_nodes: np.ndarray,
        conductivity: float = 1.0,
        precond: str = "schur1",
        nparts: int = 4,
        seed: int = 0,
        scheme: str = "general",
        rtol: float = 1e-8,
        maxiter: int = 300,
        precond_params: dict | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 1,
        backend: str | None = None,
    ) -> None:
        self.op = ImplicitEulerOperator(mesh, dt=dt, conductivity=conductivity)
        self.dirichlet = np.asarray(dirichlet_nodes, dtype=np.int64)
        self.matrix, _ = apply_dirichlet(
            self.op.matrix, np.zeros(mesh.num_points), self.dirichlet, 0.0
        )
        self.rtol = rtol
        self.maxiter = maxiter
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.checkpoint_every = checkpoint_every
        self.checkpoints = None
        if checkpoint_dir is not None:
            from repro.checkpoint import CheckpointManager

            self.checkpoints = CheckpointManager(checkpoint_dir, prefix="transient")

        zeros = np.zeros(mesh.num_points)
        self.case = TestCase(
            key="transient", title="implicit Euler heat step", mesh=mesh,
            matrix=self.matrix, rhs=zeros, raw_matrix=self.op.matrix, x0=zeros,
        )
        self.graph = self.case.node_graph
        membership = self.case.membership(nparts, seed=seed, scheme=scheme)
        self.precond_name = precond
        self.precond_params = precond_params
        self.nparts = nparts
        self.backend_name = backend
        self.comm: Communicator | None = None
        self._build(np.asarray(membership, dtype=np.int64))
        self.setup_ledger = self.comm.reset_ledger()
        self.history: list[StepRecord] = []
        self.step = 0

    # -- layout (re)construction -------------------------------------------

    def _build(
        self, membership: np.ndarray, absorbed_rank: int | None = None
    ) -> None:
        """(Re)build the distributed operator stack for ``membership``.

        ``absorbed_rank`` is set on the rank-failure recovery path: the old
        communicator's envelope sequence state is carried over for the
        surviving edges (stale seq counters for edges that touched the dead
        rank are dropped — see :meth:`Communicator.adopt_seq`) and the old
        communicator's backend is shut down so dead-world processes do not
        outlive the world they belonged to.
        """
        prev = self.comm
        self.membership = membership
        self.nparts = int(membership.max()) + 1
        self.pm = PartitionMap(self.graph, membership, num_ranks=self.nparts)
        self.dmat = distribute_matrix(self.matrix, self.pm)
        self.comm = Communicator(self.nparts, backend=self.backend_name)
        if prev is not None and absorbed_rank is not None:
            self.comm.adopt_seq(prev, absorbed_rank)
        if prev is not None:
            prev.close()
        self.precond = make_preconditioner(
            self.precond_name, self.dmat, self.comm, self.case, self.precond_params
        )
        self._ops = DistributedOps(self.comm, self.pm.layout)

    def close(self) -> None:
        """Release the communicator's execution backend (idempotent)."""
        if self.comm is not None:
            self.comm.close()

    def _recover(self, exc: RankDeadError, u: np.ndarray) -> np.ndarray:
        """Absorb a confirmed-dead rank, rewind to the last checkpoint.

        Returns the state to resume from: the newest intact checkpointed
        ``u`` (with ``self.step`` and the history rewound to match) when
        checkpointing is on, else the in-memory start-of-step state.
        """
        if self.nparts < 2:
            raise exc
        dead = exc.rank
        obs.event("resilience.comm.rank_dead", rank=dead, step=self.step + 1)
        with obs.span(
            "resilience.comm.recover", rank=dead, survivors=self.nparts - 1
        ):
            self._build(
                absorb_rank(self.graph, self.membership, dead),
                absorbed_rank=dead,
            )
            plan = faults.active()
            if plan is not None:
                plan.mark_recovered(dead)
            if self.checkpoints is not None:
                ckpt = self.checkpoints.load_latest()
                if ckpt is not None and int(ckpt.meta.get("step", 0)) <= self.step:
                    self.step = int(ckpt.meta.get("step", 0))
                    del self.history[self.step :]
                    return np.asarray(ckpt["u"], dtype=np.float64)
        return u

    def restore(self) -> tuple[np.ndarray, int] | None:
        """Resume a fresh process from the newest intact checkpoint.

        Returns ``(u, step)`` — the state to pass to :meth:`advance` and the
        number of steps already completed — or ``None`` when no intact
        checkpoint exists.  If the snapshot was taken after a rank-failure
        recovery, its (shrunk) partition layout is re-adopted, so survivors
        keep marching as survivors.
        """
        if self.checkpoints is None:
            raise ValueError("restore() requires checkpoint_dir")
        ckpt = self.checkpoints.load_latest()
        if ckpt is None:
            return None
        membership = ckpt.arrays.get("membership")
        if membership is not None:
            membership = np.asarray(membership, dtype=np.int64)
            if not np.array_equal(membership, self.membership):
                self._build(membership)
                rebuild = self.comm.reset_ledger()
                if rebuild.num_ranks == self.setup_ledger.num_ranks:
                    self.setup_ledger.merge(rebuild)
                else:
                    # the snapshot came from a shrunk (post-recovery) world;
                    # per-rank setup vectors for the old layout no longer
                    # describe anything that exists, so start fresh
                    self.setup_ledger = rebuild
        self.step = int(ckpt.meta.get("step", 0))
        del self.history[self.step :]
        return np.asarray(ckpt["u"], dtype=np.float64), self.step

    # -- marching -----------------------------------------------------------

    def advance(self, u: np.ndarray, steps: int = 1) -> np.ndarray:
        """March ``steps`` implicit Euler steps from state ``u``.

        A step that ends anything but ``converged`` is recorded in
        ``history`` with its classification and raised as
        :class:`TransientStepFailure`.  A confirmed rank failure triggers
        in-place recovery (see :meth:`_recover`) and the march continues —
        possibly rewound to an earlier checkpointed step — until the
        original target step is reached.
        """
        u = np.asarray(u, dtype=np.float64).copy()
        target = self.step + steps
        while self.step < target:
            rhs = self.op.rhs(u)
            rhs[self.dirichlet] = 0.0
            # symmetric elimination: subtract prescribed couplings (all zero
            # values here, so only the row replacement matters)
            try:
                res = fgmres(
                    lambda v: self.dmat.matvec(self.comm, v),
                    self.pm.to_distributed(rhs),
                    apply_m=self.precond,
                    x0=self.pm.to_distributed(u),
                    restart=20,
                    rtol=self.rtol,
                    maxiter=self.maxiter,
                    ops=self._ops,
                )
            except RankDeadError as exc:
                u = self._recover(exc, u)
                continue
            step = self.step + 1
            u_next = self.pm.to_global(res.x)
            self.history.append(
                StepRecord(
                    step=step,
                    iterations=res.iterations,
                    converged=res.converged,
                    max_abs=float(np.abs(u_next).max()),
                    status=res.status,
                )
            )
            if not res.converged:
                raise TransientStepFailure(
                    f"step {step} ended {res.status!r} after "
                    f"{res.iterations} iterations",
                    step=step, step_status=res.status,
                    iterations=res.iterations,
                )
            u = u_next
            self.step = step
            if self.checkpoints is not None and step % self.checkpoint_every == 0:
                self.checkpoints.save(
                    step,
                    {"u": u, "membership": self.membership},
                    meta={
                        "kind": "transient",
                        "nparts": self.nparts,
                        "precond": self.precond_name,
                    },
                )
        return u

    @property
    def total_iterations(self) -> int:
        return sum(rec.iterations for rec in self.history)
