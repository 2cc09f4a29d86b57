"""Simple parallel block preconditioners (paper Sec. 2, "Block 1"/"Block 2").

Each subdomain updates its local solution independently by solving a local
system with its subdomain matrix A_i (the owned square block): perfectly
parallel, zero communication per application — which is why the paper finds
their per-iteration scalability excellent even when their convergence is
poor.  Three subdomain solvers are provided:

* ILU(0) backward-forward substitution → **Block 1**
* ILUT(τ,p) backward-forward substitution → **Block 2**
* a few ILUT-preconditioned local GMRES iterations → the "local
  (preconditioned) Krylov solver" variant the paper mentions.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro import faults, obs
from repro.comm import compute as worker_compute
from repro.comm.backends.worker import factor_from_message, factor_message
from repro.comm.communicator import Communicator
from repro.distributed.matrix import DistributedMatrix
from repro.factor import cache as factor_cache
from repro.factor.base import ILUFactorization
from repro.factor.ilu0 import _check_breakdown, ilu0
from repro.factor.ilut import ilut
from repro.krylov.fgmres import fgmres
from repro.krylov.ops import CountingOps
from repro.precond.base import ParallelPreconditioner
from repro.resilience.errors import InnerSolveDivergence
from repro.utils.parallel import parallel_map, setup_workers


def estimate_ilu_setup_flops(fac: ILUFactorization) -> float:
    """Rough factorization cost: each L entry triggers one U-row update."""
    avg_u_row = fac.u_upper.nnz / max(fac.n, 1)
    return 2.0 * fac.l_strict.nnz * avg_u_row + 2.0 * fac.nnz


class BlockPreconditioner(ParallelPreconditioner):
    """Block Jacobi over subdomains with a pluggable local solver."""

    def __init__(
        self,
        dmat: DistributedMatrix,
        comm: Communicator,
        factory: Callable[[np.ndarray], ILUFactorization] | None = None,
        *,
        variant: str = "ilu0",
        drop_tol: float = 1e-3,
        fill: int = 10,
        inner_iterations: int = 3,
        ordering: str = "natural",
        shift: float = 0.0,
        breakdown_frac: float | None = 0.25,
    ) -> None:
        """``variant``: "ilu0" (Block 1), "ilut" (Block 2), or "krylov".

        ``ordering``: "natural" keeps the [internal; interface] numbering;
        "rcm" factors each subdomain in reverse Cuthill–McKee order
        (bandwidth-reducing — a fixed-fill ILUT captures more of the true
        factors; ablation bench A7).

        ``shift`` factors A_i + shift·I (post-breakdown remedy);
        ``breakdown_frac`` bounds the tolerated floored-pivot fraction per
        subdomain before :class:`FactorizationBreakdown` is raised.
        """
        super().__init__(dmat, comm)
        if variant not in ("ilu0", "ilut", "krylov"):
            raise ValueError(f"unknown variant {variant!r}")
        if ordering not in ("natural", "rcm"):
            raise ValueError(f"unknown ordering {ordering!r}")
        self.variant = variant
        self.ordering = ordering
        self.inner_iterations = inner_iterations
        self.name = {"ilu0": "Block 1", "ilut": "Block 2", "krylov": "Block K"}[variant]
        if ordering == "rcm":
            self.name += " (RCM)"

        alg = "ilu0" if variant == "ilu0" else "ilut"
        params = (
            (float(shift),) if alg == "ilu0"
            else (float(drop_tol), int(fill), float(shift))
        )

        def _permute_rank(r: int) -> tuple[np.ndarray | None, sp.csr_matrix]:
            a_own = dmat.owned_square[r]
            perm = None
            if ordering == "rcm" and a_own.shape[0] > 1:
                from repro.graph.adjacency import graph_from_matrix
                from repro.graph.rcm import reverse_cuthill_mckee
                from repro.sparse.reorder import apply_symmetric_permutation

                perm = reverse_cuthill_mckee(graph_from_matrix(a_own))
                a_own = apply_symmetric_permutation(a_own, perm)
            return perm, a_own

        def _ship_key(a_perm: sp.csr_matrix) -> str:
            # the content digest both the driver cache and the worker
            # shipping protocol dedupe on — "worker" family, since the
            # factors it names are transport-independent by the bitwise
            # contract (same tier code runs on either side)
            return factor_cache.FactorCache.key(alg, a_perm, params, "worker")

        def _setup_rank(
            r: int,
        ) -> tuple[np.ndarray | None, ILUFactorization, str]:
            perm, a_own = _permute_rank(r)
            if variant == "ilu0":
                fac = ilu0(a_own, shift=shift, breakdown_frac=breakdown_frac)
            else:
                fac = ilut(
                    a_own, drop_tol, fill,
                    shift=shift, breakdown_frac=breakdown_frac,
                )
            return perm, fac, _ship_key(a_own)

        def _setup_worker(
            wc: worker_compute.WorkerCompute,
        ) -> list[tuple[np.ndarray | None, ILUFactorization, str]]:
            """Factor every subdomain inside its own rank process.

            One LOAD round ships the (permuted) subdomain matrices that are
            not already resident and one FACTOR round runs all eliminations
            concurrently in the rank processes (real parallelism — no GIL).
            Driver-cached factors skip both: the factor-cache content key
            does the dedup, and :meth:`_ensure_worker_factors` ships them as
            one LOAD_FACTOR round once setup is done.  The returned factors are
            rebuilt from the wire bytes and are bitwise identical to a
            driver-side factorization (same tier, same code, same input
            bytes).
            """
            cache = factor_cache.get_cache()
            results: dict[int, tuple] = {}
            perms: dict[int, np.ndarray | None] = {}
            keys: dict[int, str] = {}
            load_mat: dict[int, tuple[str, dict, list]] = {}
            factor_meta: dict[int, dict] = {}
            for r in range(comm.size):
                perm, a_perm = _permute_rank(r)
                perms[r] = perm
                fkey = _ship_key(a_perm)
                keys[r] = fkey
                cached = cache.get(fkey, alg) if cache.enabled else None
                if cached is not None:
                    _check_breakdown(
                        alg, cached.stats.floored_pivots, cached.n,
                        breakdown_frac, shift,
                    )
                    results[r] = (perm, cached, fkey)
                    continue
                n_r = int(a_perm.shape[0])
                mkey = factor_cache.FactorCache.key(
                    alg, a_perm, params, "worker-matrix"
                )
                load_mat[r] = (
                    mkey,
                    {"key": mkey, "nrows": n_r, "ncols": n_r},
                    [a_perm.indptr, a_perm.indices, a_perm.data],
                )
                meta = {
                    "alg": alg, "matrix_key": mkey, "factor_key": fkey,
                    "shift": float(shift),
                }
                if breakdown_frac is not None:
                    meta["breakdown_frac"] = float(breakdown_frac)
                if alg == "ilut":
                    meta["drop_tol"] = float(drop_tol)
                    meta["fill"] = int(fill)
                factor_meta[r] = meta
            if load_mat:
                wc.ensure_matrices(load_mat)
            if factor_meta:
                out = wc.factor(
                    factor_meta,
                    {r: perms[r] for r in factor_meta if perms[r] is not None},
                )
                for r in sorted(out):
                    fac, _ = factor_from_message(*out[r])
                    if cache.enabled:
                        cache.put(keys[r], fac)
                    results[r] = (perms[r], fac, keys[r])
            return [results[r] for r in range(comm.size)]

        # worker-resident setup on real backends: eliminations run inside
        # the rank processes.  An active fault plan pins setup to the
        # driver — pivot hooks must fire in the injecting process.
        wc = None
        if faults.active() is None:
            wc = worker_compute.session(comm)
        workers = setup_workers(comm.size, comm.size)
        with obs.span("precond.setup", precond=self.name, workers=workers,
                      where="worker" if wc is not None else "driver"):
            if wc is not None:
                results = _setup_worker(wc)
            else:
                # one independent factorization per simulated rank: fan out
                # on a thread pool; the span records the overlapped cost
                results = parallel_map(_setup_rank, range(comm.size), workers)
            self.factors = [fac for _, fac, _ in results]
            self._perms = [perm for perm, _, _ in results]
            self._ship_keys = {r: key for r, (_, _, key) in enumerate(results)}
            if wc is not None:
                self._ensure_worker_factors(wc)

        setup = np.zeros(comm.size)
        for r, fac in enumerate(self.factors):
            if fac.stats.floored_pivots:
                obs.event(
                    "factor.stats", rank=r, precond=variant,
                    floored_pivots=fac.stats.floored_pivots, n=fac.stats.n,
                )
            setup[r] = estimate_ilu_setup_flops(fac)
        self._charge_setup(setup)
        self._apply_flops = np.asarray([f.solve_flops() for f in self.factors])

    def _ensure_worker_factors(self, wc: worker_compute.WorkerCompute) -> int:
        """Ship any factors the rank processes do not hold (content-keyed).

        A no-op on the steady path — after setup (or the first apply) every
        ``(rank, key)`` is in the session's shipped set.  After an
        ``absorb_rank`` recovery the preconditioner is rebuilt on a fresh
        communicator whose session starts empty, so this is also the
        re-shipping path the robustness docs describe.
        """
        entries: dict[int, tuple[str, dict, list]] = {}
        for r in range(self.comm.size):
            key = self._ship_keys[r]
            if wc.is_shipped(r, key):
                continue
            meta, arrays = factor_message(self.factors[r], self._perms[r])
            meta["key"] = key
            entries[r] = (key, meta, arrays)
        return wc.ensure_factors(entries) if entries else 0

    def _local_solve(self, rank: int, r_loc: np.ndarray) -> np.ndarray:
        perm = self._perms[rank]
        if perm is None:
            return self.factors[rank].solve(r_loc)
        z_p = self.factors[rank].solve(r_loc[perm])
        z = np.empty_like(z_p)
        z[perm] = z_p
        return z

    def apply(self, r: np.ndarray) -> np.ndarray:
        if self.variant != "krylov":
            wc = worker_compute.session(self.comm)
            if wc is not None:
                # worker-resident sweeps: each rank process runs the exact
                # ILUFactorization.solve path on its resident factor, so
                # the assembled z is bitwise equal to the loop below
                with obs.span("block.local_solves", variant=self.variant,
                              where="worker"):
                    self._ensure_worker_factors(wc)
                    z = wc.apply_factors(self._ship_keys, self.pm.layout, r)
                    self.comm.ledger.add_phase(self._apply_flops)
                return z
            z = np.empty_like(r)
            with obs.span("block.local_solves", variant=self.variant):
                for rank in range(self.comm.size):
                    loc = self.pm.layout.local_slice(rank)
                    z[loc] = self._local_solve(rank, r[loc])
                self.comm.ledger.add_phase(self._apply_flops)
            return z
        z = np.empty_like(r)

        # local-Krylov variant: a few ILUT-preconditioned GMRES iterations
        return self._apply_krylov(r, z)

    def _apply_krylov(self, r: np.ndarray, z: np.ndarray) -> np.ndarray:
        flops = np.zeros(self.comm.size)
        with obs.span("block.local_solves", variant=self.variant):
            for rank in range(self.comm.size):
                loc = self.pm.layout.local_slice(rank)
                a_own = self.dmat.owned_square[rank]
                fac = self.factors[rank]
                counter = CountingOps(a_own.shape[0])

                def apply_a(v, a=a_own, c=counter):
                    c.add(2.0 * a.nnz)
                    return a @ v

                def apply_m(v, f=fac, c=counter):
                    c.add(f.solve_flops())
                    return f.solve(v)

                res = fgmres(
                    apply_a,
                    r[loc],
                    apply_m=apply_m,
                    restart=max(self.inner_iterations, 1),
                    rtol=1e-12,
                    maxiter=self.inner_iterations,
                    ops=counter,
                )
                if res.status == "diverged":
                    raise InnerSolveDivergence(
                        "Block K local Krylov solve diverged",
                        rank=rank, where="blockk.local",
                        residual=float(res.final_residual),
                    )
                z[loc] = res.x
                flops[rank] = counter.flops
            self.comm.ledger.add_phase(flops)
        return z


def block1(
    dmat: DistributedMatrix, comm: Communicator, **params
) -> BlockPreconditioner:
    """Block 1: block Jacobi with ILU(0) subdomain solves."""
    return BlockPreconditioner(dmat, comm, variant="ilu0", **params)


def block2(
    dmat: DistributedMatrix,
    comm: Communicator,
    drop_tol: float = 1e-3,
    fill: int = 10,
    ordering: str = "natural",
    **params,
) -> BlockPreconditioner:
    """Block 2: block Jacobi with ILUT(τ,p) subdomain solves."""
    return BlockPreconditioner(
        dmat, comm, variant="ilut", drop_tol=drop_tol, fill=fill,
        ordering=ordering, **params,
    )


def block_krylov(
    dmat: DistributedMatrix,
    comm: Communicator,
    inner_iterations: int = 3,
    drop_tol: float = 1e-3,
    fill: int = 10,
    **params,
) -> BlockPreconditioner:
    """Block preconditioner with local preconditioned-GMRES subdomain solves."""
    return BlockPreconditioner(
        dmat,
        comm,
        variant="krylov",
        drop_tol=drop_tol,
        fill=fill,
        inner_iterations=inner_iterations,
        **params,
    )
