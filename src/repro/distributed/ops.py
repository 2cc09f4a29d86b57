"""Distributed kernel operations bundled for the Krylov solvers.

A Krylov method needs exactly three distributed kernels (paper Sec. 1):
vector updates (local), inner products (allreduce), and the matvec
(ghost exchange + local product).  :class:`DistributedOps` packages the
first two over a :class:`~repro.distributed.layout.Layout` so solvers are
written once and run on any distributed layout (full system or the interface
Schur system).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.comm.communicator import Communicator
from repro.distributed.layout import Layout
from repro.krylov.ops import fixed_tree_sum


class DistributedOps:
    """Communication-charging dot/norm over a rank-blocked layout."""

    def __init__(self, comm: Communicator, layout: Layout) -> None:
        if layout.num_ranks != comm.size:
            raise ValueError("layout and communicator rank counts differ")
        self.comm = comm
        self.layout = layout

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """Global inner product (charges per-rank flops + one allreduce).

        Evaluated as per-rank partials combined by the fixed-order pairwise
        tree (:func:`~repro.krylov.ops.fixed_tree_sum`) — the reduction
        order is a function of the rank count alone, so the result is
        bitwise identical on any backend.  The partials are driver-local
        slice products: cheaper than a worker round trip.  One rank
        short-circuits to the historical whole-vector product.
        """
        self.comm.ledger.add_phase(2.0 * self.layout.sizes)
        self.comm.ledger.add_allreduce(nbytes=8)
        obs.event("comm.allreduce", bytes=8)
        if self.layout.num_ranks == 1:
            return float(np.dot(x, y))
        parts = [
            float(np.dot(x[self.layout.local_slice(r)],
                         y[self.layout.local_slice(r)]))
            for r in range(self.layout.num_ranks)
        ]
        return fixed_tree_sum(parts)

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(self.dot(x, x), 0.0)))

    def charge_local_axpy(self, count: int = 1) -> None:
        """Charge ``count`` vector updates (2 flops/entry, no communication)."""
        self.comm.ledger.add_phase(2.0 * count * self.layout.sizes)
