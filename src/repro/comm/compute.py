"""Driver-side session for worker-resident subdomain compute.

:mod:`repro.comm.backends.worker` defines what a rank process can execute;
this module is the driver's half: a :class:`WorkerCompute` session bound to
one communicator + real backend that ships each rank its subdomain state
**once** (content-hash keyed, the PR 4 factor-cache identity) and then
drives the per-iteration hot path — triangular-sweep APPLY and ghost-only
MATVEC — through batched ``CMD`` rounds.

A **round** packs one command payload per participating rank and hands
them to :func:`repro.comm.delivery.deliver`, the same reliable round every
ghost exchange uses: all frames hit the pipes before the driver blocks on
the first response (so rank processes overlap their compute), and
timeouts, NAKs, garbled frames, supervisor fencing and the typed
:class:`~repro.resilience.errors.CommFault` give-up behave exactly as they
do for a ghost exchange — which is what lets ``absorb_rank`` +
:class:`ResilientSolver` recover from a rank killed mid-MATVEC.  Every
worker op is idempotent, so a retransmitted command re-executes bitwise
identically.  What stays here is the command layer: decoding results with
``unpack_command`` and re-raising worker-reported failures as their typed
counterparts.  After recovery the fresh communicator gets a fresh session
whose shipped-key set is empty, so surviving ranks are transparently
re-shipped their (re-partitioned) subdomains.

Every round fires the active fault plan's ``exchange_begin`` hook (worker
rounds are delivery opportunities like ghost exchanges) and emits one
``comm.worker.round`` event carrying each rank's *worker-measured* wall and
CPU seconds — the raw material for ``repro trace``'s per-rank attribution
and the scaling bench's critical-path model (``docs/performance.md``).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro import obs
from repro.comm.backends import framing
from repro.comm.backends.worker import (
    OP_APPLY,
    OP_FACTOR,
    OP_LOAD_FACTOR,
    OP_LOAD_MATRIX,
    OP_MATVEC,
    OP_MATVEC_GHOSTS,
    OP_NAMES,
    pack_command,
    unpack_command,
)
from repro.comm.communicator import Communicator
from repro.comm.delivery import Envelope, deliver
from repro.resilience import errors as _errors

#: per-attempt timeout floors (seconds): retry policies are tuned for
#: microsecond echo traffic; a command that *computes* needs a window
#: matched to the work, or slow-but-healthy ranks would be fenced
HEAVY_FLOOR = 120.0   #: LOAD / FACTOR — ships state or factors a subdomain
LIGHT_FLOOR = 2.0     #: MATVEC / APPLY — per-iteration ops


class WorkerComputeError(RuntimeError):
    """A worker executed a command and reported a failure the driver cannot
    map onto the typed resilience taxonomy."""


def session(comm: Communicator) -> "WorkerCompute | None":
    """The communicator's worker-compute session, or None (driver compute).

    A session exists if and only if the backend is real; it is cached on
    the communicator, so every caller in a solve shares one shipped-key
    set.  A communicator born from ``absorb_rank`` recovery is a *new*
    object with a *new* backend — its session starts empty and re-ships
    state on first use, which is the whole recovery story.
    """
    if not comm.backend.is_real:
        return None
    wc = getattr(comm, "_worker_compute", None)
    if wc is None or wc.backend is not comm.backend:
        wc = WorkerCompute(comm)
        comm._worker_compute = wc
    return wc


def _raise_worker_error(rank: int, op: int, meta: dict):
    """Re-raise a worker-reported failure as its typed counterpart.

    The wire carries the exception *name*; anything in the resilience
    taxonomy (``FactorizationBreakdown`` from a worker-side ILU, say)
    comes back as that class so retry/fallback logic upstream is blind to
    where the computation ran.
    """
    msg = (
        f"worker rank {rank} failed {OP_NAMES.get(op, 'a command')}: "
        f"{meta.get('error', 'unknown error')}"
    )
    cls = getattr(_errors, str(meta.get("etype", "")), None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            raise cls(msg)
        except TypeError:  # taxonomy class with required kwargs
            pass
    raise WorkerComputeError(msg)


class WorkerCompute:
    """One communicator's worker-resident compute session."""

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm
        self.backend = comm.backend
        #: (rank, content-key) pairs confirmed resident in the workers
        self._shipped: set[tuple[int, str]] = set()
        #: the assembled z vector whose per-rank slices sit in the workers'
        #: z-registers (identity-compared: the fused apply→matvec path)
        self._z_last: np.ndarray | None = None
        self.rounds = 0

    def is_shipped(self, rank: int, key: str) -> bool:
        return (rank, key) in self._shipped

    # -- the round primitive ----------------------------------------------

    def _round(
        self, op: int, payloads: dict[int, bytes], floor: float
    ) -> dict[int, tuple[dict, list]]:
        """One batched command round through the reliable round primitive."""
        t0 = perf_counter()
        ranks = sorted(payloads)
        # commands ride the (rank, rank) self-edge of the envelope seq
        # space — ghost-exchange edges keep their own counters
        responses = deliver(
            self.comm, framing.CMD,
            [Envelope(rank, rank, rank, payloads[rank]) for rank in ranks],
            floor=floor, op=OP_NAMES[op],
        )
        out: dict[int, tuple[dict, list]] = {}
        for rank, payload in zip(ranks, responses):
            r_op, meta, arrays = unpack_command(payload)
            if "error" in meta:
                _raise_worker_error(rank, r_op, meta)
            out[rank] = (meta, arrays)
        self.rounds += 1
        if obs.enabled():
            obs.event(
                "comm.worker.round", op=OP_NAMES[op], backend=self.backend.name,
                ranks=ranks,
                seconds=[float(out[r][0].get("seconds", 0.0)) for r in ranks],
                cpu_seconds=[
                    float(out[r][0].get("cpu_seconds", 0.0)) for r in ranks
                ],
                driver_seconds=perf_counter() - t0,
                bytes=sum(framing.HEADER_SIZE + len(payloads[r]) for r in ranks),
            )
        return out

    # -- state shipping ----------------------------------------------------

    def ensure_matrices(self, entries: dict[int, tuple[str, dict, list]]) -> int:
        """Ship matrices not yet resident; returns how many actually moved.

        ``entries[rank] = (key, meta, arrays)`` with meta/arrays as
        ``OP_LOAD_MATRIX`` expects (``meta['key']`` must equal ``key``).
        """
        payloads = {}
        for rank in sorted(entries):
            key, meta, arrays = entries[rank]
            if (rank, key) in self._shipped:
                continue
            payloads[rank] = pack_command(OP_LOAD_MATRIX, meta, arrays)
        if not payloads:
            return 0
        out = self._round(OP_LOAD_MATRIX, payloads, HEAVY_FLOOR)
        for rank in out:
            self._shipped.add((rank, entries[rank][0]))
        return len(out)

    def ensure_factors(self, entries: dict[int, tuple[str, dict, list]]) -> int:
        """Ship already-computed factors (``OP_LOAD_FACTOR``) not yet resident."""
        payloads = {}
        for rank in sorted(entries):
            key, meta, arrays = entries[rank]
            if (rank, key) in self._shipped:
                continue
            payloads[rank] = pack_command(OP_LOAD_FACTOR, meta, arrays)
        if not payloads:
            return 0
        out = self._round(OP_LOAD_FACTOR, payloads, HEAVY_FLOOR)
        for rank in out:
            self._shipped.add((rank, entries[rank][0]))
        return len(out)

    def factor(
        self, payload_meta: dict[int, dict], perms: dict[int, np.ndarray]
    ) -> dict[int, tuple[dict, list]]:
        """Run ``OP_FACTOR`` on every rank's resident matrix, in one round.

        ``payload_meta[rank]`` is the FACTOR meta (alg/params/matrix_key/
        factor_key); ``perms[rank]`` (optional per rank) is the RCM
        permutation the worker must keep with the factor for APPLY.
        Returns the raw per-rank ``(meta, arrays)`` in the
        :func:`~repro.comm.backends.worker.factor_message` layout, for the
        caller to rebuild driver-side factorizations that are bitwise
        identical to a local factorization.
        """
        payloads = {}
        for rank in sorted(payload_meta):
            meta = dict(payload_meta[rank])
            perm = perms.get(rank)
            arrays = []
            if perm is not None:
                meta["has_perm"] = True
                arrays = [np.asarray(perm, dtype=np.int64)]
            payloads[rank] = pack_command(OP_FACTOR, meta, arrays)
        out = self._round(OP_FACTOR, payloads, HEAVY_FLOOR)
        for rank in out:
            self._shipped.add((rank, payload_meta[rank]["factor_key"]))
        return out

    # -- per-iteration ops -------------------------------------------------

    def matvec(self, dmat, x: np.ndarray) -> np.ndarray:
        """Distributed matvec on the workers; bitwise equal to the fused one.

        Each rank holds a column-compacted row block of the fused operator
        (per-row storage order preserved, so per-row accumulation order —
        and every result bit — matches the driver's single fused product).
        When ``x`` *is* the vector the workers just produced via APPLY
        (the fused ``apply_matvec`` path), only interface ghost values
        travel; otherwise each rank receives its compacted input slice.
        """
        size = self.comm.size
        load_entries = {}
        for rank in range(size):
            blk = dmat.rank_block(rank)
            if (rank, blk.key) not in self._shipped:
                load_entries[rank] = (
                    blk.key,
                    {
                        "key": blk.key, "block": True,
                        "nrows": int(blk.a.shape[0]),
                        "ncols": int(blk.a.shape[1]),
                    },
                    [
                        blk.a.indptr, blk.a.indices, blk.a.data,
                        blk.own_pos, blk.own_sel, blk.ghost_pos,
                    ],
                )
        if load_entries:
            self.ensure_matrices(load_entries)
        registered = self._z_last is x
        payloads = {}
        for rank in range(size):
            blk = dmat.rank_block(rank)
            if registered:
                payloads[rank] = pack_command(
                    OP_MATVEC_GHOSTS, {"key": blk.key}, [x[blk.ghost_cols]]
                )
            else:
                payloads[rank] = pack_command(
                    OP_MATVEC, {"key": blk.key}, [x[blk.cols]]
                )
        out = self._round(
            OP_MATVEC_GHOSTS if registered else OP_MATVEC, payloads, LIGHT_FLOOR
        )
        y = np.empty(dmat.pm.layout.total, dtype=np.float64)
        rank_ptr = dmat.pm.layout.rank_ptr
        for rank in range(size):
            y[rank_ptr[rank] : rank_ptr[rank + 1]] = out[rank][1][0]
        return y

    def apply_factors(
        self, keys: dict[int, str], layout, r: np.ndarray
    ) -> np.ndarray:
        """Per-rank triangular sweeps ``z_r = (L_r U_r)^{-1} r_r`` in one round.

        The workers keep their ``z_r`` in the z-register; the assembled z
        is remembered so an immediately following :meth:`matvec` on the
        same object ships ghosts only.
        """
        payloads = {
            rank: pack_command(
                OP_APPLY, {"key": keys[rank]}, [r[layout.local_slice(rank)]]
            )
            for rank in sorted(keys)
        }
        out = self._round(OP_APPLY, payloads, LIGHT_FLOOR)
        z = np.empty_like(r)
        for rank in sorted(keys):
            z[layout.local_slice(rank)] = out[rank][1][0]
        self._z_last = z
        return z
