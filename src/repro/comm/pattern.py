"""Communication pattern recognition.

Before any parallel matvec can run, each subdomain must know which of its
owned interface values its neighbors need (sends) and where incoming external
interface values land in its ghost buffer (receives).  Diffpack's parallel
toolbox calls this "communication pattern recognition"; here the pattern is a
static object built once from the partition and reused by every exchange.

A fault-free exchange is a direct array copy per transfer on every
backend: the values are made on the driver and read back on the driver, so
a round trip through the rank processes would protect nothing.  Under an
active fault plan an exchange sends all of its transfers through the one
reliable round, :func:`repro.comm.delivery.deliver`, as a batch of
integrity-enveloped DATA frames (per-(src, dst) sequence number plus
CRC-32), each answered by its destination rank.  Failed deliveries (drop,
corruption, dead peer) are retransmitted under the communicator's bounded
:class:`~repro.comm.communicator.RetryPolicy`, every failed attempt charges
its timeout window to the cost ledger and emits a
``resilience.comm.retry`` trace event, and exhausting the budget raises a
typed :class:`~repro.resilience.errors.CommFault` (``docs/robustness.md``).
On the in-process backend the loopback transport *is* the simulated
delivery; on the multiprocess backend the frames cross the real pipes.

With worker-resident compute active (multiprocess backend,
:mod:`repro.comm.compute`), the values an exchange delivers are exactly
what the next ``MATVEC_GHOSTS`` worker round ships back out: the driver
gathers interface ghosts here, then forwards only those ghosts — never
whole vectors — to the rank processes.  Worker command rounds go through
the same reliable round, so they share this module's failure model: the
same fault-plan hook, the same retry classification, the same typed
faults (``docs/algorithms.md`` §8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro import faults, obs
from repro.comm.backends import framing
from repro.comm.communicator import Communicator
from repro.comm.delivery import Envelope, deliver


@dataclass(frozen=True)
class ExchangeSpec:
    """One directed rank-to-rank transfer of a ghost exchange.

    ``send_local`` indexes the *sender's* owned array; ``recv_ghost`` indexes
    the *receiver's* ghost array.  Both sides list the same global points in
    the same order.
    """

    src: int
    dst: int
    send_local: np.ndarray
    recv_ghost: np.ndarray

    @property
    def count(self) -> int:
        return len(self.send_local)

    @cached_property
    def max_send(self) -> int:
        """Largest owned index this transfer reads (-1 when empty)."""
        return int(self.send_local.max()) if len(self.send_local) else -1

    @cached_property
    def max_recv(self) -> int:
        """Largest ghost index this transfer writes (-1 when empty)."""
        return int(self.recv_ghost.max()) if len(self.recv_ghost) else -1


@dataclass
class CommunicationPattern:
    """All transfers of one ghost exchange, plus cached per-rank statistics."""

    num_ranks: int
    transfers: list[ExchangeSpec]
    _msgs_per_rank: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    _bytes_per_rank: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        msgs = np.zeros(self.num_ranks)
        nbytes = np.zeros(self.num_ranks)
        for t in self.transfers:
            # charge both endpoints: the sender posts the message, the
            # receiver waits for it (symmetric cost in a latency/bw model)
            msgs[t.src] += 1
            msgs[t.dst] += 1
            nbytes[t.src] += 8 * t.count
            nbytes[t.dst] += 8 * t.count
        self._msgs_per_rank = msgs
        self._bytes_per_rank = nbytes

    @property
    def msgs_per_rank(self) -> np.ndarray:
        return self._msgs_per_rank

    @property
    def bytes_per_rank(self) -> np.ndarray:
        return self._bytes_per_rank

    def neighbors_of(self, rank: int) -> list[int]:
        """Ranks that ``rank`` exchanges data with."""
        out = set()
        for t in self.transfers:
            if t.src == rank:
                out.add(t.dst)
            elif t.dst == rank:
                out.add(t.src)
        return sorted(out)

    def max_neighbor_count(self) -> int:
        return max(
            (len(self.neighbors_of(r)) for r in range(self.num_ranks)), default=0
        )

    def exchange(
        self,
        comm: Communicator,
        owned: list[np.ndarray],
        ghost: list[np.ndarray],
    ) -> None:
        """Execute the ghost exchange in place and charge its cost.

        ``owned[r]`` and ``ghost[r]`` are rank r's owned and ghost value
        arrays; after the call every ghost slot holds the owner's current
        value.  Mismatched buffers raise a clear ``ValueError`` naming the
        offending rank and transfer instead of an opaque IndexError.
        """
        if len(owned) != self.num_ranks or len(ghost) != self.num_ranks:
            raise ValueError(
                f"ghost exchange over {self.num_ranks} ranks needs one owned "
                f"and one ghost array per rank, got {len(owned)} owned / "
                f"{len(ghost)} ghost"
            )
        # hot path: skip even null-span construction when tracing is off
        if obs.enabled():
            with obs.span("comm.exchange", transfers=len(self.transfers)):
                self._exchange(comm, owned, ghost)
        else:
            self._exchange(comm, owned, ghost)

    def _exchange(
        self,
        comm: Communicator,
        owned: list[np.ndarray],
        ghost: list[np.ndarray],
    ) -> None:
        plan = faults.active()
        if plan is None:
            # nothing can be lost or corrupted: a direct copy per transfer
            comm.comm_stats.messages += len(self.transfers)
            for t in self.transfers:
                _check_bounds(t, owned, ghost)
                ghost[t.dst][t.recv_ghost] = owned[t.src][t.send_local]
        else:
            self._deliver(comm, plan, owned, ghost)
        comm.ledger.add_phase(
            0.0, msgs_per_rank=self._msgs_per_rank, bytes_per_rank=self._bytes_per_rank
        )

    def _deliver(
        self,
        comm: Communicator,
        plan: faults.FaultPlan,
        owned: list[np.ndarray],
        ghost: list[np.ndarray],
    ) -> None:
        """Send every transfer of a fault-plan exchange through the reliable
        round (:func:`deliver`).

        Each transfer is a DATA frame answered by its destination rank;
        the ghost slots are written from the validated *response* payload,
        so the bytes provably survived the round trip.  The legacy silent
        ``ghost-*`` fault kinds act past the envelope (the checksum has
        already validated, so detection falls to the numerical guards
        downstream): their transfers skip the round.
        """
        sent: list[ExchangeSpec] = []

        def envelopes():
            # consumed by deliver() after its exchange_begin hook, so the
            # ghost-* hooks keep their place in the fault order
            for t in self.transfers:
                _check_bounds(t, owned, ghost)
                payload = owned[t.src][t.send_local]
                action, value = plan.transfer_action(t.src, t.dst)
                if action != "ok":
                    comm.comm_stats.messages += 1
                    if action == "corrupt":
                        ghost[t.dst][t.recv_ghost] = np.nan
                    elif action == "scale":
                        ghost[t.dst][t.recv_ghost] = payload * value
                    continue  # "drop": the slots keep their stale values
                sent.append(t)
                yield Envelope(t.src, t.dst, t.dst, payload.tobytes())

        responses = deliver(comm, framing.DATA, envelopes())
        for t, raw in zip(sent, responses):
            ghost[t.dst][t.recv_ghost] = np.frombuffer(raw, dtype=owned[t.src].dtype)


def _check_bounds(
    t: ExchangeSpec, owned: list[np.ndarray], ghost: list[np.ndarray]
) -> None:
    if len(ghost[t.dst]) <= t.max_recv or len(owned[t.src]) <= t.max_send:
        raise ValueError(
            f"ghost exchange {t.src}->{t.dst}: transfer targets ghost "
            f"index {t.max_recv} / owned index {t.max_send}, but rank "
            f"{t.dst} has {len(ghost[t.dst])} ghost slots and rank "
            f"{t.src} has {len(owned[t.src])} owned values"
        )
