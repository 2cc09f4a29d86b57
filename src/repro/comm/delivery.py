"""The reliable round: the one delivery loop behind every envelope frame.

Ghost exchanges under a fault plan (:mod:`repro.comm.pattern`) and worker
command rounds (:mod:`repro.comm.compute`) both move a *batch* of
integrity-enveloped frames — per-(src, dst) sequence number plus CRC-32
(:mod:`~repro.comm.backends.framing`) — through the communicator's
execution backend, and both need the same guarantees.  :func:`deliver` is
the single implementation:

* one ``exchange_begin`` fault-plan hook per call (a round is a delivery
  opportunity: ``rank-dead`` / ``proc-kill`` / ``proc-hang`` fire here);
* one sequence number per frame, drawn from its (src, dst) edge;
* attempts the fault plan decides — a simulated-dead peer, an injected
  drop — burn their timeout window frame by frame, in frame order, before
  anything is sent; a frame that runs out of attempts this way gives up
  at once, exactly where a transfer-by-transfer loop would;
* every frame that reaches the transport goes out in a **wave**: exactly
  one :meth:`~repro.comm.backends.base.ExecutionBackend.request_many`
  call, which writes all frames before reading any response.  A clean
  round is one wave; a frame that fails on the transport joins the next
  wave with its next attempt;
* injected corruption garbles the real frame bytes, and the receiver's
  CRC check NAKs it; NAKs and garbled responses count checksum failures
  and retransmit — every frame is idempotent on the receiver, so a
  duplicate re-executes bitwise identically;
* transport timeouts feed the backend's supervisor (missed-heartbeat
  accounting, fencing) once per rank per wave, and a broken transport
  stops retrying that frame;
* failed attempts charge their retransmitted traffic and timeout windows
  to the cost ledger, and move the ``comm_stats`` counters;
* an exhausted retry budget raises the typed
  :class:`~repro.resilience.errors.CommFault` of the first failed frame:
  :class:`RankDeadError` for a real or simulated dead rank, otherwise
  :class:`MessageTimeout` or :class:`MessageCorruption` by the last
  failure's reason.

``delivery_action`` (drop/corrupt) and ``straggler_delay`` are consulted
for ghost-transfer (``DATA``) frames only, in frame order, so a seeded
fault plan fires at the same sites it always has.
On the in-process backend the loopback ``request_many`` *is* the simulated
delivery; on the multiprocess backend the rank processes validate and
answer the frames for real.  Every event is a ``resilience.comm.*`` trace
event (``docs/observability.md``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro import faults, obs
from repro.comm.backends import framing
from repro.comm.backends.base import TransportBroken, TransportTimeout
from repro.comm.communicator import Communicator
from repro.resilience.errors import (
    CommFault,
    MessageCorruption,
    MessageTimeout,
    RankDeadError,
)


@dataclass(frozen=True)
class Envelope:
    """One frame of a round: its edge, the rank that answers it, its bytes."""

    src: int
    dst: int
    rank: int
    payload: bytes


def deliver(
    comm: Communicator,
    kind: int,
    envelopes: Iterable[Envelope],
    floor: float = 0.0,
    op: str | None = None,
) -> list[bytes]:
    """Deliver ``envelopes`` as ``kind`` frames; validated response payloads.

    ``envelopes`` is consumed after the round's ``exchange_begin`` hook, so
    a caller may decide per item (consulting other fault hooks) while the
    round is being assembled.  A wave waits ``policy.wait(attempt)``
    seconds for its responses (the largest over its frames' attempts), and
    at least ``floor`` and the backend's ``min_wait``; ``op`` names the worker command in events and
    faults.  Returns the response payloads in envelope order, or raises the
    typed :class:`CommFault` of the first frame that exhausted its retries.
    """
    backend = comm.backend
    plan = faults.active()
    if plan is not None:
        plan.exchange_begin(backend=backend)
    items = list(envelopes)
    policy = comm.retry_policy
    stats = comm.comm_stats
    # drop/corrupt/straggler injection applies to ghost transfers only
    ghost_plan = plan if kind == framing.DATA else None
    tags: dict[str, object] = {"backend": backend.name}
    if op is not None:
        tags["op"] = op
    seqs = [comm.next_seq(e.src, e.dst) for e in items]
    frames = [_encode(kind, e, seq) for e, seq in zip(items, seqs)]
    stats.messages += len(items)
    out: list[bytes | None] = [None] * len(items)
    attempts = [0] * len(items)
    reasons = ["timeout"] * len(items)
    retransmits = [0] * len(items)
    delays = [0.0] * len(items)
    supervisor = getattr(backend, "supervisor", None)

    def retry(i: int, reason: str, **attrs) -> None:
        e = items[i]
        reasons[i] = reason
        if reason == "timeout":
            stats.timeouts += 1
        else:
            stats.checksum_failures += 1
        obs.event(
            "resilience.comm.retry", src=e.src, dst=e.dst, seq=seqs[i],
            attempt=attempts[i], reason=reason, **tags, **attrs,
        )
        attempts[i] += 1

    def give_up(i: int) -> CommFault:
        return _give_up(comm, plan, items[i], seqs[i], reasons[i], tags)

    pending = list(range(len(items)))
    try:
        while pending:
            wave: list[int] = []
            wires: list[tuple[int, bytes]] = []
            garbled: dict[int, dict[str, int]] = {}
            for i in pending:
                e = items[i]
                # attempts the fault plan decides never reach the transport:
                # they burn their window here, frame by frame
                while True:
                    if attempts[i] > policy.max_retries:
                        raise give_up(i)
                    if attempts[i]:
                        stats.retries += 1
                        retransmits[i] += 1
                    action = _fate(plan, ghost_plan, e, attempts[i])
                    if action != "drop":
                        break
                    delays[i] += policy.wait(attempts[i])
                    retry(i, "timeout")
                wire = frames[i]
                if action == "corrupt":
                    wire, garbled[i] = _garble(wire, e.payload)
                wave.append(i)
                wires.append((e.rank, wire))
            timeout = max(
                [policy.wait(attempts[i]) for i in wave] + [floor, backend.min_wait]
            )
            results = backend.request_many(wires, timeout)
            missed: dict[int, str] = {}
            pending = []
            for i, res in zip(wave, results):
                e = items[i]
                rank = e.rank
                if isinstance(res, TransportTimeout):
                    delays[i] += timeout
                    if rank not in missed:
                        # one missed window per rank, however many frames
                        missed[rank] = backend.handle_timeout(rank)
                    retry(i, "timeout", peer_state=missed[rank])
                    pending.append(i)
                elif isinstance(res, TransportBroken):
                    # confirmed gone: no point burning the remaining windows
                    attempts[i] = policy.max_retries + 1
                    pending.append(i)
                elif isinstance(res, MessageCorruption):
                    retry(i, "checksum", **garbled.get(i, {}))
                    pending.append(i)
                else:
                    resp = framing.decode_frame(res)
                    if resp.kind == framing.NAK:
                        retry(
                            i, "checksum", **garbled.get(i, {}),
                            nak=resp.payload.decode(errors="replace"),
                        )
                        pending.append(i)
                        continue
                    if ghost_plan is not None:
                        lateness = ghost_plan.straggler_delay(e.src, e.dst)
                        if lateness > 0.0:
                            # late but intact: counted apart from retries so
                            # traces can tell a slow link from a lossy one
                            stats.straggler_waits += 1
                            delays[i] += lateness
                    if supervisor is not None:
                        supervisor.record_ready(rank)
                    out[i] = resp.payload
            exhausted = [i for i in pending if attempts[i] > policy.max_retries]
            if exhausted:
                raise give_up(exhausted[0])
    finally:
        for e, n, delay in zip(items, retransmits, delays):
            _charge_recovery(comm, e, n, delay)
    return out  # type: ignore[return-value]


def _fate(plan, ghost_plan, e: Envelope, attempt: int) -> str:
    """What the fault plan does to one attempt: "ok", "drop" or "corrupt"."""
    if plan is not None and plan.dead_ranks.intersection((e.src, e.dst)):
        return "drop"  # simulated death: the peer plays dead
    if ghost_plan is not None:
        return ghost_plan.delivery_action(e.src, e.dst, attempt)
    return "ok"


def _garble(wire: bytes, payload: bytes) -> tuple[bytes, dict[str, int]]:
    """Flip one payload bit of a real frame, so the receiver's CRC check
    fails and it NAKs; returns the frame and the checksums to report."""
    flipped = bytearray(wire)
    flipped[-1] ^= 0xFF
    garbled = bytes(flipped)
    return garbled, {
        "expected": zlib.crc32(payload),
        "got": zlib.crc32(garbled[framing.HEADER_SIZE:]),
    }


def _encode(kind: int, e: Envelope, seq: int) -> bytes:
    """The wire frame of one envelope: a ghost transfer or a worker command."""
    if kind == framing.DATA:
        return framing.encode_frame(framing.DATA, e.src, e.dst, seq, e.payload)
    if kind == framing.CMD:
        return framing.encode_frame(framing.CMD, e.src, e.dst, seq, e.payload)
    raise ValueError(
        f"a delivery round carries data or cmd frames, not "
        f"{framing.KIND_NAMES.get(kind, kind)}"
    )


def _charge_recovery(
    comm: Communicator, e: Envelope, retransmits: int, delay: float
) -> None:
    """Charge one frame's retransmitted traffic and timeout/straggler waits."""
    if retransmits:
        msgs = np.zeros(comm.size)
        nbytes = np.zeros(comm.size)
        msgs[[e.src, e.dst]] += retransmits
        nbytes[[e.src, e.dst]] += float(len(e.payload)) * retransmits
        comm.ledger.add_phase(0.0, msgs_per_rank=msgs, bytes_per_rank=nbytes)
    if delay > 0.0:
        waits = np.zeros(comm.size)
        waits[e.dst] = delay
        comm.ledger.add_delay(waits)


def _give_up(
    comm: Communicator, plan, e: Envelope, seq: int, reason: str,
    tags: dict[str, object],
) -> CommFault:
    """The typed fault for a frame that exhausted its retry budget."""
    backend = comm.backend
    stats = comm.comm_stats
    attempts = comm.retry_policy.max_retries + 1
    what = (
        f"worker {tags['op']} command to rank {e.rank}" if "op" in tags
        else f"transfer {e.src}->{e.dst}"
    )
    ids = {"src": e.src, "dst": e.dst, "seq": seq}
    fault: CommFault | None = None
    if backend.is_real:
        fault = backend.classify(e.rank, **ids)
    if not isinstance(fault, RankDeadError) and plan is not None:
        dead = plan.dead_ranks.intersection((e.src, e.dst))
        if dead:
            rank = min(dead)
            fault = RankDeadError(
                f"rank {rank} stopped responding: {what} timed out "
                f"{attempts} times",
                rank=rank, attempts=attempts, **ids,
            )
    if isinstance(fault, RankDeadError):
        stats.rank_dead += 1
        obs.event("resilience.comm.rank_dead", rank=fault.rank, **ids, **tags)
        return fault
    obs.event("resilience.comm.give_up", reason=reason, **ids, **tags)
    cls = MessageCorruption if reason == "checksum" else MessageTimeout
    return cls(
        f"{what} failed {reason} validation {attempts} times",
        attempts=attempts, **ids,
    )
