"""The in-process backend: the historical single-process simulation.

Ranks are slices of the driver process and a transfer is an array copy.  A
fault-free ghost exchange never touches the wire on any backend (it is a
direct copy on the driver), and with no rank processes to run worker
rounds this backend never sees a frame outside a fault plan.
:meth:`InProcessBackend.request` implements the frame
protocol as a local loopback (validate, echo; NAK a frame that fails
validation, as a rank process would).  Under an active fault plan the ghost
exchange runs through :func:`repro.comm.delivery.deliver` and this loopback
*is* the simulated delivery: injected corruption garbles the real frame and
the loopback's CRC check catches it.
"""

from __future__ import annotations

from repro.comm.backends import framing
from repro.comm.backends.base import ExecutionBackend
from repro.resilience.errors import MessageCorruption


class InProcessBackend(ExecutionBackend):
    """Simulated ranks inside the driver process (the default)."""

    name = "inprocess"
    is_real = False

    def request(self, rank: int, raw: bytes, timeout: float) -> bytes:
        """Local loopback: validate the frame and echo like a rank would."""
        self._check_rank(rank)
        try:
            frame = framing.decode_frame(raw)
        except MessageCorruption as exc:
            return framing.nak_for(raw, exc, rank)
        if frame.kind == framing.PING:
            return framing.encode_frame(
                framing.PONG, frame.src, frame.dst, frame.seq
            )
        if frame.kind == framing.DATA:
            return framing.encode_frame(
                framing.ACK, frame.src, frame.dst, frame.seq, frame.payload
            )
        return framing.encode_frame(
            framing.NAK, frame.src, frame.dst, frame.seq,
            f"unexpected {frame.kind_name} frame".encode(),
        )
