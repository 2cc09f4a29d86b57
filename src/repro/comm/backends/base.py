"""The execution-backend interface.

A :class:`~repro.comm.communicator.Communicator` delegates *how ranks
execute and how bytes move between them* to an :class:`ExecutionBackend`:

* ``inprocess`` — the historical simulation: every rank is a slice of the
  driver process, a transfer is an array copy, and nothing can be lost
  outside fault injection.  This is the default and is bit-identical to the
  pre-backend behavior.
* ``multiprocess`` — every rank is a real OS process; transfers travel as
  :mod:`~repro.comm.backends.framing` frames over pipes, and a
  :class:`~repro.comm.backends.supervisor.RankSupervisor` tracks the rank
  lifecycle (heartbeats, real death, hangs, fencing).

The transport speaks two *internal* exceptions — :class:`TransportTimeout`
and :class:`TransportBroken` — that never escape a delivery round: the one
retry loop, :func:`repro.comm.delivery.deliver`, sends every ghost exchange
and every worker command round through :meth:`ExecutionBackend.request_many`
and converts those exceptions into retries, ledger charges, and finally the
typed :class:`~repro.resilience.errors.CommFault` taxonomy via
:meth:`ExecutionBackend.classify`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.comm.communicator import RetryPolicy
from repro.resilience.errors import CommFault, MessageCorruption

#: selectable backend names, in documentation order
BACKEND_NAMES = ("inprocess", "multiprocess")

#: environment override consulted when no explicit backend is requested
BACKEND_ENV = "REPRO_COMM_BACKEND"


class TransportTimeout(Exception):
    """No response arrived within the attempt's timeout window.

    Internal to the delivery loop — the retry policy decides whether this
    becomes another attempt or a typed :class:`CommFault`.
    """

    def __init__(self, rank: int, timeout: float) -> None:
        super().__init__(f"rank {rank} did not respond within {timeout:.3g}s")
        self.rank = rank
        self.timeout = timeout


class TransportBroken(Exception):
    """The transport endpoint is gone (process exited, pipe closed).

    Internal to the delivery loop; the supervisor has already recorded the
    death by the time this is raised.
    """

    def __init__(self, rank: int, detail: str = "") -> None:
        super().__init__(f"transport to rank {rank} is broken"
                         + (f": {detail}" if detail else ""))
        self.rank = rank


class ExecutionBackend(ABC):
    """How ``size`` ranks execute and exchange envelope-framed bytes.

    Lifecycle: backends start lazily (:meth:`ensure_started`) on first
    transfer and are shut down by the owning communicator's ``close()``.
    ``is_real`` distinguishes backends whose ranks can *actually* die from
    the simulated default: worker-resident compute runs only on a real
    backend, and the fault layer kills real processes there.  The ghost
    exchange does not consult it — a fault-free exchange is a driver-side
    copy on every backend, and the transport carries ghost values only
    under an active fault plan.
    """

    #: short selectable name (one of :data:`BACKEND_NAMES`)
    name: str = "abstract"
    #: True when ranks are real OS processes that can die
    is_real: bool = False
    #: shortest response window a delivery round gives this transport,
    #: whatever the retry policy says (a loopback answers at once)
    min_wait: float = 0.0

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("backend size must be >= 1")
        self.size = size

    # -- lifecycle ---------------------------------------------------------

    def ensure_started(self) -> None:
        """Idempotently bring every rank up (spawn + handshake)."""

    def shutdown(self) -> None:
        """Stop every rank and release transport resources (idempotent)."""

    # -- transport ---------------------------------------------------------

    @abstractmethod
    def request(self, rank: int, raw: bytes, timeout: float) -> bytes:
        """Round-trip one encoded frame through ``rank``'s process.

        Returns the response frame's raw bytes.  Raises
        :class:`TransportTimeout` when no (matching) response arrives
        within ``timeout`` seconds and :class:`TransportBroken` when the
        rank's process is confirmed gone.
        """

    def request_many(
        self, messages: Sequence[tuple[int, bytes]], timeout: float
    ) -> list[bytes | Exception]:
        """Round-trip a batch of ``(rank, raw)`` frames; results in order.

        A rank may appear several times (one rank receives several
        transfers of one exchange).  Returns one entry per message — the
        response frame's raw bytes, or the :class:`TransportTimeout`,
        :class:`TransportBroken` or
        :class:`~repro.resilience.errors.MessageCorruption` that stopped
        it: transport failures are *values*, not raises, so one broken
        rank cannot mask the others.  The default is a sequential loop, fit
        for loopback transports; real transports override this to write
        every frame before reading any response, so rank processes overlap
        their work.
        """
        results: list[bytes | Exception] = []
        for rank, raw in messages:
            try:
                results.append(self.request(rank, raw, timeout))
            except (TransportTimeout, TransportBroken, MessageCorruption) as exc:
                results.append(exc)
        return results

    # -- liveness / supervision -------------------------------------------

    def check_alive(self, rank: int) -> bool:
        """Cheap liveness check (no wire traffic); records deaths."""
        self._check_rank(rank)
        return True

    def rank_pid(self, rank: int) -> int | None:
        """OS pid of ``rank``'s process (None for simulated ranks)."""
        self._check_rank(rank)
        return None

    def classify(self, rank: int, **context) -> CommFault:
        """The typed fault describing ``rank``'s current failure state."""
        raise NotImplementedError(
            f"backend {self.name!r} has no failure states to classify"
        )

    # -- fault injection hooks --------------------------------------------

    def kill_rank(self, rank: int) -> None:
        """SIGKILL ``rank``'s process (the ``proc-kill`` injector)."""
        raise ValueError(
            f"backend {self.name!r} has no real processes to kill — "
            "proc faults need the multiprocess backend"
        )

    def hang_rank(self, rank: int) -> None:
        """SIGSTOP ``rank``'s process (the ``proc-hang`` injector)."""
        raise ValueError(
            f"backend {self.name!r} has no real processes to stop — "
            "proc faults need the multiprocess backend"
        )

    def resume_rank(self, rank: int) -> None:
        """SIGCONT a previously hung rank (test cleanup aid)."""
        raise ValueError(
            f"backend {self.name!r} has no real processes to resume"
        )

    # -- policy ------------------------------------------------------------

    def default_retry_policy(self) -> RetryPolicy:
        """The retry policy a communicator adopts when none is given."""
        return RetryPolicy()

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} not in [0, {self.size})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(size={self.size})"
