"""Typed solver faults — the failure taxonomy of the resilience layer.

Every abnormal termination inside the solve stack is raised as a
:class:`SolverFault` subclass carrying enough context to classify the outcome
and decide a remedy (see ``docs/robustness.md``).  The mapping onto
:data:`repro.krylov.monitors.STATUSES` is::

    FactorizationBreakdown -> "breakdown"
    NumericalFault         -> "diverged"
    InnerSolveDivergence   -> "diverged"
    MessageTimeout         -> "diverged"
    MessageCorruption      -> "diverged"
    RankDeadError          -> "breakdown"
    TransientStepFailure   -> carries the failed step's status

The ``CommFault`` branch covers the *distributed* layer: a fault is raised
only after the integrity envelope (sequence number + checksum, bounded
retry with backoff — see ``docs/robustness.md``) has exhausted its retry
budget, so every raise represents a confirmed communication failure, not a
transient glitch.

Plain ``ValueError``/``TypeError`` (bad shapes, unknown names) are *not*
solver faults: they signal caller bugs and are never retried.
"""

from __future__ import annotations


class SolverFault(RuntimeError):
    """Base class of all recoverable solver failures.

    ``context`` is a flat dict of diagnostic attributes (counts, ranks,
    values); it is attached verbatim to ``resilience.*`` trace events.
    """

    #: the KrylovResult-style status this fault classifies as
    status = "diverged"

    def __init__(self, message: str, **context) -> None:
        super().__init__(message)
        self.context = context

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        base = super().__str__()
        if not self.context:
            return base
        details = ", ".join(f"{k}={v}" for k, v in sorted(self.context.items()))
        return f"{base} ({details})"


class FactorizationBreakdown(SolverFault):
    """An incomplete factorization floored too many pivots to be trusted.

    Raised by :func:`repro.factor.ilu0.ilu0` / :func:`repro.factor.ilut.ilut`
    when ``breakdown_frac`` is set and the floored-pivot fraction exceeds it.
    Typical remedies: refactorize with a diagonal shift, relax ILUT drop
    thresholds, or fall back to a more robust preconditioner.
    """

    status = "breakdown"


class NumericalFault(SolverFault):
    """A kernel produced non-finite (NaN/Inf) values.

    Raised by the NaN/Inf guards on the distributed matvec and on every
    preconditioner application.  ``where`` in the context names the guard
    that fired.
    """

    status = "diverged"


class InnerSolveDivergence(SolverFault):
    """An inner (subdomain or interface) Krylov solve diverged.

    The Schur preconditioners run inner GMRES iterations; when such an inner
    solve reports ``status == "diverged"`` (non-finite Hessenberg entries or
    a residual explosion), the preconditioner application cannot be trusted
    and the whole apply is abandoned.
    """

    status = "diverged"


class CommFault(SolverFault):
    """Base class of confirmed communication failures.

    Raised by the reliable round (:func:`repro.comm.delivery.deliver`,
    behind every ghost exchange and worker command round) only after the
    bounded timeout/retry/backoff policy (:class:`repro.comm.RetryPolicy`)
    is exhausted.  ``context`` always carries ``src``, ``dst`` and ``seq``
    (the envelope sequence number of the failed transfer).
    """

    status = "diverged"


class MessageTimeout(CommFault):
    """A message was never acknowledged within the retry budget.

    Every delivery attempt of the transfer was dropped; the sender gave up
    after ``max_retries`` retransmissions.  ``attempts`` in the context
    counts the deliveries tried.
    """

    status = "diverged"


class MessageCorruption(CommFault):
    """A message repeatedly failed its checksum validation.

    The envelope CRC detected payload corruption on every delivery attempt;
    retransmission did not produce a clean copy within the retry budget.
    """

    status = "diverged"


class RankDeadError(CommFault):
    """A rank stopped responding — confirmed dead after retries.

    Every exchange with the rank timed out across the full retry budget, so
    the failure is process-level, not message-level.  ``rank`` in the
    context names the dead rank; recovery (survivors absorb the dead
    subdomain, rebuild, restore from checkpoint) is the job of
    :class:`repro.resilience.ResilientSolver` and
    :class:`repro.core.transient.TransientHeatSolver`.
    """

    status = "breakdown"

    @property
    def rank(self) -> int:
        return int(self.context["rank"])


class TransientStepFailure(SolverFault):
    """A transient time step ended with a non-converged status.

    Raised by :meth:`repro.core.transient.TransientHeatSolver.advance`
    instead of silently marching on; ``step`` and ``step_status`` in the
    context identify the failed step and its classification, and the
    exception's own ``status`` mirrors ``step_status`` so the resilience
    layer can classify the run.
    """

    def __init__(self, message: str, **context) -> None:
        super().__init__(message, **context)
        self.status = context.get("step_status", "diverged")
