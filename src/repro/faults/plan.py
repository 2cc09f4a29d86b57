"""Deterministic fault plans.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries plus counters.
Instrumented code (factorizations, the distributed matvec, the ghost
exchange) calls the plan's hooks at well-defined *opportunities*; each spec
decides per opportunity whether to fire based only on its counters and its
targeting scope — never on wall-clock time or global randomness — so a run
with the same plan, case, and seeds injects exactly the same faults.

Fault kinds and their hook points (see ``docs/robustness.md``):

``bad-pivot``
    Fired *before* the pivot floor in ILU(0)/ILUT: the pivot is zeroed, so
    it gets floored and counted — enough of them trips the
    ``breakdown_frac`` detector (:class:`FactorizationBreakdown`).
``tiny-pivot``
    Fired *after* the pivot floor: the stored pivot is replaced by
    ``value`` (default 1e-300), modeling a corrupted factor entry that the
    floor safeguard cannot see.  Applying the factor then amplifies by
    ~1e300 and the outer solve's non-finite detectors classify the run as
    ``diverged``.
``nan-kernel``
    Fired on the distributed matvec output: one entry is set to NaN, which
    the matvec guard reports as a :class:`NumericalFault`.
``ghost-corrupt`` / ``ghost-drop`` / ``ghost-scale``
    Fired per transfer of a ghost exchange: the received values are
    overwritten with NaN, left stale (the transfer is dropped), or scaled
    by ``value``.  These model corruption *past* the integrity envelope
    (e.g. memory corruption after checksum validation): they are silent,
    never retried, and detection falls to the numerical guards.
``message-drop`` / ``message-corrupt``
    Fired per *delivery attempt* of an envelope-protected transfer: the
    attempt is dropped (times out) or its payload arrives with a failing
    checksum.  The envelope detects both and retransmits with backoff, so a
    bounded spec (``count=1``) costs only a visible retry while an
    unbounded one (``count=-1``) exhausts the retry budget and raises a
    typed :class:`~repro.resilience.errors.CommFault`.
``rank-dead``
    Fired once per ghost *exchange* (``start=k`` aims at the k-th exchange
    of the run): the targeted ``rank`` stops responding, permanently.
    Every transfer touching it then times out through the full retry
    budget and the exchange raises
    :class:`~repro.resilience.errors.RankDeadError`; recovery layers call
    :meth:`FaultPlan.mark_recovered` once the dead subdomain has been
    absorbed by the survivors.
``straggler``
    Fired per transfer sent by ``rank`` (any sender when ``rank`` is
    None): the message is delivered but ``delay`` seconds late, charged to
    the :class:`~repro.perfmodel.costs.CostLedger` delay counter — slow
    ranks cost simulated time, they do not corrupt data.
``proc-kill`` / ``proc-hang``
    Fired once per ghost exchange, like ``rank-dead``, but against the
    *real* OS process behind the targeted rank: on the multiprocess
    backend the process is SIGKILLed (``proc-kill``) or SIGSTOPped
    (``proc-hang``), and detection runs through the genuine machinery —
    exit-code checks for kills, missed heartbeats plus fencing for hangs
    (``docs/robustness.md``).  On backends without real processes both
    degrade to the simulated ``rank-dead`` behavior so fault plans stay
    portable across backends.

Kind names accept ``_`` as a separator alias (``rank_dead`` == ``rank-dead``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro import obs

FAULT_KINDS = (
    "bad-pivot",
    "tiny-pivot",
    "nan-kernel",
    "ghost-corrupt",
    "ghost-drop",
    "ghost-scale",
    "message-drop",
    "message-corrupt",
    "rank-dead",
    "straggler",
    "proc-kill",
    "proc-hang",
)

#: fault kinds whose hook is the factorization pivot loop
_PIVOT_PRE = ("bad-pivot",)
_PIVOT_POST = ("tiny-pivot",)
_KERNEL = ("nan-kernel",)
_GHOST = ("ghost-corrupt", "ghost-drop", "ghost-scale")
_DELIVERY = ("message-drop", "message-corrupt")
_RANK_DEAD = ("rank-dead",)
_STRAGGLER = ("straggler",)
_PROC = ("proc-kill", "proc-hang")


@dataclass
class FaultSpec:
    """One injected fault pattern.

    ``count`` bounds how many times the spec fires (``-1`` = unlimited);
    ``start`` skips that many matching opportunities first, and ``stride``
    then fires on every ``stride``-th one — together they aim a fault at
    e.g. "the pivots of the second factorization" without the hook sites
    knowing anything about attempts.  ``target`` restricts the spec to
    fault scopes (preconditioner short names — see
    :func:`repro.faults.scope`); ``None`` matches everywhere.

    ``rank`` aims the communication kinds: the rank that dies
    (``rank-dead``, required), the slow sender (``straggler``, None = every
    sender), or an endpoint filter for ``message-drop``/``message-corrupt``
    (None = any transfer).  ``delay`` is the straggler's per-message
    lateness in seconds.
    """

    kind: str
    count: int = 1
    start: int = 0
    stride: int = 1
    target: tuple[str, ...] | None = None
    value: float = 1e-300
    rank: int | None = None
    delay: float = 5e-3

    def __post_init__(self) -> None:
        self.kind = self.kind.replace("_", "-")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; pick from {FAULT_KINDS}")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.kind in _RANK_DEAD + _PROC and self.rank is None:
            raise ValueError(f"{self.kind} needs an explicit rank to target")
        if self.delay < 0.0:
            raise ValueError("delay must be >= 0")
        if isinstance(self.target, str):
            self.target = tuple(t for t in self.target.split(",") if t)

    def matches_scope(self, scope: str | None) -> bool:
        return self.target is None or (scope is not None and scope in self.target)


@dataclass
class _SpecState:
    """Mutable firing counters of one spec within a plan."""

    spec: FaultSpec
    opportunities: int = 0
    fired: int = 0

    def should_fire(self, scope: str | None) -> bool:
        if not self.spec.matches_scope(scope):
            return False
        k = self.opportunities
        self.opportunities += 1
        if k < self.spec.start or (k - self.spec.start) % self.spec.stride:
            return False
        if self.spec.count >= 0 and self.fired >= self.spec.count:
            return False
        self.fired += 1
        return True


class FaultPlan:
    """A seeded, deterministic set of faults to inject into one run.

    Activate with :func:`repro.faults.inject`; inspect ``injected`` (a list
    of dicts, one per fired fault) afterwards to see exactly what happened.

    Thread-safety: one active plan may be consulted by several solver
    threads at once (the solve service runs a chaos plan against a whole
    worker pool).  Scope nesting is therefore *per thread* —
    ``scope_stack`` is thread-local, so one worker's ``faults.scope(...)``
    never relabels another's opportunities — while the firing counters,
    the ``injected`` log, and the RNG are shared under a single lock, so a
    bounded spec (``count=1``) fires exactly once across all threads.
    """

    def __init__(self, specs: list[FaultSpec] | FaultSpec, seed: int = 0) -> None:
        if isinstance(specs, FaultSpec):
            specs = [specs]
        self.specs = list(specs)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.injected: list[dict] = []
        self._states = [_SpecState(s) for s in self.specs]
        self._scopes = threading.local()
        self._lock = threading.Lock()
        #: ranks confirmed dead by a fired ``rank-dead`` spec; membership is
        #: persistent until a recovery layer absorbs the subdomain and calls
        #: :meth:`mark_recovered`
        self.dead_ranks: set[int] = set()

    @property
    def scope_stack(self) -> list[str]:
        """This thread's scope-nesting stack (created on first touch)."""
        stack = getattr(self._scopes, "stack", None)
        if stack is None:
            stack = self._scopes.stack = []
        return stack

    @property
    def scope(self) -> str | None:
        stack = self.scope_stack
        return stack[-1] if stack else None

    def _fire(self, state: _SpecState, **attrs) -> None:
        record = {"kind": state.spec.kind, "scope": self.scope, **attrs}
        with self._lock:
            self.injected.append(record)
        obs.event("faults.injected", **record)

    def _firing(self, kinds: tuple[str, ...]) -> list[_SpecState]:
        """States whose spec fires at this opportunity (counters advance
        atomically, so concurrent hooks never double-spend a budget)."""
        scope = self.scope
        with self._lock:
            return [
                state for state in self._states
                if state.spec.kind in kinds and state.should_fire(scope)
            ]

    # -- hooks (called by instrumented code; must stay cheap) ----------------

    def pivot_pre(self, i: int, value: float) -> float:
        """Factorization pivot before the floor safeguard."""
        for state in self._firing(_PIVOT_PRE):
            self._fire(state, row=int(i), old=float(value))
            value = 0.0
        return value

    def pivot_post(self, i: int, value: float) -> float:
        """Factorization pivot after the floor safeguard."""
        for state in self._firing(_PIVOT_POST):
            self._fire(state, row=int(i), old=float(value))
            value = state.spec.value
        return value

    def kernel_output(self, name: str, y: np.ndarray) -> None:
        """Mutate a kernel output vector in place (distributed matvec)."""
        for state in self._firing(_KERNEL):
            if y.size == 0:
                continue
            with self._lock:
                idx = int(self.rng.integers(y.size))
            self._fire(state, kernel=name, index=idx)
            y[idx] = np.nan

    def transfer_action(self, src: int, dst: int) -> tuple[str, float]:
        """Action for one ghost-exchange transfer: ("ok"|"drop"|"corrupt"|"scale", value)."""
        for state in self._firing(_GHOST):
            kind = state.spec.kind
            self._fire(state, src=int(src), dst=int(dst))
            if kind == "ghost-drop":
                return "drop", 0.0
            if kind == "ghost-scale":
                return "scale", state.spec.value
            return "corrupt", 0.0
        return "ok", 0.0

    # -- communication-level hooks (the integrity envelope consults these) ---

    def exchange_begin(self, backend=None) -> None:
        """Called once at the start of every delivery opportunity.

        One site fires this hook: the reliable round
        (:func:`repro.comm.delivery.deliver`), once per call — which covers
        every enveloped ghost exchange (:mod:`repro.comm.pattern`) and every
        worker command round (:mod:`repro.comm.compute`); with
        worker-resident compute on the multiprocess backend, a ``MATVEC``
        or ``APPLY`` round is as real a chance to lose a rank as an
        exchange is.  The opportunity counter
        of a ``rank-dead`` spec counts these calls, so ``start=k`` kills
        the rank at the k-th opportunity of the run.

        ``backend`` is the communicator's execution backend; the process
        kinds (``proc-kill`` / ``proc-hang``) act on it when its ranks are
        real OS processes and degrade to the simulated ``rank-dead``
        behavior otherwise.
        """
        for state in self._firing(_RANK_DEAD):
            rank = int(state.spec.rank)  # type: ignore[arg-type]
            self.dead_ranks.add(rank)
            self._fire(state, rank=rank)
        for state in self._firing(_PROC):
            rank = int(state.spec.rank)  # type: ignore[arg-type]
            real = backend is not None and backend.is_real
            self._fire(state, rank=rank, degraded=not real)
            if not real:
                # no process to signal: fall back to playing dead, so the
                # same plan exercises recovery on every backend
                self.dead_ranks.add(rank)
            elif state.spec.kind == "proc-kill":
                backend.kill_rank(rank)
            else:
                backend.hang_rank(rank)

    def delivery_action(self, src: int, dst: int, attempt: int) -> str:
        """Fate of one envelope delivery attempt: "ok" | "drop" | "corrupt"."""
        scope = self.scope
        fired = None
        with self._lock:
            for state in self._states:
                spec = state.spec
                if spec.kind not in _DELIVERY:
                    continue
                if spec.rank is not None and spec.rank not in (src, dst):
                    continue
                if state.should_fire(scope):
                    fired = state
                    break
        if fired is not None:
            self._fire(fired, src=int(src), dst=int(dst), attempt=int(attempt))
            return "drop" if fired.spec.kind == "message-drop" else "corrupt"
        return "ok"

    def straggler_delay(self, src: int, dst: int) -> float:
        """Seconds a delivered transfer arrives late (0.0 = on time)."""
        scope = self.scope
        fired = []
        with self._lock:
            for state in self._states:
                spec = state.spec
                if spec.kind not in _STRAGGLER:
                    continue
                if spec.rank is not None and spec.rank != src:
                    continue
                if state.should_fire(scope):
                    fired.append(state)
        total = 0.0
        for state in fired:
            self._fire(state, src=int(src), dst=int(dst),
                       delay=state.spec.delay)
            total += state.spec.delay
        return total

    def pivot_faults_possible(self) -> bool:
        """Could a pivot-hook spec still fire in the current scope?

        Side-effect free (no opportunity is consumed).  The factor cache and
        the kernel-tier dispatcher consult this: while a ``bad-pivot`` /
        ``tiny-pivot`` spec has budget left for this scope, factorizations
        must run on the reference tier (which hosts the hooks) and must not
        be served from — or stored into — the cache.  Once the budget is
        spent, factors are clean again and caching resumes, which is what
        lets a post-fault retry skip redundant factorizations.
        """
        scope = self.scope
        with self._lock:
            for state in self._states:
                spec = state.spec
                if (
                    spec.kind in _PIVOT_PRE + _PIVOT_POST
                    and spec.matches_scope(scope)
                    and (spec.count < 0 or state.fired < spec.count)
                ):
                    return True
        return False

    def mark_recovered(self, rank: int) -> None:
        """Forget a dead rank after its subdomain was absorbed by survivors.

        The remapped world renumbers ranks, so the old identity must not
        leak into the new communicator; recovery layers call this exactly
        once per absorbed rank.
        """
        self.dead_ranks.discard(int(rank))

    def summary(self) -> dict[str, int]:
        """Fired-fault counts by kind."""
        out: dict[str, int] = {}
        for rec in self.injected:
            out[rec["kind"]] = out.get(rec["kind"], 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = ",".join(s.kind for s in self.specs)
        return f"FaultPlan([{kinds}], seed={self.seed}, fired={len(self.injected)})"
