"""The reliable round: one request_many per wave, shared by every caller."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import faults
from repro.comm import compute, delivery
from repro.comm.backends import InProcessBackend, MultiprocessBackend, framing
from repro.comm.communicator import Communicator
from repro.comm.pattern import CommunicationPattern, ExchangeSpec


def _pattern():
    transfers = [
        ExchangeSpec(src=0, dst=1, send_local=np.array([2]), recv_ghost=np.array([0])),
        ExchangeSpec(src=1, dst=0, send_local=np.array([0]), recv_ghost=np.array([1])),
        ExchangeSpec(src=2, dst=1, send_local=np.array([0, 1]), recv_ghost=np.array([1, 2])),
    ]
    return CommunicationPattern(num_ranks=3, transfers=transfers)


def _buffers():
    owned = [np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0]), np.array([5.0, 6.0])]
    ghost = [np.zeros(2), np.zeros(3), np.zeros(0)]
    return owned, ghost


@pytest.fixture()
def spied_comm(monkeypatch):
    """A 3-rank multiprocess communicator whose transport calls are counted."""
    calls = {"request": 0, "request_many": []}
    many = MultiprocessBackend.request_many
    one = MultiprocessBackend.request

    def counting_many(self, messages, timeout):
        calls["request_many"].append([rank for rank, _ in messages])
        return many(self, messages, timeout)

    def counting_one(self, rank, raw, timeout):
        calls["request"] += 1
        return one(self, rank, raw, timeout)

    monkeypatch.setattr(MultiprocessBackend, "request_many", counting_many)
    monkeypatch.setattr(MultiprocessBackend, "request", counting_one)
    comm = Communicator(3, backend="multiprocess")
    yield comm, calls
    comm.close()


class TestOneWavePerAttempt:
    def test_fault_free_exchange_sends_no_frames(self, spied_comm):
        comm, calls = spied_comm
        owned, ghost = _buffers()
        _pattern().exchange(comm, owned, ghost)
        # the values are made and read on the driver: a direct copy, no wire
        assert calls["request_many"] == []
        assert calls["request"] == 0
        ref_owned, ref_ghost = _buffers()
        _pattern().exchange(Communicator(3, backend="inprocess"), ref_owned, ref_ghost)
        for got, want in zip(ghost, ref_ghost):
            assert np.array_equal(got, want)
        assert ghost[1].tolist() == [3.0, 5.0, 6.0] and ghost[0][1] == 10.0

    def test_fault_free_schur1_solve_sends_no_data_frames(self, monkeypatch):
        from repro.cases import poisson2d_case
        from repro.core.driver import solve_case

        kinds = []
        many = MultiprocessBackend.request_many

        def recording(self, messages, timeout):
            kinds.extend(framing.peek_header(raw)[0] for _, raw in messages)
            return many(self, messages, timeout)

        monkeypatch.setattr(MultiprocessBackend, "request_many", recording)
        out = solve_case(poisson2d_case(12), precond="schur1", nparts=3,
                         backend="multiprocess")
        assert out.status == "converged"
        # worker rounds still cross the wire; ghost exchanges never do
        assert framing.CMD in kinds
        assert framing.DATA not in kinds

    def test_fault_plan_exchange_is_one_request_many(self, spied_comm):
        comm, calls = spied_comm
        owned, ghost = _buffers()
        # an active plan that never fires still routes through the wire
        plan = faults.FaultPlan(faults.FaultSpec("straggler", count=0))
        with faults.inject(plan):
            _pattern().exchange(comm, owned, ghost)
        # rank 1 answers two transfers of the same exchange
        assert calls["request_many"] == [[1, 0, 1]]
        assert calls["request"] == 0
        assert ghost[1].tolist() == [3.0, 5.0, 6.0] and ghost[0][1] == 10.0

    def test_nak_retry_is_one_more_wave(self, spied_comm):
        comm, calls = spied_comm
        owned, ghost = _buffers()
        plan = faults.FaultPlan(faults.FaultSpec("message-corrupt", count=1, start=2))
        with faults.inject(plan):
            _pattern().exchange(comm, owned, ghost)
        # the third transfer is garbled, NAKed, and retransmitted alone
        assert calls["request_many"] == [[1, 0, 1], [1]]
        assert calls["request"] == 0
        assert comm.comm_stats.checksum_failures == 1
        assert ghost[1].tolist() == [3.0, 5.0, 6.0]

    def test_dropped_attempt_never_reaches_the_transport(self, spied_comm):
        comm, calls = spied_comm
        owned, ghost = _buffers()
        plan = faults.FaultPlan(faults.FaultSpec("message-drop", count=1))
        with faults.inject(plan):
            _pattern().exchange(comm, owned, ghost)
        # the drop burns attempt 0 of the first transfer; its attempt 1
        # rides the same wave as everyone else's attempt 0
        assert calls["request_many"] == [[1, 0, 1]]
        assert comm.comm_stats.retries == 1 and comm.comm_stats.timeouts == 1

    def test_worker_rounds_use_the_same_primitive(self, spied_comm, monkeypatch):
        comm, calls = spied_comm
        kinds = []
        real = delivery.deliver

        def recording(comm_, kind, envelopes, floor=0.0, op=None):
            kinds.append((kind, op))
            return real(comm_, kind, envelopes, floor=floor, op=op)

        monkeypatch.setattr(compute, "deliver", recording)
        wc = compute.session(comm)
        a = sp.identity(2, format="csr")
        wc.ensure_matrices({
            r: (f"spy-{r}", {"key": f"spy-{r}", "nrows": 2, "ncols": 2},
                [a.indptr, a.indices, a.data])
            for r in range(3)
        })
        assert kinds == [(framing.CMD, "load-matrix")]
        assert calls["request_many"] == [[0, 1, 2]]
        assert calls["request"] == 0


class TestInProcessLoopbackDelivery:
    def test_fault_plan_exchange_goes_through_the_loopback(self, monkeypatch):
        seen = []
        many = InProcessBackend.request_many

        def counting(self, messages, timeout):
            seen.append(len(messages))
            return many(self, messages, timeout)

        monkeypatch.setattr(InProcessBackend, "request_many", counting)
        comm = Communicator(3, backend="inprocess")
        owned, ghost = _buffers()
        _pattern().exchange(comm, owned, ghost)
        assert seen == []  # fault-free: direct array copies
        with faults.inject(faults.FaultPlan(faults.FaultSpec("straggler", count=0))):
            _pattern().exchange(comm, owned, ghost)
        assert seen == [3]
        assert ghost[1].tolist() == [3.0, 5.0, 6.0]

    def test_garbled_frame_is_naked_not_raised(self):
        raw = bytearray(framing.encode_frame(framing.DATA, 0, 1, 4, b"\x01\x02"))
        raw[-1] ^= 0xFF
        resp = framing.decode_frame(InProcessBackend(2).request(1, bytes(raw), 1.0))
        assert resp.kind == framing.NAK
        assert (resp.src, resp.dst, resp.seq) == (0, 1, 4)
