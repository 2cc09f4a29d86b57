"""Fixtures of the comm-layer suites."""

from __future__ import annotations

import pytest

from repro.comm import backends


@pytest.fixture(params=backends.BACKEND_NAMES)
def every_backend(request, monkeypatch):
    """Run the test once per execution backend.

    Every :class:`~repro.comm.communicator.Communicator` the test builds
    without naming a backend resolves ``REPRO_COMM_BACKEND``, so setting it
    moves the whole test — assertions unchanged — onto each backend.  The
    backends it creates are shut down afterwards, so no rank process
    outlives its test.
    """
    made = []
    make = backends.make_backend

    def tracking(name, size):
        backend = make(name, size)
        made.append(backend)
        return backend

    monkeypatch.setenv(backends.BACKEND_ENV, request.param)
    monkeypatch.setattr(backends, "make_backend", tracking)
    yield request.param
    for backend in made:
        backend.shutdown()
