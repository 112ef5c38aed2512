"""Persistent communication requests (MPI_Send_init / MPI_Recv_init).

MPICH applications with fixed communication patterns (stencil halos!)
create the request once and ``start()`` it every iteration, saving the
per-call argument processing.  The simulator honours the same lifecycle:

    request = comm.send_init(buf, dest, tag)
    for _ in range(steps):
        request.start()
        ...
        yield from request.wait()
    request.free()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import MPIRequestError
from repro.mpi import point2point as _p2p

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Communicator


class PersistentRequest:
    """Base persistent request: inactive until :meth:`start`."""

    def __init__(self, comm: "Communicator"):
        self.comm = comm
        self.freed = False
        self._active: Any = None  # the live one-shot request, if started
        self.starts = 0

    def _check_usable(self) -> None:
        if self.freed:
            raise MPIRequestError("operation on a freed persistent request")

    @property
    def active(self) -> bool:
        return self._active is not None

    def start(self) -> None:
        """Begin one communication instance (MPI_Start)."""
        self._check_usable()
        if self._active is not None:
            raise MPIRequestError(
                "MPI_Start on an already-active persistent request"
            )
        self._active = self._launch()
        self.starts += 1

    def wait(self) -> Generator:
        """Complete the current instance; the request becomes inactive
        (restartable) again.  Evaluates to the instance's result."""
        self._check_usable()
        if self._active is None:
            raise MPIRequestError("wait on an inactive persistent request")
        request, self._active = self._active, None
        from repro.mpi.request import RecvRequest
        if isinstance(request, RecvRequest):
            # Receives may carry a deferred unexpected-buffer copy.
            result = yield from _p2p.recv_wait(self.comm, request)
        else:
            result = yield from request.wait()
        return result

    def test(self) -> tuple[bool, Any]:
        self._check_usable()
        if self._active is None:
            raise MPIRequestError("test on an inactive persistent request")
        done, result = self._active.test()
        if done:
            self._active = None
        return done, result

    def free(self) -> None:
        """Release the request (MPI_Request_free).  Must be inactive."""
        if self._active is not None:
            raise MPIRequestError("freeing an active persistent request")
        self.freed = True


class PersistentSend(PersistentRequest):
    """MPI_Send_init result.

    The payload object is fixed at init; for mutable buffers (numpy
    arrays) the *current contents at each start()* are sent, matching
    MPI's buffer-reuse idiom for persistent sends.
    """

    def __init__(self, comm: "Communicator", data: Any, dest: int, tag: int,
                 size: int | None):
        super().__init__(comm)
        self.data = data
        self.dest = dest
        self.tag = tag
        self.size = size

    def _launch(self):
        return _p2p.isend_impl(self.comm, self.data, self.dest, self.tag,
                               self.size, self.comm.context_id)


class PersistentRecv(PersistentRequest):
    """MPI_Recv_init result."""

    def __init__(self, comm: "Communicator", source: int, tag: int,
                 capacity: int | None):
        super().__init__(comm)
        self.source = source
        self.tag = tag
        self.capacity = capacity

    def _launch(self):
        return _p2p.irecv_impl(self.comm, self.source, self.tag,
                               self.capacity, self.comm.context_id)


def start_all(requests: list[PersistentRequest]) -> None:
    """MPI_Startall."""
    for request in requests:
        request.start()
