"""Synchronization primitives for simulated tasks.

All primitives follow one protocol: a task yields ``wait(primitive)``; the
scheduler calls ``_try_acquire(task)`` which either succeeds immediately or
registers the task as a waiter.  Signalling wakes waiters in FIFO order via
``task.cpu.make_ready`` — waking is therefore correct across CPUs, which the
rendezvous protocol relies on (the sender-side thread releases a semaphore
that a receiver-side thread on a different node blocks on is *not* done —
all cross-node signalling goes through the network models; these primitives
are only shared between threads of one simulated process).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Iterable, Protocol

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cpu import Task


class Waitable(Protocol):
    """Anything a task may block on."""

    def _try_acquire(self, task: "Task") -> tuple[bool, Any]:
        """Return ``(True, value)`` if available now, else register waiter."""
        ...  # pragma: no cover


def _pop_live(waiters: deque) -> "Task | None":
    """Pop the first waiter that is still alive (killed tasks are skipped)."""
    while waiters:
        task = waiters.popleft()
        if not task.finished:
            return task
    return None


class Semaphore:
    """Counting semaphore.  ``wait(sem)`` is P, :meth:`release` is V.

    This is the direct analogue of the ``marcel_sem_t`` used by ch_mad's
    rendezvous sync structure: the receiving main thread P()s on it and the
    polling thread V()s it when the data message lands (§4.2.2).
    """

    def __init__(self, value: int = 0, name: str | None = None):
        if value < 0:
            raise SimulationError("semaphore initial value must be >= 0")
        self.value = value
        self.name = name or "sem"
        self._waiters: deque["Task"] = deque()

    def _try_acquire(self, task: "Task") -> tuple[bool, Any]:
        if self.value > 0:
            self.value -= 1
            return True, None
        self._waiters.append(task)
        return False, None

    def release(self, count: int = 1) -> None:
        """V the semaphore ``count`` times, waking blocked tasks FIFO."""
        for _ in range(count):
            task = _pop_live(self._waiters)
            if task is not None:
                task.cpu.make_ready(task, None)
            else:
                self.value += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        waiting = sum(1 for t in self._waiters if not t.finished)
        return f"<Semaphore {self.name} value={self.value} waiting={waiting}>"


class Mutex:
    """Binary lock.  ``wait(mutex)`` acquires, :meth:`release` releases."""

    def __init__(self, name: str | None = None):
        self.name = name or "mutex"
        self.locked = False
        self.owner: "Task | None" = None
        self._waiters: deque["Task"] = deque()

    def _try_acquire(self, task: "Task") -> tuple[bool, Any]:
        if not self.locked:
            self.locked = True
            self.owner = task
            return True, None
        if self.owner is task:
            raise SimulationError(f"task {task.name} would self-deadlock on {self.name}")
        self._waiters.append(task)
        return False, None

    def release(self) -> None:
        if not self.locked:
            raise SimulationError(f"release of unlocked mutex {self.name}")
        task = _pop_live(self._waiters)
        if task is not None:
            self.owner = task
            task.cpu.make_ready(task, None)
        else:
            self.locked = False
            self.owner = None


class Flag:
    """A one-shot event flag: waiters block until :meth:`set` is called.

    Waiting on an already-set flag succeeds immediately; the wait evaluates
    to the value passed to ``set``.
    """

    def __init__(self, name: str | None = None):
        self.name = name or "flag"
        self.is_set = False
        self.value: Any = None
        self._waiters: deque["Task"] = deque()

    def _try_acquire(self, task: "Task") -> tuple[bool, Any]:
        if self.is_set:
            return True, self.value
        self._waiters.append(task)
        return False, None

    def set(self, value: Any = None) -> None:
        """Set the flag, waking all waiters.  Idempotent (first value wins)."""
        if self.is_set:
            return
        self.is_set = True
        self.value = value
        waiters, self._waiters = self._waiters, deque()
        for task in waiters:
            if not task.finished:
                task.cpu.make_ready(task, value)


class Mailbox:
    """Unbounded FIFO queue with blocking receive.

    ``wait(mailbox)`` evaluates to the oldest posted item.  Posting with
    waiters present hands the item directly to the first one (no queue
    traversal), which keeps delivery order strict.
    """

    def __init__(self, name: str | None = None):
        self.name = name or "mailbox"
        self._items: deque[Any] = deque()
        self._waiters: deque["Task"] = deque()

    def _try_acquire(self, task: "Task") -> tuple[bool, Any]:
        if self._items:
            return True, self._items.popleft()
        self._waiters.append(task)
        return False, None

    def post(self, item: Any) -> None:
        """Append an item, waking the first blocked receiver if any."""
        task = _pop_live(self._waiters)
        if task is not None:
            task.cpu.make_ready(task, item)
        else:
            self._items.append(item)

    def __len__(self) -> int:
        return len(self._items)

    def peek(self) -> Any:
        """The oldest queued item without removing it (None if empty)."""
        return self._items[0] if self._items else None


class _SelectEntry:
    """A MailboxSelect's registration inside one mailbox's waiter queue.

    Quacks enough like a Task for :meth:`Mailbox.post`/:func:`_pop_live`:
    ``finished`` turns True once the select has fired (or its task died),
    so stale registrations in the other mailboxes are skipped, and the
    ``cpu.make_ready`` call a post performs is rerouted into the select.
    """

    __slots__ = ("select", "mailbox", "cpu")

    def __init__(self, select: "MailboxSelect", mailbox: "Mailbox"):
        self.select = select
        self.mailbox = mailbox
        self.cpu = _SelectWake(select, mailbox)

    @property
    def finished(self) -> bool:
        return self.select._fired or self.select._task.finished


class _SelectWake:
    """The ``cpu`` shim of a :class:`_SelectEntry`."""

    __slots__ = ("select", "mailbox")

    def __init__(self, select: "MailboxSelect", mailbox: "Mailbox"):
        self.select = select
        self.mailbox = mailbox

    def make_ready(self, entry: "_SelectEntry", item: Any) -> None:
        self.select._fire(self.mailbox, item)


class MailboxSelect:
    """Waitable over several mailboxes: first posted item anywhere wins.

    ``yield wait(MailboxSelect(boxes))`` evaluates to ``(mailbox, item)``
    for the first item available on any of the mailboxes (drained in
    mailbox order when several already hold items — deterministic).  One
    instance is single-shot: build a fresh one per wait.

    This is the select() the multirail reassembly path needs: stripes of
    one logical transfer may arrive on *any* surviving rail once a rail
    has died, so the receiver cannot afford to commit to one mailbox.
    """

    def __init__(self, mailboxes: Iterable["Mailbox"], name: str | None = None):
        self.mailboxes = list(mailboxes)
        if not self.mailboxes:
            raise SimulationError("MailboxSelect needs at least one mailbox")
        self.name = name or "select"
        self._task: "Task | None" = None
        self._fired = False

    def _try_acquire(self, task: "Task") -> tuple[bool, Any]:
        if self._fired:
            raise SimulationError("MailboxSelect instances are single-shot")
        for mailbox in self.mailboxes:
            if mailbox._items:
                self._fired = True
                return True, (mailbox, mailbox._items.popleft())
        self._task = task
        for mailbox in self.mailboxes:
            mailbox._waiters.append(_SelectEntry(self, mailbox))
        return False, None

    def _fire(self, mailbox: "Mailbox", item: Any) -> None:
        if self._fired:  # pragma: no cover - defensive (finished guards)
            mailbox._items.append(item)
            return
        self._fired = True
        task = self._task
        if task is None or task.finished:  # pragma: no cover - defensive
            mailbox._items.append(item)
            return
        task.cpu.make_ready(task, (mailbox, item))


class Condition:
    """Condition variable over an explicit :class:`Mutex`.

    Usage from a task body (the mutex must be held)::

        yield from cond.wait_holding(mutex)

    ``notify``/``notify_all`` may be called from tasks or plain event
    callbacks; woken tasks re-acquire the mutex before returning.
    """

    def __init__(self, name: str | None = None):
        self.name = name or "cond"
        self._waiters: deque["Task"] = deque()

    def _try_acquire(self, task: "Task") -> tuple[bool, Any]:
        self._waiters.append(task)
        return False, None

    def wait_holding(self, mutex: Mutex):
        """Generator helper: atomically release ``mutex`` and wait, then
        re-acquire ``mutex`` before returning."""
        from repro.sim.coroutines import wait  # local import to avoid cycle

        if not mutex.locked:
            raise SimulationError("Condition.wait_holding requires the mutex held")
        mutex.release()
        yield wait(self)
        yield wait(mutex)

    def notify(self, count: int = 1) -> None:
        """Wake up to ``count`` waiters."""
        for _ in range(count):
            task = _pop_live(self._waiters)
            if task is None:
                return
            task.cpu.make_ready(task, None)

    def notify_all(self) -> None:
        """Wake every waiter."""
        self.notify(count=len(self._waiters))
