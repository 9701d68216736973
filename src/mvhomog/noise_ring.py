"""Noise blocks drawn once for two runs in two processes.

A ladder's multiscale run and its pre-averaged twin draw the same noise:
same seed, particle streams, particle count, dt and noise width.  When a
plan runs the two as separate jobs in different worker processes, a
:class:`NoiseRing` lets them share it.  The runs ask for the same blocks
of steps, in the same order, through the two sides of the ring
(:meth:`NoiseRing.sides`).  Whichever side reaches a block first claims
it, draws it with :func:`rng.normal_block` and publishes it; the other side
reads it.  Every block is then drawn once, and the side that runs ahead
draws more, so the drawing balances itself between the processes.  A
block is the same bits whichever process draws it, so each record equals
its run with local draws bit for bit.

The ring is ``SLOTS`` slots of one block each in a shared anonymous
``mmap``, with a metadata array in a second one: each slot's block index,
state (free, drawing, ready) and drawing side, each side's progress (the
block it is on), a waiting flag per side, and per-side counts.  A
fork-context lock guards the metadata, and one semaphore per side wakes a
waiting side.  ``multiprocessing.Condition`` is not used: its ``notify``
waits, without a bound, for the woken process to acknowledge, so a
partner that died in ``wait`` would hang the notifier.  Both mappings,
the lock and the semaphores are made before the worker processes fork and
are inherited by them.  The process that makes the ring reads only the
metadata; the data pages are first touched by the sides.

A side that needs block b records its progress, then looks at slot
``b % SLOTS``:

* it holds b, ready: the side reads it, as a view valid until the side's
  next request;
* it is free (both sides have passed the block it held): the side claims
  b, draws it outside the lock and publishes it;
* the other side is drawing b: the side claims and draws the next free
  block ahead, up to ``b + SLOTS - 1``, then looks again, and waits only
  when nothing can be claimed;
* it holds an older block the other side still needs: the side waits
  until the other side moves on, or draws b locally when the other side
  has not started;
* it holds a later block (the other side ran a whole ring ahead): the
  side draws b locally, without publishing it.

Every lock acquire and every wait has a timeout.  A side whose wait times
out, or that cannot get the lock, takes the other side for dead or stuck:
it draws every remaining block locally and no longer waits.  So no call
blocks for long, whether the other side has died holding the lock or a
claim, stopped early, or not started yet.
"""
from __future__ import annotations

import mmap
import multiprocessing

import numpy as np

from . import rng

SLOTS = 8

# seconds: a live side holds the lock for microseconds, and a side that is
# waited for moves on within one block of its own steps
_LOCK_TIMEOUT = 1.0
_WAIT_TIMEOUT = 0.25

_FREE, _DRAWING, _READY = 0, 1, 2
_EMPTY = -1          # block index of a slot that never held one
_NOT_STARTED = -1    # progress of a side before its first request
_DONE = 1 << 62      # progress of a side that will ask for nothing more

COUNTS = ("drew", "ahead", "read", "local")


class NoiseRing:
    """A ring of noise blocks shared by two processes; see the module docstring.

    ``block`` is the steps per block that both runs use; the last block of
    ``n_steps`` may be shorter.  Make the ring before the processes fork.
    """

    def __init__(self, n_particles: int, width: int, block: int, n_steps: int):
        ctx = multiprocessing.get_context("fork")
        self.slots = r = SLOTS
        self.shape = (block, n_particles, width)
        self.block = block
        self.n_steps = n_steps
        self.n_blocks = -(-n_steps // block)
        self._data = mmap.mmap(-1, r * block * n_particles * width * 8)
        self._meta_map = mmap.mmap(-1, (3 * r + 4 + 2 * len(COUNTS)) * 8)
        meta = np.frombuffer(self._meta_map, dtype=np.int64)
        # per slot: block index, state, drawing side; per side: progress,
        # waiting flag, counts
        self._block, self._state, self._owner = meta[:r], meta[r:2 * r], meta[2 * r:3 * r]
        self._progress, self._waiting = meta[3 * r:3 * r + 2], meta[3 * r + 2:3 * r + 4]
        self._counts = meta[3 * r + 4:].reshape(2, len(COUNTS))
        self._block[:] = _EMPTY
        self._progress[:] = _NOT_STARTED
        self._lock = ctx.Lock()
        self._wake = (ctx.Semaphore(0), ctx.Semaphore(0))

    def sides(self) -> tuple:
        """The two sides, each a drop-in for :func:`rng.normal_block`."""
        return RingSide(self, 0), RingSide(self, 1)

    def counts(self) -> list:
        """Per side, how it got its blocks; read after both sides are done.

        ``drew``: claimed, drawn and published when the side needed it;
        ``ahead``: drawn and published ahead of the side's need, while the
        other side drew the block it needed; ``read``: found ready in the
        ring; ``local``: drawn and not published.  Each side's drew + read +
        local is the number of blocks it asked for.
        """
        return [dict(zip(COUNTS, map(int, row))) for row in self._counts]

    def steps_of(self, b: int) -> int:
        return min(self.block, self.n_steps - b * self.block)

    def close(self) -> None:
        """Unmap the ring in this process; the sides' processes keep theirs."""
        self._block = self._state = self._owner = None
        self._progress = self._waiting = self._counts = None
        self._meta_map.close()
        self._data.close()


class RingSide:
    """One process's end of a :class:`NoiseRing`.

    Called like :func:`rng.normal_block` with the block's first step; used
    as a context manager around the run, whose exit tells the other side
    that this one will ask for nothing more.
    """

    def __init__(self, ring: NoiseRing, me: int):
        self.ring = ring
        self.me = me
        self.other = 1 - me
        self._solo = False        # draw everything locally from now on
        self._lock_lost = False   # the lock timed out; never take it again
        self._slots = None

    def __enter__(self) -> "RingSide":
        return self

    def __exit__(self, *exc) -> None:
        self._leave()

    def __call__(self, keys: np.ndarray, step: int, steps: int, ncomp: int) -> np.ndarray:
        ring = self.ring
        b, offset = divmod(step, ring.block)
        if (offset or b >= ring.n_blocks or steps != ring.steps_of(b)
                or (len(keys), ncomp) != ring.shape[1:]):
            raise ValueError(
                f"steps {step}..{step + steps - 1} of {len(keys)} x {ncomp} draws "
                f"are not a block of this ring {ring.shape}")
        while not self._solo:
            if not self._acquire():
                break
            try:
                action, j = self._next(b)
            finally:
                ring._lock.release()
            if action == "read":
                self._count("read")
                return self._view(b)
            if action == "draw":
                view = self._view(j)
                np.copyto(view, rng.normal_block(keys, j * ring.block, view.shape[0], ncomp))
                self._publish(j)
                if j == b:
                    self._count("drew")
                    return view
                self._count("ahead")
            elif action == "wait":
                if not ring._wake[self.me].acquire(timeout=_WAIT_TIMEOUT):
                    self._leave()
            else:   # "local"
                break
        self._count("local")
        return rng.normal_block(keys, step, steps, ncomp)

    # -- under the lock ------------------------------------------------------

    def _next(self, b: int) -> tuple:
        """What to do for block b: ("read" | "draw" | "wait" | "local", block)."""
        ring = self.ring
        if ring._progress[self.me] != b:
            ring._progress[self.me] = b
            self._notify()
        s = b % ring.slots
        held = ring._block[s]
        if held == b:
            if ring._state[s] == _READY:
                return "read", b
            ahead = self._claim_ahead(b)   # the other side draws b
            if ahead is not None:
                return "draw", ahead
        elif held > b:
            return "local", b
        elif self._free(s):
            self._claim(b)
            return "draw", b
        elif ring._progress[self.other] == _NOT_STARTED:
            return "local", b
        ring._waiting[self.me] = 1
        return "wait", b

    def _free(self, s: int) -> bool:
        ring = self.ring
        held = ring._block[s]
        return ring._state[s] != _DRAWING and (
            held == _EMPTY or held < ring._progress.min())

    def _claim(self, j: int) -> None:
        ring = self.ring
        s = j % ring.slots
        ring._block[s] = j
        ring._state[s] = _DRAWING
        ring._owner[s] = self.me

    def _claim_ahead(self, b: int):
        ring = self.ring
        for j in range(b + 1, min(b + ring.slots, ring.n_blocks)):
            s = j % ring.slots
            if ring._block[s] < j and self._free(s):
                self._claim(j)
                return j
        return None

    def _notify(self) -> None:
        ring = self.ring
        if ring._waiting[self.other]:
            ring._waiting[self.other] = 0
            ring._wake[self.other].release()

    # -- lock handling -------------------------------------------------------

    def _acquire(self) -> bool:
        if self._lock_lost:
            return False
        if self.ring._lock.acquire(timeout=_LOCK_TIMEOUT):
            return True
        self._lock_lost = self._solo = True
        return False

    def _publish(self, j: int) -> None:
        if not self._acquire():
            return
        try:
            self.ring._state[j % self.ring.slots] = _READY
            self._notify()
        finally:
            self.ring._lock.release()

    def _leave(self) -> None:
        """Ask for nothing more: drop unfinished claims and wake the other side."""
        self._solo = True
        if not self._acquire():
            return
        ring = self.ring
        try:
            ring._progress[self.me] = _DONE
            mine = (ring._state == _DRAWING) & (ring._owner == self.me)
            ring._block[mine] = _EMPTY
            ring._state[mine] = _FREE
            self._notify()
        finally:
            ring._lock.release()

    # -- data ---------------------------------------------------------------

    def _view(self, j: int) -> np.ndarray:
        ring = self.ring
        if self._slots is None:
            self._slots = np.frombuffer(ring._data, dtype=np.float64).reshape(
                (ring.slots,) + ring.shape)
        return self._slots[j % ring.slots, :ring.steps_of(j)]

    def _count(self, what: str) -> None:
        self.ring._counts[self.me, COUNTS.index(what)] += 1
