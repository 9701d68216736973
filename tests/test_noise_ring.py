"""The shared noise ring: every block a side gets is ``rng.normal_block``'s,
bit for bit, and no side waits without a bound, whatever the other does.

Each side runs in a forked process and exits 0 when every block it got
equals a local draw.  Run under ``taskset -c 0`` the two sides time-share
one CPU, which interleaves claims, look-ahead and timeouts the most.
"""
import multiprocessing
import os
import random
import time

import numpy as np
import pytest

from mvhomog import noise_ring, rng
from mvhomog.noise_ring import NoiseRing

FORK = multiprocessing.get_context("fork")
N, BLOCK, N_STEPS = 5, 3, 40     # 14 blocks, the last one step long
JOIN = 60.0                       # seconds; every side here ends far sooner


def _keys():
    return rng.stream_keys(3, np.arange(N))


def _walk(side, ring, width, pace_seed=None, stop=None) -> bool:
    """Ask for the blocks in order, up to ``stop``; True when each is a local draw."""
    pace = random.Random(pace_seed)
    keys = _keys()
    ok = True
    with side:
        for b in range(ring.n_blocks if stop is None else stop):
            step, steps = b * ring.block, ring.steps_of(b)
            got = side(keys, step, steps, width)
            if pace_seed is not None:
                # a view stays valid until the next request, however long
                time.sleep(pace.uniform(0.0, 0.002))
            want = rng.normal_block(keys, step, steps, width)
            ok &= got.shape == want.shape and got.tobytes() == want.tobytes()
    return ok


def _exit_with(target, *args) -> None:
    os._exit(0 if target(*args) else 1)


def _start(target, *args):
    proc = FORK.Process(target=_exit_with, args=(target,) + args)
    proc.start()
    return proc


def _finish(*procs) -> list:
    for proc in procs:
        proc.join(JOIN)
        assert not proc.is_alive(), "a side did not finish"
    return [proc.exitcode for proc in procs]


def _check_counts(ring, asked=(None, None)) -> None:
    counts = ring.counts()
    for side, want in zip(counts, asked):
        want = ring.n_blocks if want is None else want
        assert side["drew"] + side["read"] + side["local"] == want, counts
    drawn = sum(c["drew"] + c["ahead"] + c["local"] for c in counts)
    assert drawn >= ring.n_blocks, counts


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("slots", [1, 2, 3])
def test_both_sides_get_every_block_bit_for_bit(monkeypatch, slots, width):
    monkeypatch.setattr(noise_ring, "SLOTS", slots)
    for trial in range(3):
        ring = NoiseRing(N, width, BLOCK, N_STEPS)
        a, b = ring.sides()
        procs = _start(_walk, a, ring, width, 2 * trial), _start(_walk, b, ring, width,
                                                                  2 * trial + 1)
        assert _finish(*procs) == [0, 0]
        _check_counts(ring)
        ring.close()


def test_a_side_alone_never_waits():
    # the other side has not started: the ring fills, then draws are local
    ring = NoiseRing(N, 1, BLOCK, N_STEPS)
    side, _ = ring.sides()
    t0 = time.perf_counter()
    assert _walk(side, ring, 1)
    assert time.perf_counter() - t0 < noise_ring._WAIT_TIMEOUT
    assert ring.counts()[0] == {"drew": ring.slots, "ahead": 0, "read": 0,
                                "local": ring.n_blocks - ring.slots}
    del side   # its view of the slots pins the mapping
    ring.close()


def test_a_side_that_stops_early_lets_the_other_finish(monkeypatch):
    # as a lane that fails: the side leaves after four blocks
    monkeypatch.setattr(noise_ring, "SLOTS", 2)
    ring = NoiseRing(N, 1, BLOCK, N_STEPS)
    a, b = ring.sides()
    procs = _start(_walk, a, ring, 1, 0, 4), _start(_walk, b, ring, 1, 1)
    assert _finish(*procs) == [0, 0]
    _check_counts(ring, asked=(4, None))
    ring.close()


def _claim_and_die(side, ring) -> bool:
    def die(*args):
        os._exit(3)

    rng.normal_block = die   # this process only
    side(_keys(), 0, ring.steps_of(0), 1)
    return False


def _hold_the_lock_and_die(ring) -> bool:
    ring._lock.acquire()
    os._exit(3)


@pytest.mark.parametrize("death", ["claim", "lock"])
def test_a_dead_side_costs_one_timeout(death):
    ring = NoiseRing(N, 1, BLOCK, N_STEPS)
    a, b = ring.sides()
    if death == "claim":   # dies drawing block 0, its claim still on the slot
        dead, timeout = _start(_claim_and_die, a, ring), noise_ring._WAIT_TIMEOUT
    else:
        dead, timeout = _start(_hold_the_lock_and_die, ring), noise_ring._LOCK_TIMEOUT
    assert _finish(dead) == [3]
    t0 = time.perf_counter()
    assert _finish(_start(_walk, b, ring, 1)) == [0]
    # one timeout, then local draws: the bound leaves room for a slow host
    assert time.perf_counter() - t0 < timeout + 10.0
    assert ring.counts()[1]["local"] >= 1
    ring.close()


def test_a_request_off_the_block_grid_is_refused():
    ring = NoiseRing(N, 1, BLOCK, N_STEPS)
    side, _ = ring.sides()
    for step, steps, width in [(1, BLOCK, 1), (0, BLOCK - 1, 1), (0, BLOCK, 2),
                               (N_STEPS, 1, 1)]:
        with pytest.raises(ValueError, match="not a block of this ring"):
            side(_keys(), step, steps, width)
    ring.close()
