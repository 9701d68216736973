"""Counter-based random numbers for particle simulations.

Every random draw is a pure function of ``(seed, stream, counter)``, where
``stream`` identifies a particle and ``counter`` encodes (step, component).
Draws are produced by hashing the key with a 64-bit finalizer and feeding the
resulting uniforms through Box-Muller.  There is no sequential generator
state, which buys two properties that matter here:

* reproducibility is independent of chunking and block length, because the
  value of draw (i, k) never depends on which draws were made before it;
* permuting particle stream ids permutes their noise paths exactly, so
  exchangeability tests can be made bit-exact.

A run hashes the step-independent (seed, stream) prefix once with
:func:`stream_keys`.  :func:`counter_hash` then hashes a whole range of
counters, a block of consecutive steps, in one call with in-place uint64
operations, and :func:`normal_block` turns the block into normals; it is
the only hash path, and :func:`keyed_normals`, :func:`normals` and
:func:`uniforms` are its one-step cases.  A block is a pure function of
its keys and steps, so any process can draw it for another:
``noise_ring`` shares the blocks of two runs on the same noise between
the two processes that step them.  Timed as ``rng.ns_per_draw``
(span time over draws) on the benchmark's traced ``ladder_1d`` workload
(N from 250 to 8000, one component, one BLAS thread, 2-CPU x86-64 VM), with
the tracer pointed at the function that draws: 51 ns per draw in the
simulator's blocks of about 32k draws, against 68 ns drawn one step at a
time from cached keys and 89 ns when every step rehashed the prefix.
"""
from __future__ import annotations

import hashlib

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# distinct tags decorrelate the two words drawn per key and the two domains
_TAG_A = np.uint64(0xD6E8FEB86659FD93)
_TAG_B = np.uint64(0xA5A5A5A5A5A5A5A5)
_TAG_UNIFORM = np.uint64(0x632BE59BD9B4E019)

_INV53 = 2.0 ** -53


def _mix_into(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place; ``tmp`` is shift scratch."""
    z += _GOLDEN
    for shift, mult in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        if mult is not None:
            z *= mult
    return z


def _mix(z) -> np.ndarray:
    """SplitMix64 finalizer of a copy of ``z``."""
    z = np.array(z, dtype=np.uint64)
    return _mix_into(z, np.empty_like(z))


def stream_keys(seed: int, streams) -> np.ndarray:
    """Step-independent hash prefix of each (seed, stream) pair.

    A run computes these once and draws every step from slices of them with
    :func:`normal_block`; the draws are those of :func:`normals`.
    """
    with np.errstate(over="ignore"):
        return _mix(_mix(np.uint64(seed)) ^ np.asarray(streams, dtype=np.uint64))


def counter_hash(keys: np.ndarray, step: int, steps: int, ncomp: int) -> np.ndarray:
    """Hashes of counters ``step*ncomp`` to ``(step+steps)*ncomp - 1`` per key.

    Returns a uint64 array of shape ``(steps, len(keys), ncomp)``; entry
    (j, i, c) is the hash of key i at counter ``(step+j)*ncomp + c``, the
    same whatever range a call covers.  Every draw of this module goes
    through here.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    with np.errstate(over="ignore"):
        c = np.uint64(step) * np.uint64(ncomp) + np.arange(steps * ncomp, dtype=np.uint64)
    h = c.reshape(steps, 1, ncomp) ^ keys.reshape(1, -1, 1)
    return _mix_into(h, np.empty_like(h))


def normal_block(keys: np.ndarray, step: int, steps: int, ncomp: int) -> np.ndarray:
    """Standard normals for ``steps`` consecutive steps from :func:`stream_keys`.

    Returns shape ``(steps, len(keys), ncomp)``; row j is the draw of step
    ``step + j``, bit for bit.  Box-Muller runs on two tagged words per
    counter in three uint64 buffers of the block's size, reused in place.
    """
    h = counter_hash(keys, step, steps, ncomp)
    tmp = np.empty_like(h)
    w = _mix_into(h ^ _TAG_A, tmp)
    _mix_into(np.bitwise_xor(h, _TAG_B, out=h), tmp)
    w >>= np.uint64(11)
    h >>= np.uint64(11)
    radius = np.add(w, 1.0, out=tmp.view(np.float64))
    radius *= _INV53                                # u1 in (0, 1]
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = np.multiply(h, _INV53, out=w.view(np.float64))  # u2 in [0, 1)
    angle *= 2.0 * np.pi
    np.cos(angle, out=angle)
    radius *= angle
    return radius


def keyed_normals(keys: np.ndarray, step: int, ncomp: int) -> np.ndarray:
    """Standard normals of shape ``(len(keys), ncomp)`` from :func:`stream_keys`."""
    return normal_block(keys, step, 1, ncomp)[0]


def normals(seed: int, streams, step: int, ncomp: int) -> np.ndarray:
    """Standard normal increments for the given particle streams at one step.

    Returns an array of shape ``(len(streams), ncomp)``.  The draw for
    (stream, step, component) is the same no matter how the call is batched.
    """
    return keyed_normals(stream_keys(seed, streams), step, ncomp)


def uniforms(seed: int, streams, step: int, ncomp: int) -> np.ndarray:
    """Uniform(0,1) draws with the same keying scheme as :func:`normals`."""
    h = counter_hash(stream_keys(seed, streams), step, 1, ncomp)[0]
    h ^= _TAG_UNIFORM
    _mix_into(h, np.empty_like(h))
    h >>= np.uint64(11)
    return np.multiply(h, _INV53, out=h.view(np.float64))


def derive(seed: int, label: str) -> int:
    """Derive an independent seed for a named sub-purpose (init draws etc.)."""
    tag = int.from_bytes(hashlib.blake2s(label.encode(), digest_size=8).digest(), "big")
    key = np.array([seed], dtype=np.uint64) ^ np.uint64(tag)
    with np.errstate(over="ignore"):
        return int(_mix(key)[0])
