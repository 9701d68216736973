"""Counter-based random numbers for particle simulations.

Every random draw is a pure function of ``(seed, stream, counter)``, where
``stream`` identifies a particle and ``counter`` encodes (step, component).
Draws are produced by hashing the key with a 64-bit finalizer and feeding the
resulting uniforms through Box-Muller: from two tagged words per counter,
u1 in (0, 1] and u2 in [0, 1) on the 2^-53 lattice, the normal is
sqrt(-2 log u1) cos(2 pi u2), with the cosine taken as (t^2 - 1) / (t^2 + 1)
for t = tan(pi (u2 - 1/2)) (Box and Muller, Ann. Math. Statist. 29, 1958;
:func:`_wave_2pi`).  There is no sequential generator state, which buys
two properties that matter here:

* reproducibility is independent of chunking and block length, because the
  value of draw (i, k) never depends on which draws were made before it;
* permuting particle stream ids permutes their noise paths exactly, so
  exchangeability tests can be made bit-exact.

A run hashes the step-independent (seed, stream) prefix once with
:func:`stream_keys`.  :func:`normal_block` then hashes a whole range of
counters, a block of consecutive steps, in one call with in-place uint64
operations and turns it into normals, in buffers the caller may own.
:func:`normals` is its one-step case, and :func:`uniforms` hashes one
step's counters the same way under its own tag.  A block is a pure
function of its keys and steps, so any process can draw it for another,
into any buffer: ``noise_ring`` shares the blocks of two runs on the
same noise between the two processes that step them.  Timed as ``rng.ns_per_draw``
(span time over draws) on the benchmark's traced ``ladder_1d`` workload
(N from 250 to 8000, one component, one BLAS thread, 2-CPU x86-64 VM), with
the tracer pointed at the function that draws: 51 ns per draw in the
simulator's blocks of about 32k draws, against 68 ns drawn one step at a
time from cached keys and 89 ns when every step rehashed the prefix.
The angle's cosine then cost about 25-30 ns of a draw, because numpy 2.4
sends float64 ``cos`` to scalar libm; through the vectorized ``tan`` it
takes 5-6 ns.  On a host about twice as slow as those figures', a block
at N = 4000 (8 steps) takes 27-28 ns per draw against 41-45 ns with
libm's cosine; the three hash rounds are now about half of it.
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

# a seed is one uint64 hash key: 0 <= seed < SEED_LIMIT
SEED_LIMIT = 2 ** 64


def _wave_2pi(y, cosine: bool = False, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """sin(2 pi y), or cos(2 pi y) with ``cosine``, through one tangent.

    With t = tan(pi (y - 1/2)), sin(2 pi y) = -2t / (1 + t^2) and
    cos(2 pi y) = (t^2 - 1) / (t^2 + 1).  numpy 2.4 has an AVX-512 kernel
    for float64 ``tan`` but sends ``sin`` and ``cos`` to scalar libm: on
    32k fresh arguments this takes 5-6 ns per element against 23-31 ns
    (2-CPU x86-64 VM; without AVX-512 both take 27-33 ns).  On y in
    [0, 1) it is within 4.2e-16 of the exact value, where libm on the
    rounded angle 2 pi y is within 6.9e-16; on [1, 2) within 1.4e-15.  At
    y = 0 the tangent is large but finite: the cosine is 1.0 and the sine
    1.2e-16.  ``out`` (which may be ``y``) receives the result and
    ``scratch`` holds t^2, float64 arrays of y's shape; either is
    allocated when not given.
    """
    if out is None:
        out = np.empty(np.shape(y))
    if scratch is None:
        scratch = np.empty(np.shape(y))
    np.subtract(y, 0.5, out=out)
    out *= np.pi
    np.tan(out, out=out)
    np.multiply(out, out, out=scratch)
    if cosine:
        np.subtract(scratch, 1.0, out=out)
    else:
        out *= -2.0
    scratch += 1.0
    out /= scratch
    return out


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


def _keyed_counters(keys, step: int, steps: int, ncomp: int, out=None) -> np.ndarray:
    """Counters ``step*ncomp`` on, xor each key, shape ``(steps, len(keys), ncomp)``."""
    keys = np.asarray(keys, dtype=np.uint64)
    with np.errstate(over="ignore"):
        c = np.uint64(step) * np.uint64(ncomp) + np.arange(steps * ncomp, dtype=np.uint64)
    c = c.reshape(steps, ncomp)
    if out is None:
        out = np.empty((steps, len(keys), ncomp), dtype=np.uint64)
    # one 2-d broadcast per component: a 3-d one takes numpy's buffered
    # path, up to four times slower at two or three components
    for comp in range(ncomp):
        np.bitwise_xor(c[:, comp, None], keys, out=out[:, :, comp])
    return out


def normal_block(keys: np.ndarray, step: int, steps: int, ncomp: int,
                 out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """Standard normals for ``steps`` consecutive steps from :func:`stream_keys`.

    Returns shape ``(steps, len(keys), ncomp)``; row j is the draw of step
    ``step + j``, bit for bit.  Box-Muller runs on two tagged words per
    counter in two uint64 buffers of the block's size, reused in place,
    and the output's bytes serve as the mixer's shift scratch.

    ``out``, a C-contiguous float64 array of the block's shape, receives
    the normals and is returned; ``scratch``, a 1-d uint64 array of at
    least twice the block's size, holds the two words.  A caller that
    draws block after block passes the same buffers each time, so no call
    allocates block-sized memory; the bits are those of a call without
    them, which allocates all three.
    """
    shape = (steps, len(keys), ncomp)
    size = steps * len(keys) * ncomp
    if out is None:
        out = np.empty(shape)
    if scratch is None:
        scratch = np.empty(2 * size, dtype=np.uint64)
    h = scratch[:size].reshape(shape)
    w = scratch[size:2 * size].reshape(shape)
    tmp = out.view(np.uint64)
    _mix_into(_keyed_counters(keys, step, steps, ncomp, h), tmp)
    _mix_into(np.bitwise_xor(h, _TAG_A, out=w), tmp)
    _mix_into(np.bitwise_xor(h, _TAG_B, out=h), tmp)
    w >>= np.uint64(11)
    h >>= np.uint64(11)
    # words to floats by copyto, which casts in place; a ufunc that casts
    # allocates a 64 kB buffer per call
    radius = out
    np.copyto(radius, w)
    radius += 1.0
    radius *= _INV53                                # u1 in (0, 1]
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = w.view(np.float64)
    np.copyto(angle, h)
    angle *= _INV53                                 # u2 in [0, 1)
    _wave_2pi(angle, cosine=True, out=angle, scratch=h.view(np.float64))
    radius *= angle
    return radius


def normals(seed: int, streams, step: int, ncomp: int) -> np.ndarray:
    """Standard normal increments for the given particle streams at one step.

    Returns an array of shape ``(len(streams), ncomp)``.  The draw for
    (stream, step, component) is the same no matter how the call is batched.
    """
    return normal_block(stream_keys(seed, streams), step, 1, ncomp)[0]


def uniforms(seed: int, streams, step: int, ncomp: int) -> np.ndarray:
    """Uniform(0,1) draws with the same keying scheme as :func:`normals`."""
    h = _mix(_keyed_counters(stream_keys(seed, streams), step, 1, ncomp)[0])
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
