"""Counter-based random numbers for particle simulations.

Every random draw is a pure function of ``(seed, stream, counter)``, where
``stream`` identifies a particle and ``counter`` encodes (step, component).
Normals come in pairs: counters 2k and 2k + 1 of a stream are keyed by the
pair index k, which is hashed with a 64-bit finalizer into two tagged
words, u1 in (0, 1] and u2 in [0, 1) on the 2^-53 lattice.  Box-Muller
gives the even counter r cos(2 pi u2) and the odd one r sin(2 pi u2), with
r = sqrt(-2 log u1) and both from one t = tan(pi (u2 - 1/2)) (Box and
Muller, Ann. Math. Statist. 29, 1958; :func:`_wave_2pi`).  There is no
sequential generator state, which buys two properties that matter here:

* reproducibility is independent of chunking and block length, because the
  value of draw (i, k) never depends on which draws were made before it;
* permuting particle stream ids permutes their noise paths exactly, so
  exchangeability tests can be made bit-exact.

A run hashes the step-independent (seed, stream) prefix once with
:func:`stream_keys`.  :func:`normal_block` then hashes the pairs of a
whole range of counters, a block of consecutive steps, in one call with
in-place uint64 operations and turns them into normals, in buffers the
caller may own.  :func:`normals` is its one-step case, and
:func:`uniforms` hashes one step's counters, one hash each, under its own
tag.  A block is a pure function of its keys and steps, so any process
may redraw any block, bit for bit, into any buffer: two runs on the same
noise in two processes (a split twin pair) each draw it and need share
nothing.

Cost, 2-CPU x86-64 VM, numpy 2.4 with its AVX-512 ``tan``, one CPU: a block
at N = 4000 in the stepper's 8 steps takes 16-21 ns per draw, against
23-31 ns when every counter took three hash rounds, a log, a sqrt and a
tangent of its own; three hash rounds per pair are now about 40 % of it.
Earlier, on the benchmark's traced ``ladder_1d`` (a faster host), blocks
of about 32k draws had taken 51 ns per draw against 68 ns drawn one step
at a time and 89 ns when every step rehashed the prefix, and the
Box-Muller cosine through libm 25-30 ns of a draw against 5-6 ns through
the vectorized ``tan``.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import ValidationError

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


def _keyed_counters(keys, step: int, steps: int, ncomp: int, out=None,
                    spare=None) -> np.ndarray:
    """Counters ``step*ncomp`` on, xor each key, shape ``(steps, len(keys), ncomp)``.

    ``out`` receives them and ``spare``, a uint64 array of the same shape,
    is overwritten; either is allocated when not given.  The keys and the
    counters are broadcast by two copies and xored whole: a ufunc on the
    two broadcast operands takes numpy's buffered path, which allocated
    129 kB and took 21-23 us per call at (16, 1000) and (66, 250).
    """
    with np.errstate(over="ignore"):
        c = np.uint64(step) * np.uint64(ncomp) + np.arange(steps * ncomp, dtype=np.uint64)
    shape = (steps, len(keys), ncomp)
    if out is None:
        out = np.empty(shape, dtype=np.uint64)
    if spare is None:
        spare = np.empty(shape, dtype=np.uint64)
    np.copyto(out, np.asarray(keys, dtype=np.uint64)[:, None])
    np.copyto(spare, c.reshape(steps, 1, ncomp))
    return np.bitwise_xor(out, spare, out=out)


def scratch_words(steps: int, n: int, ncomp: int) -> int:
    """Length of the uint64 scratch :func:`normal_block` needs for a block."""
    return 5 * n * (steps * ncomp // 2 + 1)


def _pairs_into(keys, start: int, rows: int, cols: int, even, odd,
                scratch: np.ndarray) -> None:
    """Box-Muller on the counter pairs ``start*cols`` on, one hash per pair.

    Pair k of a key is hashed once into two tagged words, u1 in (0, 1] and
    u2 in [0, 1) on the 2^-53 lattice; with r = sqrt(-2 log u1),
    t = tan(pi (u2 - 1/2)) and s = r / (t^2 + 1), counter 2k gets
    r cos(2 pi u2) = r - 2s and counter 2k + 1 gets
    r sin(2 pi u2) = (-2t) s (:func:`_wave_2pi`'s identities).  ``even``
    and ``odd``, float64 arrays (or views) of the pairs' shape
    ``(rows, len(keys), cols)``, receive them; the three uint64 words of
    each pair are worked in place in ``scratch``.
    """
    shape = (rows, len(keys), cols)
    size = rows * len(keys) * cols
    h, w, tmp = (scratch[i * size:(i + 1) * size].reshape(shape) for i in range(3))
    _mix_into(_keyed_counters(keys, start, rows, cols, h, tmp), tmp)
    _mix_into(np.bitwise_xor(h, _TAG_A, out=w), tmp)
    _mix_into(np.bitwise_xor(h, _TAG_B, out=h), tmp)
    w >>= np.uint64(11)
    h >>= np.uint64(11)
    # words to floats by copyto, which casts in place; a ufunc that casts
    # allocates a 64 kB buffer per call
    r = tmp.view(np.float64)
    np.copyto(r, w)
    r += 1.0
    r *= _INV53                                     # u1 in (0, 1]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t = w.view(np.float64)
    np.copyto(t, h)
    t *= _INV53                                     # u2 in [0, 1)
    t -= 0.5
    t *= np.pi
    np.tan(t, out=t)
    s = h.view(np.float64)
    np.multiply(t, t, out=s)
    s += 1.0
    np.divide(r, s, out=s)
    t *= -2.0
    np.multiply(t, s, out=odd)
    s *= 2.0
    np.subtract(r, s, out=even)


def normal_block(keys: np.ndarray, step: int, steps: int, ncomp: int,
                 out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """Standard normals for ``steps`` consecutive steps from :func:`stream_keys`.

    Returns shape ``(steps, len(keys), ncomp)``; row j is the draw of step
    ``step + j``, bit for bit.  Counter ``step*ncomp + comp`` of a key
    belongs to pair ``counter // 2``, and one Box-Muller transform gives
    both of a pair's normals (:func:`_pairs_into`): width-1 noise pairs
    consecutive steps of a particle, width-2 noise the two components of
    a step.  At even widths a pair is two neighbouring entries of ``out``
    and is drawn into it.  At odd widths the block's whole pairs are drawn
    into scratch and its counters copied out, the half of an edge pair
    outside the block dropped.  For width 1 that costs no more than
    drawing into ``out`` where its pairs are views of it; a width-2 block
    copied so took 22.6 against 16.9 ns per draw at N = 200.

    ``out``, a C-contiguous float64 array of the block's shape, receives
    the normals and is returned; ``scratch``, a 1-d uint64 array of at
    least :func:`scratch_words` words, holds the hash words.  A caller
    that draws block after block passes the same buffers each time, so no
    call allocates block-sized memory (numpy may take one 64 kB iteration
    buffer for the strided writes); the bits are those of a call without
    them, which allocates both.
    """
    n = len(keys)
    shape, words = (steps, n, ncomp), scratch_words(steps, n, ncomp)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValidationError(f"normal_block out has shape {out.shape}, expected {shape}")
    if scratch is None:
        scratch = np.empty(words, dtype=np.uint64)
    elif scratch.size < words:
        raise ValidationError(f"normal_block scratch has {scratch.size} words, "
                              f"needs scratch_words{shape} = {words}")
    if ncomp % 2 == 0:
        pairs = out.reshape(steps, n, ncomp // 2, 2)
        _pairs_into(keys, step, steps, ncomp // 2, pairs[..., 0], pairs[..., 1], scratch)
    else:
        first, count = step * ncomp, steps * ncomp          # the block's counters
        k0 = first // 2
        rows = (first + count + 1) // 2 - k0
        full = scratch[3 * rows * n:5 * rows * n].view(np.float64).reshape(rows, 2, n, 1)
        _pairs_into(keys, k0, rows, 1, full[:, 0], full[:, 1], scratch)
        counters = full.reshape(2 * rows, n)[first - 2 * k0:first - 2 * k0 + count]
        np.copyto(out, counters.reshape(steps, ncomp, n).transpose(0, 2, 1))
    return out


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
