"""Counter-based random numbers for particle simulations.

Every random draw is a pure function of ``(seed, stream, counter)``, where
``stream`` identifies a particle and ``counter`` encodes (step, component).
Normals come in pairs: counters 2k and 2k + 1 of a stream are keyed by the
pair index k under a normal-draw tag, and one SplitMix64 finalizer round
(Steele, Lea and Flood, OOPSLA 2014) hashes it into one 64-bit word h, in
the counter-based manner of Salmon et al. (SC 2011).  The high half of h
gives u1 = (hi + 1) 2^-32 in (0, 1] and the low half u2 = lo 2^-32 in
[0, 1).  Box-Muller gives the even counter r cos(2 pi u2) and the odd one
r sin(2 pi u2), with r = sqrt(-2 log u1) and both from one
t = tan(pi (u2 - 1/2)) (Box and Muller, Ann. Math. Statist. 29, 1958;
:func:`_wave_2pi`).  There is no sequential generator state, which buys
two properties that matter here:

* reproducibility is independent of chunking and block length, because the
  value of draw (i, k) never depends on which draws were made before it;
* permuting particle stream ids permutes their noise paths exactly, so
  exchangeability tests can be made bit-exact.

The uniforms u1 and u2 lie on the 2^-32 lattice.  The smallest u1 is
2^-32, so no normal exceeds sqrt(64 ln 2) = 6.66 in absolute value: the
tail beyond it has probability 2.7e-11 per draw, about 0.001 draws in
each run of the benchmark's ``ladder_1d`` plan (37 M draws).  The
lattice's angles are 2^-32 of a turn apart.

A run hashes the step-independent (seed, stream) prefix once with
:func:`stream_keys`.  :func:`normal_block` then hashes the pairs of a
whole range of counters, a block of consecutive steps, in one call with
in-place uint64 operations and turns them into normals, in buffers the
caller may own.  :func:`normals` is its one-step case.  Normals are the
only draws: the sliced W2's frames above 2-d are normals of seed 0, and a
seed for a sub-purpose comes from :func:`derive`.  A block is a pure function of its
keys and steps, so any process may redraw any block, bit for bit, into
any buffer: two runs on the same noise in two processes (a split twin
pair) each draw it and need share nothing.

Three choices keep a draw cheap: a whole block of steps is hashed in one
call rather than step by step, one hash round serves a pair of normals,
and the Box-Muller angle goes through numpy's vectorized ``tan`` rather
than libm's cosine.  The README's Performance section and
``BENCH_25.json`` hold the measurements.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import ValidationError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# the normal draws' tag, xored into every counter before it meets the keys
_TAG_NORMAL = np.uint64(0xD6E8FEB86659FD93)
# a 32-bit half word h or-ed into _EXP20, the bits of 2^20, reads
# 2^20 + h 2^-32; subtracting these leaves (h + 1) 2^-32 and h 2^-32 - 1/2
_EXP20 = np.uint64(0x4130000000000000)
_LOW32 = np.uint64(0xFFFFFFFF)
_U1_SHIFT = 2.0 ** 20 - 2.0 ** -32
_U2_SHIFT = 2.0 ** 20 + 0.5

# a seed is one uint64 hash key: 0 <= seed < SEED_LIMIT
SEED_LIMIT = 2 ** 64


def check_seed(seed: int) -> None:
    """Refuse a seed that is not one uint64 hash key."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")


def _wave_2pi(y, cosine: bool = False) -> np.ndarray:
    """sin(2 pi y), or cos(2 pi y) with ``cosine``, through one tangent.

    With t = tan(pi (y - 1/2)), sin(2 pi y) = -2t / (1 + t^2) and
    cos(2 pi y) = (t^2 - 1) / (t^2 + 1).  numpy 2.4 has an AVX-512 kernel
    for float64 ``tan`` but sends ``sin`` and ``cos`` to scalar libm: on
    32k fresh arguments this takes 5-6 ns per element against 23-31 ns
    (2-CPU x86-64 VM; without AVX-512 both take 27-33 ns).  On y in
    [0, 1) it is within 4.2e-16 of the exact value, where libm on the
    rounded angle 2 pi y is within 6.9e-16; on [1, 2) within 1.4e-15.  At
    y = 0 the tangent is large but finite: the cosine is 1.0 and the sine
    1.2e-16.
    """
    out = np.subtract(y, 0.5)
    out *= np.pi
    np.tan(out, out=out)
    scratch = out * out
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


def _keyed_counters(keys, step: int, steps: int, ncomp: int, out: np.ndarray) -> np.ndarray:
    """Counters ``step*ncomp`` on, xor the normal draws' tag, xor each key.

    The tag goes into the counters, one word per counter, before they meet
    the keys.  ``out``, of shape ``(steps, len(keys), ncomp)``, receives the
    result.  Keys and counters meet in one broadcast xor per component,
    whose rows are whole rows of keys.  numpy would gather rows shorter than
    its buffer into two 64 kB iteration buffers (129 kB per call at 1000
    keys in 16 rows or 250 in 66); a 16-word buffer size, which numpy 2
    scopes to the ``errstate`` block, keeps every row unbuffered.  At
    ``ncomp`` 1 that takes 11-16 us per call at N = 250 to 4000, against
    18-21 us for the two ``np.copyto`` broadcasts it replaced; at
    (8, 4000, 2) it takes 44-70 us against 295-484 us, and one xor over the
    component axis, whose inner loop is two words long, took 255-290 us
    (one CPU).  XOR is exact, so the words do not depend on the route.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    with np.errstate(over="ignore"):
        c = np.uint64(step) * np.uint64(ncomp) + np.arange(steps * ncomp, dtype=np.uint64)
        c ^= _TAG_NORMAL
        c = c.reshape(steps, 1, ncomp)
        np.setbufsize(16)  # no iteration buffer, however short the rows are
        for j in range(ncomp):
            np.bitwise_xor(keys, c[:, :, j], out=out[:, :, j])
    return out


def scratch_words(steps: int, n: int, ncomp: int) -> int:
    """Length of the uint64 scratch :func:`normal_block` needs for a block."""
    return 5 * n * (steps * ncomp // 2 + 1)


def _pairs_into(keys, start: int, rows: int, cols: int, even, odd,
                scratch: np.ndarray) -> None:
    """Box-Muller on the counter pairs ``start*cols`` on, one hash round per pair.

    Pair k of a key, xored with the normal draws' tag, is hashed into one
    word h by one finalizer round.  Its high half gives
    u1 = (hi + 1) 2^-32 in (0, 1] and its low half u2 = lo 2^-32 in [0, 1).
    With r = sqrt(-2 log u1), t = tan(pi (u2 - 1/2)) and
    m = -2r / (t^2 + 1), counter 2k gets r cos(2 pi u2) = r + m and counter
    2k + 1 gets r sin(2 pi u2) = t m (:func:`_wave_2pi`'s identities).
    ``even`` and ``odd``, float64 arrays (or views) of the pairs' shape
    ``(rows, len(keys), cols)``, receive them; the three uint64 words of
    each pair are worked in place in ``scratch``.

    A half word becomes a float without a cast: or-ed under the exponent
    bits of 2^20 it reads 2^20 + half 2^-32, and one exact subtraction
    leaves u1, or u2 - 1/2.
    """
    shape = (rows, len(keys), cols)
    size = rows * len(keys) * cols
    h, w, s = (scratch[i * size:(i + 1) * size].reshape(shape) for i in range(3))
    _mix_into(_keyed_counters(keys, start, rows, cols, h), w)
    np.right_shift(h, np.uint64(32), out=w)
    w |= _EXP20
    r = w.view(np.float64)
    r -= _U1_SHIFT                                  # u1 in (0, 1]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    h &= _LOW32
    h |= _EXP20
    t = h.view(np.float64)
    t -= _U2_SHIFT                                  # u2 - 1/2 in [-1/2, 1/2)
    t *= np.pi
    np.tan(t, out=t)
    m = s.view(np.float64)
    np.multiply(t, t, out=m)
    m += 1.0
    np.divide(r, m, out=m)
    m *= -2.0
    np.multiply(t, m, out=odd)
    np.add(r, m, out=even)


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
    them, which allocates both.  A buffer of another dtype, an ``out`` of
    another shape or a shorter scratch is refused, naming it.
    """
    n = len(keys)
    shape, words = (steps, n, ncomp), scratch_words(steps, n, ncomp)
    if out is None:
        out = np.empty(shape)
    elif out.dtype != np.float64:
        raise ValidationError(f"normal_block out has dtype {out.dtype}, needs float64")
    elif out.shape != shape:
        raise ValidationError(f"normal_block out has shape {out.shape}, expected {shape}")
    if scratch is None:
        scratch = np.empty(words, dtype=np.uint64)
    elif scratch.dtype != np.uint64:
        raise ValidationError(f"normal_block scratch has dtype {scratch.dtype}, needs uint64")
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


def derive(seed: int, label: str) -> int:
    """Derive an independent seed for a named sub-purpose (init draws etc.)."""
    tag = int.from_bytes(hashlib.blake2s(label.encode(), digest_size=8).digest(), "big")
    key = np.array([seed], dtype=np.uint64) ^ np.uint64(tag)
    with np.errstate(over="ignore"):
        return int(_mix(key)[0])
