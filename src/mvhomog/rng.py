"""Counter-based random numbers for particle simulations.

Every random draw is a pure function of ``(seed, stream, counter)``, where
``stream`` identifies a particle and ``counter`` encodes (step, component).
Draws are produced by hashing the key with a 64-bit finalizer and feeding the
resulting uniforms through Box-Muller.  There is no sequential generator
state, which buys two properties that matter here:

* reproducibility is independent of chunking and thread count, because the
  value of draw (i, k) never depends on which draws were made before it;
* permuting particle stream ids permutes their noise paths exactly, so
  exchangeability tests can be made bit-exact.

A run hashes the step-independent (seed, stream) prefix once with
:func:`stream_keys` and draws every step with :func:`keyed_normals`;
:func:`normals` is the same computation for a single call.  Timed as the
benchmark's ``rng.ns_per_draw`` (span time over draws, traced ``ladder_1d``
workload, N from 250 to 8000, one component, one BLAS thread, 2-CPU x86-64
VM), a draw from cached keys costs 68 ns, against 89 ns when every step
rehashed the prefix.
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


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 arrays."""
    z = z + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def stream_keys(seed: int, streams) -> np.ndarray:
    """Step-independent hash prefix of each (seed, stream) pair.

    A run computes these once and draws every step from slices of them with
    :func:`keyed_normals`; the draws are those of :func:`normals`.
    """
    with np.errstate(over="ignore"):
        return _mix(_mix(np.uint64(seed)) ^ np.asarray(streams, dtype=np.uint64))


def _counter_hash(keys: np.ndarray, step: int, ncomp: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        c = np.uint64(step) * np.uint64(ncomp) + np.arange(ncomp, dtype=np.uint64)
    return _mix(keys.reshape(-1, 1) ^ c[None, :])


def keyed_normals(keys: np.ndarray, step: int, ncomp: int) -> np.ndarray:
    """Standard normals of shape ``(len(keys), ncomp)`` from :func:`stream_keys`."""
    h = _counter_hash(keys, step, ncomp)
    w1 = _mix(h ^ _TAG_A)
    w2 = _mix(h ^ _TAG_B)
    u1 = ((w1 >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53  # in (0, 1]
    u2 = (w2 >> np.uint64(11)).astype(np.float64) * _INV53          # in [0, 1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def normals(seed: int, streams, step: int, ncomp: int) -> np.ndarray:
    """Standard normal increments for the given particle streams at one step.

    Returns an array of shape ``(len(streams), ncomp)``.  The draw for
    (stream, step, component) is the same no matter how the call is batched.
    """
    return keyed_normals(stream_keys(seed, streams), step, ncomp)


def uniforms(seed: int, streams, step: int, ncomp: int) -> np.ndarray:
    """Uniform(0,1) draws with the same keying scheme as :func:`normals`."""
    h = _counter_hash(stream_keys(seed, streams), step, ncomp) ^ _TAG_UNIFORM
    return (_mix(h) >> np.uint64(11)).astype(np.float64) * _INV53


def derive(seed: int, label: str) -> int:
    """Derive an independent seed for a named sub-purpose (init draws etc.)."""
    tag = int.from_bytes(hashlib.blake2s(label.encode(), digest_size=8).digest(), "big")
    key = np.array([seed], dtype=np.uint64) ^ np.uint64(tag)
    with np.errstate(over="ignore"):
        return int(_mix(key)[0])


def unit_vectors(seed: int, count: int, dim: int) -> np.ndarray:
    """Seeded unit vectors in R^dim, shape (count, dim).

    Used for sliced-Wasserstein projections in dimension >= 3; drawn as
    normalized Gaussians so the directions are uniform on the sphere.
    """
    z = normals(seed, np.arange(count), 0, dim)
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    # a zero vector has probability ~0, but guard the division anyway
    norms[norms == 0.0] = 1.0
    return z / norms
