"""Empirical measures, Wasserstein-2 distances and measure paths.

An empirical measure is (1/N) sum_i delta_{x_i}, as in the paper: every atom
has mass 1/N, and a statistic's weight is the scalar ``1.0 / size``.
Summations over atoms are performed in sorted order so every statistic is
exactly invariant under permutations of the atom list.  The one exception
is the particle stepper's frozen measure (:class:`_StreamOrderMeasure`),
whose mean sums its atoms in the order they are held: the stepper holds
them in particle-stream order, which makes that mean as invariant, for
the price of one plain sum instead of a sort and a sum.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import rng
from .errors import ValidationError

N_PROJECTIONS = 64   # directions of the sliced W2 surrogate (whole frames above 2-d)


def _sorted_sum(values: np.ndarray) -> float:
    """Order-independent sum (sort, then pairwise sum).

    Any sort gives the same bits on NaN-free input: the sorted sequence is
    unique up to the order of signed zeros, and the sign of an IEEE sum of
    zeros does not depend on their order.  So the fastest sort is used.
    """
    return float(np.sort(values).sum())


def _moment_terms(atoms: np.ndarray, order: int) -> np.ndarray:
    """The terms |x_i|^order / N that :func:`radial_moment` sums, a fresh array.

    Even integer orders multiply |x|^2 by itself instead of calling pow;
    with one column |x|^2 is the square itself, which is what the row sum
    of a single entry returns.
    """
    sq = atoms * atoms
    r2 = sq[:, 0] if sq.shape[1] == 1 else np.sum(sq, axis=1)
    if order > 0 and order % 2 == 0:
        power = r2
        for _ in range(order // 2 - 1):
            power = power * r2
    else:
        power = np.sqrt(r2) ** order
    power *= 1.0 / len(atoms)
    return power


def radial_moment(atoms: np.ndarray, order: int) -> float:
    """(1/N) sum_i |x_i|^order, exactly invariant under permutations of the rows."""
    return _sorted_sum(_moment_terms(atoms, order))


class EmpiricalMeasure:
    """N atoms in R^d, each of mass 1/N.

    Atoms of shape (N, d); 1-D input is promoted to a single column.
    """

    def __init__(self, atoms: np.ndarray):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.size == 0:
            raise ValidationError(f"atoms must be a nonempty (N, d) array, got shape {atoms.shape}")
        if not np.all(np.isfinite(atoms)):
            raise ValidationError("atoms contain NaN or inf")
        self.atoms = atoms
        self._mean: np.ndarray | None = None

    @classmethod
    def _trusted(cls, atoms: np.ndarray) -> "EmpiricalMeasure":
        """A measure on atoms its caller has already checked.

        ``atoms`` must be a finite float (N, d) array; it is not copied or
        checked.  ``simulate_lanes`` freezes every step's measure this way,
        as a :class:`_StreamOrderMeasure`, right after its monitor has
        checked the positions.
        """
        self = cls.__new__(cls)
        self.atoms = atoms
        self._mean = None
        return self

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    def mean(self) -> np.ndarray:
        if self._mean is None:
            w = 1.0 / self.size
            self._mean = np.array([_sorted_sum(w * self.atoms[:, k])
                                   for k in range(self.dim)])
        return self._mean

    def cov(self) -> np.ndarray:
        m = self.mean()
        w = 1.0 / self.size
        c = np.empty((self.dim, self.dim))
        centered = self.atoms - m
        for i in range(self.dim):
            for j in range(i, self.dim):
                c[i, j] = c[j, i] = _sorted_sum(w * centered[:, i] * centered[:, j])
        return c

    def canonical_order(self) -> np.ndarray:
        """Atom indices sorted by coordinates: the same sequence of atoms
        whatever order they are in."""
        return np.lexsort(self.atoms.T[::-1])


class _StreamOrderMeasure(EmpiricalMeasure):
    """The stepper's frozen measure, atoms in particle-stream order.

    Built by ``_trusted`` from positions the monitor has checked.  Its mean
    is sum_i x_i / N summed in atom order by one ``np.add.reduce`` per
    column (numpy's pairwise sum, no BLAS, so no dependence on the BLAS
    thread count).  ``simulate_lanes`` holds the particles in increasing
    stream order, so the mean is the same bits whatever order the caller
    listed them in.  At N = 4000 it takes about 7 us against 31 us for the
    sorted sum (2-CPU x86-64 VM), and the stepper freezes a measure every
    step of every lane.  Every other statistic is the sorted one.
    """

    def mean(self) -> np.ndarray:
        if self._mean is None:
            w = 1.0 / self.size
            self._mean = np.array([np.add.reduce(w * self.atoms[:, k])
                                   for k in range(self.dim)])
        return self._mean


# ---------------------------------------------------------------------------
# Wasserstein-2

def _w2_1d(xa: np.ndarray, xb: np.ndarray) -> float:
    """Exact squared W2 between two empirical measures on the line (quantile coupling).

    Equal counts pair the sorted samples.  Unequal counts n and m cut the
    quantile axis [0, L], L = lcm(n, m) <= n m, at the integers k L/n and
    j L/m (a cut of both is one piece of width 0) and weigh each piece by
    its width over L, so no mass is rounded; L fits int64 for any two counts
    below 3e9.  A plain sort gives the bits of a stable argsort and gather:
    the sorted sequence is unique up to the order of signed zeros, whose
    differences square to the same value.
    """
    xa, xb = np.sort(xa), np.sort(xb)
    n, m = len(xa), len(xb)
    if n == m:
        return float(np.mean((xa - xb) ** 2))
    span = math.lcm(n, m)
    step_a, step_b = span // n, span // m
    cuts = np.sort(np.concatenate((np.arange(n, dtype=np.int64) * step_a,
                                   np.arange(m, dtype=np.int64) * step_b)))
    widths = np.diff(cuts, append=span)
    gap = xa[cuts // step_a] - xb[cuts // step_b]
    return float(np.sum(widths * (gap * gap)) / span)


def _projection_directions(dim: int, count: int) -> np.ndarray:
    if dim == 2:
        # stratified angles: exact quadrature of quadratic observables over
        # directions, so their common offset, a fixed fraction of a stratum,
        # moves the estimate very little
        angles = np.pi * (np.arange(count) + 0.34966321146630985) / count
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # random orthogonal frames (normals of seed 0, one step per frame):
    # summing squared projections over a frame is exact, which kills most of
    # the draw-to-draw variance of the estimate; the count is rounded up to
    # whole frames
    groups = -(-count // dim)
    frames = []
    for g in range(groups):
        z = rng.normals(0, np.arange(dim), g, dim)
        q, r = np.linalg.qr(z)
        frames.append(q * np.sign(np.diag(r)))
    return np.concatenate(frames, axis=1).T


def wasserstein2(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Wasserstein-2 distance between empirical measures.

    Exact in dimension one (sorted quantile coupling).  In higher dimension
    a sliced surrogate is used: project onto N_PROJECTIONS fixed directions,
    take the exact 1-D distance per slice, and return sqrt(d * mean of
    squared slice distances); the d-factor makes the estimate exact for
    point masses.  The directions are stratified angles with one fixed
    offset in 2-d and fixed orthogonal frames above, the same for every
    call, so the surrogate is a deterministic function of the two measures.
    """
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.dim == 1:
        return np.sqrt(_w2_1d(a.atoms[:, 0], b.atoms[:, 0]))
    dirs = _projection_directions(a.dim, N_PROJECTIONS)
    pa = a.atoms @ dirs.T  # (N, K)
    pb = b.atoms @ dirs.T
    sq = [_w2_1d(pa[:, k], pb[:, k]) for k in range(len(dirs))]
    return float(np.sqrt(a.dim * np.mean(sq)))


# ---------------------------------------------------------------------------
# paths of measures

class MeasurePath:
    """Time-indexed list of empirical measures on a strictly increasing grid."""

    def __init__(self, times: Sequence[float], measures: Sequence[EmpiricalMeasure]):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or len(times) != len(measures):
            raise ValidationError("times and measures must have equal length")
        if len(times) < 2:
            raise ValidationError("a measure path needs at least two snapshots")
        if not np.all(np.isfinite(times)):
            raise ValidationError(
                f"snapshot times must be finite, got {times[~np.isfinite(times)][0]}")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("snapshot times must be strictly increasing")
        dims = {m.dim for m in measures}
        if len(dims) != 1:
            raise ValidationError(f"inconsistent measure dimensions {dims}")
        self.times = times
        self.measures = list(measures)

    @property
    def dim(self) -> int:
        return self.measures[0].dim

    def __len__(self) -> int:
        return len(self.measures)

    @classmethod
    def from_arrays(cls, times, positions) -> "MeasurePath":
        """Build from times (T,) and particle positions (T, N, d)."""
        return cls(times, [EmpiricalMeasure(p) for p in positions])
