"""Empirical measures, Wasserstein-2 distances and measure paths.

Summations over atoms are performed in sorted order so every statistic is
exactly invariant under permutations of the atom list; the particle code
relies on this for bit-exact exchangeability checks.
"""
from __future__ import annotations

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


def _moment_terms(atoms: np.ndarray, weights, order: int) -> np.ndarray:
    """The terms w_i |x_i|^order that :func:`radial_moment` sums, a fresh array.

    ``weights`` is an (N,) array, or one float for uniform weights, which
    gives the same bits.  Even integer orders multiply |x|^2 by itself
    instead of calling pow; with one column |x|^2 is the square itself,
    which is what the row sum of a single entry returns.
    """
    sq = atoms * atoms
    r2 = sq[:, 0] if sq.shape[1] == 1 else np.sum(sq, axis=1)
    if order > 0 and order % 2 == 0:
        power = r2
        for _ in range(order // 2 - 1):
            power = power * r2
    else:
        power = np.sqrt(r2) ** order
    power *= weights
    return power


def radial_moment(atoms: np.ndarray, weights, order: int) -> float:
    """sum_i w_i |x_i|^order, exactly invariant under permutations of the rows."""
    return _sorted_sum(_moment_terms(atoms, weights, order))


class EmpiricalMeasure:
    """Weighted atoms in R^d.

    Atoms of shape (N, d); 1-D input is promoted to a single column.
    Weights default to uniform and must be nonnegative and sum to one.
    """

    def __init__(self, atoms: np.ndarray, weights: np.ndarray | None = None):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[0] == 0:
            raise ValidationError(f"atoms must be a nonempty (N, d) array, got shape {atoms.shape}")
        if not np.all(np.isfinite(atoms)):
            raise ValidationError("atoms contain NaN or inf")
        n = atoms.shape[0]
        if weights is None:
            weights = np.full(n, 1.0 / n)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (n,):
                raise ValidationError(f"weights shape {weights.shape} does not match {n} atoms")
            if np.any(weights < 0) or not np.all(np.isfinite(weights)):
                raise ValidationError("weights must be finite and nonnegative")
            total = weights.sum()
            if abs(total - 1.0) > 1e-12:
                raise ValidationError(f"weights sum to {total!r}, expected 1 within 1e-12")
        self.atoms = atoms
        self.weights = weights
        self._mean: np.ndarray | None = None

    @classmethod
    def _trusted(cls, atoms: np.ndarray, weights: np.ndarray) -> "EmpiricalMeasure":
        """A measure on atoms and weights its caller has already checked.

        ``atoms`` must be a finite float (N, d) array and ``weights`` valid
        for it; neither is copied or checked.  ``simulate_lanes`` freezes
        every step's measure this way, right after its monitor has checked
        the positions.
        """
        self = cls.__new__(cls)
        self.atoms = atoms
        self.weights = weights
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
            self._mean = np.array([_sorted_sum(self.weights * self.atoms[:, k])
                                   for k in range(self.dim)])
        return self._mean

    def cov(self) -> np.ndarray:
        m = self.mean()
        c = np.empty((self.dim, self.dim))
        centered = self.atoms - m
        for i in range(self.dim):
            for j in range(i, self.dim):
                c[i, j] = c[j, i] = _sorted_sum(self.weights * centered[:, i] * centered[:, j])
        return c

    def moment(self, order: int) -> float:
        """int |x|^order dmu."""
        return radial_moment(self.atoms, self.weights, order)

    def canonical_order(self) -> np.ndarray:
        """Atom indices sorted by coordinates, ties by weight: the same
        sequence of (atom, weight) pairs whatever order the atoms are in."""
        return np.lexsort(np.vstack([self.weights, self.atoms.T[::-1]]))


# ---------------------------------------------------------------------------
# Wasserstein-2

def _w2_1d(xa: np.ndarray, wa: np.ndarray, xb: np.ndarray, wb: np.ndarray) -> float:
    """Exact squared W2 between weighted atoms on the line (quantile coupling).

    Equal counts with exactly uniform weights pair the sorted samples; the
    sorted sequence is unique up to the order of signed zeros, whose squared
    differences are the same, so a plain sort gives the bits of the stable
    argsort and gather that other weights need.
    """
    if len(xa) == len(xb) and np.all(wa == wa[0]) and np.all(wb == wb[0]):
        return float(np.mean((np.sort(xa) - np.sort(xb)) ** 2))
    ia = np.argsort(xa, kind="stable")
    ib = np.argsort(xb, kind="stable")
    xa, wa = xa[ia], wa[ia]
    xb, wb = xb[ib], wb[ib]
    qa = np.cumsum(wa)
    qb = np.cumsum(wb)
    edges = np.union1d(qa, qb)
    edges = edges[edges <= 1.0 + 1e-15]
    lengths = np.diff(np.concatenate(([0.0], edges)))
    mids = np.concatenate(([0.0], edges))[:-1] + 0.5 * lengths
    pa = xa[np.minimum(np.searchsorted(qa, mids), len(xa) - 1)]
    pb = xb[np.minimum(np.searchsorted(qb, mids), len(xb) - 1)]
    return float(np.sum(lengths * (pa - pb) ** 2))


def _projection_directions(dim: int, count: int, seed: int) -> np.ndarray:
    if dim == 2:
        # stratified angles: exact quadrature of quadratic observables over
        # directions, so two seeds differ only through the common offset
        offset = rng.uniforms(seed, np.array([0]), 0, 1)[0, 0]
        angles = np.pi * (np.arange(count) + offset) / count
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # random orthogonal frames: summing squared projections over a frame is
    # exact, which kills most of the seed-to-seed variance of the estimate;
    # the count is rounded up to whole frames
    groups = -(-count // dim)
    frames = []
    for g in range(groups):
        z = rng.normals(seed, np.arange(dim), g, dim)
        q, r = np.linalg.qr(z)
        frames.append(q * np.sign(np.diag(r)))
    return np.concatenate(frames, axis=1).T


def wasserstein2(a: EmpiricalMeasure, b: EmpiricalMeasure, *, seed: int = 0) -> float:
    """Wasserstein-2 distance between empirical measures.

    Exact in dimension one (sorted quantile coupling).  In higher dimension
    a sliced surrogate is used: project onto N_PROJECTIONS directions, take
    the exact 1-D distance per slice, and return sqrt(d * mean of squared
    slice distances); the d-factor makes the estimate exact for point masses.
    """
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.dim == 1:
        return np.sqrt(_w2_1d(a.atoms[:, 0], a.weights, b.atoms[:, 0], b.weights))
    dirs = _projection_directions(a.dim, N_PROJECTIONS, seed)
    pa = a.atoms @ dirs.T  # (N, K)
    pb = b.atoms @ dirs.T
    sq = [_w2_1d(pa[:, k], a.weights, pb[:, k], b.weights)
          for k in range(len(dirs))]
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
