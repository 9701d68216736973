"""Restarted GMRES (Saad & Schultz, 1986) for matrix-free operators.

``gmres`` solves A x = b with a preconditioner M ~ A^-1 applied on the
right, so the residual it minimizes and tests is the true one, b - A x.  It
stops on an absolute target for the root mean square of that residual,
chosen by the caller, and raises ``SolverError`` at its iteration cap.  A
tolerance relative to |b| would stall wherever rounding leaves more than it
allows.  Classical Gram-Schmidt, run twice per step, keeps the basis
orthogonal.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import SolverError

# basis vectors per cycle, and iterations over all cycles
RESTART = 60
MAX_ITER = 600


def gmres(apply: Callable, precondition: Callable, b: np.ndarray, target: float):
    """Solve apply(x) = b until the rms residual is at most ``target``.

    Returns (x, iterations).  The Arnoldi estimate of the residual, updated
    by one Givens rotation per iteration, ends a cycle; the cycle's update
    then comes from one least-squares solve, and the recomputed true
    residual decides whether another cycle runs.
    """
    m = b.size
    x, r, its = np.zeros(m), b, 0
    basis = np.empty((RESTART + 1, m))
    while (res := float(np.linalg.norm(r)) / np.sqrt(m)) > target:
        if its >= MAX_ITER:
            raise SolverError(
                f"GMRES hit its cap of {MAX_ITER} iterations at rms residual "
                f"{res:.3e}, above the target {target:.3e}")
        hess = np.zeros((RESTART + 1, RESTART))
        rhs = np.zeros(RESTART + 1)
        rhs[0] = res * np.sqrt(m)
        basis[0] = r / rhs[0]
        # Givens rotations (cs, sn) reduce hess to triangular form; after
        # column j, |g| is the least-squares residual of the first j + 1
        cs, sn, g = [], [], float(rhs[0])
        for j in range(RESTART):
            w = apply(precondition(basis[j]))
            w_norm = np.linalg.norm(w)
            for _ in range(2):
                h = basis[:j + 1] @ w
                w -= h @ basis[:j + 1]
                hess[:j + 1, j] += h
            hess[j + 1, j] = np.linalg.norm(w)
            its += 1
            col = hess[:j + 2, j].tolist()
            for i in range(j):
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      cs[i] * col[i + 1] - sn[i] * col[i])
            diag = math.hypot(col[j], col[j + 1])
            cs.append(col[j] / diag if diag else 1.0)
            sn.append(col[j + 1] / diag if diag else 0.0)
            g = -sn[j] * g
            if abs(g) / np.sqrt(m) <= target or its >= MAX_ITER \
                    or hess[j + 1, j] <= 1e-14 * w_norm:
                break  # converged, capped, or the Krylov space is invariant
            basis[j + 1] = w / hess[j + 1, j]
        y = np.linalg.lstsq(hess[:j + 2, :j + 1], rhs[:j + 2], rcond=None)[0]
        x = x + precondition(y @ basis[:j + 1])
        r = b - apply(x)
    return x, its
