"""What the benchmark runs, without importing the package.

Workload names, problem sizes, gate limits, seed-dependent inputs and the
gated operations of each workload.  ``run.py`` reads this module; only the
worker processes import ``mvhomog`` (through ``workloads``).

Inputs that vary with the workload seed are drawn with numpy's own
generator, never with the package's counter-based one, so a change to the
package cannot change the benchmark's inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("ladder_1d", "cell_nd", "action_2d")

# residuals of the two null-space solves, absolute; seed values are <= 1e-8
CELL_RESIDUAL_TOL = 1e-6
CELL_MASS_TOL = 1e-12
# relative to sup |f|, the limit the cell solver itself enforces
CELL_CENTERING_TOL = 1e-6
# ladder gates, as in acceptance criteria 5 and 6
LADDER_MAX_INVERSIONS = 1
LADDER_TOP_W2 = 0.1
LADDER_SELF_ACTION = 0.05
# action_2d gates
SHIFT_ACTION_TOL = 0.05
COST_REL_TOL = 1e-12
ACTION_TILT = (1.0, 0.0)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark scale.

    ``cell_cases`` lists (case, n, tolerance); the tolerance bounds the
    relative error of the cell-route diffusion against its closed form, or
    for ``nongradient_2d`` the sup error of the density against the Gibbs
    weight.  Each tolerance is roughly ten times the error at the seed.
    ``min_repeats`` is the fewest repeats one run makes: at full size a
    median of three outvotes one repeat slowed by a burst on a shared host.
    """

    ladder_rungs: tuple
    ladder_reference_n: int
    cell_cases: tuple
    action_particles: int
    action_dt: float
    action_cell_n: int
    lattice_per_axis: int
    setup_samples: int
    min_repeats: int


FULL = Sizes(
    ladder_rungs=((250, 0.2), (1000, 0.1), (4000, 0.05)),
    ladder_reference_n=8000,
    cell_cases=(("cos_rough_1d", 1024, 1e-8), ("nongradient_2d", 64, 1e-8),
                ("separable_2d", 128, 1e-6), ("separable_3d", 16, 5e-3)),
    action_particles=4000, action_dt=0.0025, action_cell_n=32,
    lattice_per_axis=64, setup_samples=5, min_repeats=3)

SMOKE = Sizes(
    ladder_rungs=((100, 0.2), (400, 0.1)),
    ladder_reference_n=1000,
    cell_cases=(("cos_rough_1d", 256, 1e-6), ("nongradient_2d", 16, 1e-5),
                ("separable_2d", 32, 1e-3), ("separable_3d", 8, 5e-2)),
    action_particles=400, action_dt=0.01, action_cell_n=16,
    lattice_per_axis=32, setup_samples=0, min_repeats=2)

SIZES = {"full": FULL, "smoke": SMOKE}


def operations(name: str) -> tuple:
    """Names of the gated operations one repeat of a workload performs."""
    if name == "ladder_1d":
        return ("ladder_inversions", "top_rung_w2", "reference_self_action")
    if name == "cell_nd":
        ops = []
        for case, _, _ in FULL.cell_cases:
            last = "gibbs_density" if case == "nongradient_2d" else "closed_form"
            ops += [f"{case}.{g}" for g in ("residual", "mass", "centering", last)]
        return tuple(ops)
    if name == "action_2d":
        return ("shift_action", "tilt_cost", "csv_roundtrip_action")
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


class Gates:
    """Outcome of every gated operation of one repeat, in order."""

    def __init__(self, name: str):
        self.expected = operations(name)
        self.results: list[list] = []

    def check(self, op: str, ok, detail: str) -> None:
        if op not in self.expected:
            raise ValueError(f"undeclared operation {op!r}")
        self.results.append([op, bool(ok), detail])

    def fail_unreached(self, reason: str) -> None:
        """Count every declared operation that produced no result as failed."""
        done = {r[0] for r in self.results}
        for op in self.expected:
            if op not in done:
                self.results.append([op, False, reason])


def inputs(seed: int) -> dict:
    """Every seed-dependent input; seed 0 keeps the plan's default run seeds."""
    rs = np.random.default_rng(seed)
    ladder_seed, reference_seed, action_seed = (int(v) for v in rs.integers(1, 2 ** 31, 3))
    if seed == 0:
        ladder_seed, reference_seed = 101, 977
    velocity = rs.normal(size=2)
    return {
        "ladder_seed": ladder_seed,
        "reference_seed": reference_seed,
        "action_seed": action_seed,
        "velocity": (velocity / np.linalg.norm(velocity)).tolist(),
        "amplitudes_3d": rs.uniform(0.5, 1.0, size=3).tolist(),
    }
