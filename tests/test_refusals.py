"""Each refusal of bad input, driven once and matched by its whole message.

Refusals that another test already matches by message (the dictionary's
scale, the action's snapshot count) are not repeated here.
"""
import os
import re

import numpy as np
import pytest

from mvhomog import rng
from mvhomog.config import parse_plan
from mvhomog.effective import EffectiveModel, SeparablePotential
from mvhomog.errors import CenteringError, ValidationError
from mvhomog.experiments import write_gamma_table
from mvhomog.measures import EmpiricalMeasure, MeasurePath, wasserstein2
from mvhomog.rate import TestDictionary, hermite_dictionary
from mvhomog.scenarios import FLAG_NAMES, Scenario, get_scenario
from mvhomog.simulate import (FeedbackControl, SimConfig, averaged_lane, load_trajectory,
                              load_trajectory_csv, simulate_lanes)
from mvhomog.torus import (FastCoefficients, TorusGrid, apply_axis_derivative,
                           assemble_generator, solve_cell, solve_cell_problem,
                           solve_invariant_measure)


def _heat(dim):
    return EffectiveModel(dim, lambda xs, mu: np.zeros_like(xs), np.eye(dim))


def _plan(**fields):
    """A one-rung ``dawson_rough`` plan with the given fields replaced."""
    return parse_plan({"scenario": "dawson_rough",
                       "rungs": [{"n_particles": 50, "epsilon": 0.2}], **fields})


def _lanes(width=1, control=None):
    """One four-particle lane of the 1-d heat model, started at width ``width``."""
    config = SimConfig(n_particles=4, dt=0.1, t_end=0.2)
    return [averaged_lane(_heat(1), np.zeros((4, width)), config, control)]


def _block(**buffers):
    """Two width-1 steps of four particles' noise, into the given buffers."""
    return rng.normal_block(rng.stream_keys(0, np.arange(4)), 0, 2, 1, **buffers)


def _path(count, *dims):
    return MeasurePath(np.arange(count, dtype=float),
                       [EmpiricalMeasure(np.zeros((3, d))) for d in dims])


def _scenario(**layer):
    """A scenario named ``probe`` with the given fast-layer fields."""
    return Scenario(name="probe", description="", flags=dict.fromkeys(FLAG_NAMES, True),
                    init={"kind": "iid_normal"}, **layer)


def _cell(dim, n, scheme):
    coeffs = FastCoefficients(dim, lambda x, y, mu: np.zeros_like(y),
                              lambda x, y, mu: np.eye(dim))
    return solve_cell(coeffs, scheme=scheme, n=n)


REFUSALS = [
    ("SimConfig particle-steps", lambda: SimConfig(n_particles=10 ** 8, dt=1e-4),
     "n_particles=100000000 over 10000 steps is 1e+12 particle-steps, "
     "more than MAX_PARTICLE_STEPS=100000000000"),
    ("plan rung particle-steps",
     lambda: _plan(rungs=[{"n_particles": 10 ** 8, "epsilon": 0.05}]),
     "plan.rungs[0].n_particles: n_particles=100000000 over 4000 steps is 4e+11 "
     "particle-steps, more than MAX_PARTICLE_STEPS=100000000000"),
    ("plan reference particle-steps", lambda: _plan(reference={"n_particles": 10 ** 9}),
     "plan.reference.n_particles: n_particles=1000000000 over 400 steps is 4e+11 "
     "particle-steps, more than MAX_PARTICLE_STEPS=100000000000"),
    ("SimConfig record", lambda: SimConfig(n_particles=10 ** 8, dt=0.004, epsilon=0.2),
     "n_particles=100000000 with 21 snapshots is 2.1e+09 particle-snapshots, "
     "more than MAX_PARTICLE_SNAPSHOTS=10000000"),
    ("plan rung record", lambda: _plan(rungs=[{"n_particles": 10 ** 8, "epsilon": 0.2}]),
     "plan.rungs[0].n_particles: n_particles=100000000 with 11 snapshots is 1.1e+09 "
     "particle-snapshots, more than MAX_PARTICLE_SNAPSHOTS=10000000"),
    ("plan jdg two snapshots", lambda: _plan(metrics=["w2_ladder", "jdg"], snapshots=2),
     "plan.snapshots: the jdg metric needs at least 3 snapshots, got 2"),
    ("gamma table non-separable",
     lambda: write_gamma_table(get_scenario("nongradient_2d"), os.devnull),
     "scenario 'nongradient_2d' has no separable potential; "
     "the closed-form factor table is undefined"),
    ("SimConfig NaN snapshot time",
     lambda: SimConfig(n_particles=4, dt=0.1, t_end=0.2, snapshot_times=[0.0, np.nan]),
     "snapshot times must be finite, got nan"),
    # inside [0, t_end] by the absolute 1e-12 tolerance, but off the step grid
    ("SimConfig snapshot past the last step",
     lambda: SimConfig(n_particles=1, dt=1e-14, t_end=1e-6, snapshot_times=[0, 1e-6 + 5e-13]),
     "snapshot time 1.0000004999999999e-06 falls on step 100000050, outside the run's "
     "steps 0 to 100000000 of dt=1e-14"),
    ("SimConfig snapshot before the first step",
     lambda: SimConfig(n_particles=1, dt=1e-14, t_end=1e-6, snapshot_times=[-5e-13, 1e-6]),
     "snapshot time -5e-13 falls on step -50, outside the run's steps 0 to 100000000 "
     "of dt=1e-14"),
    ("SimConfig float particles", lambda: SimConfig(n_particles=2.5, dt=0.1, t_end=0.2),
     "n_particles must be an integer, got 2.5"),
    ("SimConfig bool particles", lambda: SimConfig(n_particles=True, dt=0.1, t_end=0.2),
     "n_particles must be an integer, got True"),
    ("Scenario both layers",
     lambda: _scenario(potential=SeparablePotential([(np.cos, np.sin)], 1.0),
                       fast=FastCoefficients(1, lambda x, y, mu: 0 * y, np.eye(1))),
     "scenario 'probe' needs exactly one of potential and fast, got both"),
    ("Scenario neither layer", lambda: _scenario(),
     "scenario 'probe' needs exactly one of potential and fast, got neither"),
    ("simulate_lanes streams", lambda: simulate_lanes(_lanes(), np.arange(3)),
     "streams shape (3,) does not match 4 particles"),
    ("simulate_lanes initial positions", lambda: simulate_lanes(_lanes(width=2)),
     "initial positions have shape (4, 2), expected (4, 1)"),
    ("simulate_lanes control",
     lambda: simulate_lanes(_lanes(control=FeedbackControl(
         lambda t, x, mu: np.zeros((len(x), 2)), 1))),
     "control returned shape (4, 2), expected (4, 1)"),
    ("normal_block scratch", lambda: _block(scratch=np.empty(16, dtype=np.uint64)),
     "normal_block scratch has 16 words, needs scratch_words(2, 4, 1) = 40"),
    ("normal_block out", lambda: _block(out=np.empty((2, 4, 2))),
     "normal_block out has shape (2, 4, 2), expected (2, 4, 1)"),
    ("normal_block out float32", lambda: _block(out=np.empty((2, 4, 1), dtype=np.float32)),
     "normal_block out has dtype float32, needs float64"),
    ("normal_block out int64", lambda: _block(out=np.empty((2, 4, 1), dtype=np.int64)),
     "normal_block out has dtype int64, needs float64"),
    ("normal_block scratch float64", lambda: _block(scratch=np.empty(40)),
     "normal_block scratch has dtype float64, needs uint64"),
    ("normal_block scratch int64", lambda: _block(scratch=np.empty(40, dtype=np.int64)),
     "normal_block scratch has dtype int64, needs uint64"),
    ("TorusGrid nodes", lambda: TorusGrid(1, 4), "need at least 8 nodes per axis, got 4"),
    ("TorusGrid dimension", lambda: TorusGrid(4, 8),
     "torus dimension must be 1, 2 or 3, got 4"),
    ("TorusGrid fractional nodes", lambda: TorusGrid(2, 64.7),
     "torus node count must be an integer, got 64.7"),
    ("solve_cell fractional nodes", lambda: _cell(1, 33.5, "fd"),
     "torus node count must be an integer, got 33.5"),
    ("TorusGrid whole float nodes", lambda: TorusGrid(1, 64.0),
     "torus node count must be an integer, got 64.0"),
    ("TorusGrid string nodes", lambda: TorusGrid(2, "64"),
     "torus node count must be an integer, got '64'"),
    ("TorusGrid bool nodes", lambda: TorusGrid(1, True),
     "torus node count must be an integer, got True"),
    ("TorusGrid float dimension", lambda: TorusGrid(2.0, 16),
     "torus dimension must be an integer, got 2.0"),
    ("TorusGrid bool dimension", lambda: TorusGrid(True, 16),
     "torus dimension must be an integer, got True"),
    ("TorusGrid string dimension", lambda: TorusGrid("2", 16),
     "torus dimension must be an integer, got '2'"),
    ("spectral odd n", lambda: _cell(1, 9, "spectral"),
     "spectral scheme needs an even number of nodes"),
    ("spectral 3-d", lambda: _cell(3, 8, "spectral"),
     "spectral scheme is limited to dimensions 1 and 2"),
    ("TestDictionary size", lambda: TestDictionary([[2]], 0.0, 1.0),
     "a test dictionary needs at least 2 functions"),
    ("TestDictionary orders shape", lambda: TestDictionary([[[0, 1]], [[1, 0]]], 0.0, 1.0),
     "orders must be a (functions, dim) array, got shape (2, 1, 2)"),
    ("TestDictionary empty orders", lambda: TestDictionary([[], []], 0.0, 1.0),
     "orders must be a (functions, dim) array, got shape (2, 0)"),
    ("TestDictionary fractional order", lambda: TestDictionary([[0], [1.7]], 0.0, 1.0),
     "Hermite order 1.7 is not a whole number"),
    ("TestDictionary order limit", lambda: TestDictionary([[0], [10 ** 6]], 0.0, 1.0),
     "Hermite order 1000000 is more than the limit of 63"),
    ("TestDictionary NaN center", lambda: hermite_dictionary(1, 4, center=np.nan),
     "dictionary center must be finite, got [nan]"),
    ("TestDictionary infinite center", lambda: hermite_dictionary(1, 4, center=np.inf),
     "dictionary center must be finite, got [inf]"),
    ("TestDictionary infinite scale", lambda: hermite_dictionary(1, 4, scale=np.inf),
     "dictionary scale must be finite, got [inf]"),
    ("TestDictionary points width",
     lambda: hermite_dictionary(2, 2).evaluate(np.zeros((5, 3))),
     "points have shape (5, 3), but the dictionary has dim 2"),
    ("wasserstein2 dimensions",
     lambda: wasserstein2(*_path(2, 1, 1).measures[:1], *_path(2, 2, 2).measures[:1]),
     "dimension mismatch: 1 vs 2"),
    ("EmpiricalMeasure no atoms", lambda: EmpiricalMeasure(np.zeros((0, 1))),
     "atoms must be a nonempty (N, d) array, got shape (0, 1)"),
    ("EmpiricalMeasure zero width", lambda: EmpiricalMeasure(np.zeros((4, 0))),
     "atoms must be a nonempty (N, d) array, got shape (4, 0)"),
    ("MeasurePath lengths", lambda: MeasurePath([0.0, 1.0, 2.0], _path(2, 1, 1).measures),
     "times and measures must have equal length"),
    ("MeasurePath one snapshot", lambda: _path(1, 1),
     "a measure path needs at least two snapshots"),
    ("MeasurePath times", lambda: MeasurePath([1.0, 0.0], _path(2, 1, 1).measures),
     "snapshot times must be strictly increasing"),
    ("MeasurePath NaN time", lambda: MeasurePath([0.0, np.nan], _path(2, 1, 1).measures),
     "snapshot times must be finite, got nan"),
    ("MeasurePath dimensions", lambda: _path(2, 1, 2), "inconsistent measure dimensions {1, 2}"),
    ("EffectiveModel diffusion shape",
     lambda: EffectiveModel(2, lambda xs, mu: xs, np.eye(1)),
     "constant diffusion has shape (1, 1), expected (2, 2)"),
    ("EffectiveModel wider states", lambda: _heat(1).coefficients(np.zeros((5, 2))),
     "states have shape (5, 2), but the model has dim 1"),
    ("EffectiveModel narrower states", lambda: _heat(2).coefficients(np.zeros((5, 1))),
     "states have shape (5, 1), but the model has dim 2"),
    ("EffectiveModel flat states", lambda: _heat(1).coefficients(np.zeros(5)),
     "states have shape (5,), but the model has dim 1"),
    ("EffectiveModel drift shape",
     lambda: EffectiveModel(1, lambda xs, mu: xs[:, 0], np.eye(1)).coefficients(np.zeros((5, 1))),
     "drift returned shape (5,), expected (5, 1)"),
    ("FastCoefficients drift shape",
     lambda: FastCoefficients(2, lambda x, y, mu: y[:, :1], np.eye(2)).fields(TorusGrid(2, 8)),
     "fast drift returned shape (64, 1), expected (64, 2)"),
    ("FastCoefficients diffusion shape",
     lambda: FastCoefficients(2, lambda x, y, mu: 0 * y, np.eye(3)).fields(TorusGrid(2, 8)),
     "fast diffusion returned shape (3, 3), expected (2, 2)"),
    ("derivative unknown scheme",
     lambda: apply_axis_derivative(np.zeros(16), TorusGrid(1, 16), 0, "chebyshev"),
     "unknown scheme 'chebyshev', expected 'fd' or 'spectral'"),
    ("SimConfig snapshot past t_end",
     lambda: SimConfig(n_particles=1, dt=0.1, t_end=1.0, snapshot_times=[0.0, 1.5]),
     "snapshot times must lie in [0, t_end]"),
    ("SimConfig no step", lambda: SimConfig(n_particles=1, dt=1.0, t_end=1e-7),
     "dt=1.0 is longer than the horizon t_end=1e-07: the run has no step"),
    ("multiscale run without epsilon",
     lambda: SimConfig(n_particles=1, dt=0.1).require_stiffness(),
     "mode 'multiscale' needs epsilon in the config"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in REFUSALS],
                         ids=[row[0].replace(" ", "-") for row in REFUSALS])
def test_bad_input_is_refused_by_name(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def _record(**arrays):
    """A valid two-snapshot record's arrays, with the given ones replaced or, as None, dropped."""
    good = {"times": np.array([0.0, 1.0]), "positions": np.zeros((2, 3, 1))}
    return {k: v for k, v in {**good, **arrays}.items() if v is not None}


# (id, file content, message with the file as {path}): a CSV's text, or the
# arrays or raw bytes of a file named .npz
TRAJECTORY_REFUSALS = [
    ("CSV one snapshot", "t,particle_id,x1\r\n0.0,0,0.1\r\n0.0,1,0.2\r\n",
     "trajectory file {path}: a measure path needs at least two snapshots"),
    ("CSV header only", "t,particle_id,x1\r\n",
     "trajectory file {path}: a measure path needs at least two snapshots"),
    ("CSV bad header", "time,id,x1\r\n0.0,0,0.1\r\n",
     "trajectory file {path}: unrecognized header ['time', 'id', 'x1']"),
    ("CSV no coordinate", "t,particle_id\r\n0.0,0\r\n",
     "trajectory file {path}: unrecognized header ['t', 'particle_id']"),
    ("CSV time steps back",
     "t,particle_id,x1\r\n0.0,0,0.1\r\n1.0,0,0.2\r\n0.5,0,0.3\r\n",
     "trajectory file {path}, line 4: snapshot times must be strictly increasing, "
     "got 0.5 after 1.0"),
    ("record of text", b"t,particle_id,x1\r\n0.0,0,0.1\r\n",
     "trajectory file {path} is not an .npz record of float64 arrays"),
    ("empty record", b"", "trajectory file {path} is not an .npz record of float64 arrays"),
    ("record without times", _record(times=None), "trajectory file {path} has no 'times' array"),
    ("record without positions", _record(positions=None),
     "trajectory file {path} has no 'positions' array"),
    ("record float32 positions", _record(positions=np.zeros((2, 3, 1), dtype=np.float32)),
     "trajectory file {path}: positions has dtype float32, needs float64"),
    ("record int64 times", _record(times=np.array([0, 1], dtype=np.int64)),
     "trajectory file {path}: times has dtype int64, needs float64"),
    ("record 2-axis positions", _record(positions=np.zeros((2, 3))),
     "trajectory file {path}: positions has shape (2, 3), needs axes "
     "(snapshots, particles, dim)"),
    ("record 2-axis times", _record(times=np.zeros((2, 1))),
     "trajectory file {path}: times has shape (2, 1), needs axes (snapshots,)"),
    ("record count mismatch", _record(times=np.array([0.0, 0.5, 1.0])),
     "trajectory file {path}: times and measures must have equal length"),
    ("record zero-width positions", _record(positions=np.zeros((2, 3, 0))),
     "trajectory file {path}: atoms must be a nonempty (N, d) array, got shape (3, 0)"),
    ("record NaN positions", _record(positions=np.full((2, 3, 1), np.nan)),
     "trajectory file {path}: atoms contain NaN or inf"),
    ("record infinite time", _record(times=np.array([0.0, np.inf])),
     "trajectory file {path}: snapshot times must be finite, got inf"),
    ("record NaN time", _record(times=np.array([0.0, np.nan])),
     "trajectory file {path}: snapshot times must be finite, got nan"),
    ("record time steps back",
     _record(times=np.array([0.0, 1.0, 0.5]), positions=np.zeros((3, 3, 1))),
     "trajectory file {path}: snapshot times must be strictly increasing"),
    ("record repeated time", _record(times=np.array([1.0, 1.0])),
     "trajectory file {path}: snapshot times must be strictly increasing"),
]


@pytest.mark.parametrize("content, message", [row[1:] for row in TRAJECTORY_REFUSALS],
                         ids=[row[0].replace(" ", "-") for row in TRAJECTORY_REFUSALS])
def test_a_bad_trajectory_file_is_refused_naming_it(tmp_path, content, message):
    if isinstance(content, str):
        path, load = tmp_path / "run.csv", load_trajectory_csv
        path.write_text(content)
    else:
        path, load = tmp_path / "run.npz", load_trajectory
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            np.savez(path, **content)
    with pytest.raises(ValidationError, match=f"^{re.escape(message.format(path=path))}$"):
        load(path)


def test_an_uncentered_layer_that_splits_by_axis_is_refused_as_on_the_grid():
    # f_2 = 1 reads y_2 alone and A = I, so the layer is solved axis by
    # axis; its centering gate runs on the full grid, as the grid route's
    # does, and names component 1 (its line alone would call it component 0)
    def drift(x, y, mu):
        return np.stack([np.sin(2.0 * np.pi * y[:, 0]), np.ones(len(y))], axis=1)

    coeffs = FastCoefficients(2, drift, np.eye(2))
    message = ("fast drift component 1 has centering defect 1.000e+00 (relative 1.000e+00 "
               "> 1.0e-06); the cell problem is not solvable for this coefficient set")
    with pytest.raises(CenteringError, match=f"^{re.escape(message)}$"):
        solve_cell(coeffs, scheme="fd", n=16)
    grid = TorusGrid(2, 16)
    f_vals, a_vals = coeffs.fields(grid)
    L = assemble_generator(grid, f_vals, a_vals, "fd")
    pi, _ = solve_invariant_measure(L, grid)
    with pytest.raises(CenteringError, match=f"^{re.escape(message)}$"):
        solve_cell_problem(L, pi, f_vals, grid)
