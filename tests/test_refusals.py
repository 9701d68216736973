"""Each refusal of bad input, driven once and matched by its whole message.

Refusals that another test already matches by message (the dictionary's
scale, the action's snapshot count) are not repeated here.
"""
import re

import numpy as np
import pytest

from mvhomog import rng
from mvhomog.effective import EffectiveModel
from mvhomog.errors import ValidationError
from mvhomog.measures import EmpiricalMeasure, MeasurePath, wasserstein2
from mvhomog.rate import TestDictionary
from mvhomog.simulate import FeedbackControl, SimConfig, averaged_lane, simulate_lanes
from mvhomog.torus import FastCoefficients, TorusGrid, solve_cell


def _heat(dim):
    return EffectiveModel(dim, lambda xs, mu: np.zeros_like(xs), np.eye(dim))


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


def _cell(dim, n, scheme):
    coeffs = FastCoefficients(dim, lambda x, y, mu: np.zeros_like(y),
                              lambda x, y, mu: np.eye(dim))
    return solve_cell(coeffs, scheme=scheme, n=n)


REFUSALS = [
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
    ("TorusGrid nodes", lambda: TorusGrid(1, 4), "need at least 8 nodes per axis, got 4"),
    ("TorusGrid dimension", lambda: TorusGrid(4, 8),
     "torus dimension must be 1, 2 or 3, got 4"),
    ("spectral odd n", lambda: _cell(1, 9, "spectral"),
     "spectral scheme needs an even number of nodes"),
    ("spectral 3-d", lambda: _cell(3, 8, "spectral"),
     "spectral scheme is limited to dimensions 1 and 2"),
    ("TestDictionary size", lambda: TestDictionary([[2]], 0.0, 1.0),
     "a test dictionary needs at least 2 functions"),
    ("TestDictionary orders shape", lambda: TestDictionary([[[0, 1]], [[1, 0]]], 0.0, 1.0),
     "orders must be a (functions, dim) array, got shape (2, 1, 2)"),
    ("wasserstein2 dimensions",
     lambda: wasserstein2(*_path(2, 1, 1).measures[:1], *_path(2, 2, 2).measures[:1]),
     "dimension mismatch: 1 vs 2"),
    ("EmpiricalMeasure weights shape", lambda: EmpiricalMeasure(np.zeros(4), np.ones(3) / 3),
     "weights shape (3,) does not match 4 atoms"),
    ("EmpiricalMeasure weights sign", lambda: EmpiricalMeasure(np.zeros(2), [1.5, -0.5]),
     "weights must be finite and nonnegative"),
    ("EmpiricalMeasure weights sum", lambda: EmpiricalMeasure(np.zeros(3), np.ones(3)),
     "weights sum to 3.0, expected 1 within 1e-12"),
    ("MeasurePath lengths", lambda: MeasurePath([0.0, 1.0, 2.0], _path(2, 1, 1).measures),
     "times and measures must have equal length"),
    ("MeasurePath one snapshot", lambda: _path(1, 1),
     "a measure path needs at least two snapshots"),
    ("MeasurePath times", lambda: MeasurePath([1.0, 0.0], _path(2, 1, 1).measures),
     "snapshot times must be strictly increasing"),
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
]


@pytest.mark.parametrize("call, message", [row[1:] for row in REFUSALS],
                         ids=[row[0].replace(" ", "-") for row in REFUSALS])
def test_bad_input_is_refused_by_name(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
