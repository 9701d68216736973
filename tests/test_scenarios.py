"""Scenario registry: declared assumptions must survive their own checks."""
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import i0, ndtri

from mvhomog import ValidationError, get_scenario, scenario_names
from mvhomog.effective import gamma_separable
from mvhomog.errors import CenteringError, EllipticityError
from mvhomog.scenarios import FLAG_NAMES, Scenario, _ndtri, _skew_density
from mvhomog.torus import FastCoefficients, solve_cell

EXPECTED = {"free_brownian", "cos_rough_1d", "dawson_rough",
            "separable_2d", "nongradient_2d"}


def test_registry_contents():
    names = scenario_names()
    assert names == sorted(names)
    assert EXPECTED <= set(names)


def test_get_scenario_returns_fresh_instances():
    a = get_scenario("cos_rough_1d")
    b = get_scenario("cos_rough_1d")
    assert a is not b
    assert a.name == b.name == "cos_rough_1d"


def test_unknown_scenario_lists_available():
    with pytest.raises(ValidationError, match="available:"):
        get_scenario("does_not_exist")


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_every_scenario_validates(name):
    sc = get_scenario(name)
    checks = sc.validate()
    assert checks, "validate should report what it verified"
    assert set(sc.flags) == set(FLAG_NAMES)


def test_gamma_references_match_quadrature():
    for name in sorted(EXPECTED):
        sc = get_scenario(name)
        ref = sc.reference.get("gamma_diag")
        if ref is None or sc.potential is None:
            continue
        gamma = np.diagonal(gamma_separable(sc.potential))
        assert np.max(np.abs(gamma - np.asarray(ref["value"]))) < 1e-12, name


def test_quantile_initials_are_seed_independent():
    sc = get_scenario("dawson_rough")
    a = sc.initial_positions(40, seed=1)
    b = sc.initial_positions(40, seed=9999)
    assert np.array_equal(a, b)
    assert a.shape == (40, 1)
    # lattice quantiles are symmetric and sorted
    assert np.all(np.diff(a[:, 0]) > 0)
    assert abs(a[:, 0].sum()) < 1e-10


def test_iid_initials_depend_on_seed_reproducibly():
    sc = get_scenario("separable_2d")
    a = sc.initial_positions(40, seed=1)
    b = sc.initial_positions(40, seed=2)
    c = sc.initial_positions(40, seed=1)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)
    assert a.shape == (40, 2)


def _layer(dim: int, f=None, sigma=None) -> FastCoefficients:
    """A fast layer of unit noise and zero drift, unless given."""
    return FastCoefficients(dim, f or (lambda x, y, mu: np.zeros_like(y)),
                            np.eye(dim) if sigma is None else sigma)


def test_unbounded_slow_drift_requires_moment_cap():
    flags = dict.fromkeys(FLAG_NAMES, True)
    flags["bounded_slow"] = False
    with pytest.raises(ValidationError, match="moment cap"):
        Scenario(name="bad", description="", flags=flags,
                 init={"kind": "quantile_normal"}, fast=_layer(1))


def test_flag_completeness_enforced():
    flags = dict.fromkeys(FLAG_NAMES, True)
    flags["made_up_flag"] = True
    with pytest.raises(ValidationError, match="unknown assumption flags"):
        Scenario(name="bad", description="", flags=flags,
                 init={"kind": "quantile_normal"}, fast=_layer(1))
    partial = {"periodic_fast": True}
    with pytest.raises(ValidationError, match="must declare flags"):
        Scenario(name="bad", description="", flags=partial,
                 init={"kind": "quantile_normal"}, fast=_layer(1))


def _plain(dim: int, **layer) -> Scenario:
    return Scenario(name="probe", description="", flags=dict.fromkeys(FLAG_NAMES, True),
                    init={"kind": "iid_normal"}, fast=_layer(dim, **layer))


def test_validate_catches_broken_periodicity():
    sc = _plain(1, f=lambda x, y, mu: np.asarray(y, dtype=float))
    with pytest.raises(ValidationError, match="seam"):
        sc.validate()


def test_validate_catches_missing_ellipticity():
    sc = _plain(1, sigma=np.zeros((1, 1)))
    with pytest.raises(ValidationError, match="floor"):
        sc.validate()


def test_validate_catches_uncentered_drift():
    sc = _plain(1, f=lambda x, y, mu: np.ones(
        (len(np.atleast_2d(y)), 1)))
    with pytest.raises(ValidationError, match="centering"):
        sc.validate()


def _tilted_drift(x, y, mu):
    """(-2 pi sin 2 pi y_1, 1e-6): the second component is a constant, never centered."""
    return np.stack([-2.0 * np.pi * np.sin(2.0 * np.pi * y[:, 0]),
                     np.full(len(y), 1e-6)], axis=1)


PROBE_LAYERS = [
    ("faint noise", 1, {"sigma": np.full((1, 1), 5e-5)}, EllipticityError,
     "diffusion matrix eigenvalue floor 2.500e-09 below 1.0e-08"),
    ("constant drift component", 2, {"f": _tilted_drift, "sigma": np.sqrt(2.0) * np.eye(2)},
     CenteringError,
     "fast drift component 1 has centering defect 1.000e-06 (relative 1.000e+00 > 1.0e-06); "
     "the cell problem is not solvable for this coefficient set"),
]


@pytest.mark.parametrize("dim, layer, error, message", [row[1:] for row in PROBE_LAYERS],
                         ids=[row[0].replace(" ", "-") for row in PROBE_LAYERS])
def test_validate_refuses_what_the_cell_solver_refuses(dim, layer, error, message):
    # validate runs the solver's own gates, so the two agree on every layer
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        solve_cell(_layer(dim, **layer))
    named = f"scenario 'probe': {message}"
    with pytest.raises(ValidationError, match=f"^{re.escape(named)}$"):
        _plain(dim, **layer).validate()


def test_validate_catches_wrong_declared_density():
    sc = get_scenario("cos_rough_1d")
    sc.known_density = lambda y: np.ones(len(np.atleast_2d(y)))
    with pytest.raises(ValidationError, match="closed form"):
        sc.validate()


def test_effective_model_routes():
    sc = get_scenario("nongradient_2d")
    model = sc.effective_model()
    assert model.dim == 2
    # the overrides reach the cell solve of a scenario with a potential
    sc = get_scenario("cos_rough_1d")
    model = sc.effective_model(n=16, scheme="fd")
    assert (model.cell.scheme, model.cell.grid.n) == ("fd", 16)
    diffusion = model.coefficients(np.zeros((1, 1)))[1][0, 0]
    assert abs(diffusion - 1.246587) < 5e-7
    assert abs(sc.effective_model().coefficients(np.zeros((1, 1)))[1][0, 0]
               - 1.247721) < 5e-7
    # a misspelt setting is refused, not ignored
    with pytest.raises(TypeError, match="unexpected keyword argument 'nn'"):
        sc.effective_model(nn=16)


def test_initial_condition_kinds_validated():
    sc = get_scenario("separable_2d")
    sc.init = {"kind": "quantile_normal"}
    with pytest.raises(ValidationError, match="1-d only"):
        sc.initial_positions(10, seed=0)
    sc.init = {"kind": "bootstrap"}
    with pytest.raises(ValidationError, match="unknown initial-condition"):
        sc.initial_positions(10, seed=0)


def test_dawson_slow_drift_reads_measure_mean():
    from mvhomog.measures import EmpiricalMeasure
    sc = get_scenario("dawson_rough")
    x = np.array([[0.5], [-1.0], [2.0]])
    mu = EmpiricalMeasure(np.full((8, 1), 0.3))
    got = sc.slow_drift(x, mu)
    v = x[:, 0]
    want = (-(v ** 3 - v) - 0.5 * (v - 0.3))[:, None]
    assert np.max(np.abs(got - want)) < 1e-12
    centered = sc.slow_drift(x, None)
    want0 = (-(v ** 3 - v) - 0.5 * v)[:, None]
    assert np.max(np.abs(centered - want0)) < 1e-12


# every size up to 1000 (each one that the tests, CI plans, the bench's smoke
# sizes and the README run), the default plan's and the full bench's, and more
LATTICE_SIZES = [*range(1, 1001), 2000, 4000, 8000, 16000, 20000, 32000, 100000]


def test_the_quantile_lattice_keeps_scipys_bits():
    for n in LATTICE_SIZES:
        p = (np.arange(n) + 0.5) / n
        assert np.array_equal(_ndtri(p), ndtri(p)), n


# min(p, 1 - p) >= 2e-14 > exp(-32): the branches the port has
@given(st.floats(min_value=2e-14, max_value=1.0 - 2e-14))
def test_the_quantile_keeps_scipys_bits_on_both_ported_branches(p):
    assert np.array_equal(_ndtri(np.array([p])), ndtri([p]))


def test_the_bessel_references_keep_scipys_bits():
    def gamma(arg):
        return 1.0 / float(i0(arg)) ** 2
    cos = get_scenario("cos_rough_1d").reference
    assert cos["gamma_diag"]["value"] == [gamma(1.0)]
    assert get_scenario("dawson_rough").reference["gamma_diag"]["value"] == [
        gamma(2.0 * 0.08 / 0.2)]
    assert get_scenario("separable_2d").reference["gamma_diag"]["value"] == [gamma(1.0)] * 2
    # u = cos 0 + sin 0 = 1 at the origin
    assert _skew_density(np.zeros((1, 2))).tolist() == [np.exp(-1.0) / float(i0(1.0)) ** 2]
