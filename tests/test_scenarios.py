"""Scenario registry: declared assumptions must survive their own checks."""
import numpy as np
import pytest

from mvhomog import ValidationError, get_scenario, scenario_names
from mvhomog.effective import gamma_separable
from mvhomog.scenarios import FLAG_NAMES, Scenario

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


def test_unbounded_slow_drift_requires_moment_cap():
    flags = dict.fromkeys(FLAG_NAMES, True)
    flags["bounded_slow"] = False
    with pytest.raises(ValidationError, match="moment cap"):
        Scenario(name="bad", description="", dim=1, flags=flags,
                 init={"kind": "quantile_normal"},
                 fast_sigma=np.eye(1))


def test_flag_completeness_enforced():
    flags = dict.fromkeys(FLAG_NAMES, True)
    flags["made_up_flag"] = True
    with pytest.raises(ValidationError, match="unknown assumption flags"):
        Scenario(name="bad", description="", dim=1, flags=flags,
                 init={"kind": "quantile_normal"}, fast_sigma=np.eye(1))
    partial = {"periodic_fast": True}
    with pytest.raises(ValidationError, match="must declare flags"):
        Scenario(name="bad", description="", dim=1, flags=partial,
                 init={"kind": "quantile_normal"}, fast_sigma=np.eye(1))


def _plain(dim: int, **kwargs) -> Scenario:
    base = dict(name="probe", description="", dim=dim,
                flags=dict.fromkeys(FLAG_NAMES, True),
                init={"kind": "iid_normal"}, fast_sigma=np.eye(dim))
    base.update(kwargs)
    return Scenario(**base)


def test_validate_catches_broken_periodicity():
    sc = _plain(1, fast_drift=lambda x, y, mu: np.asarray(y, dtype=float))
    with pytest.raises(ValidationError, match="seam"):
        sc.validate()


def test_validate_catches_missing_ellipticity():
    sc = _plain(1, fast_sigma=np.zeros((1, 1)))
    with pytest.raises(ValidationError, match="floor"):
        sc.validate()


def test_validate_catches_uncentered_drift():
    sc = _plain(1, fast_drift=lambda x, y, mu: np.ones(
        (len(np.atleast_2d(y)), 1)))
    with pytest.raises(ValidationError, match="centering"):
        sc.validate()


def test_validate_catches_wrong_declared_density():
    sc = get_scenario("cos_rough_1d")
    sc.known_density = lambda y: np.ones(len(np.atleast_2d(y)))
    with pytest.raises(ValidationError, match="closed form"):
        sc.validate()


def test_effective_model_routes():
    sc = get_scenario("nongradient_2d")
    with pytest.raises(ValidationError, match="no separable potential"):
        sc.effective_model(route="separable")
    with pytest.raises(ValidationError, match="unknown homogenization route"):
        sc.effective_model(route="magic")
    model = sc.effective_model()  # auto resolves to the cell route
    assert model.dim == 2


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
