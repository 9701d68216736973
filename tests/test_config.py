"""Plan parsing: strict keys, field-path diagnostics, stiffness gate."""
import dataclasses
import time

import numpy as np
import pytest

from mvhomog import (ExperimentPlan, SimConfig, ValidationError, hermite_dictionary, load_plan,
                     parse_plan, scenario_names)
from mvhomog.cli import main
from mvhomog.config import DEFAULT_LADDER, DEFAULT_REFERENCE, DEFAULT_SEEDS


def test_minimal_plan_gets_defaults():
    plan = parse_plan({"scenario": "dawson_rough"})
    assert plan.scenario == "dawson_rough"
    assert [(r.n_particles, r.epsilon) for r in plan.rungs] == list(DEFAULT_LADDER)
    for r in plan.rungs:
        assert r.dt == pytest.approx(0.1 * r.epsilon ** 2)
    assert plan.seeds == DEFAULT_SEEDS
    assert plan.reference == DEFAULT_REFERENCE
    assert plan.metrics == ("w2_ladder",)
    assert plan.t_end == 1.0
    assert plan.snapshots == 11
    assert plan.rate_basis == 6
    assert plan.out_dir == "runs"


def test_a_plan_made_in_code_takes_the_parsed_defaults():
    # the standard ladder at the stiffness limit, as parse_plan fills it in
    built = ExperimentPlan(scenario="dawson_rough")
    assert built.as_dict() == parse_plan({"scenario": "dawson_rough"}).as_dict()


def test_every_registry_scenario_parses_in_a_minimal_plan():
    for name in scenario_names():
        assert parse_plan({"scenario": name, "rungs": []}).scenario == name


def test_plan_round_trips_through_as_dict():
    plan = parse_plan({"scenario": "cos_rough_1d",
                       "rungs": [{"n_particles": 100, "epsilon": 0.2}],
                       "seeds": [7], "metrics": ["w2_ladder", "jdg"]})
    again = parse_plan(plan.as_dict())
    assert again.as_dict() == plan.as_dict()


def test_unknown_keys_are_named_by_path():
    with pytest.raises(ValidationError, match=r"plan\.particles"):
        parse_plan({"scenario": "free_brownian", "particles": 10})
    with pytest.raises(ValidationError, match=r"plan\.threads: unknown key"):
        parse_plan({"scenario": "dawson_rough", "threads": 2})
    with pytest.raises(ValidationError, match=r"plan\.rungs\[0\]\.eps"):
        parse_plan({"scenario": "free_brownian",
                    "rungs": [{"n_particles": 10, "eps": 0.1}]})
    with pytest.raises(ValidationError, match=r"plan\.reference\.epsilon"):
        parse_plan({"scenario": "free_brownian", "reference": {"epsilon": 0.1}})


def test_stiffness_violation_suggests_a_step():
    raw = {"scenario": "dawson_rough",
           "rungs": [{"n_particles": 100, "epsilon": 0.1, "dt": 0.01}]}
    with pytest.raises(ValidationError) as err:
        parse_plan(raw)
    msg = str(err.value)
    assert "plan.rungs[0].dt" in msg
    assert "0.1 * epsilon^2" in msg
    assert "suggested dt" in msg
    # the suggested value itself must be admissible
    raw["rungs"][0]["dt"] = 0.001
    plan = parse_plan(raw)
    assert plan.rungs[0].dt == 0.001


def test_scenario_required_and_checked():
    with pytest.raises(ValidationError, match=r"plan\.scenario: required"):
        parse_plan({})
    with pytest.raises(ValidationError, match="not one of"):
        parse_plan({"scenario": "nope"})


def test_seeds_must_be_distinct_ints():
    base = {"scenario": "free_brownian"}
    with pytest.raises(ValidationError, match="distinct"):
        parse_plan({**base, "seeds": [1, 2, 1]})
    with pytest.raises(ValidationError, match=r"plan\.seeds\[1\]"):
        parse_plan({**base, "seeds": [1, "two"]})
    with pytest.raises(ValidationError, match="non-empty"):
        parse_plan({**base, "seeds": []})


def test_seeds_must_fit_the_uint64_hash_key():
    base = {"scenario": "free_brownian"}
    with pytest.raises(ValidationError, match=r"^plan\.seeds\[1\]: seed must be in \[0, 2\*\*64\), "
                                              r"got 18446744073709551616$"):
        parse_plan({**base, "seeds": [1, 2 ** 64]})
    with pytest.raises(ValidationError,
                       match=r"^plan\.seeds\[0\]: seed must be in \[0, 2\*\*64\), got -1$"):
        parse_plan({**base, "seeds": [-1]})
    with pytest.raises(ValidationError, match=r"^plan\.reference\.seed: seed must be in "):
        parse_plan({**base, "reference": {"seed": 2 ** 64}})
    assert parse_plan({**base, "seeds": [2 ** 64 - 1]}).seeds == (2 ** 64 - 1,)


def test_booleans_are_not_integers():
    with pytest.raises(ValidationError, match=r"plan\.snapshots"):
        parse_plan({"scenario": "free_brownian", "snapshots": True})


def test_numbers_must_be_finite():
    for value, shown in ((float("nan"), "nan"), (float("inf"), "inf"), (10 ** 400, "inf")):
        with pytest.raises(ValidationError,
                           match=rf"^plan\.t_end: t_end must be a positive float, got {shown}$"):
            parse_plan({"scenario": "free_brownian", "t_end": value})
    with pytest.raises(ValidationError,
                       match=r"^plan\.rungs\[0\]\.dt: dt must be a positive float, got nan$"):
        parse_plan({"scenario": "free_brownian",
                    "rungs": [{"n_particles": 10, "epsilon": 0.5, "dt": float("nan")}]})


def test_metrics_choices_enforced():
    with pytest.raises(ValidationError, match=r"plan\.metrics\[1\]"):
        parse_plan({"scenario": "free_brownian",
                    "metrics": ["w2_ladder", "w3_ladder"]})


def test_step_must_divide_horizon():
    with pytest.raises(ValidationError, match="whole steps"):
        parse_plan({"scenario": "free_brownian", "t_end": 1.0,
                    "rungs": [{"n_particles": 10, "epsilon": 2.0, "dt": 0.3}]})
    with pytest.raises(ValidationError, match=r"plan\.reference\.dt"):
        parse_plan({"scenario": "free_brownian",
                    "reference": {"dt": 0.3}})


def test_step_tolerance_is_the_runs_own():
    # t_end/dt = 10000.005 is 0.005 off a whole step count: the run refuses it
    raw = {"scenario": "dawson_rough",
           "rungs": [{"n_particles": 10, "epsilon": 0.0317, "dt": 1 / 10000.005}]}
    with pytest.raises(ValidationError,
                       match=r"^plan\.rungs\[0\]\.dt: .*whole steps"):
        parse_plan(raw)
    raw["rungs"][0]["dt"] = 1e-4
    assert parse_plan(raw).rungs[0].dt == 1e-4


@pytest.mark.parametrize("raw, message", [
    ({"t_end": 1e308}, r"plan\.t_end: dt=0\.0025 cuts the horizon t_end=1e\+308 "
                       r"into inf steps, more than MAX_STEPS=100000000"),
    ({"rungs": [{"n_particles": 10, "epsilon": 0.5, "dt": 1e-300}]},
     r"plan\.rungs\[0\]\.dt: dt=1e-300 cuts the horizon t_end=1\.0 into 1e\+300 steps"),
], ids=["t_end", "rung_dt"])
def test_a_step_count_above_max_steps_is_refused_before_rounding(raw, message):
    with pytest.raises(ValidationError, match="^" + message):
        parse_plan({"scenario": "free_brownian", **raw})


def test_snapshot_collisions_are_refused_by_the_plan():
    # 300 snapshots cannot land on distinct steps of the 250-step eps = 0.2 rung
    with pytest.raises(ValidationError,
                       match=r"^plan\.snapshots: snapshot times collide .*250 steps"):
        parse_plan({"scenario": "dawson_rough", "snapshots": 300})
    assert parse_plan({"scenario": "dawson_rough", "snapshots": 251}).snapshots == 251


def test_an_oversized_snapshot_count_is_refused_before_the_times_are_built():
    # 10^9 times would be an 8 GB array; the count alone decides
    start = time.perf_counter()
    with pytest.raises(ValidationError,
                       match=r"^plan\.snapshots: .*1000000000 times on 250 steps"):
        parse_plan({"scenario": "dawson_rough", "snapshots": 10 ** 9})
    assert time.perf_counter() - start < 0.5


def test_run_config_refusals_name_their_plan_field():
    # a plan built around parse_plan is still refused, naming the field
    plan = parse_plan({"scenario": "dawson_rough", "seeds": [5, 6]})
    cases = [
        ({"seeds": (5, -1)}, r"plan\.seeds\[1\]: seed must be in \[0, 2\*\*64\)"),
        ({"reference": dict(plan.reference, n_particles=0)},
         r"plan\.reference\.n_particles: n_particles must be positive"),
        ({"reference": dict(plan.reference, seed=2 ** 64)}, r"plan\.reference\.seed: seed"),
        ({"reference": dict(plan.reference, dt=0.3)}, r"plan\.reference\.dt: dt=0\.3 does"),
        ({"t_end": -1.0}, r"plan\.t_end: t_end must be a positive float"),
        ({"rungs": [dataclasses.replace(plan.rungs[0], n_particles=0)]},
         r"plan\.rungs\[0\]\.n_particles: n_particles must"),
        ({"rungs": [dataclasses.replace(plan.rungs[0], epsilon=float("nan"))]},
         r"plan\.rungs\[0\]\.epsilon: epsilon must be a positive float"),
        ({"rungs": [dataclasses.replace(plan.rungs[0], dt=0.02)]},
         r"plan\.rungs\[0\]\.dt: dt=0\.02 does not resolve the fast scale"),
    ]
    for change, message in cases:
        with pytest.raises(ValidationError, match="^" + message):
            dataclasses.replace(plan, **change).run_configs()


def test_plan_configs_are_the_runs_configs():
    plan = parse_plan({"scenario": "dawson_rough", "seeds": [5, 6], "t_end": 0.5,
                       "snapshots": 6})
    reference, rungs = plan.run_configs()
    assert (reference.n_particles, reference.dt, reference.seed, reference.epsilon) \
        == (8000, 0.0025, 977, None)
    assert [(i, c.n_particles, c.epsilon, c.seed) for i, c in rungs] == [
        (i, n, e, s) for i, (n, e) in enumerate(DEFAULT_LADDER) for s in (5, 6)]
    for cfg in [reference] + [c for _, c in rungs]:
        assert cfg.t_end == 0.5
        assert np.array_equal(cfg.snapshot_times, np.linspace(0.0, 0.5, 6))


def test_empty_rungs_mean_tables_only():
    plan = parse_plan({"scenario": "cos_rough_1d", "rungs": [],
                       "metrics": ["gamma_table"]})
    assert plan.rungs == []
    assert plan.metrics == ("gamma_table",)


def test_out_dir_must_be_nonempty_string():
    with pytest.raises(ValidationError, match=r"plan\.out_dir"):
        parse_plan({"scenario": "free_brownian", "out_dir": ""})


def test_load_plan_reports_bad_json(tmp_path):
    p = tmp_path / "plan.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_plan(p)
    p.write_text('{"scenario": "free_brownian", "rungs": []}')
    plan = load_plan(p)
    assert plan.scenario == "free_brownian"


def test_oversize_rate_basis_is_refused_up_front():
    plan = {"scenario": "separable_2d", "rate_basis": 9}
    with pytest.raises(ValidationError,
                       match=r"^plan\.rate_basis: 9\^2 = 81 basis functions in 2-d is more than "
                             r"the limit of 64$"):
        parse_plan(plan)
    assert parse_plan(dict(plan, rate_basis=8)).rate_basis == 8
    assert parse_plan({"scenario": "dawson_rough", "rate_basis": 64}).rate_basis == 64


def _refusal(call) -> str:
    with pytest.raises(ValidationError) as info:
        call()
    return str(info.value)


def _cli_refusal(argv, capsys) -> str:
    assert main(argv) == 2
    return capsys.readouterr().err.removeprefix("error: ").rstrip("\n")


def test_each_range_rule_says_one_thing_at_every_entry_point(capsys):
    # each rule is compared in one function; an entry point only names its field
    one_rung = {"scenario": "dawson_rough", "rungs": [{"n_particles": 50, "epsilon": 0.2}]}
    simulate = ["simulate", "--scenario", "free_brownian", "--mode", "averaged",
                "--n-particles", "10", "--dt", "0.1"]
    seed = "seed must be in [0, 2**64), got -1"
    assert _refusal(lambda: parse_plan({**one_rung, "seeds": [-1]})) == f"plan.seeds[0]: {seed}"
    assert _refusal(lambda: ExperimentPlan("dawson_rough", seeds=(-1,))) \
        == f"plan.seeds[0]: {seed}"
    assert _refusal(lambda: SimConfig(n_particles=1, dt=0.1, seed=-1)) == seed
    assert _cli_refusal(simulate + ["--seed", "-1"], capsys) == seed

    basis = "9^2 = 81 basis functions in 2-d is more than the limit of 64"
    assert _refusal(lambda: parse_plan({"scenario": "separable_2d", "rate_basis": 9})) \
        == f"plan.rate_basis: {basis}"
    assert _refusal(lambda: hermite_dictionary(2, per_axis=9)) == basis

    count = "snapshot count must be at least 2, got 1"
    assert _refusal(lambda: parse_plan({**one_rung, "snapshots": 1})) \
        == f"plan.snapshots: {count}"
    assert _cli_refusal(simulate + ["--snapshots", "1"], capsys) == f"--snapshots: {count}"
