"""Experiment plans: strict JSON configuration with field-path diagnostics.

A plan names a registry scenario and a ladder of prelimit resolutions
(particle count, scale separation, step size), plus the reference run and
the metrics to evaluate.  Validation is deliberately strict: unknown keys
are rejected, every diagnostic names the offending field by its path
(``plan.rungs[1].dt``), and every run's geometry is checked up front by
SimConfig's own rules on the configs the runs use; a stiffness violation
comes back with an admissible step.

Plan schema (JSON object; only ``scenario`` is required)::

    {
      "scenario":  "dawson_rough",
      "rungs":     [{"n_particles": 250, "epsilon": 0.2, "dt": 0.004}, ...],
      "seeds":     [101, 211, 307],
      "reference": {"n_particles": 8000, "dt": 0.0025, "seed": 977},
      "metrics":   ["w2_ladder", "jdg", "gamma_table", "effective_table"],
      "t_end":     1.0,
      "snapshots": 11,
      "rate_basis": 6,
      "out_dir":   "runs"
    }

Every omitted key takes the ``ExperimentPlan`` field's default, which is
the only copy of the schema's defaults: a plan made in code gets the same
ones.  Omitted rungs default to the standard ladder (250, 0.2), (1000, 0.1),
(4000, 0.05) at the stiffness limit dt = eps^2 / 10; an explicit empty list
is allowed and means "produce the manifest and tables only, no particle
runs".  A plan asking for ``jdg`` needs the action's MIN_SNAPSHOTS (3)
snapshots.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .rate import MAX_BASIS, MIN_SNAPSHOTS
from .rng import SEED_LIMIT
from .scenarios import get_scenario, scenario_names
from .simulate import MAX_STEPS, SimConfig, stiffness_limit

DEFAULT_LADDER = ((250, 0.2), (1000, 0.1), (4000, 0.05))
DEFAULT_SEEDS = (101, 211, 307)
DEFAULT_REFERENCE = {"n_particles": 8000, "dt": 0.0025, "seed": 977}
KNOWN_METRICS = ("w2_ladder", "jdg", "gamma_table", "effective_table")


def _reject_unknown(mapping: dict, allowed, path: str):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ValidationError(
            f"{path}.{unknown[0]}: unknown key (allowed: {', '.join(sorted(allowed))})")


def _as_int(value, path: str, minimum: int | None = None,
            maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{path}: must be <= {maximum}, got {value}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:   # an integer beyond the float range
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{path}: must be positive and finite, got {value}")
    return value


def _as_str_choice(value, path: str, choices) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{path}: expected a string, got {value!r}")
    if value not in choices:
        raise ValidationError(
            f"{path}: {value!r} is not one of {', '.join(sorted(choices))}")
    return value


@dataclass
class Rung:
    """One prelimit resolution: particles, scale separation, step size."""

    n_particles: int
    epsilon: float
    dt: float


@dataclass
class ExperimentPlan:
    """A plan; its field defaults are the schema's, for parsed plans too."""

    scenario: str
    rungs: list = field(default_factory=lambda: [Rung(n, eps, stiffness_limit(eps))
                                                 for n, eps in DEFAULT_LADDER])
    seeds: tuple = DEFAULT_SEEDS
    reference: dict = field(default_factory=lambda: dict(DEFAULT_REFERENCE))
    metrics: tuple = ("w2_ladder",)
    t_end: float = 1.0
    snapshots: int = 11
    rate_basis: int = 6
    out_dir: str = "runs"

    def as_dict(self) -> dict:
        return {**asdict(self), "seeds": list(self.seeds), "metrics": list(self.metrics)}

    def run_configs(self) -> tuple:
        """(reference config, [(rung index, config) for every rung and seed]).

        Every run records on linspace(0, t_end, snapshots), and a rung's run
        must resolve the fast scale.  A refusal by SimConfig's rules names the
        plan field it comes from.  A ``jdg`` plan's snapshot count is checked
        first, against the action's MIN_SNAPSHOTS; then every run's steps, on
        one particle; then the snapshot count against the shortest run, before
        the times are built; then each run whole, with its particles and its
        record.
        """
        if "jdg" in self.metrics and self.snapshots < MIN_SNAPSHOTS:
            raise ValidationError(f"plan.snapshots: the jdg metric needs at least "
                                  f"{MIN_SNAPSHOTS} snapshots, got {self.snapshots}")
        ref = self.reference
        coarsest = max([ref["dt"]] + [rung.dt for rung in self.rungs])
        too_long = coarsest > 0 and self.t_end / coarsest > MAX_STEPS
        runs = [(None, "plan.reference", "plan.reference.seed", ref["n_particles"],
                 dict(dt=ref["dt"], seed=ref["seed"]))]
        runs += [(i, f"plan.rungs[{i}]", f"plan.seeds[{j}]", rung.n_particles,
                  dict(dt=rung.dt, seed=seed, epsilon=rung.epsilon))
                 for i, rung in enumerate(self.rungs) for j, seed in enumerate(self.seeds)]
        shortest = min((_run_config(path, seed_path, too_long, n_particles=1,
                                    t_end=self.t_end, **geometry)
                        for _, path, seed_path, _, geometry in runs),
                       key=lambda config: config.n_steps)
        try:
            shortest.require_snapshot_count(self.snapshots)
        except ValidationError as exc:
            raise ValidationError(f"plan.snapshots: {exc}") from None
        times = np.linspace(0.0, self.t_end, self.snapshots)
        configs = [(i, _run_config(path, seed_path, too_long, n_particles=n, t_end=self.t_end,
                                   snapshot_times=times, **geometry))
                   for i, path, seed_path, n, geometry in runs]
        return configs[0][1], configs[1:]


def _run_config(path: str, seed_path: str, too_long: bool, **geometry) -> SimConfig:
    """A run's SimConfig; a refusal names its plan field.

    SimConfig's refusals begin with the field they refuse: ``t_end`` is
    ``plan.t_end``, ``seed`` is ``seed_path``, a snapshot time is
    ``plan.snapshots`` and any other is ``{path}.{field}``.  A positive dt's
    refusal is a step count above MAX_STEPS, which is the horizon's fault
    when ``too_long``, that is when even the plan's coarsest step cuts it
    into too many steps.
    """
    try:
        config = SimConfig(**geometry)
        if config.epsilon is not None:
            config.require_stiffness("multiscale")
    except ValidationError as exc:
        name = re.match(r"[a-z_]+", str(exc)).group()
        if name == "dt" and too_long and geometry["dt"] > 0:
            name = "t_end"
        where = {"t_end": "plan.t_end", "seed": seed_path,
                 "snapshot": "plan.snapshots"}.get(name, f"{path}.{name}")
        raise ValidationError(f"{where}: {exc}") from None
    return config


def _parse_rung(raw, idx: int) -> Rung:
    path = f"plan.rungs[{idx}]"
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected an object, got {raw!r}")
    _reject_unknown(raw, ("n_particles", "epsilon", "dt"), path)
    if "n_particles" not in raw or "epsilon" not in raw:
        raise ValidationError(f"{path}: needs n_particles and epsilon")
    n = _as_int(raw["n_particles"], f"{path}.n_particles", minimum=1)
    eps = _as_float(raw["epsilon"], f"{path}.epsilon")
    dt = _as_float(raw["dt"], f"{path}.dt") if "dt" in raw else stiffness_limit(eps)
    return Rung(n, eps, dt)


def _parse_reference(raw, default: dict) -> dict:
    path = "plan.reference"
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected an object, got {raw!r}")
    _reject_unknown(raw, default, path)
    out = dict(default)
    if "n_particles" in raw:
        out["n_particles"] = _as_int(raw["n_particles"], f"{path}.n_particles", 1)
    if "dt" in raw:
        out["dt"] = _as_float(raw["dt"], f"{path}.dt")
    if "seed" in raw:
        out["seed"] = _as_int(raw["seed"], f"{path}.seed", 0, SEED_LIMIT - 1)
    return out


_PLAN_KEYS = tuple(f.name for f in fields(ExperimentPlan))


def parse_plan(raw: dict) -> ExperimentPlan:
    """Validate a decoded JSON object into an ExperimentPlan.

    An absent key, or reference key, is read from the ExperimentPlan
    field's default and validated as if given.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"plan: expected a JSON object, got {raw!r}")
    _reject_unknown(raw, _PLAN_KEYS, "plan")
    if "scenario" not in raw:
        raise ValidationError("plan.scenario: required")
    scenario = _as_str_choice(raw["scenario"], "plan.scenario", scenario_names())
    default = ExperimentPlan(scenario).as_dict()
    raw = {**default, **raw}

    t_end = _as_float(raw["t_end"], "plan.t_end")
    snapshots = _as_int(raw["snapshots"], "plan.snapshots", minimum=2)
    rate_basis = _as_int(raw["rate_basis"], "plan.rate_basis", minimum=2)
    dim = get_scenario(scenario).dim
    if rate_basis ** dim > MAX_BASIS:
        raise ValidationError(
            f"plan.rate_basis: {rate_basis}^{dim} = {rate_basis ** dim} functions "
            f"for the {dim}-d scenario {scenario!r} is more than the limit of "
            f"{MAX_BASIS}; lower rate_basis")

    out_dir = raw["out_dir"]
    if not isinstance(out_dir, str) or not out_dir:
        raise ValidationError(f"plan.out_dir: expected a non-empty string, got {out_dir!r}")

    if not isinstance(raw["rungs"], list):
        raise ValidationError(f"plan.rungs: expected a list, got {raw['rungs']!r}")
    rungs = [_parse_rung(r, i) for i, r in enumerate(raw["rungs"])]

    if not isinstance(raw["seeds"], list) or not raw["seeds"]:
        raise ValidationError(f"plan.seeds: expected a non-empty list, got {raw['seeds']!r}")
    seeds = tuple(_as_int(s, f"plan.seeds[{i}]", 0, SEED_LIMIT - 1)
                  for i, s in enumerate(raw["seeds"]))
    if len(set(seeds)) != len(seeds):
        raise ValidationError("plan.seeds: seeds must be distinct")

    if not isinstance(raw["metrics"], list):
        raise ValidationError(f"plan.metrics: expected a list, got {raw['metrics']!r}")
    metrics = tuple(_as_str_choice(m, f"plan.metrics[{i}]", KNOWN_METRICS)
                    for i, m in enumerate(raw["metrics"]))

    reference = _parse_reference(raw["reference"], default["reference"])

    plan = ExperimentPlan(scenario=scenario, rungs=rungs, seeds=seeds,
                          reference=reference, metrics=metrics, t_end=t_end,
                          snapshots=snapshots, rate_basis=rate_basis,
                          out_dir=out_dir)
    plan.run_configs()   # every run's geometry, by the rules the runs obey
    return plan


def load_plan(path) -> ExperimentPlan:
    """Read and validate a JSON plan file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"plan: invalid JSON in {path}: {exc}") from None
    return parse_plan(raw)
