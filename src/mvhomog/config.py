"""Experiment plans: strict JSON configuration with field-path diagnostics.

A plan names a registry scenario and a ladder of prelimit resolutions
(particle count, scale separation, step size), plus the reference run and
the metrics to evaluate.  Validation is deliberately strict: unknown keys
are rejected, and every diagnostic names the offending field by its path
(``plan.rungs[1].dt``).

An ``ExperimentPlan`` checks itself when it is made, so a plan made in
code, or by ``dataclasses.replace``, is refused exactly as a parsed plan
is, with the same message.  Its ``__post_init__`` is the plan's one
rulebook: it checks each field's JSON type, the registry scenario, the
metric names, the seeds and the reference's keys, and normalizes them;
then it builds every run's config, so each run's geometry is checked by
SimConfig's own rules on the configs the runs use, and a stiffness
violation comes back with an admissible step.  A range rule lives where it
is enforced, and the plan calls it under the field's path: particle
counts, epsilon, dt, t_end and the snapshot count in ``SimConfig``, the
seed range in ``rng.check_seed``, the dictionary's size in
``rate.check_basis``.  ``parse_plan`` checks only what JSON alone needs.

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
the only copy of the schema's defaults, and a partial reference takes the
rest of ``DEFAULT_REFERENCE``.  Omitted rungs default to the standard
ladder (250, 0.2), (1000, 0.1), (4000, 0.05) at the stiffness limit
dt = eps^2 / 10, as does a rung's omitted dt; an explicit empty list is
allowed and means "produce the manifest and tables only, no particle
runs".  A plan asking for ``jdg`` needs the action's MIN_SNAPSHOTS (3)
snapshots.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import ValidationError
from .rate import MIN_SNAPSHOTS, check_basis
from .rng import check_seed
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


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:   # an integer beyond the float range
        return math.inf


def _as_str_choice(value, path: str, choices) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{path}: expected a string, got {value!r}")
    if value not in choices:
        raise ValidationError(
            f"{path}: {value!r} is not one of {', '.join(sorted(choices))}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{path}: expected a list, got {value!r}")
    return list(value)


def _under(path: str, check, *args):
    """``check(*args)``'s value, its refusal named by the plan field ``path``."""
    try:
        return check(*args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _seed(value, path: str) -> int:
    _under(path, check_seed, _as_int(value, path))
    return value


@dataclass
class Rung:
    """One prelimit resolution: particles, scale separation, step size."""

    n_particles: int
    epsilon: float
    dt: float


def _rung(raw, idx: int) -> Rung:
    """A rung from a ``Rung`` or a JSON object, whose dt defaults to the stiffness limit."""
    path = f"plan.rungs[{idx}]"
    if isinstance(raw, Rung):
        raw = asdict(raw)
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected an object, got {raw!r}")
    _reject_unknown(raw, ("n_particles", "epsilon", "dt"), path)
    if "n_particles" not in raw or "epsilon" not in raw:
        raise ValidationError(f"{path}: needs n_particles and epsilon")
    n = _as_int(raw["n_particles"], f"{path}.n_particles")
    eps = _as_float(raw["epsilon"], f"{path}.epsilon")
    dt = _as_float(raw["dt"], f"{path}.dt") if "dt" in raw else stiffness_limit(eps)
    return Rung(n, eps, dt)


def _reference(raw) -> dict:
    """The reference run's keys, the absent ones from DEFAULT_REFERENCE."""
    path = "plan.reference"
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected an object, got {raw!r}")
    _reject_unknown(raw, DEFAULT_REFERENCE, path)
    raw = {**DEFAULT_REFERENCE, **raw}
    return {"n_particles": _as_int(raw["n_particles"], f"{path}.n_particles"),
            "dt": _as_float(raw["dt"], f"{path}.dt"),
            "seed": _seed(raw["seed"], f"{path}.seed")}


@dataclass
class ExperimentPlan:
    """A plan, checked and normalized when it is made; its field defaults are
    the schema's, for parsed plans too.

    Rungs may be given as ``Rung``s or as JSON objects, and seeds and metrics
    as lists or tuples; the plan holds a list of ``Rung``s, tuples and a full
    reference.  A refusal names the field by its path, as for a parsed plan.
    """

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

    def __post_init__(self):
        self.scenario = _as_str_choice(self.scenario, "plan.scenario", scenario_names())
        self.t_end = _as_float(self.t_end, "plan.t_end")
        self.snapshots = _as_int(self.snapshots, "plan.snapshots")
        self.rate_basis = _as_int(self.rate_basis, "plan.rate_basis")
        _under("plan.rate_basis", check_basis, self.rate_basis,
               get_scenario(self.scenario).dim)
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ValidationError(
                f"plan.out_dir: expected a non-empty string, got {self.out_dir!r}")
        self.rungs = [_rung(r, i) for i, r in enumerate(_as_list(self.rungs, "plan.rungs"))]
        if not isinstance(self.seeds, (list, tuple)) or not self.seeds:
            raise ValidationError(f"plan.seeds: expected a non-empty list, got {self.seeds!r}")
        self.seeds = tuple(_seed(s, f"plan.seeds[{i}]") for i, s in enumerate(self.seeds))
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("plan.seeds: seeds must be distinct")
        self.metrics = tuple(_as_str_choice(m, f"plan.metrics[{i}]", KNOWN_METRICS)
                             for i, m in enumerate(_as_list(self.metrics, "plan.metrics")))
        self.reference = _reference(self.reference)
        self.run_configs()   # every run's geometry, by the rules the runs obey

    def as_dict(self) -> dict:
        return {**asdict(self), "seeds": list(self.seeds), "metrics": list(self.metrics)}

    def run_configs(self) -> tuple:
        """(reference config, [(rung index, config) for every rung and seed]).

        Every run records on linspace(0, t_end, snapshots), and a rung's run
        must resolve the fast scale.  A refusal by SimConfig's rules names the
        plan field it comes from.  A ``jdg`` plan's snapshot count is checked
        first, against the action's MIN_SNAPSHOTS; then every run's steps, on
        one particle; then the snapshot times, by the shortest run's
        ``SimConfig.snapshot_grid``, which checks their count first; then
        each run whole, with its particles and its record.  The plan runs
        this when it is made; ``run_experiment`` calls it for the configs.
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
        times = _under("plan.snapshots", shortest.snapshot_grid, self.snapshots)
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
            config.require_stiffness()
    except ValidationError as exc:
        name = re.match(r"[a-z_]+", str(exc)).group()
        if name == "dt" and too_long and geometry["dt"] > 0:
            name = "t_end"
        where = {"t_end": "plan.t_end", "seed": seed_path,
                 "snapshot": "plan.snapshots"}.get(name, f"{path}.{name}")
        raise ValidationError(f"{where}: {exc}") from None
    return config


_PLAN_KEYS = tuple(f.name for f in fields(ExperimentPlan))


def parse_plan(raw: dict) -> ExperimentPlan:
    """A decoded JSON object as an ExperimentPlan.

    Only what JSON alone needs is checked here: an object, known keys and
    ``scenario`` present.  The plan checks every field when it is made.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"plan: expected a JSON object, got {raw!r}")
    _reject_unknown(raw, _PLAN_KEYS, "plan")
    if "scenario" not in raw:
        raise ValidationError("plan.scenario: required")
    return ExperimentPlan(**raw)


def load_plan(path) -> ExperimentPlan:
    """Read and validate a JSON plan file, which must be UTF-8 text."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"plan: {path} is not UTF-8 text ({exc.reason})") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"plan: invalid JSON in {path}: {exc}") from None
    return parse_plan(raw)
