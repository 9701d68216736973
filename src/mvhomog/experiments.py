"""Experiment driver: ladders of prelimit runs against their averaged limit.

``run_experiment`` executes a validated plan end to end: it solves for the
homogenized model once, simulates the averaged reference ensemble, walks the
(N, epsilon, dt) ladder across the plan's seeds, and writes every artifact
(trajectory CSVs, run summaries, metric tables, a manifest with content
hashes) into the output directory.  All artifacts are deterministic
functions of the plan: runs use counter-based noise keyed by the plan seeds,
transport distances are exact in one dimension and seeded in higher ones,
and wall-clock timings are reported to the caller but never written to
disk, so rerunning a plan reproduces every byte.
"""
from __future__ import annotations

import csv
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentPlan
from .effective import gamma_separable
from .measures import EmpiricalMeasure, wasserstein2
from .rate import dictionary_for_path, evaluate_jdg
from .scenarios import Scenario, get_scenario
from .simulate import SimConfig, TrajectoryRecord


def _write_csv(path: Path, header: list, rows: list) -> None:
    """CSV with repr-exact floats so files round-trip and hash stably."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                        else v for v in row])


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def state_grid(dim: int, span: float = 2.0, count: int = 41) -> np.ndarray:
    """Evaluation states for coefficient tables: a line (1-d) or a mesh."""
    if dim == 1:
        return np.linspace(-span, span, count)[:, None]
    per_axis = max(int(round(count ** (1.0 / dim))), 3)
    axis = np.linspace(-span, span, per_axis)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def gamma_table_rows(scenario: Scenario, quad_points: int = 512) -> list:
    """Per-axis normalizers and homogenization factors, with references."""
    if scenario.potential is None:
        raise ValueError(
            f"scenario {scenario.name!r} has no separable potential; "
            "the closed-form factor table is undefined")
    z, zhat = scenario.potential.z_factors(quad_points)
    gamma = np.diag(gamma_separable(scenario.potential, quad_points))
    ref = scenario.reference.get("gamma_diag", {}).get("value")
    rows = []
    for k in range(scenario.dim):
        row = [k, z[k], zhat[k], gamma[k]]
        if ref is not None:
            row += [ref[k], abs(gamma[k] - ref[k])]
        rows.append(row)
    return rows


def write_gamma_table(scenario: Scenario, path, quad_points: int = 512) -> None:
    rows = gamma_table_rows(scenario, quad_points)
    header = ["axis", "z", "z_hat", "gamma"]
    if rows and len(rows[0]) == 6:
        header += ["gamma_reference", "abs_diff"]
    _write_csv(Path(path), header, rows)


def write_effective_table(scenario: Scenario, model, path,
                          span: float = 2.0, count: int = 41) -> None:
    """Homogenized drift and diffusion sampled over a state grid.

    The mean-field argument is passed as None, which scenarios read as a
    centered ensemble; the table shows the state dependence of the
    coefficients alone.
    """
    xs = state_grid(scenario.dim, span, count)
    drift = model.drift_batch(xs, None)
    diff = np.atleast_2d(model.diffusion())
    d = scenario.dim
    header = ([f"x{k+1}" for k in range(d)]
              + [f"drift{k+1}" for k in range(d)]
              + [f"diffusion{i+1}{j+1}" for i in range(d) for j in range(i, d)])
    rows = []
    for x, b in zip(xs, drift):
        rows.append(list(x) + list(b) + [diff[i, j] for i in range(d)
                                         for j in range(i, d)])
    _write_csv(Path(path), header, rows)


def ladder_inversions(values) -> int:
    """Count adjacent increases in a sequence meant to be nonincreasing."""
    v = np.asarray(values, dtype=float)
    return int(np.sum(v[1:] > v[:-1]))


def _finite_or_tag(value: float):
    """JSON-safe scalar: finite floats pass through, infinities become 'inf'."""
    value = float(value)
    return value if np.isfinite(value) else "inf"


def run_experiment(plan: ExperimentPlan, out_dir=None, echo=None) -> dict:
    """Execute a plan; returns the report dict (also written to report.json).

    The returned ``runtimes`` (seconds, never written to disk) cover the
    reference run with its artifacts, each rung and seed with both of its
    runs, distances, artifacts and action, and the ``total`` call.
    """
    t_start = time.perf_counter()
    say = echo if echo is not None else (lambda msg: None)
    scenario = get_scenario(plan.scenario)
    checks = scenario.validate()
    base = Path(out_dir if out_dir is not None else plan.out_dir)
    base.mkdir(parents=True, exist_ok=True)
    snap_times = np.linspace(0.0, plan.t_end, plan.snapshots)
    artifacts: list[Path] = []
    runtimes: dict[str, float] = {}
    report: dict = {"scenario": plan.scenario, "version": __version__}

    say(f"scenario {plan.scenario}: {len(checks)} validation checks passed")

    model = None
    if set(plan.metrics) & {"w2_ladder", "jdg", "effective_table"} or plan.rungs:
        model = scenario.effective_model()

    if "gamma_table" in plan.metrics and scenario.potential is not None:
        p = base / "gamma_table.csv"
        write_gamma_table(scenario, p)
        artifacts.append(p)
        say(f"wrote {p.name}")

    if "effective_table" in plan.metrics:
        p = base / "effective_table.csv"
        write_effective_table(scenario, model, p)
        artifacts.append(p)
        say(f"wrote {p.name}")

    reference_rec = None
    if plan.rungs and set(plan.metrics) & {"w2_ladder", "jdg"}:
        ref = plan.reference
        cfg = SimConfig(n_particles=ref["n_particles"], dt=ref["dt"],
                        t_end=plan.t_end, seed=ref["seed"],
                        snapshot_times=snap_times)
        t0 = time.perf_counter()
        reference_rec = scenario.run_averaged(cfg, model=model)
        for suffix, saver in (("csv", reference_rec.save_csv),
                              ("summary.json", reference_rec.save_summary_json)):
            p = base / f"reference_averaged.{suffix}"
            saver(p)
            artifacts.append(p)
        runtimes["reference"] = time.perf_counter() - t0
        say(f"reference ensemble: N={ref['n_particles']} "
            f"({runtimes['reference']:.1f}s)")

    ladder_rows = []
    rate_rows = []
    if reference_rec is not None:
        ref_terminal = reference_rec.terminal_measure()
        dictionary = None
        if "jdg" in plan.metrics:
            ref_path = reference_rec.measure_path()
            dictionary = dictionary_for_path(ref_path, plan.rate_basis)
            rep = evaluate_jdg(ref_path, model, dictionary)
            rate_rows.append(["reference_averaged", rep.total,
                              rep.basis_size, float(np.max(rep.gram_condition))])
            p = base / "rate_reference.json"
            rep.save_json(p)
            artifacts.append(p)
            say(f"rate functional on the reference path: {rep.total:.4g}")

        for i, rung in enumerate(plan.rungs):
            for seed in plan.seeds:
                tag = f"rung{i}_seed{seed}"
                cfg_ms = SimConfig(n_particles=rung.n_particles, dt=rung.dt,
                                   t_end=plan.t_end, seed=seed,
                                   epsilon=rung.epsilon,
                                   snapshot_times=snap_times)
                t0 = time.perf_counter()
                rec_ms, rec_pre = scenario.run_coupled(cfg_ms, model=model)
                w2_ref = wasserstein2(rec_ms.terminal_measure(), ref_terminal)
                w2_pre = wasserstein2(rec_ms.terminal_measure(),
                                      rec_pre.terminal_measure())
                ladder_rows.append([i, rung.n_particles, rung.epsilon, rung.dt,
                                    seed, w2_ref, w2_pre])
                for rec, kind in ((rec_ms, "multiscale"), (rec_pre, "pre_averaged")):
                    p = base / f"{tag}_{kind}.csv"
                    rec.save_csv(p)
                    artifacts.append(p)
                    p = base / f"{tag}_{kind}.summary.json"
                    rec.save_summary_json(p)
                    artifacts.append(p)
                if "jdg" in plan.metrics:
                    rep = evaluate_jdg(rec_ms.measure_path(), model, dictionary)
                    rate_rows.append([tag, rep.total, rep.basis_size,
                                      float(np.max(rep.gram_condition))])
                runtimes[tag] = time.perf_counter() - t0
                say(f"{tag}: W2 to reference {w2_ref:.4f}, "
                    f"to pre-averaged {w2_pre:.4f} ({runtimes[tag]:.1f}s)")

    if ladder_rows:
        p = base / "ladder.csv"
        _write_csv(p, ["rung", "n_particles", "epsilon", "dt", "seed",
                       "w2_vs_reference", "w2_vs_pre_averaged"], ladder_rows)
        artifacts.append(p)
        per_rung = {}
        for row in ladder_rows:
            per_rung.setdefault(row[0], []).append(row[5])
        means = [float(np.mean(per_rung[k])) for k in sorted(per_rung)]
        report["ladder_means"] = means
        report["ladder_inversions"] = ladder_inversions(means)
        say(f"ladder means {['%.4f' % m for m in means]}, "
            f"inversions {report['ladder_inversions']}")

    if rate_rows:
        p = base / "rate_table.csv"
        _write_csv(p, ["run", "jdg_total", "basis", "gram_condition"], rate_rows)
        artifacts.append(p)

    report["ladder"] = [[r[0], r[1], r[2], r[3], r[4], float(r[5]), float(r[6])]
                        for r in ladder_rows]
    report["rate"] = [[r[0], _finite_or_tag(r[1]), int(r[2]), _finite_or_tag(r[3])]
                      for r in rate_rows]
    p = base / "report.json"
    with open(p, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    artifacts.append(p)

    manifest = {
        "plan": plan.as_dict(),
        "version": __version__,
        "scenario_flags": scenario.flags,
        "validation": checks,
        "artifacts": {a.name: _sha256(a) for a in sorted(set(artifacts))},
    }
    with open(base / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    say(f"manifest covers {len(manifest['artifacts'])} artifacts")

    runtimes["total"] = time.perf_counter() - t_start
    report["runtimes"] = runtimes
    report["out_dir"] = str(base)
    return report
