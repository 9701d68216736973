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

The plan's particle runs are independent, so they run as jobs in a pool
of forked worker processes, up to one per usable CPU (see
``run_experiment``).  Fork hands the workers the job table, whose models
and coefficients are closures that cannot be pickled.  Fork copies only
the calling thread, so a lock that another thread holds at that moment
stays held in the child; Python 3.12 and later warn at every fork from a
process with other threads.  The package starts no threads of its own,
but numpy's BLAS may keep a pool and a caller may run threads beside the
plan; the jobs take no lock of theirs.  A daemonic process, which may not
have children, runs its plans inline.
"""
from __future__ import annotations

import csv
import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .config import ExperimentPlan
from .effective import gamma_separable
from .errors import SimulationError
from .measures import wasserstein2
from .rate import dictionary_for_path, evaluate_jdg
from .scenarios import Scenario, get_scenario
from .simulate import SimConfig


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


@dataclass
class _Job:
    """One independent particle run of a plan, or a coupled pair of them.

    ``run()`` returns one record per entry of ``stems``, the artifact names;
    ``key`` is the runtime entry the job adds to; ``size`` is particles
    times steps, by which jobs are ranked.
    """

    key: str
    stems: tuple
    size: int
    run: Callable


def _execute(job: _Job, base: Path) -> tuple:
    """Run a job and write its CSVs and summaries; (records, seconds)."""
    t0 = time.perf_counter()
    records = list(job.run())
    for rec, stem in zip(records, job.stems):
        rec.save_csv(base / f"{stem}.csv")
        rec.save_summary_json(base / f"{stem}.summary.json")
    return records, time.perf_counter() - t0


_WORKER_TABLE: tuple = ()   # (jobs, base), set in each forked worker


def _adopt_table(jobs: list, base: Path) -> None:
    global _WORKER_TABLE
    _WORKER_TABLE = (jobs, base)


def _execute_in_worker(index: int) -> tuple:
    jobs, base = _WORKER_TABLE
    return _execute(jobs[index], base)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(jobs: list, base: Path, workers: int) -> list:
    """Each job's (records, seconds), in job order.

    One worker runs the jobs inline, in order.  More run them in a pool of
    that many forked processes, longest job first; the results are read in
    job order, so the first failing job in that order raises, as inline.
    """
    if workers == 1:
        return [_execute(job, base) for job in jobs]
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt_table, initargs=(jobs, base))
    try:
        by_size = sorted(range(len(jobs)), key=lambda k: -jobs[k].size)
        futures = {k: pool.submit(_execute_in_worker, k) for k in by_size}
        results = []
        for k in range(len(jobs)):
            try:
                results.append(futures[k].result())
            except BrokenProcessPool as exc:
                # the pool fails every unfinished job alike, so the one
                # whose worker died cannot be told apart: name them all
                wait(futures.values())
                lost = [stem for i, job in enumerate(jobs)
                        if isinstance(futures[i].exception(), BrokenProcessPool)
                        for stem in job.stems]
                raise SimulationError(
                    "a worker process died; these runs did not finish: "
                    + ", ".join(lost)) from exc
        return results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _plan_jobs(plan: ExperimentPlan, scenario: Scenario, model,
               snap_times: np.ndarray, coupled: bool) -> list:
    """The reference run, then every rung and seed, in plan order.

    A coupled rung/seed is one job stepping its multiscale run and its
    pre-averaged twin on shared noise; otherwise each is a job of its own.
    Either way the records are the same bit for bit.
    """
    ref = plan.reference
    ref_cfg = SimConfig(n_particles=ref["n_particles"], dt=ref["dt"],
                        t_end=plan.t_end, seed=ref["seed"],
                        snapshot_times=snap_times)
    jobs = [_Job("reference", ("reference_averaged",),
                 ref_cfg.n_particles * ref_cfg.n_steps,
                 lambda: [scenario.run_averaged(ref_cfg, model=model)])]
    for i, rung in enumerate(plan.rungs):
        for seed in plan.seeds:
            tag = f"rung{i}_seed{seed}"
            cfg = SimConfig(n_particles=rung.n_particles, dt=rung.dt,
                            t_end=plan.t_end, seed=seed, epsilon=rung.epsilon,
                            snapshot_times=snap_times)
            size = cfg.n_particles * cfg.n_steps
            if coupled:
                jobs.append(_Job(tag, (f"{tag}_multiscale", f"{tag}_pre_averaged"),
                                 2 * size,
                                 lambda cfg=cfg: scenario.run_coupled(cfg, model=model)))
                continue
            pre_cfg = replace(cfg, epsilon=None)
            jobs += [
                _Job(tag, (f"{tag}_multiscale",), size,
                     lambda cfg=cfg: [scenario.run_multiscale(cfg)]),
                _Job(tag, (f"{tag}_pre_averaged",), size,
                     lambda cfg=pre_cfg: [scenario.run_averaged(
                         cfg, mode="pre_averaged", model=model)]),
            ]
    return jobs


def run_experiment(plan: ExperimentPlan, out_dir=None, echo=None) -> dict:
    """Execute a plan; returns the report dict (also written to report.json).

    The particle runs are jobs: the reference run, and for each rung and
    seed either one coupled job stepping its multiscale run and its
    pre-averaged twin together on shared noise, or one job for each of the
    two.  The rule is to couple when the plan has at least as many seeds
    as there are workers.  Each rung holds one pair per seed, and in a
    ladder the top rung does most of the work.  With a top-rung pair for
    every worker, coupling keeps the workers busy and saves a noise draw
    per step; with fewer, only split runs spread the top rung over the
    workers.  On 2 CPUs the standard ladder took a median 2.9 s split
    against 3.4 s coupled with one seed, 4.4 s coupled against 5.1 s split
    with two, and 6.7 s coupled against 7.2 s split with three.

    With one usable CPU (``os.sched_getaffinity``), or in a daemonic
    process, the jobs run inline, in plan order.  Otherwise they run in a
    pool of forked workers, one per CPU or per job, whichever is fewer,
    longest job (particles times steps) first.  Every job writes its own
    CSV and summary, and the results are collected in plan order.  The
    distances, actions, tables, report and manifest are then computed from
    them as before.  So every artifact byte, and every error a run raises,
    is the same at any worker count.

    The returned ``runtimes`` (seconds, never written to disk) cover the
    reference run with its artifacts, each rung and seed with both of its
    runs, artifacts, distances and action, and the ``total`` call.  Jobs in
    different workers overlap, so the parts sum to at most the worker count
    times the total, and to at most the total with one worker.
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

    runs: dict[str, tuple] = {}   # runtime key -> (records, seconds)
    if plan.rungs and set(plan.metrics) & {"w2_ladder", "jdg"}:
        workers = 1 if multiprocessing.current_process().daemon else _usable_cpus()
        jobs = _plan_jobs(plan, scenario, model, snap_times,
                          coupled=len(plan.seeds) >= workers)
        workers = min(workers, len(jobs))
        for job, (records, seconds) in zip(jobs, _run_jobs(jobs, base, workers)):
            done, spent = runs.get(job.key, ([], 0.0))
            runs[job.key] = (done + records, spent + seconds)
            for stem in job.stems:
                artifacts += [base / f"{stem}.csv", base / f"{stem}.summary.json"]

    reference_rec = None
    if runs:
        (reference_rec,), runtimes["reference"] = runs["reference"]
        say(f"reference ensemble: N={plan.reference['n_particles']} "
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
                t0 = time.perf_counter()
                (rec_ms, rec_pre), seconds = runs[tag]
                w2_ref = wasserstein2(rec_ms.terminal_measure(), ref_terminal)
                w2_pre = wasserstein2(rec_ms.terminal_measure(),
                                      rec_pre.terminal_measure())
                ladder_rows.append([i, rung.n_particles, rung.epsilon, rung.dt,
                                    seed, w2_ref, w2_pre])
                if "jdg" in plan.metrics:
                    rep = evaluate_jdg(rec_ms.measure_path(), model, dictionary)
                    rate_rows.append([tag, rep.total, rep.basis_size,
                                      float(np.max(rep.gram_condition))])
                runtimes[tag] = seconds + time.perf_counter() - t0
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
