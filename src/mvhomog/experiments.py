"""Experiment driver: ladders of prelimit runs against their averaged limit.

``run_experiment`` executes a validated plan end to end: it solves for the
homogenized model once, simulates the averaged reference ensemble, walks the
(N, epsilon, dt) ladder across the plan's seeds, and writes every artifact
(trajectory records in numpy's ``.npz`` format, run summaries, metric
tables, a manifest with content hashes) into the output directory.  All
artifacts are deterministic functions of the plan: runs use counter-based
noise keyed by the plan seeds, transport distances are exact in one
dimension and sliced along fixed directions in higher ones, and wall-clock
timings are reported to the caller but never written to disk, so rerunning
a plan reproduces every byte on the same machine and numpy build (numpy
picks its float64 ``log``, ``exp`` and ``tan`` kernels by CPU; see the
README).

The plan's particle runs are independent, so they run as jobs in a pool
of forked worker processes, up to one per usable CPU (see
``run_experiment``).  A job is the lanes it steps, from
``Scenario.ladder_lanes``, which refuses a twin pair of two noise widths
before any run starts.  Fork hands the workers the job table, whose
lanes hold the effective model's coefficients, closures that cannot be
pickled; the pool closes once the jobs are done.  The two jobs of a split
pair share nothing: each draws its own noise, which the counter-based
generator makes the same bits.  A daemonic process, which may not have
children, runs its plans inline.
"""
from __future__ import annotations

import csv
import hashlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentPlan
from .effective import gamma_separable
from .errors import SimulationError, ValidationError
from .measures import wasserstein2
from .rate import _json_scalar, dictionary_for_path, evaluate_jdg, write_json
from .scenarios import Scenario, get_scenario
from .simulate import simulate_lanes
from .torus import CellSolution, product_grid


def _write_csv(path: Path, header: list, rows: list) -> None:
    """CSV with repr-exact floats so files round-trip and hash stably."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                        else v for v in row])


def make_out_dir(path) -> Path:
    """``path`` as a directory, made with its parents where missing; a path
    that cannot be one is refused as invalid input, naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"cannot make output directory {path}: {exc.strerror or exc}") from None
    return path


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


# coefficient tables: about GRID_COUNT states on [-GRID_SPAN, GRID_SPAN]^dim
GRID_SPAN, GRID_COUNT = 2.0, 41


def state_grid(dim: int) -> np.ndarray:
    """Evaluation states for coefficient tables: a line (1-d) or a mesh."""
    per_axis = max(int(round(GRID_COUNT ** (1.0 / dim))), 3)
    return product_grid(np.linspace(-GRID_SPAN, GRID_SPAN, per_axis), dim)


def gamma_table_rows(scenario: Scenario) -> list:
    """Per-axis normalizers and homogenization factors, with references.

    A scenario without a separable potential has no closed-form table and is
    refused.
    """
    if scenario.potential is None:
        raise ValidationError(
            f"scenario {scenario.name!r} has no separable potential; "
            "the closed-form factor table is undefined")
    z, zhat = scenario.potential.z_factors()
    gamma = np.diag(gamma_separable(scenario.potential))
    ref = scenario.reference.get("gamma_diag", {}).get("value")
    rows = []
    for k in range(scenario.dim):
        row = [k, z[k], zhat[k], gamma[k]]
        if ref is not None:
            row += [ref[k], abs(gamma[k] - ref[k])]
        rows.append(row)
    return rows


def write_gamma_table(scenario: Scenario, path) -> None:
    rows = gamma_table_rows(scenario)
    header = ["axis", "z", "z_hat", "gamma"]
    if rows and len(rows[0]) == 6:
        header += ["gamma_reference", "abs_diff"]
    _write_csv(Path(path), header, rows)


def write_effective_table(scenario: Scenario, model, path) -> None:
    """Homogenized drift and diffusion at each state of a state grid.

    The mean-field argument is passed as None, which scenarios read as a
    centered ensemble; the table shows the state dependence of the
    coefficients alone.  A constant model's one diffusion fills every row.
    """
    d = scenario.dim
    xs = state_grid(d)
    drift, diffusion, _ = model.coefficients(xs, None)
    diffusion = np.broadcast_to(diffusion, (len(xs), d, d))
    header = ([f"x{k+1}" for k in range(d)]
              + [f"drift{k+1}" for k in range(d)]
              + [f"diffusion{i+1}{j+1}" for i in range(d) for j in range(i, d)])
    rows = [list(x) + list(b) + [diff[i, j] for i in range(d) for j in range(i, d)]
            for x, b, diff in zip(xs, drift, diffusion)]
    _write_csv(Path(path), header, rows)


def write_cell_table(cell: CellSolution, path) -> None:
    """A cell solution's nodes, invariant density and corrector, a row per node."""
    dim = cell.grid.dim
    header = [f"y{k+1}" for k in range(dim)] + ["pi"] + [f"phi{k+1}" for k in range(dim)]
    _write_csv(Path(path), header, np.column_stack([cell.grid.nodes, cell.pi, cell.phi]))


def ladder_inversions(values) -> int:
    """Count adjacent increases in a sequence meant to be nonincreasing."""
    v = np.asarray(values, dtype=float)
    return int(np.sum(v[1:] > v[:-1]))


@dataclass
class _Job:
    """One independent particle run of a plan, or a coupled pair of them.

    The job steps its ``lanes`` together on one noise.  ``key`` is the
    runtime entry it adds to, ``stems`` its records' artifact names, and
    ``size`` its particles times steps, by which jobs are ranked.
    """

    key: str
    lanes: tuple

    @property
    def stems(self) -> tuple:
        return tuple(f"{self.key}_{lane.mode}" for lane in self.lanes)

    @property
    def size(self) -> int:
        return sum(lane.config.n_particles * lane.config.n_steps for lane in self.lanes)


def _execute(job: _Job, base: Path) -> tuple:
    """Run a job and write its records and summaries; (records, seconds)."""
    t0 = time.perf_counter()
    records = simulate_lanes(list(job.lanes))
    for rec, stem in zip(records, job.stems):
        rec.save(base / f"{stem}.npz")
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
    """Run the jobs; each job's (records, seconds), in job order.

    One worker runs the jobs inline, in order.  More run them in a pool of
    that many forked processes, longest job first, and close it; the
    results are read in job order, so the first failing job in that order
    raises, as inline.
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


def _plan_jobs(configs: tuple, scenario: Scenario, model, coupled: bool) -> list:
    """The jobs of ``configs``, ``plan.run_configs()``, in plan order.

    A coupled rung/seed is one job stepping its multiscale run and its
    pre-averaged twin on one noise; otherwise each is a job of its own that
    draws that noise itself.  Either way the records are the same bit for
    bit.
    """
    ref_cfg, rung_cfgs = configs
    jobs = [_Job("reference", scenario.ladder_lanes(ref_cfg, model))]
    for i, cfg in rung_cfgs:
        tag = f"rung{i}_seed{cfg.seed}"
        lanes = scenario.ladder_lanes(cfg, model)
        jobs += [_Job(tag, lanes)] if coupled else [_Job(tag, (lane,)) for lane in lanes]
    return jobs


def _rate_row(run: str, rep) -> list:
    """rate_table.csv row: run, action, basis size, worst Gram condition."""
    return [run, rep.total, rep.basis_size, rep.worst_condition]


def _ladder(plan: ExperimentPlan, configs: tuple, scenario: Scenario, model, base: Path,
            artifacts: list, runtimes: dict, say) -> tuple:
    """The plan's runs, distances and actions: (ladder rows, rate rows).

    The runs are done first; then the distances and actions are computed
    here, in plan order.
    """
    workers = 1 if multiprocessing.current_process().daemon else _usable_cpus()
    jobs = _plan_jobs(configs, scenario, model, coupled=len(plan.seeds) >= workers)
    workers = min(workers, len(jobs))
    results = _run_jobs(jobs, base, workers)

    runs: dict[str, tuple] = {}   # runtime key -> (records, seconds)
    for job, (records, seconds) in zip(jobs, results):
        done, spent = runs.get(job.key, ([], 0.0))
        runs[job.key] = (done + records, spent + seconds)
        for stem in job.stems:
            artifacts += [base / f"{stem}.npz", base / f"{stem}.summary.json"]

    (reference_rec,), runtimes["reference"] = runs["reference"]
    say(f"reference ensemble: N={plan.reference['n_particles']} "
        f"({runtimes['reference']:.1f}s)")
    ref_terminal = reference_rec.terminal_measure()
    ladder_rows, rate_rows = [], []
    jdg = "jdg" in plan.metrics
    if jdg:
        ref_path = reference_rec.measure_path()
        dictionary = dictionary_for_path(ref_path, plan.rate_basis)
        rep = evaluate_jdg(ref_path, model, dictionary)
        rate_rows.append(_rate_row("reference_averaged", rep))
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
            w2_pre = wasserstein2(rec_ms.terminal_measure(), rec_pre.terminal_measure())
            ladder_rows.append([i, rung.n_particles, rung.epsilon, rung.dt,
                                seed, w2_ref, w2_pre])
            if jdg:
                rep = evaluate_jdg(rec_ms.measure_path(), model, dictionary)
                rate_rows.append(_rate_row(tag, rep))
            runtimes[tag] = seconds + time.perf_counter() - t0
            say(f"{tag}: W2 to reference {w2_ref:.4f}, "
                f"to pre-averaged {w2_pre:.4f} ({runtimes[tag]:.1f}s)")
    return ladder_rows, rate_rows


def run_experiment(plan: ExperimentPlan, out_dir=None, echo=None) -> dict:
    """Execute a plan; returns the report dict (also written to report.json).

    The plan is made anew first, so it is checked by its own rules even
    when a field was assigned after it was made; a refused plan or scenario
    writes nothing, and an output directory that cannot be made is refused
    before any run.

    The particle runs are jobs of :meth:`Scenario.ladder_lanes`: the
    reference run, and for each rung and seed either one coupled job
    stepping its multiscale run and its pre-averaged twin together on one
    noise, or one job for each of the two.  The rule is to couple when the
    plan has at least as many seeds as there are workers.  Each rung holds
    one pair per seed, and in a ladder the top rung does most of the work.
    With fewer top-rung pairs than workers, only split runs spread the top
    rung over the workers; with a pair for every worker, coupled jobs keep
    them as busy and draw each noise block once.

    With one usable CPU (``os.sched_getaffinity``), or in a daemonic
    process, the jobs run inline, in plan order.  Otherwise they run in a
    pool of forked workers, one per CPU or per job, whichever is fewer,
    longest job (particles times steps) first.  Every job writes its own
    record and summary, and the results are collected in plan order.  The two
    runs of a split pair draw the same noise, each on its own: the
    generator is counter-based, so each draws the same bits and the two
    jobs share no memory (the README's Performance section gives what the
    split and coupled forms cost).  Once the runs are done and the pool is
    closed, this process computes the distances and actions in plan order,
    from the same arrays by the same functions at any worker count; a
    worker's exception is raised with its type and message.  So every
    artifact byte, and every error a run or an action raises, is the same
    at any worker count.

    The returned ``runtimes`` (seconds, never written to disk) cover the
    reference run with its artifacts, each rung and seed with both of its
    runs, artifacts, distances and action, and the ``total`` call.  Jobs in
    different workers overlap, so the parts sum to at most the worker count
    times the total, and to at most the total with one worker.
    """
    t_start = time.perf_counter()
    say = echo if echo is not None else (lambda msg: None)
    plan = replace(plan)   # checked anew: a field assigned after construction too
    scenario = get_scenario(plan.scenario)
    configs = plan.run_configs()
    checks = scenario.validate()
    base = make_out_dir(out_dir if out_dir is not None else plan.out_dir)
    artifacts: list[Path] = []
    runtimes: dict[str, float] = {}
    report: dict = {"scenario": plan.scenario, "version": __version__}

    say(f"scenario {plan.scenario}: {len(checks)} validation checks passed")

    ladder = bool(plan.rungs and set(plan.metrics) & {"w2_ladder", "jdg"})
    model = None
    if ladder or "effective_table" in plan.metrics:
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

    ladder_rows, rate_rows = [], []
    if ladder:
        ladder_rows, rate_rows = _ladder(plan, configs, scenario, model, base,
                                         artifacts, runtimes, say)

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
    report["rate"] = [[r[0], _json_scalar(r[1]), int(r[2]), _json_scalar(r[3])]
                      for r in rate_rows]
    p = base / "report.json"
    write_json(p, report)
    artifacts.append(p)

    manifest = {
        "plan": plan.as_dict(),
        "version": __version__,
        "scenario_flags": scenario.flags,
        "validation": checks,
        "artifacts": {a.name: _sha256(a) for a in sorted(set(artifacts))},
    }
    write_json(base / "manifest.json", manifest)
    say(f"manifest covers {len(manifest['artifacts'])} artifacts")

    runtimes["total"] = time.perf_counter() - t_start
    report["runtimes"] = runtimes
    report["out_dir"] = str(base)
    return report
