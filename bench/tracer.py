"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper in the
module (or class) where its callers look it up, for example
``mvhomog.rng.normals`` or ``wasserstein2`` in both ``measures`` and
``experiments``; ``uninstall`` puts the originals back.  A span records its
name, start, end, parent span, run id, and a small ``info`` value that
counts the work of the call (draws, particle-steps, bytes, unknowns).
Spans stay in memory until ``write_jsonl``.

A span's self time is its duration minus the time its child spans cover;
the calls are sequential (one thread), so that is the sum of the children's
durations.  ``layer_metrics`` turns the spans of one run into the
per-layer metrics the benchmark reports.
"""
from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from statistics import median
from time import perf_counter

LAYERS = ("rng", "measures", "simulate", "torus", "effective", "rate", "io",
          "experiments", "scenarios", "config")


# ``info`` functions: (args, kwargs, result) -> small JSON value

def _size(args, kwargs, out):
    return int(out.size)


def _particle_steps(args, kwargs, out):
    return out.config.n_particles * out.config.n_steps


def _w2_shape(args, kwargs, out):
    return [args[0].dim, args[0].size]


def _cell_shape(args, kwargs, out):
    return [out.scheme, out.grid.dim, out.grid.n]


def _jdg_shape(args, kwargs, out):
    path = args[0]
    basis = (args[2] if len(args) > 2 else kwargs["dictionary"]).size
    return [path.dim, path.measures[0].size, basis, len(path)]


def _written(args, kwargs, out):
    rows = args[0].positions.shape[0] * args[0].positions.shape[1]
    return [os.path.getsize(args[1]), rows]


def _read(args, kwargs, out):
    return [os.path.getsize(args[0]), sum(m.size for m in out.measures)]


def targets():
    """(owner, attribute, span name, info) for every traced function."""
    from mvhomog import (config, effective, experiments, measures, rate, rng,
                         scenarios, simulate, torus)
    em = measures.EmpiricalMeasure
    rec = simulate.TrajectoryRecord
    out = [
        (rng, "normals", "rng.normals", _size),
        (em, "__init__", "measures.empirical", None),
        (em, "mean", "measures.mean", None),
        (em, "cov", "measures.cov", None),
        (scenarios, "simulate_multiscale", "simulate.multiscale", _particle_steps),
        (scenarios, "simulate_averaged", "simulate.averaged", _particle_steps),
        (rec, "summary", "simulate.summary", None),
        (torus, "solve_cell_problem", "torus.corrector", None),
        (effective, "averaged_coefficients", "effective.averaged_coefficients", None),
        (rec, "save_csv", "io.csv_write", _written),
        (simulate, "load_trajectory_csv", "io.csv_read", _read),
        (rec, "save_summary_json", "io.summary_json", None),
        (experiments, "run_experiment", "experiments.run_experiment", None),
        (scenarios.Scenario, "validate", "scenarios.validate", None),
        (config, "parse_plan", "config.parse_plan", None),
    ]
    for mod in (measures, experiments, simulate, rate):
        out.append((mod, "wasserstein2", "measures.w2", _w2_shape))
    for mod in (torus, scenarios):
        out.append((mod, "assemble_generator", "torus.assemble", None))
        out.append((mod, "solve_invariant_measure", "torus.invariant", None))
    for mod in (torus, effective):
        out.append((mod, "solve_cell", "torus.solve_cell", _cell_shape))
    for mod in (effective, scenarios):
        out.append((mod, "homogenize", "effective.homogenize", None))
    for mod in (rate, experiments):
        out.append((mod, "evaluate_jdg", "rate.jdg", _jdg_shape))
        out.append((mod, "dictionary_for_path", "rate.dictionary", None))
    return out


class Tracer:
    """In-memory spans; one list per span: name, start, end, parent, run, info."""

    def __init__(self, run: int = 0):
        self.run = run
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, self.run, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, info=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name, info in targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, info))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "info": info}) + "\n")


def _ns_per(seconds: float, count: float) -> float:
    return 1e9 * seconds / count if count else 0.0


def layer_metrics(spans: list, case_names) -> dict:
    """Per-layer busy time, work counts, rates and self time of one run."""
    busy = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        busy[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, _, _, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if layer in self_time:
            self_time[layer] += end - start - child_time[i]

    def work(name, pick=lambda info: info):
        return sum(pick(s[5]) for s in spans if s[0] == name and s[5] is not None)

    def w2_time(one_d: bool):
        return sum(s[2] - s[1] for s in spans
                   if s[0] == "measures.w2" and s[5] is not None
                   and (s[5][0] == 1) == one_d)

    def case_of(i):
        while i >= 0:
            if spans[i][0].startswith("case."):
                return spans[i][0][5:]
            i = spans[i][3]
        return None

    cell_time = defaultdict(float)
    for i, s in enumerate(spans):
        if s[0] == "torus.solve_cell":
            cell_time[case_of(i)] += s[2] - s[1]

    draws = work("rng.normals")
    ms_steps = work("simulate.multiscale")
    av_steps = work("simulate.averaged")
    nbt = work("rate.jdg", lambda info: info[1] * info[2] * info[3])
    out = {
        "rng.normals_s": busy["rng.normals"],
        "rng.normals_calls": calls["rng.normals"],
        "rng.draws": draws,
        "rng.ns_per_draw": _ns_per(busy["rng.normals"], draws),
        "measures.empirical_s": busy["measures.empirical"],
        "measures.mean_s": busy["measures.mean"],
        "measures.mean_calls": calls["measures.mean"],
        "measures.cov_s": busy["measures.cov"],
        "measures.w2_1d_s": w2_time(True),
        "measures.w2_sliced_s": w2_time(False),
        "measures.w2_calls": calls["measures.w2"],
        "simulate.multiscale_s": busy["simulate.multiscale"],
        "simulate.averaged_s": busy["simulate.averaged"],
        "simulate.particle_steps": ms_steps + av_steps,
        "simulate.ns_per_particle_step.multiscale":
            _ns_per(busy["simulate.multiscale"], ms_steps),
        "simulate.ns_per_particle_step.averaged":
            _ns_per(busy["simulate.averaged"], av_steps),
        "simulate.summary_s": busy["simulate.summary"],
        "torus.assemble_s": busy["torus.assemble"],
        "torus.invariant_s": busy["torus.invariant"],
        "torus.corrector_s": busy["torus.corrector"],
        "torus.solve_cell_calls": calls["torus.solve_cell"],
        "torus.unknowns": work("torus.solve_cell", lambda info: info[2] ** info[1]),
        "effective.homogenize_s": busy["effective.homogenize"],
        "effective.averaged_coefficients_s": busy["effective.averaged_coefficients"],
        "rate.jdg_s": busy["rate.jdg"],
        "rate.jdg_calls": calls["rate.jdg"],
        "rate.jdg_atom_basis_snapshots": nbt,
        "rate.ns_per_atom_basis": _ns_per(busy["rate.jdg"], nbt),
        "rate.dictionary_s": busy["rate.dictionary"],
        "io.csv_write_s": busy["io.csv_write"],
        "io.csv_write_bytes": work("io.csv_write", lambda info: info[0]),
        "io.csv_read_s": busy["io.csv_read"],
        "io.csv_read_bytes": work("io.csv_read", lambda info: info[0]),
        "io.summary_json_s": busy["io.summary_json"],
        "scenarios.validate_s": busy["scenarios.validate"],
        "config.parse_plan_s": busy["config.parse_plan"],
        "trace.spans": len(spans),
    }
    for case in case_names:
        out[f"torus.cell_s.{case}"] = cell_time[case]
    for layer, seconds in self_time.items():
        out[f"{layer}.self_s"] = seconds
    return out


def call_table(spans: list) -> dict:
    """Median seconds per call, grouped by span name and work shape.

    Used to set traced numbers beside fixed per-call baselines, such as a
    2-d ``solve_cell`` at a given n or a jdg evaluation at given N and B.
    """
    groups = defaultdict(list)
    for name, start, end, _, _, info in spans:
        if info is not None:
            groups[f"{name} {json.dumps(info)}"].append(end - start)
    return {k: {"calls": len(v), "median_s": median(v)} for k, v in sorted(groups.items())}
