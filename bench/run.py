"""Benchmark runner for the mvhomog laboratory.

    python3 bench/run.py --workload {ladder_1d,cell_nd,action_2d} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from
``src`` and nothing needs building.  The user this stands for is a
researcher running one job after another, each in its own process, with
one caller and the plan's ``threads=1``.  So this runner repeats the
workload, one fresh worker process per repeat (``bench/worker.py``), until
``--seconds`` would be exceeded by one more, and at least three times.
Workers run with one BLAS thread.

With ``--trace 0`` the last line of output reports the end-to-end metrics:

* ``wall_s``: median wall time of one job, after set-up, tracing off;
* ``setup_s``: median time to import ``mvhomog``, get the workload's
  scenarios, parse its plan and validate the scenarios, taken from every
  worker and from extra set-up-only workers up to five samples;
* ``peak_rss_mb``: median over workers of the worker's peak resident memory.

With ``--trace 1`` the runner alternates untraced and traced repeats and
the last line reports the per-layer metrics of ``bench/tracer.py`` (medians
over traced repeats), the tracing overhead (median traced minus median
untraced ``wall_s``), ``particle_steps_per_s`` (N times steps over every
particle run, divided by the untraced ``wall_s``) and ``cell_err_max``.
Those two are end-to-end in meaning but zero on some workloads, so they
are reported here and not among the end-to-end metrics, which must be
nonzero on every workload.  The last line carries the metrics
``BENCHMARK.json`` declares; the record keeps them all, among them
``failure_ratio``, which the line's ``failed`` and ``attempted`` give too.

Every repeat's gates are counted: ``attempted`` is the number of gated
operations plus one determinism comparison per repeat after the first, and
``failed`` counts failed gates, repeats that crashed, and repeats whose
determinism key differs from the first one's.  The full record, with the
machine context, samples, gate details and a per-call table, goes to
``.bench_out/<workload>-seed<N>-trace<T>/result.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.spec import SIZES, WORKLOADS, operations  # noqa: E402

OUT = ROOT / ".bench_out"
MAX_REPEATS = 50
# the whole invocation must end within 180 s; keep a margin for reporting
DEADLINE_S = 170.0
# One BLAS thread per job, like the plan's single-threaded stepping; what a
# second thread gains on two shared CPUs varies from run to run.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """Hash of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mvhomog").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _worker(spec: dict, timeout: float) -> dict | None:
    """Run one worker process; its result, or None when it failed."""
    out = Path(spec["out"])
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run([sys.executable, "-m", "bench.worker", json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker {spec['run']} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker {spec['run']} exited with {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads((out / "result.json").read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """Repeat one workload for ``seconds`` and aggregate the result record."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "mvhomog" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {ROOT / 'src'}; run from a checkout")
    sizes = SIZES[size]
    base = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(base, ignore_errors=True)
    start = perf_counter()

    def spec(run: int, traced: bool, setup_only: bool = False) -> dict:
        return {"workload": workload, "seed": seed, "size": size, "run": run,
                "trace": traced, "setup_only": setup_only,
                "out": str(base / f"run{run:02d}")}

    def remaining() -> float:
        return DEADLINE_S - (perf_counter() - start)

    reps: list[tuple[bool, dict | None]] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append((traced, _worker(spec(len(reps), traced), remaining())))
        elapsed = perf_counter() - start
        next_end = elapsed * (len(reps) + 1) / len(reps)
        if len(reps) >= sizes.min_repeats and (next_end > seconds or next_end > DEADLINE_S):
            break
        if len(reps) >= MAX_REPEATS or remaining() <= 0:
            break
    done = [(t, r) for t, r in reps if r is not None]
    if not any(not t for t, _ in done) or (trace and not any(t for t, _ in done)):
        raise BenchError(f"{workload}: no repeat of the needed kind completed")

    setups = [r["setup_s"] for _, r in done]
    extra = 0
    while not trace and len(setups) < sizes.setup_samples and remaining() > 10:
        r = _worker(spec(len(reps) + extra, False, setup_only=True), remaining())
        extra += 1
        if r is not None:
            setups.append(r["setup_s"])

    n_ops = len(operations(workload))
    attempted = failed = 0
    failures = []
    for i, (_, r) in enumerate(reps):
        if r is None:
            attempted += n_ops
            failed += n_ops
            failures.append(f"run {i}: worker failed")
            continue
        attempted += len(r["gates"])
        for op, ok, detail in r["gates"]:
            if not ok:
                failed += 1
                failures.append(f"run {i}: {op}: {detail}")
        if r["error"]:
            failures.append(f"run {i}: {r['error'].strip().splitlines()[-1]}")
    keys = [r["key"] for _, r in done if r["key"] is not None]
    for i, key in enumerate(keys[1:], 1):
        attempted += 1
        if key != keys[0]:
            failed += 1
            failures.append(f"determinism: repeat {i} differs from the first: "
                            f"{sorted(k for k in key if key[k] != keys[0].get(k))}")

    untraced = [r["wall_s"] for t, r in done if not t]
    wall = median(untraced)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "machine": done[0][1]["machine"],
        "samples": {"wall_s": untraced, "setup_s": setups,
                    "peak_rss_mb": [r["peak_rss_mb"] for t, r in done if not t]},
        "attempted": attempted, "failed": failed, "failures": failures,
        "values": [r["values"] for _, r in done],
        "particle_steps_per_s": done[0][1]["particle_steps"] / wall,
        "cell_err_max": max((r["cell_err_max"] or 0.0) for _, r in done),
    }
    if trace:
        traced_reps = [r for t, r in done if t]
        layers = {k: median(r["layers"][k] for r in traced_reps)
                  for k in traced_reps[0]["layers"]}
        traced_walls = [r["wall_s"] for r in traced_reps]
        layers["trace.overhead_s"] = median(traced_walls) - wall
        layers["particle_steps_per_s"] = record["particle_steps_per_s"]
        layers["cell_err_max"] = record["cell_err_max"]
        layers["failure_ratio"] = failed / attempted
        record["samples"]["traced_wall_s"] = traced_walls
        record["metrics"] = layers
        record["calls"] = traced_reps[0]["calls"]
    else:
        record["metrics"] = {"wall_s": wall, "setup_s": median(setups),
                             "peak_rss_mb": median(record["samples"]["peak_rss_mb"])}
    base.mkdir(parents=True, exist_ok=True)
    (base / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "particle_steps_per_s": "1/s", "cell_err_max": "1", "failure_ratio": "1"}


def unit(name: str) -> str:
    """Unit of a reported metric, from its name."""
    if name in UNITS:
        return UNITS[name]
    if ".ns_per" in name:
        return "ns"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in record["failures"]:
        print(f"FAILED {line}")
    samples = record["samples"]
    print(f"{args.workload} seed {args.seed}: {len(samples['wall_s'])} untraced "
          f"repeat(s), wall_s {samples['wall_s']}, setup_s samples "
          f"{len(samples['setup_s'])}, record in "
          f"{(OUT / f'{args.workload}-seed{args.seed}-trace{args.trace}').relative_to(ROOT)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["metrics"][k], "unit": unit(k)} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
