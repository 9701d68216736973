"""One benchmark repeat in a fresh process: set up, run one workload, report.

    python3 -m bench.worker '<json spec>'

The spec gives ``workload``, ``seed``, ``size``, ``run`` (the repeat's id),
``trace``, ``setup_only`` and ``out``, a directory for ``result.json``, the
traced spans (``spans.jsonl``) and the job's own files, which are deleted
once their keys are read.  A user runs each job in its own process, so every
repeat pays the imports and cold caches the user pays.
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line.split()[-1]})
    out = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = int(fn())
                break
    return out


def machine() -> dict:
    """CPU, BLAS and library versions of the process that ran the job."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def main(spec: dict) -> dict:
    out = Path(spec["out"])
    work_dir = out / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    name = spec["workload"]

    t0 = perf_counter()
    from bench import spec as bench_spec
    from bench import workloads  # imports mvhomog, numpy and scipy
    import_s = perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from bench.tracer import Tracer
        tracer = Tracer(spec["run"])
        tracer.install()
    span = tracer.span if tracer else (lambda label: nullcontext())

    sizes = bench_spec.SIZES[spec["size"]]
    inp = bench_spec.inputs(spec["seed"])
    t1 = perf_counter()
    with span("bench.setup"):
        ctx = workloads.setup(name, inp, sizes)
    result = {"setup_s": import_s + perf_counter() - t1}

    if not spec["setup_only"]:
        gates = bench_spec.Gates(name)
        body, error = None, None
        t2 = perf_counter()
        try:
            with span("bench.workload"):
                body = workloads.run(name, ctx, inp, sizes, work_dir, gates, span)
        except Exception:  # a failed job is a result to report, not a crash
            error = traceback.format_exc()
        result["wall_s"] = perf_counter() - t2
        gates.fail_unreached("not reached: the job raised")
        result.update(gates=gates.results, error=error,
                      key=None if body is None else body["key"],
                      values=None if body is None else body["values"],
                      particle_steps=0 if body is None else body["particle_steps"],
                      cell_err_max=None if body is None else body.get("cell_err_max"))

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine()
    if tracer is not None:
        from bench.tracer import call_table, layer_metrics
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans, [c[0] for c in sizes.cell_cases])
        result["calls"] = call_table(tracer.spans)
        tracer.write_jsonl(out / "spans.jsonl")
    shutil.rmtree(work_dir, ignore_errors=True)
    (out / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
