"""Benchmark of favest through its public API.

    python3 perfbench/run.py --workload grid-L256 --seed 1 --seconds 40 --trace 0

Runs one workload (see workloads.py) as one closed-loop client for about
``--seconds`` seconds and checks every operation's output.  It prints each
metric by name with its unit, the environment, and, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, from a run whose operations are
alternately traced and untraced (see spans.py).  ``--workload all`` runs
every workload, each in its own process, and prints all their metrics.

favest is imported from ``src/`` of the checkout that holds this directory;
without it the run exits non-zero and prints no result.  Spans, the
environment and the summary of each run are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def import_favest():
    """Import favest from this checkout's src/; return (module, import seconds)."""
    if not (SRC / "favest" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no favest package at {SRC / 'favest'}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import favest
    elapsed = time.perf_counter() - start
    if Path(favest.__file__).resolve().parent != SRC / "favest":
        raise SystemExit(f"perfbench: imported favest from {favest.__file__}, not {SRC}")
    return favest, elapsed


def fresh_import_seconds(repeats: int) -> list[float]:
    """Times of ``import favest`` in fresh interpreters that have numpy loaded.

    A process imports favest once, so further samples of the import part of
    set-up come from child processes, each waited for.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; "
            "t = time.perf_counter(); import favest; print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                                 text=True, check=True, timeout=120).stdout)
            for _ in range(repeats)]


def _blas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(values) * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(values, p))
    return None


def is_traced(i: int) -> bool:
    """Whether operation i of a traced run is traced."""
    return i % 4 in (2, 3)


def expected_wall(walls: dict[bool, list[float]], traced_op: bool) -> float:
    """Predicted wall time of the next operation, from earlier ones of its kind."""
    same = walls[traced_op]
    return statistics.median(same if same else walls[not traced_op])


def measure(workload, seed: int, seconds: float, traced: bool) -> dict:
    """Set up, then run operations closed-loop for about ``seconds`` seconds.

    Set-up is repeated SETUP_REPEATS times and its median reported.  The
    first operation is a warm-up: it is checked, but its time enters no
    timing metric.  In a traced run, operations i with i % 4 in (2, 3) are
    traced and the others are not, so the first timed operation is untraced
    and both kinds see both rules of the certify workload.
    """
    trace = spans.Trace()
    probes = spans.Probes(trace) if traced else None
    setup_times = []
    for rep in range(SETUP_REPEATS):
        trace.op_id = f"setup-{rep}"
        start = time.perf_counter()
        workload.setup(seed, trace)
        setup_times.append(time.perf_counter() - start)

    op_times = {False: [], True: []}  # by whether the operation was traced
    errors: list[str] = []
    failed_ops: list[int] = []
    walls = {False: [], True: []}  # wall time of each operation with its check and replay
    attempted = 0
    loop_start = time.perf_counter()
    warmup = 1
    min_ops = 3 if traced else 2
    while attempted < min_ops or (
        time.perf_counter() - loop_start + expected_wall(walls, traced and is_traced(attempted))
        <= seconds
    ):
        i = attempted
        attempted += 1
        traced_op = traced and is_traced(i)
        wall_start = time.perf_counter()
        inputs = workload.prepare(i)
        error = None
        if traced_op:
            probes.install()
        try:
            with trace.operation(f"op-{i}") as op_sid:
                outputs = workload.run(inputs, trace)
        except Exception:
            error = traceback.format_exc()
        finally:
            if traced_op:
                probes.uninstall()
        if i >= warmup:
            op_times[traced_op].append(trace.spans[op_sid].duration)
        if error is None:
            error = workload.check(inputs, outputs)
        if error is None and traced_op:
            try:
                probes.replay()
                trace.measure_allocations(op_sid)
            except Exception:
                error = "replay: " + traceback.format_exc()
        if error is not None:
            errors.append(f"op {i}: {error}")
            failed_ops.append(i)
            print(f"perfbench: {workload.name} op {i} failed: {error}", file=sys.stderr)
        walls[traced_op].append(time.perf_counter() - wall_start)

    all_ops = op_times[False] + op_times[True]
    timed_ids = {f"op-{i}" for i in range(warmup, attempted)}
    timed_failed = sum(1 for i in failed_ops if i >= warmup)
    summary = {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "warmup_ops": warmup,
        "setup_repeats_s": setup_times,
        "op_s": all_ops,
        "ops_per_s": (len(all_ops) - timed_failed) / sum(all_ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for short, name in (("fwd", "transforms.forward_favest"), ("adj", "transforms.adjoint_favest")):
        summary[f"{short}_s"] = [s.duration for s in trace.spans
                                 if s.name == name and s.kind == "call" and s.op in timed_ids]
    if traced:
        traced_ids = {f"op-{i}" for i in range(attempted) if is_traced(i)}
        setup_ids = {f"setup-{rep}" for rep in range(SETUP_REPEATS)}
        layers = spans.per_layer_metrics(trace, traced_ids | setup_ids, probes.absent)
        layers["trace.overhead_s"] = (statistics.median(op_times[True])
                                      - statistics.median(op_times[False]))
        summary["per_layer"] = layers
        summary["absent"] = sorted(probes.absent)
    summary["spans"] = trace.as_records()
    return summary


def end_to_end(summary: dict, import_s: list[float]) -> dict:
    return {
        "setup_s": statistics.median(import_s) + statistics.median(summary["setup_repeats_s"]),
        "op_p50_s": statistics.median(summary["op_s"]),
        "ops_per_s": summary["ops_per_s"],
        "peak_rss_mb": summary["peak_rss_mb"],
    }


def print_end_to_end(summary: dict, metrics: dict) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {E2E_UNITS[name]}")
    for short in ("fwd", "adj", "op"):
        values = summary[f"{short}_s"]
        if not values:
            continue
        if short != "op":
            print(f"{short}_p50_s = {statistics.median(values):.6g} s (n={len(values)})")
        tail = _tail(values)
        if tail is None:
            print(f"{short}_tail_s omitted: n={len(values)}, too few samples for a tail")
        else:
            print(f"{short}_tail_s = {tail[1]:.6g} s (p{tail[0]:g}, n={len(values)})")
    print(f"fail_ratio = {summary['failed'] / summary['attempted']:.6g} "
          f"({summary['failed']}/{summary['attempted']})")


def run_one(args, sizes: workloads.Sizes = workloads.FULL) -> int:
    fv, own_import_s = import_favest()
    env = environment(args.seed)
    workload = workloads.WORKLOADS[args.workload](fv, sizes)
    summary = measure(workload, args.seed, args.seconds, bool(args.trace))
    import_s = [own_import_s]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        units = {name: unit for name, unit, _, _ in spans.PER_LAYER}
        units["trace.overhead_s"] = "s"
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in summary["per_layer"].items()}
        for name, m in metrics.items():
            shown = "absent" if m["value"] is None else f"{m['value']:.6g} {m['unit']}"
            print(f"{name} = {shown}")
    else:
        import_s += fresh_import_seconds(SETUP_REPEATS - 1)
        values = end_to_end(summary, import_s)
        print_end_to_end(summary, values)
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "args": vars(args), "import_s": import_s, "result": result, **summary}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
