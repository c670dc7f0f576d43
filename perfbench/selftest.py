"""Self-test of the benchmark at tiny sizes (L=8, t=20); runs in seconds.

    python3 perfbench/selftest.py

Runs every workload's code path untraced and traced and checks the printed
result against BENCHMARK.json; checks that each workload's output check
rejects a corrupted output; that a probe whose function is gone reads as
absent instead of crashing the run; and that run.py fails without a result
when the checkout has no src/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import numbers
import shutil
import subprocess
import sys

import run
import spans
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_result(result: dict, spec: list[dict], absent=frozenset()) -> None:
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"run not clean: {result}")
    expect(sorted(result["metrics"]) == sorted(m["name"] for m in spec),
           f"metric names {sorted(result['metrics'])}")
    for m in spec:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{m['name']} unit {got['unit']} != {m['unit']}")
        if m["name"] in absent:
            expect(got["value"] is None, f"{m['name']} should be absent")
        else:
            expect(isinstance(got["value"], numbers.Real), f"{m['name']} = {got['value']!r}")


def run_tiny(name: str, trace: int) -> dict:
    args = argparse.Namespace(workload=name, seed=3, seconds=0.2, trace=trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.run_one(args, workloads.TINY)
    return json.loads(out.getvalue().strip().splitlines()[-1])


def corrupt(name: str, inputs, outputs):
    """A wrong output for each workload, which its check must reject."""
    if name == "certify-t140":
        defect, passed = outputs
        return (1e-7, passed) if inputs == 0 else (defect * (1 + 1e-6), passed)
    samples, back = outputs
    div = back.div.values.copy()
    div[-1] += 1e-6 * abs(div).max()
    return samples, type(back)(type(back.div)(back.lmax, div), back.curl)


def test_workloads() -> None:
    for name in workloads.WORKLOADS:
        check_result(run_tiny(name, 0), BENCH["end_to_end"])
        check_result(run_tiny(name, 1), BENCH["per_layer"])
        record = json.loads((run.OUT / f"{name}-seed3-trace1.json").read_text())
        expect(all({"name", "start", "end", "parent", "op"} <= set(s) for s in record["spans"])
               and any(s["kind"] == "replay" for s in record["spans"]), f"{name} spans")
        expect(record["env"]["seed"] == 3 and record["env"]["numpy"], f"{name} env")
        print(f"ok  {name}: untraced and traced runs")


def test_checks_reject_bad_output(fv) -> None:
    for name, cls in workloads.WORKLOADS.items():
        w = cls(fv, workloads.TINY)
        trace = spans.Trace()
        w.setup(5, trace)
        for i in range(2):
            inputs = w.prepare(i)
            outputs = w.run(inputs, trace)
            expect(w.check(inputs, outputs) is None, f"{name} op {i} rejected a good output")
            expect(w.check(inputs, corrupt(name, inputs, outputs)) is not None,
                   f"{name} op {i} accepted a corrupted output")
    print("ok  every check rejects a corrupted output")


def test_absent_probe(fv) -> None:
    coupling = sys.modules["favest.coupling"]
    saved = coupling.build_adjoint_coupling
    del coupling.build_adjoint_coupling
    try:
        result = run_tiny("grid-L256", 1)
    finally:
        coupling.build_adjoint_coupling = saved
    check_result(result, BENCH["per_layer"], absent={"coupling.build_adjoint_coupling_s"})
    print("ok  a missing probe reads as absent")


def test_fails_without_src() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*BENCH["command"], "--workload", "grid-L256", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "run.py succeeded without src/")
    expect('"correct"' not in proc.stdout, "run.py printed a result without src/")
    print("ok  run.py fails without src/")


def main() -> int:
    fv, _ = run.import_favest()
    test_workloads()
    test_checks_reject_bad_output(fv)
    test_absent_probe(fv)
    test_fails_without_src()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
