"""Self-test of the benchmark harness.

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. Runs every workload at its smallest size, untraced and traced, and
   prints every metric name with its unit; the names must match
   BENCHMARK.json and no operation may fail.
2. Corrupts real outputs (one flipped verdict, one shifted root, one bad
   JSON determinant) and requires the output checks to catch each.
3. Requires zero traced calls where the layer map predicts a bypass and
   non-zero calls where it predicts work.
4. Requires a command over its time limit to count as failed, and the
   tracer to fail loudly on a missing name.
5. Requires the benchmark to exit non-zero, printing no result, in a
   directory holding only BENCHMARK.json and perfbench/.

Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys

import numpy as np

import run
import workloads
from checks import check

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RESULTS = []


def expect(ok, name, detail=""):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")


def bench(workload, trace, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(cwd), timeout=180)
    return proc


def smallest_runs():
    traced = {}
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(workload, trace)
            if proc.returncode != 0:
                expect(False, f"{workload} trace={trace} runs", proc.stderr[-500:])
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            for name, m in res["metrics"].items():
                print(f"  {workload:15s} {name:48s} {m['value']:>14.6g} {m['unit']}")
            expect(got == want, f"{workload} trace={trace} prints every {key} metric with its unit",
                   f"got {sorted(got)}")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{workload} trace={trace} has no failed operation", str(res)[:300])
            if trace:
                traced[workload] = {name: m["value"] for name, m in res["metrics"].items()}
    return traced


def bypasses(traced):
    zero = [
        ("chart-averaged", "smallmat.matexp.calls"),
        ("chart-averaged", "kernels.matexp_core.us_per_call"),
        ("chart-exact", "kernels.rk4_monodromy_core.steps"),
        ("chart-averaged", "kernels.rk4_monodromy_core.steps"),
        ("boundaries", "kernels.rk4_monodromy_core.steps"),
        ("chart-exact", "ppoly.pp_mul.calls"),
        ("chart-exact", "ppoly.calls_per_cell"),
        ("boundaries", "ppoly.pp_mul.calls"),
        ("boundaries", "ppoly.calls_per_cell"),
    ]
    work = [
        ("chart-exact", "smallmat.matexp.calls"),
        ("boundaries", "smallmat.matexp.calls"),
        ("reports", "kernels.rk4_monodromy_core.steps"),
        ("chart-averaged", "ppoly.pp_mul.calls"),
        ("reports", "ppoly.pp_mul.calls"),
        ("chart-exact", "scan.point_report.calls"),
        ("chart-averaged", "scan.point_report.calls"),
        ("boundaries", "stability.margin_exact.calls"),
        ("boundaries", "scan.bisect_boundary.evals_per_root"),
    ]
    for workload, name in zero:
        value = traced.get(workload, {}).get(name)
        expect(value == 0, f"{workload} bypasses {name}", f"value {value}")
    for workload, name in work:
        value = traced.get(workload, {}).get(name)
        expect(value is not None and value > 0, f"{workload} does work in {name}", f"value {value}")


def corrupted_outputs():
    rng = np.random.default_rng(0)
    tmp = run.ROOT / ".perfbench_tmp" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    session = run.Session("chart-averaged", 1, run.worker_env(), str(tmp))
    session.spawn()
    try:
        scan = next(workloads.stream("chart-averaged", 1, str(tmp)))
        bound = next(c for c in workloads.stream("boundaries", 1, str(tmp)) if c.kind == "boundary")
        report = next(workloads.stream("reports", 1, str(tmp)))
        outs = {}
        for cmd in (scan, bound, report):
            reply, ok = session.run(cmd)
            outs[cmd.kind] = reply["out"] if ok else ""
            expect(ok and not check(cmd, reply["out"], rng), f"real {cmd.kind} output passes its checks")

        lines = outs["scan"].splitlines()
        fields = lines[1].split(",")
        fields[4] = "unstable" if fields[4] != "unstable" else "stable"
        flipped = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
        expect(bool(check(scan, flipped, rng)), "flipped verdict is caught")

        lines = outs["boundary"].splitlines()
        fields = lines[1].split(",")
        fields[1] = repr(float(fields[1]) + 1e-6)
        shifted = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
        expect(bool(check(bound, shifted, rng)), "shifted root is caught")

        doc = json.loads(outs["analyze"])
        doc["exact_rk"]["determinant"] *= 1.0 + 1e-4
        expect(bool(check(report, json.dumps(doc), rng)), "bad JSON determinant is caught")

        session.timeout = 2.0
        hang = workloads.Command("boundary", ["boundary", "--omega", "0.2:0.2:1", "--beta", "0.1",
                                              "--branch", "n", "--tol", "1e-20"], 1)
        before = session.failed
        reply, ok = session.run(hang)
        expect(not ok and session.failed == before + 1, "a command past its time limit counts as failed")
        reply, ok = session.run(scan)
        expect(ok, "the replacement workload process answers the next command")
    finally:
        session.close()
        shutil.rmtree(tmp, ignore_errors=True)


def tracer_fails_loudly():
    sys.path.insert(0, str(run.ROOT / "src"))
    import floquet_avg.cli  # noqa: F401
    import tracer

    try:
        tracer.Tracer().install(tracer.REQUIRED + (("scan", "no_such_function"),))
        expect(False, "tracer rejects a missing traced name")
    except tracer.TraceError:
        expect(True, "tracer rejects a missing traced name")


def bare_directory():
    bare = run.ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("chart-exact", 0, cwd=bare)
        printed = proc.stdout.strip().splitlines()
        expect(proc.returncode != 0 and not any('"correct"' in line for line in printed),
               "without the program source the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    traced = smallest_runs()
    bypasses(traced)
    corrupted_outputs()
    tracer_fails_loudly()
    bare_directory()
    try:
        (run.ROOT / ".perfbench_tmp").rmdir()
    except OSError:
        pass
    print(f"{sum(RESULTS)} of {len(RESULTS)} self-test checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
