"""floquet-avg benchmark: four CLI workloads in a closed loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload chart-exact --seed 1 --seconds 20 --trace 0

One client drives one workload process (perfbench/worker.py) that runs
``floquet_avg.cli.main`` in-process; the next command is sent only when
the previous one has returned.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs a fixed seeded command list once untraced and
once under the tracer and reports the per-layer metrics.  End-to-end
timings are the CPU time the workload process spends in ``cli.main``
(every thread), scaled by a host-speed probe taken beside each command
(see ``normalised``); raw CPU and wall-clock figures are recorded beside
them.  Every output is
checked against references that do not share the code under test
(perfbench/checks.py).  The last line of stdout is the JSON result; the
lines before it record the environment and a readable metric table.
"""

import argparse
import json
import math
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

OP_TIMEOUT_S = 30.0  # a command running longer than this counts as failed
RUN_BUDGET_S = 150.0  # after this, commands fail unsent, so a run ends within 180 s
SETUPS = 7  # fresh workload processes timed per run; one more warms caches first
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it

# commands per second of --seconds in the traced run (each list is run twice)
TRACE_RATE = {"chart-exact": 0.3, "chart-averaged": 1.5, "boundaries": 1.2, "reports": 9.0}

END_TO_END_UNITS = {"items_per_norm_s": "1/s", "call_norm_p50_ms": "ms", "call_norm_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# CPU ms of the workload process's probe loop (worker._probe) on the 2-vCPU
# Xeon VM the benchmark was tuned on, while that host was quiet.
REF_PROBE_MS = 0.60


class WorkerTimeout(Exception):
    pass


class WorkerDied(Exception):
    pass


class Worker:
    """One workload process speaking JSON lines over its stdin and stdout.

    The process is pinned to one CPU from its start (before numpy loads, so
    OpenBLAS sizes its pool to that CPU).  ``scan``'s pool threads then hand
    the GIL over on one core; across two cores, what a hand-off costs swings
    with whatever else the host runs on the other one.
    """

    def __init__(self, env):
        cpu = max(os.sched_getaffinity(0))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        self._buf = b""
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)

    def request(self, req, timeout=OP_TIMEOUT_S):
        try:
            self.proc.stdin.write((json.dumps(req) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerDied("workload process exited") from exc
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not self._sel.select(left):
                raise WorkerTimeout(f"no reply within {timeout:g} s")
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise WorkerDied(f"workload process exited with {self.proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        """End the process: EOF first, a kill if it does not exit."""
        self._sel.close()
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def kill(self):
        self.proc.kill()
        self.close()


# ---------------------------------------------------------------------------
# environment

def worker_env() -> dict:
    env = dict(os.environ)
    allowed = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > allowed:
        env["FLOQUET_AVG_THREADS"] = str(allowed)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, worker_info) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "worker_affinity": worker_info.get("affinity"),
        "scan_threads": worker_info.get("scan_threads"),
        "numba_importable": worker_info.get("numba_importable"),
        "using_numba": worker_info.get("using_numba"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
    }


# ---------------------------------------------------------------------------
# running commands

class Session:
    """Runs commands for one workload and keeps the outcome of each."""

    def __init__(self, workload, seed, env, tmp):
        self.workload = workload
        self.env = env
        self.tmp = tmp
        self.rng = np.random.default_rng([seed, 7])
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.worker = None
        self.timeout = OP_TIMEOUT_S
        self.budget_end = time.monotonic() + RUN_BUDGET_S

    def spawn(self):
        self.worker = Worker(self.env)

    def restart(self):
        self.worker.kill()
        self.spawn()

    def run(self, cmd):
        """Send one command; return (reply or None, ok)."""
        self.attempted += 1
        left = self.budget_end - time.monotonic()
        if left <= 0:
            self.fail(cmd, "run budget exhausted")
            return None, False
        try:
            reply = self.worker.request({"op": "run", "argv": cmd.argv}, min(self.timeout, left))
        except (WorkerTimeout, WorkerDied) as exc:
            self.fail(cmd, str(exc))
            self.restart()
            return None, False
        if reply["rc"] != 0:
            self.fail(cmd, f"exit {reply['rc']}: {reply['err'].strip()[-300:]}")
            return reply, False
        return reply, True

    def check(self, cmd, reply):
        found = checks.check(cmd, reply["out"], self.rng)
        if found:
            self.fail(cmd, "; ".join(found[:3]))
        return not found

    def fail(self, cmd, why):
        self.failed += 1
        self.problems.append(f"{' '.join(cmd.argv)}: {why}")

    def close(self):
        if self.worker is not None:
            self.worker.close()
            self.worker = None


def normalised(reply, cpu_ms):
    """CPU ms scaled to the reference host speed.

    The host this runs on can do half as much per CPU second for tens of
    seconds at a time (a busy hyperthread sibling, a lower clock), which
    CPU time alone does not hide.  The probe loop beside each command slows
    alike, so the ratio of the two holds still.
    """
    return cpu_ms * REF_PROBE_MS / statistics.fmean(reply["probe_ms"])


def measure_setup(session, seed):
    """Median normalised, CPU and wall seconds for a fresh process to start,
    import the program and answer its first command."""
    first = workloads.first_command(session.workload, seed, session.tmp)
    norm, cpu, wall = [], [], []
    for i in range(SETUPS + 1):
        if session.worker is not None:
            session.close()
        t0 = time.perf_counter()
        session.spawn()
        reply, ok = session.run(first)
        elapsed = time.perf_counter() - t0
        if not ok:
            continue
        session.check(first, reply)
        used_ms = reply["started_cpu_s"] * 1e3 + reply["cpu_ms"]
        if i > 0:
            norm.append(normalised(reply, used_ms) / 1e3)
            cpu.append(used_ms / 1e3)
            wall.append(elapsed)
    if not norm:
        raise SystemExit("no set-up command completed: " + "; ".join(session.problems[:3]))
    return statistics.median(norm), statistics.median(cpu), statistics.median(wall)


def tail(latencies):
    """(percentile, value): the highest ladder percentile with ten samples beyond it."""
    n = len(latencies)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            return p, float(np.percentile(latencies, p))
    return 100.0, float(max(latencies))


def end_to_end(session, args):
    setup_s, setup_cpu_s, setup_wall_s = measure_setup(session, args.seed)
    cmds = workloads.stream(args.workload, args.seed, session.tmp)
    done = []
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    while time.perf_counter() < deadline:
        cmd = next(cmds)
        reply, ok = session.run(cmd)
        if ok:
            done.append((cmd, reply))
    wall = time.perf_counter() - t0
    stats = session.worker.request({"op": "stats"})
    correct = [(cmd, reply) for cmd, reply in done if session.check(cmd, reply)]
    if not correct:
        raise SystemExit("no command completed correctly: " + "; ".join(session.problems[:3]))
    items = sum(cmd.items for cmd, _ in correct)
    norm = [normalised(reply, reply["cpu_ms"]) for _, reply in done]
    p_tail, v_tail = tail(norm)
    metrics = {
        "items_per_norm_s": items / (sum(normalised(r, r["cpu_ms"]) for _, r in correct) / 1e3),
        "call_norm_p50_ms": float(np.percentile(norm, 50.0)),
        "call_norm_tail_ms": v_tail,
        "setup_s": setup_s,
        "peak_rss_mb": stats["peak_rss_kb"] / 1024.0,
    }
    probes = [p for _, reply in done for p in reply["probe_ms"]]
    notes = {"calls": len(norm), "tail_percentile": p_tail, "items": items, "wall_s": wall,
             "cpu_items_per_s": items / (sum(r["cpu_ms"] for _, r in correct) / 1e3),
             "wall_items_per_s": items / (sum(r["ms"] for _, r in correct) / 1e3),
             "setup_cpu_s": setup_cpu_s, "setup_wall_s": setup_wall_s,
             "probe_ms_min_p50_max": [min(probes), statistics.median(probes), max(probes)],
             "fail_frac": session.failed / session.attempted}
    return metrics, notes, stats["env"]


def traced(session, args):
    session.spawn()
    first = workloads.first_command(args.workload, args.seed, session.tmp)
    reply, ok = session.run(first)  # warm-up, so the untraced pass is not the first
    if ok:
        session.check(first, reply)
    cycle = workloads.CYCLE[args.workload]
    n = cycle * max(1, math.ceil(args.seconds * TRACE_RATE[args.workload] / cycle))
    stream = workloads.stream(args.workload, args.seed, session.tmp)
    cmds = [next(stream) for _ in range(n)]
    passes = []
    for with_trace in (False, True):
        if with_trace:
            session.worker.request({"op": "trace"})
        outs = []
        for cmd in cmds:
            reply, ok = session.run(cmd)
            outs.append(reply if ok else None)
        passes.append(outs)
    stats = session.worker.request({"op": "stats"})
    for cmd, plain, trace in zip(cmds, *passes):
        if plain is None or trace is None:
            continue
        if plain["out"] != trace["out"]:
            session.fail(cmd, "traced output differs from the untraced output")
        else:
            session.check(cmd, trace)
    ms = [sum(r["ms"] for r in outs if r is not None) for outs in passes]
    items = sum(cmd.items for cmd in cmds)
    metrics = layers.per_layer(stats["trace"], items=items, untraced_ms=ms[0], traced_ms=ms[1])
    notes = {"commands": n, "items": items, "untraced_ms": ms[0], "traced_ms": ms[1],
             "fail_frac": session.failed / session.attempted}
    return metrics, notes, stats["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "floquet_avg" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = worker_env()
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    session = Session(args.workload, args.seed, env, str(tmp))
    try:
        if args.trace:
            metrics, notes, worker_info = traced(session, args)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            metrics, notes, worker_info = end_to_end(session, args)
            units = END_TO_END_UNITS
    finally:
        session.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    print(json.dumps({"env": environment(args, worker_info), "run": notes}))
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {units[name]}")
    for problem in session.problems[:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
