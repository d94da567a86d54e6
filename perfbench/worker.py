"""Workload process: runs CLI commands in-process, one at a time.

Usage: python3 perfbench/worker.py ROOT

ROOT is the checkout whose ``src/floquet_avg`` is imported; nothing is
taken from an installed copy.  Requests arrive as JSON lines on stdin and
each gets one JSON line back on stdout:

    {"op": "run", "argv": [...]}  -> {"rc", "out", "err", "ms", "cpu_ms",
                                      "probe_ms", "started_cpu_s"}
    {"op": "trace"}               -> {"traced": [...]}, installs the tracer
    {"op": "stats"}               -> {"trace": ..., "peak_rss_kb", "env"}

The command's stdout and stderr are captured; ``ms`` is the wall time of
``floquet_avg.cli.main`` alone and ``cpu_ms`` the CPU time this process
(every thread, the ``scan`` pool included) spent in it.  ``probe_ms``
holds the host-speed probe taken just before and just after the command,
and ``started_cpu_s`` the CPU time the process had used when the request
arrived.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from floquet_avg import cli  # noqa: E402

    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"floquet_avg imported from {where}, not from {src}")
    return cli


def _env() -> dict:
    import importlib.util

    import numpy

    kernels = sys.modules.get("floquet_avg._kernels")
    scan = sys.modules["floquet_avg.scan"]
    return {
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "using_numba": getattr(kernels, "USING_NUMBA", None),
        "scan_threads": scan._resolve_threads(None),
        "affinity": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
    }


PROBE_STEPS = 500


def _probe() -> float:
    """Host speed: median CPU ms of three runs of a fixed numpy loop that
    uses no program code.

    It is small-matrix numpy called from Python, like the program's own
    hot loops, so a host that does less per CPU second (a busy hyperthread
    sibling, a lower clock) slows both alike.
    """
    import numpy

    a = numpy.array([[0.5, -0.25], [0.125, 0.75]])
    one = numpy.eye(2)
    times = []
    for _ in range(3):
        m = one
        c0 = time.process_time()
        for _ in range(PROBE_STEPS):
            m = a @ m + one
        times.append((time.process_time() - c0) * 1e3)
    return sorted(times)[1]


def _run(cli, argv) -> dict:
    started = time.process_time()
    before = _probe()
    out, err = io.StringIO(), io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a dead worker
        rc = 1
        err.write(traceback.format_exc())
    ms = (time.perf_counter() - t0) * 1e3
    cpu_ms = (time.process_time() - c0) * 1e3
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "ms": ms, "cpu_ms": cpu_ms,
            "probe_ms": [before, _probe()], "started_cpu_s": started}


def main(root: str) -> int:
    cli = _import_program(root)
    tracer = None
    reply = sys.stdout
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "run":
            res = _run(cli, req["argv"])
        elif op == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            res = {"traced": tracer.install()}
        elif op == "stats":
            res = {
                "trace": tracer.snapshot() if tracer is not None else None,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "env": _env(),
            }
        else:
            raise ValueError(f"unknown request {op!r}")
        reply.write(json.dumps(res) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
