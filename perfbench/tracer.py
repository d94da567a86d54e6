"""Function-level tracer for the floquet_avg modules.

The tracer wraps every public function of every ``floquet_avg`` module and
rebinds each namespace that holds one, because functions are imported by
name across modules (``scan.exact_monodromy_pc``, ``smallmat.matexp_core``).
A name the per-layer metrics depend on that cannot be found raises
``TraceError`` instead of reporting a silent zero.

Per function it keeps the call count, inclusive time and self time (the
span minus the part of it covered by traced callees).  Calls made on a
worker thread with no traced caller of their own are children of the span
open on the main thread, so ``scan_region`` self time excludes the cells
its thread pool evaluates.  A few functions also feed work counters
(squarings, RK4 steps, polynomial degree, margin evaluations); the time to
record those is excluded from every self time.
"""

import sys
import threading
from collections import defaultdict
from time import perf_counter

PACKAGE = "floquet_avg"

# (module, name) pairs the per-layer metrics are derived from
REQUIRED = (
    ("cli", "main"),
    ("scan", "point_report"),
    ("scan", "scan_region"),
    ("scan", "bisect_boundary"),
    ("pendulum", "jacobians"),
    ("pendulum", "series_split"),
    ("pendulum", "order4_root"),
    ("averaging", "run_recursion"),
    ("averaging", "standard_form"),
    ("averaging", "assemble_monodromy"),
    ("ppoly", "pp_mul"),
    ("ppoly", "pp_add"),
    ("ppoly", "pp_sub"),
    ("ppoly", "pp_antiderivative"),
    ("exactmono", "exact_monodromy_pc"),
    ("exactmono", "exact_monodromy_rk"),
    ("_kernels", "matexp_core"),
    ("_kernels", "rk4_monodromy_core"),
    ("smallmat", "matexp"),
    ("stability", "classify"),
    ("stability", "margin_exact"),
    ("stability", "det_series_expansion"),
)


class TraceError(RuntimeError):
    """A function the per-layer metrics need is not where the tracer looks."""


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _squarings(m, t) -> int:
    """Squarings matexp_core performs: halve ||m t||_1 until it is <= 0.5."""
    total = 0.0
    n = len(m)
    for j in range(n):
        total = max(total, sum(abs(float(m[i][j]) * t) for i in range(n)))
    s = 0
    while total > 0.5:
        total *= 0.5
        s += 1
    return s


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = None

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is self._main:
                self._main_stack = stack
        return stack

    def _wrap(self, qualname, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # frame: [name, same-thread child time, cross-thread child intervals]
            frame = [qualname, 0.0, []]
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                busy = frame[1] + _union_length(frame[2])
                with tracer._lock:
                    tracer.calls[qualname] += 1
                    tracer.total[qualname] += t1 - t0
                    tracer.self_time[qualname] += t1 - t0 - busy
                    if observe is not None:
                        observe(tracer, stack, args, kwargs, result, t1 - t0)
                t2 = perf_counter()
                if stack:
                    stack[-1][1] += t2 - t0
                else:
                    main = tracer._main_stack
                    if main and stack is not main:
                        with tracer._lock:
                            main[-1][2].append((t0, t2))

        traced.__wrapped__ = fn
        traced.traced_name = qualname
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation -----------------------------------------------------

    def install(self, required=REQUIRED):
        """Wrap every public function of the package and rebind all aliases."""
        modules = {name[len(PACKAGE) + 1:]: mod for name, mod in list(sys.modules.items())
                   if name.startswith(PACKAGE + ".") and mod is not None}
        missing = [f"{m}.{n}" for m, n in required
                   if m not in modules or not callable(getattr(modules[m], n, None))]
        if missing:
            raise TraceError(f"traced names not found: {', '.join(missing)}")
        # the program's own rule for scan_region's thread count, used by busy_frac
        self.resolve_threads = getattr(modules["scan"], "_resolve_threads", None)
        if not callable(self.resolve_threads):
            raise TraceError("traced names not found: scan._resolve_threads")
        wrappers = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or id(obj) in wrappers):
                    continue
                qual = f"{short}.{name}"
                observe = _observe_ppoly if short == "ppoly" else OBSERVERS.get(qual)
                wrappers[id(obj)] = (obj, self._wrap(qual, obj, observe))
        # private aliases stay unwrapped, so a kernel's internal helpers run untraced
        for mod in list(modules.values()) + [sys.modules[PACKAGE]]:
            for name, obj in list(vars(mod).items()):
                hit = None if name.startswith("_") else wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        traced = sorted(w.traced_name for _, w in wrappers.values())
        unwrapped = [f"{m}.{n}" for m, n in required if f"{m}.{n}" not in traced]
        if unwrapped:  # e.g. a re-export whose home module is elsewhere
            raise TraceError(f"traced names not defined where expected: {', '.join(unwrapped)}")
        return traced

    def snapshot(self) -> dict:
        with self._lock:
            return {"calls": dict(self.calls), "total_s": dict(self.total),
                    "self_s": dict(self.self_time), "counters": dict(self.counters)}


def _union_length(intervals) -> float:
    if not intervals:
        return 0.0
    total = 0.0
    cur_lo, cur_hi = None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return total + (cur_hi - cur_lo)


# -- work counters ----------------------------------------------------------
# observers run under the tracer lock with the caller's arguments

def _observe_matexp(tracer, stack, args, kwargs, result, elapsed):
    tracer.counters["smallmat.matexp.squarings"] += _squarings(
        _arg(args, kwargs, 0, "m"), float(_arg(args, kwargs, 1, "t")))


def _observe_rk4(tracer, stack, args, kwargs, result, elapsed):
    coeffs = _arg(args, kwargs, 1, "coeffs")
    steps = coeffs.shape[0] * int(_arg(args, kwargs, 2, "steps_per_piece"))
    n, terms = coeffs.shape[1], coeffs.shape[3]
    # four n x n products, three Horner evaluations, stage and Kahan updates
    flops = 8 * n ** 3 + 3 * 2 * n * n * (terms - 1) + 18 * n * n
    tracer.counters["_kernels.rk4_monodromy_core.steps"] += steps
    tracer.counters["_kernels.rk4_monodromy_core.flops"] += steps * flops


def _observe_recursion(tracer, stack, args, kwargs, result, elapsed):
    order = int(_arg(args, kwargs, 2, "order"))
    tracer.counters[f"averaging.run_recursion.o{order}.calls"] += 1
    tracer.counters[f"averaging.run_recursion.o{order}.s"] += elapsed


def _observe_margin(tracer, stack, args, kwargs, result, elapsed):
    if any(frame[0] == "scan.bisect_boundary" for frame in stack):
        tracer.counters["scan.bisect_boundary.evals"] += 1


def _observe_scan_region(tracer, stack, args, kwargs, result, elapsed):
    threads = tracer.resolve_threads(_arg(args, kwargs, 4, "threads"))
    tracer.counters["scan.scan_region.thread_s"] += elapsed * threads


def _observe_ppoly(tracer, stack, args, kwargs, result, elapsed):
    degree = getattr(result, "max_degree", None)
    if degree is not None and degree > tracer.counters["ppoly.max_degree"]:
        tracer.counters["ppoly.max_degree"] = degree


OBSERVERS = {
    "smallmat.matexp": _observe_matexp,
    "_kernels.rk4_monodromy_core": _observe_rk4,
    "averaging.run_recursion": _observe_recursion,
    "stability.margin_exact": _observe_margin,
    "scan.scan_region": _observe_scan_region,
}
