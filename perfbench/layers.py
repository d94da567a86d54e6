"""Per-layer metrics derived from a tracer snapshot.

Names follow ``<module>.<function>.<what>``; the ``_kernels`` module is
named ``kernels`` because metric names start with a letter.  A metric of
a function that made no calls reads 0.  Times are summed over the traced
pass, so ``self_ms`` values scale with the number of commands run.
"""


def _calls(s, f):
    return s["calls"].get(f, 0)


def _total(s, f):
    return s["total_s"].get(f, 0.0)


def _self(s, f):
    return s["self_s"].get(f, 0.0)


def _counter(s, name):
    return s["counters"].get(name, 0.0)


def _per_call(s, f, scale):
    n = _calls(s, f)
    return _total(s, f) * scale / n if n else 0.0


def _module_self(s, module):
    return sum(v for f, v in s["self_s"].items() if f.startswith(module + "."))


def _module_calls(s, module):
    return sum(v for f, v in s["calls"].items() if f.startswith(module + "."))


def _ratio(num, den):
    return num / den if den else 0.0


def _recursion(order):
    def metric(s, run):
        return _ratio(_counter(s, f"averaging.run_recursion.o{order}.s") * 1e3,
                      _counter(s, f"averaging.run_recursion.o{order}.calls"))
    return metric


MS, US = 1e3, 1e6
RK4 = "_kernels.rk4_monodromy_core"

# (name, unit, metric(snapshot, run)) with run = {items, untraced_ms, traced_ms}
PER_LAYER = (
    ("cli.main.calls", "count", lambda s, r: _calls(s, "cli.main")),
    ("cli.self_ms_per_call", "ms",
     lambda s, r: _ratio(_module_self(s, "cli") * MS, _calls(s, "cli.main"))),
    ("scan.point_report.calls", "count", lambda s, r: _calls(s, "scan.point_report")),
    ("scan.point_report.us_per_call", "us", lambda s, r: _per_call(s, "scan.point_report", US)),
    ("scan.scan_region.busy_frac", "ratio",
     lambda s, r: _ratio(_total(s, "scan.point_report"), _counter(s, "scan.scan_region.thread_s"))),
    ("scan.bisect_boundary.evals_per_root", "count",
     lambda s, r: _ratio(_counter(s, "scan.bisect_boundary.evals"), _calls(s, "scan.bisect_boundary"))),
    ("scan.self_ms", "ms", lambda s, r: _module_self(s, "scan") * MS),
    ("pendulum.jacobians.self_ms", "ms", lambda s, r: _self(s, "pendulum.jacobians") * MS),
    ("pendulum.series_split.self_ms", "ms", lambda s, r: _self(s, "pendulum.series_split") * MS),
    ("pendulum.order4_root.calls", "count", lambda s, r: _calls(s, "pendulum.order4_root")),
    ("averaging.run_recursion.o2.ms_per_call", "ms", _recursion(2)),
    ("averaging.run_recursion.o4.ms_per_call", "ms", _recursion(4)),
    ("averaging.run_recursion.o6.ms_per_call", "ms", _recursion(6)),
    ("averaging.standard_form.ms_per_call", "ms",
     lambda s, r: _per_call(s, "averaging.standard_form", MS)),
    ("averaging.assemble_monodromy.ms_per_call", "ms",
     lambda s, r: _per_call(s, "averaging.assemble_monodromy", MS)),
    ("ppoly.pp_mul.calls", "count", lambda s, r: _calls(s, "ppoly.pp_mul")),
    ("ppoly.pp_mul.self_ms", "ms", lambda s, r: _self(s, "ppoly.pp_mul") * MS),
    ("ppoly.pp_antiderivative.self_ms", "ms", lambda s, r: _self(s, "ppoly.pp_antiderivative") * MS),
    ("ppoly.pp_add_sub.self_ms", "ms",
     lambda s, r: (_self(s, "ppoly.pp_add") + _self(s, "ppoly.pp_sub")) * MS),
    ("ppoly.calls_per_cell", "count", lambda s, r: _ratio(_module_calls(s, "ppoly"), r["items"])),
    ("ppoly.max_degree", "count", lambda s, r: _counter(s, "ppoly.max_degree")),
    ("exactmono.exact_monodromy_pc.us_per_call", "us",
     lambda s, r: _per_call(s, "exactmono.exact_monodromy_pc", US)),
    ("exactmono.exact_monodromy_rk.ms_per_call", "ms",
     lambda s, r: _per_call(s, "exactmono.exact_monodromy_rk", MS)),
    ("kernels.matexp_core.us_per_call", "us", lambda s, r: _per_call(s, "_kernels.matexp_core", US)),
    ("kernels.rk4_monodromy_core.steps", "count", lambda s, r: _counter(s, RK4 + ".steps")),
    ("kernels.rk4_monodromy_core.ns_per_step", "ns",
     lambda s, r: _ratio(_total(s, RK4) * 1e9, _counter(s, RK4 + ".steps"))),
    ("kernels.rk4_monodromy_core.gflops_computed", "GFLOP/s",
     lambda s, r: _ratio(_counter(s, RK4 + ".flops") / 1e9, _total(s, RK4))),
    ("smallmat.matexp.calls", "count", lambda s, r: _calls(s, "smallmat.matexp")),
    ("smallmat.matexp.us_per_call", "us", lambda s, r: _per_call(s, "smallmat.matexp", US)),
    ("smallmat.matexp.self_us_per_call", "us",
     lambda s, r: _ratio((_total(s, "smallmat.matexp") - _total(s, "_kernels.matexp_core")) * US,
                         _calls(s, "smallmat.matexp"))),
    ("smallmat.matexp.mean_squarings", "count",
     lambda s, r: _ratio(_counter(s, "smallmat.matexp.squarings"), _calls(s, "smallmat.matexp"))),
    ("stability.classify.self_ms", "ms", lambda s, r: _self(s, "stability.classify") * MS),
    ("stability.margin_exact.calls", "count", lambda s, r: _calls(s, "stability.margin_exact")),
    ("stability.det_series_expansion.self_ms", "ms",
     lambda s, r: _self(s, "stability.det_series_expansion") * MS),
    ("trace.overhead_frac", "ratio", lambda s, r: _ratio(r["traced_ms"], r["untraced_ms"]) - 1.0),
)


def per_layer(snapshot, items, untraced_ms, traced_ms) -> dict:
    run = {"items": items, "untraced_ms": untraced_ms, "traced_ms": traced_ms}
    return {name: float(metric(snapshot, run)) for name, _, metric in PER_LAYER}
