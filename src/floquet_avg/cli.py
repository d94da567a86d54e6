"""Command-line front end.

Four subcommands: ``analyze`` (one parameter point, full report),
``scan`` (verdict grid as CSV), ``boundary`` (one boundary curve as CSV)
and ``compare`` (exact vs approximate boundary table as CSV).

Contract: data goes to stdout (or ``--output``), diagnostics to stderr.
Exit codes: 0 success, 2 validation failure (an unwritable ``--output``
included), 3 numeric range error or a range too large to allocate,
4 boundary tracing with more than 10% of samples omitted.  JSON numbers
carry 17 significant digits, CSV floats 12.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import averaging, pendulum, scan, stability
from .averaging import SeriesSystem
from .errors import FloquetError, ModelError, NumericRangeError
from .exactmono import RK_STEPS_DEFAULT, exact_monodromy_pc, exact_monodromy_rk
from .ppoly import PiecewisePolyMatrix

# model-file terms fill every order below the highest one, so the highest is capped
MAX_TERM_ORDER = 64

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_PARTIAL = 4


# ---------------------------------------------------------------------------
# model files

def load_model_file(path: str) -> SeriesSystem:
    """Custom model from JSON: period, nilpotent J0, graded polynomial terms."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("model file must hold a JSON object")
    name = doc.get("name", "custom")
    if name != "custom":
        raise ModelError(f"model files must declare name 'custom', got {name!r}")
    try:
        period = float(doc["period"])
        j0 = np.asarray(doc["J0"], dtype=float)
        raw_terms = doc["terms"]
    except KeyError as exc:
        raise ModelError(f"model file is missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"malformed model file: {exc}") from exc
    if not isinstance(raw_terms, list):
        raise ModelError("'terms' must be a list of term objects")
    by_order = {}
    for term in raw_terms:
        if not isinstance(term, dict):
            raise ModelError(f"each term must be a JSON object, got {type(term).__name__}")
        order = term.get("order")
        if not isinstance(order, int) or not 1 <= order <= MAX_TERM_ORDER:
            raise ModelError(
                f"term order must be an integer from 1 to {MAX_TERM_ORDER}, got {order!r}")
        if order in by_order:
            raise ModelError(f"duplicate term order {order}")
        by_order[order] = _term_to_ppoly(term, period)
    if not by_order:
        raise ModelError("model file declares no terms")
    top = max(by_order)
    dim = j0.shape[0] if j0.ndim == 2 else 0
    terms = tuple(
        by_order.get(k, PiecewisePolyMatrix.zero(dim, period))
        for k in range(1, top + 1)
    )
    return SeriesSystem(period, j0, terms)


def _term_to_ppoly(term, period: float) -> PiecewisePolyMatrix:
    pieces_doc = term.get("pieces")
    if not isinstance(pieces_doc, list) or not pieces_doc:
        raise ModelError("each term needs a non-empty 'pieces' list")
    pieces_doc = sorted(pieces_doc, key=lambda p: _piece_time(p, "t_start"))
    breaks = [0.0]
    blocks = []
    for piece in pieces_doc:
        t_start = _piece_time(piece, "t_start")
        t_end = _piece_time(piece, "t_end")
        if abs(t_start - breaks[-1]) > 1e-12 * period:
            raise ModelError(
                f"term pieces must tile [0, T] contiguously; gap at t = {t_start:g}"
            )
        blocks.append(_entries_block(_piece_field(piece, "entries")))
        breaks.append(t_end)
    if abs(breaks[-1] - period) > 1e-12 * period:
        raise ModelError(f"term pieces end at t = {breaks[-1]:g}, expected the period {period:g}")
    breaks[-1] = period
    return PiecewisePolyMatrix.from_blocks(period, np.asarray(breaks), blocks)


def _entries_block(entries) -> np.ndarray:
    """(n, n, d+1) coefficients from a square nested list of coefficient
    lists (ascending powers of t)."""
    n = len(entries) if isinstance(entries, list) else 0
    if n == 0 or not all(isinstance(row, list) and len(row) == n for row in entries):
        raise ModelError("entries must form a square matrix of coefficient lists")
    coeffs = [c for row in entries for c in row]
    if not all(isinstance(c, list) and c and all(_is_number(x) for x in c) for c in coeffs):
        raise ModelError("each entry must be a non-empty list of numbers")
    block = np.zeros((n, n, max(len(c) for c in coeffs)))
    try:
        for k, c in enumerate(coeffs):
            block[k // n, k % n, : len(c)] = c
    except OverflowError as exc:
        raise ModelError(f"malformed coefficient: {exc}") from None
    return block


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _piece_field(piece, key: str):
    if not isinstance(piece, dict):
        raise ModelError(f"each piece must be a JSON object, got {type(piece).__name__}")
    if key not in piece:
        raise ModelError(f"each piece needs 't_start', 't_end' and 'entries'; missing {key!r}")
    return piece[key]


def _piece_time(piece, key: str) -> float:
    try:
        return float(_piece_field(piece, key))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"piece {key!r} must be a number: {exc}") from None


# ---------------------------------------------------------------------------
# serialization helpers

def format_float(x: float, digits: int = 17) -> str:
    if math.isnan(x):
        return "NaN"
    return format(float(x), f".{digits}g")


def dumps_json(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits (round-trip exact)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {dumps_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if flat:
            return "[" + ", ".join(dumps_json(v) for v in seq) + "]"
        items = [inner + dumps_json(v, indent + 1) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _matrix_list(m) -> list:
    return [[float(x) for x in row] for row in np.asarray(m)]


def _report_dict(report: stability.StabilityReport, f=None) -> dict:
    doc = {
        "trace": report.trace,
        "determinant": report.determinant,
        "multipliers": [{"re": r.real, "im": r.imag} for r in report.multipliers],
        "margin_trace": report.margin_trace,
        "margin_det": report.margin_det,
        "verdict": report.verdict.value,
    }
    if f is not None:
        doc["F"] = _matrix_list(f)
    return doc


def _write_output(text: str, path):
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ModelError(f"cannot write output: {exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(args) -> int:
    if not 1 <= args.order <= averaging.MAX_ORDER:
        raise ModelError(f"--order must be from 1 to {averaging.MAX_ORDER}, got {args.order}")
    stability.check_tolerance(args.tolerance)
    # a report's three inputs: the table, its monomials' values and J(t)
    params = None
    if args.model_file:
        sys_ = load_model_file(args.model_file)
        # a model file has no parameters: its table is built here and not kept
        table = averaging.system_table(sys_, args.order)
        values = np.ones((len(table.A), 1))
        total = averaging.series_total(sys_)
    elif args.model == pendulum.MODEL_NAME:
        for name in ("omega", "eps", "beta"):
            if getattr(args, name) is None:
                raise ModelError(f"--{name} is required for model '{pendulum.MODEL_NAME}'")
        params = pendulum.PendulumParams(args.omega, args.eps, args.beta)
        table = pendulum.averaged_table(args.order)
        values = pendulum.monomial_values([params.omega], [params.eps], params.beta, args.order)
        total = pendulum.jacobians(params)
    else:
        raise ModelError(
            f"unknown model {args.model!r}; the built-in model is {pendulum.MODEL_NAME!r}")

    avg = averaging.evaluate_table(table, values).cell(0)
    f_approx, traces, det_trunc = stability.monodromy_approximation(table, values)
    det_full = stability.det_series(table.trace_j0, avg)

    doc = {
        "model": "custom" if args.model_file else pendulum.MODEL_NAME,
        "params": None,
        "order": args.order,
        "period": total.period,
        "tolerance": args.tolerance,
        "A": [_matrix_list(a) for a in avg.A],
        "closure_residuals": list(avg.closure_residuals),
        "trace_by_order": [float(t[0]) for t in traces[:-1]],
        "det_series": det_full,
        "det_series_truncated": float(det_trunc[0]),
        "F0": _matrix_list(table.F0),
        "F_approx": _matrix_list(f_approx[0]),
    }
    if params is not None:
        doc["params"] = {"omega": params.omega, "eps": params.eps, "beta": params.beta}
    if total.dim == 2:
        doc["approx"] = _report_dict(
            stability.report_from_trace_det(float(traces[-1][0]), float(det_trunc[0]),
                                            args.tolerance)
        )
        doc["multipliers_approx"] = doc["approx"]["multipliers"]
    else:
        doc["approx"] = None

    # the exponential products need degree 0
    doc["exact_pc"] = _exact_pc_report(total, args.tolerance) if total.max_degree == 0 else None
    f_rk = exact_monodromy_rk(total, args.rk_steps)
    doc["exact_rk"] = (_report_dict(stability.classify(f_rk, args.tolerance), f_rk)
                       if total.dim == 2 else {"F": _matrix_list(f_rk)})

    if args.format == "json":
        _write_output(dumps_json(doc) + "\n", args.output)
    else:
        _write_output(_render_text(doc), args.output)
    return EXIT_OK


def _exact_pc_report(total: PiecewisePolyMatrix, tolerance: float) -> dict:
    """The exponential-product oracle's report on a degree-0 J(t); a 2x2
    report takes tr F and Liouville's det F from :func:`stability.pc_monodromy`,
    as exact-pc scan cells do, not f00 f11 - f01 f10 of the F it prints."""
    if total.dim != 2:
        return {"F": _matrix_list(exact_monodromy_pc(total))}
    f, trace, det = stability.pc_monodromy(np.diff(total.breakpoints), total.coeffs[None, ..., 0])
    report = stability.report_from_trace_det(float(trace[0]), float(det[0]), tolerance)
    return _report_dict(report, f[0])


def _render_text(doc, prefix="") -> str:
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.append(_render_text(value, prefix + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{prefix}{key}:")
            for row in value:
                lines.append(f"{prefix}  {row}")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return "\n".join(lines) + ("\n" if not prefix else "")


# ---------------------------------------------------------------------------
# scan

def parse_range(spec: str, minimum_count: int = 1):
    try:
        lo_s, hi_s, count_s = spec.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise ModelError(f"range must be min:max:count, got {spec!r}") from exc
    # the samples are lo + k * (hi - lo) / (count - 1): every term must be finite
    if not math.isfinite(hi - lo):
        raise ModelError(f"range bounds and their span must be finite, got {spec!r}")
    if count < minimum_count:
        raise ModelError(f"range count must be >= {minimum_count}, got {count}")
    if count == 1:
        if lo != hi:
            raise ModelError("a single-sample range needs min == max")
    elif not lo < hi:
        raise ModelError(f"range needs min < max, got {spec!r}")
    return lo, hi, count


def cmd_scan(args) -> int:
    omega_axis = parse_range(args.omega, minimum_count=2)
    eps_axis = parse_range(args.eps, minimum_count=2)
    grid = scan.scan_region(omega_axis, eps_axis, args.beta, args.method,
                            tolerance=args.tolerance)
    _write_output(_scan_csv(grid), args.output)
    return EXIT_OK


def _scan_csv(grid: scan.ScanGrid) -> str:
    """The scan CSV, each grid row (one eps, every omega) one ``%`` template.

    A row's template holds its eps and every cell's omega, beta and method,
    a ``%s`` slot for each verdict and a ``%.12g`` slot for each margin,
    which prints as :func:`format_float` at 12 digits does.  A margin whose
    every row is bitwise the row above it is formatted once per omega
    column, into the template: an exact-pc margin_det depends on omega and
    beta only.  A NaN margin, which %.12g prints as nan, takes a ``%s``
    slot in its row's template and the argument "NaN".
    """
    omegas = [format_float(x, 12) for x in grid.omega_samples.tolist()]
    n = len(omegas)
    head = f",{format_float(grid.beta, 12)},{grid.method},%s,"
    slots, slotted = [], []
    for j, m in enumerate((grid.margin_trace, grid.margin_det)):
        # bitwise: 0.0 and -0.0 print differently
        if m[1:].tobytes() == m[:-1].tobytes():
            slots.append([format_float(x, 12) for x in m[0].tolist()])
        else:
            slots.append(["%.12g"] * n)
            slotted.append((j, m))

    def template(slots):
        """A row's template split at its eps strings, from each margin's
        per-column text or slot."""
        cells = [f"{head}{t},{d}\n" for t, d in zip(*slots)]
        return [omegas[0] + ","] + [c + o + "," for c, o in zip(cells, omegas[1:])] + cells[-1:]

    shared = template(slots)
    stride = 1 + len(slotted)
    lines = ["omega,eps,beta,method,verdict,margin_trace,margin_det\n"]
    for eps, verdicts, *rows in zip(grid.eps_samples.tolist(), grid.verdicts,
                                    *(m for _, m in slotted)):
        values = [row.tolist() for row in rows]
        fragments = shared
        # a NaN makes the row's sum NaN; so does inf - inf, for which the
        # rebuilt template is the shared one
        if math.isnan(sum(map(sum, values))):
            row_slots = [list(s) for s in slots]
            for (j, _), vals in zip(slotted, values):
                for io, x in enumerate(vals):
                    if math.isnan(x):
                        row_slots[j][io], vals[io] = "%s", "NaN"
            fragments = template(row_slots)
        # per cell its verdict, then its value of each slotted margin
        args = [None] * (stride * n)
        args[::stride] = verdicts.tolist()
        for k, vals in enumerate(values, 1):
            args[k::stride] = vals
        lines.append(format_float(eps, 12).join(fragments) % tuple(args))
    return "".join(lines)


# ---------------------------------------------------------------------------
# boundary / compare

def cmd_boundary(args) -> int:
    omega_range = parse_range(args.omega)
    curve = scan.trace_boundary(omega_range, args.beta, args.branch, args.method,
                                tol=args.tol)
    lines = ["omega,eps,branch,method"]
    for omega, eps in curve.points:
        lines.append(",".join((
            format_float(omega, 12),
            format_float(eps, 12),
            curve.branch,
            curve.method,
        )))
    _write_output("\n".join(lines) + "\n", args.output)
    total = omega_range[2]
    if curve.omitted:
        print(f"boundary: omitted {curve.omitted} of {total} samples", file=sys.stderr)
    if curve.omitted > 0.1 * total:
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_compare(args) -> int:
    omega_range = parse_range(args.omega)
    table = scan.compare_boundaries(omega_range, args.beta, tol=args.tol)
    lines = ["omega,branch,eps_exact,eps_order2,eps_order4,err2,err4"]

    def cell(x):
        return "" if x is None else format_float(x, 12)

    failures = 0
    for row in table.rows:
        if row.eps_exact is None:
            failures += 1
        lines.append(",".join((
            format_float(row.omega, 12),
            row.branch,
            cell(row.eps_exact),
            cell(row.eps_order2),
            cell(row.eps_order4),
            cell(row.err2),
            cell(row.err4),
        )))
    _write_output("\n".join(lines) + "\n", args.output)
    if failures:
        print(f"compare: {failures} of {len(table.rows)} samples lack an exact root",
              file=sys.stderr)
    if failures > 0.1 * len(table.rows):
        return EXIT_PARTIAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="floquet-avg",
        description="Averaged monodromy approximations and stability boundaries "
                    "for linear periodic ODE systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", help="write the document here instead of stdout")

    p_an = sub.add_parser("analyze", help="full report for one parameter point")
    p_an.add_argument("--model", default=pendulum.MODEL_NAME)
    p_an.add_argument("--model-file", help="JSON file with a custom graded model")
    p_an.add_argument("--omega", type=float)
    p_an.add_argument("--eps", type=float)
    p_an.add_argument("--beta", type=float)
    p_an.add_argument("--order", type=int, default=4)
    p_an.add_argument("--format", choices=("json", "text"), default="json")
    p_an.add_argument("--tolerance", type=float, default=stability.DEFAULT_TOLERANCE)
    p_an.add_argument("--rk-steps", type=int, default=RK_STEPS_DEFAULT)
    add_common(p_an)

    p_sc = sub.add_parser("scan", help="stability verdict grid as CSV")
    p_sc.add_argument("--omega", required=True, help="min:max:count")
    p_sc.add_argument("--eps", required=True, help="min:max:count")
    p_sc.add_argument("--beta", type=float, default=0.0)
    p_sc.add_argument("--method", default="exact-pc",
                      help="exact-pc, exact-rk, or order1..order6")
    p_sc.add_argument("--tolerance", type=float, default=stability.DEFAULT_TOLERANCE)
    add_common(p_sc)

    p_bd = sub.add_parser("boundary", help="one stability-boundary curve as CSV")
    p_bd.add_argument("--omega", required=True, help="min:max:count")
    p_bd.add_argument("--beta", type=float, default=0.0)
    p_bd.add_argument("--branch", choices=("p", "n"), required=True)
    p_bd.add_argument("--method", default="exact",
                      choices=("exact", "exact-pc", "order2", "order4"))
    p_bd.add_argument("--tol", type=float, default=1e-10)
    add_common(p_bd)

    p_cp = sub.add_parser("compare", help="exact vs approximate boundary table as CSV")
    p_cp.add_argument("--omega", required=True, help="min:max:count")
    p_cp.add_argument("--beta", type=float, default=0.0)
    p_cp.add_argument("--tol", type=float, default=1e-10)
    add_common(p_cp)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a rebound cmd_* (a tracer's wrapper) is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except NumericRangeError as exc:
        print(f"floquet-avg: numeric range error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OverflowError:
        # a Python float operation (pow, math.exp) left the float range; its own
        # message is an errno tuple or "math range error"
        print("floquet-avg: numeric range error: a floating-point result left the float range",
              file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        # a range too large to allocate, e.g. --omega 0:1:1e14 samples
        print(f"floquet-avg: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ModelError as exc:
        print(f"floquet-avg: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloquetError as exc:
        print(f"floquet-avg: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
