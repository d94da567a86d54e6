"""Output checks that do not reuse the code under test.

Every reference here is built from scipy, numpy or the paper's closed
forms; nothing imports floquet_avg.  ``check(cmd, stdout)`` returns a list
of problems, empty when the output is correct.

* scan exact-pc: a seeded subsample of cells is recomputed as products of
  ``scipy.linalg.expm``; every ``margin_det`` is compared with the closed
  form 1 - exp(-2 pi beta omega).
* scan orderK: verdicts against the closed-form order-2/order-4 boundary
  curves on cells clearly inside or outside the first stability domain,
  order-2 traces against the paper's F1/F2 formulas, and every
  ``margin_det`` against the graded truncation of exp(-2 pi beta omega).
* compare/boundary: each exact root must bracket a sign change of the
  scipy-based margin within ``tol``; the order-2 and order-4 columns must
  equal the closed forms.
* analyze: the JSON parses and carries the documented keys; the Liouville
  residual |det F_rk - exp(integral tr J)|, the PC-vs-RK gap and the gap
  to an independent reference (expm products, or scipy's DOP853 for
  models with polynomial pieces) are small.
"""

import csv
import io
import json
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

PI = math.pi
TOLERANCE = 1e-9  # the CLI's default verdict band
VERDICTS = ("stable", "marginal", "unstable")

# cells per scan recomputed with expm, and the share of the domain edges
# treated as unclear when verdicts are checked against closed-form curves
EXACT_SAMPLE = 4
CLEAR_REL = 0.05
# tolerances, set from the output precision (12 significant digits in CSV)
CSV_REL = 1e-10
ROOT_SLACK = 1e-12
LIOUVILLE_REL = 1e-7
RK_GAP_REL = 1e-6
ORACLE_REL = 1e-10
# tr A_j vanishes for j >= 3 only up to roundoff in the averaging recursion,
# which reaches 2.5e-10 at order 6 on the workload ranges
RECURSION_ABS = 1e-8


# ---------------------------------------------------------------------------
# closed forms from the paper

def pendulum_pc(omega, eps, beta):
    """Exact monodromy exp(pi J-) exp(pi J+) from scipy's expm."""
    w2, d = omega * omega, -beta * omega
    j_plus = np.array([[0.0, 1.0], [w2 + eps, d]])
    j_minus = np.array([[0.0, 1.0], [w2 - eps, d]])
    return expm(PI * j_minus) @ expm(PI * j_plus)


def margin_ref(omega, eps, beta):
    """exp(-2 pi beta omega) + 1 - |tr F| with F from scipy's expm."""
    f = pendulum_pc(omega, eps, beta)
    return math.exp(-2.0 * PI * beta * omega) + 1.0 - abs(f[0, 0] + f[1, 1])


def det_truncated(omega, beta, order):
    """exp(-2 pi beta omega) expanded to grade ``order`` (beta omega is grade 2)."""
    x = 2.0 * PI * beta * omega
    return sum((-x) ** m / math.factorial(m) for m in range(order // 2 + 1))


def trace_order2(omega, eps, beta):
    """tr(F0 + F1 + F2) from the paper's F1/F2 formulas."""
    return 2.0 - PI ** 4 * eps ** 2 / 3.0 + 4.0 * PI ** 2 * omega ** 2 - 2.0 * PI * beta * omega


def order2_roots(omega, beta):
    """First-domain boundaries (eps_p, eps_n) of the order-2 closed form."""
    scale = 2.0 * math.sqrt(3.0) / PI
    rad = omega ** 2 - beta * omega / PI + 1.0 / PI ** 2
    return scale * omega, (scale * math.sqrt(rad) if rad >= 0.0 else None)


def order4_roots(omega, beta, branch):
    """Positive eps roots of the order-4 quartic a x^2 + b x + c, x = eps^2."""
    a = PI ** 8 / 1260.0
    b = -(PI ** 4 / 3.0) * (1.0 + 4.0 * PI ** 2 * omega ** 2 / 15.0 - PI * beta * omega)
    w = PI ** 2 * omega ** 2 * (1.0 + PI ** 2 * omega ** 2 / 3.0 - beta * omega * PI)
    c = 4.0 * w if branch == "p" else 4.0 * (1.0 - beta * PI * omega + w + PI ** 2 * omega ** 2 * beta ** 2)
    xs = np.roots([a, b, c])
    return sorted(math.sqrt(x.real) for x in xs if abs(x.imag) < 1e-12 and x.real > 0.0)


def expected_verdict(omega, eps, beta, order):
    """Order-2/4 verdict read off the closed-form curves, or None if unclear.

    Below the p-curve the point is unstable, between the p- and n-curves it
    lies in the first domain (stable, or marginal when undamped since then
    det F = 1), and between the n-curve and the next boundary it is unstable.
    """
    if order == 2:
        p, n = order2_roots(omega, beta)
        edges = [p, n] if n is not None else [p]
        nxt = math.inf
    else:
        ps, ns = order4_roots(omega, beta, "p"), order4_roots(omega, beta, "n")
        if not ps or not ns:
            return None
        edges = sorted(ps + ns)
        p, n = ps[0], ns[0]
        later = [r for r in edges if r > n]
        nxt = later[0] if later else math.inf
    if n is None or not p < n or any(p < r < n for r in edges):
        return None
    if any(abs(eps - r) <= CLEAR_REL * r for r in edges):
        return None
    if eps < p or n < eps < nxt:
        return "unstable"
    if p < eps < n:
        return "stable" if beta > 0.0 else "marginal"
    return None


def verdict_of(margin_trace, margin_det, tol=TOLERANCE):
    """The verdict rule: stable inside the band, unstable beyond it."""
    if margin_trace > tol and margin_det > tol:
        return "stable"
    if margin_trace < -tol or margin_det < -tol:
        return "unstable"
    return "marginal"


def _near(x, ref, rel, absolute=0.0):
    return abs(x - ref) <= rel * max(1.0, abs(ref)) + absolute


def _csv_rows(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[0] if rows else None!r} != {header!r}")
    return rows[1:]


def _float(cell):
    return None if cell == "" else float(cell)


# ---------------------------------------------------------------------------
# scan

SCAN_HEADER = ["omega", "eps", "beta", "method", "verdict", "margin_trace", "margin_det"]


def check_scan(meta, text, rng) -> list:
    problems = []
    omegas = np.linspace(*meta["omega"][:2], meta["omega"][2])
    epss = np.linspace(*meta["eps"][:2], meta["eps"][2])
    beta, method = meta["beta"], meta["method"]
    rows = _csv_rows(text, SCAN_HEADER)
    if len(rows) != omegas.size * epss.size:
        return [f"{len(rows)} rows, expected {omegas.size * epss.size}"]
    cells = []
    for k, row in enumerate(rows):
        ie, io_ = divmod(k, omegas.size)
        omega, eps = omegas[io_], epss[ie]
        if not (_near(float(row[0]), omega, CSV_REL) and _near(float(row[1]), eps, CSV_REL)
                and _near(float(row[2]), beta, CSV_REL) and row[3] == method):
            problems.append(f"row {k}: coordinates {row[:4]} != ({omega}, {eps}, {beta}, {method})")
            continue
        verdict, m_tr, m_det = row[4], float(row[5]), float(row[6])
        if verdict not in VERDICTS or not (math.isfinite(m_tr) and math.isfinite(m_det)):
            problems.append(f"row {k}: bad verdict or margin {row[4:]}")
            continue
        if verdict != verdict_of(m_tr, m_det):
            problems.append(f"row {k}: verdict {verdict} contradicts margins {m_tr}, {m_det}")
        cells.append((k, omega, eps, verdict, m_tr, m_det))
    if method == "exact-pc":
        problems += _check_exact_cells(cells, beta, rng)
    else:
        problems += _check_order_cells(cells, beta, int(method[len("order"):]))
    return problems


def _check_exact_cells(cells, beta, rng):
    problems = []
    for k, omega, eps, verdict, m_tr, m_det in cells:
        closed = 1.0 - math.exp(-2.0 * PI * beta * omega)
        if not _near(m_det, closed, 1e-9):
            problems.append(f"row {k}: margin_det {m_det} != 1 - exp(-2 pi beta omega) = {closed}")
    picks = rng.choice(len(cells), size=min(EXACT_SAMPLE, len(cells)), replace=False)
    for idx in sorted(picks):
        k, omega, eps, verdict, m_tr, m_det = cells[idx]
        f = pendulum_pc(omega, eps, beta)
        tr, det = f[0, 0] + f[1, 1], np.linalg.det(f)
        ref_tr, ref_det = det + 1.0 - abs(tr), 1.0 - det
        size = 1.0 + np.abs(f).sum()
        if abs(m_tr - ref_tr) > 1e-9 * size or abs(m_det - ref_det) > 1e-9 * size:
            problems.append(f"row {k}: margins {m_tr}, {m_det} != expm reference {ref_tr}, {ref_det}")
        # roundoff in det F grows like ||F||^2; skip verdicts that close to the band edge
        clear = all(abs(abs(m) - TOLERANCE) > 1e-14 * size ** 2 for m in (ref_tr, ref_det))
        if clear and verdict != verdict_of(ref_tr, ref_det):
            problems.append(f"row {k}: verdict {verdict} != expm reference {verdict_of(ref_tr, ref_det)}")
    return problems


def _check_order_cells(cells, beta, order):
    problems = []
    for k, omega, eps, verdict, m_tr, m_det in cells:
        det = det_truncated(omega, beta, order)
        if not _near(m_det, 1.0 - det, CSV_REL, RECURSION_ABS):
            problems.append(f"row {k}: margin_det {m_det} != truncated closed form {1.0 - det}")
        if order == 2:
            tr = trace_order2(omega, eps, beta)
            if not _near(2.0 - m_det - m_tr, abs(tr), CSV_REL):
                problems.append(f"row {k}: |trace| {2.0 - m_det - m_tr} != F1/F2 formula {abs(tr)}")
        if order in (2, 4):
            want = expected_verdict(omega, eps, beta, order)
            if want is not None and verdict != want:
                problems.append(f"row {k}: order{order} verdict {verdict} != closed form {want}")
    return problems


# ---------------------------------------------------------------------------
# compare / boundary

COMPARE_HEADER = ["omega", "branch", "eps_exact", "eps_order2", "eps_order4", "err2", "err4"]
BOUNDARY_HEADER = ["omega", "eps", "branch", "method"]


def _check_root(omega, eps, beta, tol):
    """The exact margin must change sign across [eps - tol, eps + tol]."""
    lo = margin_ref(omega, eps - tol - ROOT_SLACK * eps, beta)
    hi = margin_ref(omega, eps + tol + ROOT_SLACK * eps, beta)
    return (lo <= 0.0) != (hi <= 0.0) or lo == 0.0 or hi == 0.0


def check_compare(meta, text, rng) -> list:
    problems = []
    omegas = np.linspace(*meta["omega"][:2], meta["omega"][2])
    beta, tol = meta["beta"], meta["tol"]
    rows = _csv_rows(text, COMPARE_HEADER)
    expect = [(b, w) for b in ("p", "n") for w in omegas]
    if len(rows) != len(expect):
        return [f"{len(rows)} rows, expected {len(expect)}"]
    for k, (row, (branch, omega)) in enumerate(zip(rows, expect)):
        w, exact, o2, o4, err2, err4 = (_float(row[i]) for i in (0, 2, 3, 4, 5, 6))
        if not _near(w, omega, CSV_REL) or row[1] != branch:
            problems.append(f"row {k}: {row[:2]} != ({omega}, {branch})")
            continue
        if exact is None or o2 is None or o4 is None:
            problems.append(f"row {k}: missing sample {row}")
            continue
        if not _check_root(omega, exact, beta, tol):
            problems.append(f"row {k}: eps_exact {exact} brackets no sign change of the margin")
        p2, n2 = order2_roots(omega, beta)
        want2 = p2 if branch == "p" else n2
        if not _near(o2, want2, CSV_REL):
            problems.append(f"row {k}: eps_order2 {o2} != closed form {want2}")
        want4 = order4_roots(omega, beta, branch)[0]
        if not _near(o4, want4, CSV_REL):
            problems.append(f"row {k}: eps_order4 {o4} != quartic root {want4}")
        if not (_near(err2, abs(o2 - exact), 0.0, 1e-11) and _near(err4, abs(o4 - exact), 0.0, 1e-11)):
            problems.append(f"row {k}: err columns {err2}, {err4} disagree with the eps columns")
    return problems


def check_boundary(meta, text, rng) -> list:
    problems = []
    omegas = np.linspace(*meta["omega"][:2], meta["omega"][2])
    beta, tol, branch = meta["beta"], meta["tol"], meta["branch"]
    rows = _csv_rows(text, BOUNDARY_HEADER)
    if len(rows) != omegas.size:
        return [f"{len(rows)} rows, expected {omegas.size}"]
    for k, (row, omega) in enumerate(zip(rows, omegas)):
        if not _near(float(row[0]), omega, CSV_REL) or row[2:] != [branch, "exact"]:
            problems.append(f"row {k}: {row} does not match omega {omega}, branch {branch}")
            continue
        if not _check_root(omega, float(row[1]), beta, tol):
            problems.append(f"row {k}: eps {row[1]} brackets no sign change of the margin")
    return problems


# ---------------------------------------------------------------------------
# analyze

ANALYZE_KEYS = ("model", "params", "order", "period", "tolerance", "A", "closure_residuals",
                "trace_by_order", "det_series", "det_series_truncated", "F0", "F_approx",
                "approx", "exact_pc", "exact_rk")
REPORT_KEYS = ("trace", "determinant", "multipliers", "margin_trace", "margin_det", "verdict", "F")


def model_pieces(model):
    """Total J(t) per piece: (t0, t1, coeffs (n, n, d+1)) over the union of breaks."""
    period = model["period"]
    j0 = np.asarray(model["J0"], dtype=float)
    breaks = sorted({0.0, period} | {p["t_start"] for t in model["terms"] for p in t["pieces"]})
    out = []
    for t0, t1 in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (t0 + t1)
        coeffs = np.zeros(j0.shape + (1,))
        coeffs[:, :, 0] = j0
        for term in model["terms"]:
            piece = next(p for p in term["pieces"] if p["t_start"] <= mid < p["t_end"])
            for i, row in enumerate(piece["entries"]):
                for j, c in enumerate(row):
                    if len(c) > coeffs.shape[2]:
                        coeffs = np.concatenate(
                            [coeffs, np.zeros(j0.shape + (len(c) - coeffs.shape[2],))], axis=2)
                    coeffs[i, j, : len(c)] += c
        out.append((t0, t1, coeffs))
    return out


def _reference_monodromy(model):
    """expm products for constant pieces, DOP853 at tight tolerance otherwise."""
    pieces = model_pieces(model)
    n = pieces[0][2].shape[0]
    if all(c.shape[2] == 1 for _, _, c in pieces):
        f = np.eye(n)
        for t0, t1, c in pieces:
            f = expm((t1 - t0) * c[:, :, 0]) @ f
        return f
    x = np.eye(n)
    for t0, t1, c in pieces:
        def rhs(t, y, c=c):
            jt = np.polynomial.polynomial.polyval(t, c.transpose(2, 0, 1))
            return (jt @ y.reshape(n, n)).ravel()
        sol = solve_ivp(rhs, (t0, t1), x.ravel(), method="DOP853", rtol=1e-12, atol=1e-14)
        x = sol.y[:, -1].reshape(n, n)
    return x


def _liouville(model):
    """exp of the integral of tr J over one period, from the polynomial pieces."""
    total = 0.0
    for t0, t1, c in model_pieces(model):
        tr = np.trace(c, axis1=0, axis2=1)
        anti = np.polynomial.polynomial.polyint(tr)
        total += np.polynomial.polynomial.polyval(t1, anti) - np.polynomial.polynomial.polyval(t0, anti)
    return math.exp(total)


def pendulum_model(omega, eps, beta):
    """The built-in pendulum in model-file form, for the shared references."""
    def piece(t0, t1, e):
        return {"t_start": t0, "t_end": t1,
                "entries": [[[0.0], [0.0]], [[omega ** 2 + e], [-beta * omega]]]}
    return {"period": 2.0 * PI, "J0": [[0.0, 1.0], [0.0, 0.0]],
            "terms": [{"order": 1, "pieces": [piece(0.0, PI, eps), piece(PI, 2.0 * PI, -eps)]}]}


def check_analyze(meta, text) -> list:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    missing = [k for k in ANALYZE_KEYS if k not in doc]
    if missing:
        return [f"missing keys {missing}"]
    problems = []
    order = meta["order"]
    if doc["order"] != order or len(doc["A"]) != order or len(doc["trace_by_order"]) != order + 1:
        problems.append(f"order {doc['order']} with {len(doc['A'])} A matrices")
    builtin = meta["model"] is None
    model = pendulum_model(meta["omega"], meta["eps"], meta["beta"]) if builtin else meta["model"]
    dim = len(model["J0"])
    liouville = _liouville(model)
    f_rk = np.asarray(doc["exact_rk"]["F"], dtype=float)
    scale = 1.0 + np.abs(f_rk).sum(axis=0).max()
    if abs(np.linalg.det(f_rk) - liouville) > LIOUVILLE_REL * liouville:
        problems.append(f"Liouville residual {abs(np.linalg.det(f_rk) - liouville):.3g}")
    reference = _reference_monodromy(model)
    if np.abs(f_rk - reference).sum(axis=0).max() > RK_GAP_REL * scale:
        problems.append("exact_rk F disagrees with the independent reference")
    if doc["exact_pc"] is not None:
        f_pc = np.asarray(doc["exact_pc"]["F"], dtype=float)
        if np.abs(f_pc - f_rk).sum(axis=0).max() > RK_GAP_REL * scale:
            problems.append("PC-vs-RK gap too large")
        if np.abs(f_pc - reference).sum(axis=0).max() > ORACLE_REL * scale:
            problems.append("exact_pc F disagrees with the expm reference")
    elif all(c.shape[2] == 1 for _, _, c in model_pieces(model)):
        problems.append("exact_pc missing for a piecewise-constant model")
    if dim == 2:
        problems += _check_reports_2x2(doc, liouville)
    if builtin:
        problems += _check_pendulum_doc(doc, meta)
    return problems


def _check_reports_2x2(doc, liouville):
    problems = []
    for name in ("exact_pc", "exact_rk"):
        rep = doc[name]
        if rep is None:
            continue
        if any(k not in rep for k in REPORT_KEYS):
            problems.append(f"{name} lacks report keys")
            continue
        f = np.asarray(rep["F"], dtype=float)
        if not _near(rep["determinant"], np.linalg.det(f), 1e-12):
            problems.append(f"{name} determinant {rep['determinant']} != det F")
        if abs(rep["determinant"] - liouville) > LIOUVILLE_REL * liouville:
            problems.append(f"{name} determinant {rep['determinant']} != exp(int tr J) {liouville}")
        if not _near(rep["trace"], f[0, 0] + f[1, 1], 1e-12):
            problems.append(f"{name} trace != tr F")
        if rep["verdict"] != verdict_of(rep["margin_trace"], rep["margin_det"], doc["tolerance"]):
            problems.append(f"{name} verdict contradicts its margins")
    approx = doc["approx"]
    if approx is None or approx["verdict"] != verdict_of(
            approx["margin_trace"], approx["margin_det"], doc["tolerance"]):
        problems.append("approx verdict missing or contradicts its margins")
    return problems


def _check_pendulum_doc(doc, meta):
    omega, eps, beta, order = meta["omega"], meta["eps"], meta["beta"], meta["order"]
    problems = []
    traces = doc["trace_by_order"]
    if not (_near(traces[0], 2.0, 1e-12) and abs(traces[1]) < 1e-12):
        problems.append(f"tr F0, tr F1 = {traces[:2]}, expected 2, 0")
    if order >= 2 and not _near(sum(traces[:3]), trace_order2(omega, eps, beta), 1e-11):
        problems.append(f"order-2 trace {sum(traces[:3])} != F1/F2 formula")
    if not _near(doc["det_series_truncated"], det_truncated(omega, beta, order), 0.0, RECURSION_ABS):
        problems.append("det_series_truncated != graded closed form")
    det_full = math.exp(-2.0 * PI * beta * omega) if order >= 2 else 1.0
    if not _near(doc["det_series"], det_full, 0.0, RECURSION_ABS):
        problems.append("det_series != exp(-2 pi beta omega)")
    return problems


CHECKS = {"scan": check_scan, "compare": check_compare, "boundary": check_boundary}


def check(cmd, text, rng) -> list:
    """Problems with one command's stdout; an empty list means correct."""
    try:
        if cmd.kind == "analyze":
            return check_analyze(cmd.meta, text)
        return CHECKS[cmd.kind](cmd.meta, text, rng)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
