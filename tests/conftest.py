from types import SimpleNamespace

import numpy as np
import pytest

from floquet_avg import averaging, pendulum, stability


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def pendulum_pipeline(omega, eps, beta, order):
    """series split -> standard form -> recursion -> coefficient table ->
    order-N approximation, on the point's own series as a model file's
    analyze runs them: its table, evaluated with its one monomial at 1.

    Returns (params, system, x0, avg, mono).  Each order of the table holds
    the one monomial, so its coefficients are the point's own F_j, and
    ``mono`` holds F0, those F_j, the partial sums F0 + F_1 + ... + F_k
    added as :func:`stability.monodromy_approximation` adds them, and that
    approximation's traces (tr F0, tr F_1, ..., then tr F) and det F.
    """
    params = pendulum.PendulumParams(omega, eps, beta)
    system = pendulum.series_split(params)
    table = averaging.system_table(system, order)
    values = np.ones((len(table.A), 1))
    avg = averaging.evaluate_table(table, values).cell(0)
    _, traces, det = stability.monodromy_approximation(table, values)
    sums = [table.F0]
    for f in table.F:
        sums.append(sums[-1] + f)
    mono = SimpleNamespace(F0=table.F0, F_terms=tuple(table.F), partial_sums=tuple(sums),
                           trace_by_order=tuple(float(t[0]) for t in traces[:-1]),
                           trace=float(traces[-1][0]), det=float(det[0]))
    return params, system, table.x0, avg, mono


def pendulum_expansion(omegas, epss, beta, order):
    """The pendulum's averaged expansion at K points, as an order-K scan evaluates it."""
    values = pendulum.monomial_values(omegas, epss, beta, order)
    return averaging.evaluate_table(pendulum.averaged_table(order), values)


@pytest.fixture(autouse=True)
def fresh_coefficient_tables():
    """Every test builds the pendulum's coefficient tables it uses, so a test
    that monkeypatches the averaging layer cannot pass by reading a table
    built earlier, and a table built under its patch does not outlive it."""
    pendulum._TABLES.clear()
    yield
    pendulum._TABLES.clear()
